"""Spans for the traced run, kept in memory and reduced to per-layer metrics at the end.

Top-level spans come from `pipeline.run_pipeline`, which wraps each public
call. Work inside `reduce_to_packing` and `parse_instance` becomes child spans
by rebinding, for the traced run only, the names those functions look up in
their own modules (`instrumented`). A name a later version of the package no
longer uses is skipped, and its time stays in the parent's self time.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

from cspack import packing, reduction

import pipeline

# Span records: [name, start, end, parent index (-1 for none), instance id].
NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()


def _spanned(tracer: Tracer, name: str, fn, count):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        count(tracer.counts, result)
        return result

    return wrapper


def _count_enumeration(counts: Counter, group) -> None:
    counts["reduction.codes_scanned"] += 1 << len(group.domain)
    counts["reduction.codes_kept"] += group.count


def _count_tags(counts: Counter, family) -> None:
    counts["iss.tag_elements"] += family.count * family.subset_size


def _count_nothing(counts: Counter, result) -> None:
    pass


def count_products(counts: Counter, p) -> None:
    """Counts read off one operation's products (see pipeline.Products)."""
    counts["packing.instance_bytes"] += len(p.text)
    counts["reduction.witness_bytes"] += len(p.witness_text)
    counts["packing.sets"] += p.parsed.set_count
    counts["packing.universe"] += p.parsed.universe_size
    counts["packing.pad_sets"] += p.parsed_witness.pad_count
    # Each set line "s <k> <id_1> ... <id_k>" holds k + 1 spaces, the header 4.
    counts["packing.elements"] += p.text.count(" ") - 4 - p.parsed.set_count
    counts["packing.solve_nodes"] += p.result.nodes
    n = p.formula.num_vars
    counts["cnf.oracle_assignments"] += (pipeline.model_code(p.formula, p.model) + 1) if p.model is not None else 1 << n


CHILD_CALLS = (
    (reduction, "enumerate_group_assignments", "reduction.enumerate", _count_enumeration),
    (reduction, "build_iss", "iss.build", _count_tags),
    (reduction, "SetPackingInstance", "packing.validate", _count_nothing),
    (packing, "SetPackingInstance", "packing.validate", _count_nothing),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind the calls made inside reduce and parse to span-recording wrappers."""
    saved = []
    try:
        for module, attr, name, count in CHILD_CALLS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _spanned(tracer, name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metrics: name -> unit. Every "_s" metric is the self time of the
# spans of that name, summed over the run, except reduction.reduce_s, which
# is the whole reduce call; reduction.assemble_s is the reduce call's self time.
LAYER_UNITS = {
    "cnf.oracle_s": "s",
    "cnf.oracle_assignments": "count",
    "cnf.evaluate_s": "s",
    "iss.build_s": "s",
    "iss.tag_elements": "count",
    "reduction.reduce_s": "s",
    "reduction.enumerate_s": "s",
    "reduction.codes_scanned": "count",
    "reduction.codes_kept": "count",
    "reduction.enumerate_yield": "ratio",
    "reduction.assemble_s": "s",
    "reduction.witness_text_s": "s",
    "reduction.witness_bytes": "bytes",
    "reduction.lift_lower_s": "s",
    "packing.validate_s": "s",
    "packing.serialize_s": "s",
    "packing.parse_s": "s",
    "packing.instance_bytes": "bytes",
    "packing.sets": "count",
    "packing.pad_sets": "count",
    "packing.universe": "count",
    "packing.elements": "count",
    "packing.solve_s": "s",
    "packing.solve_nodes": "count",
    "packing.nodes_per_s": "1/s",
    "packing.verify_s": "s",
    "packing.audit_s": "s",
    "packing.audit_ratio": "ratio",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def self_times(spans: list[list]) -> tuple[Counter, Counter]:
    """(total, self) seconds per span name; self time excludes child spans."""
    total: Counter = Counter()
    child = [0.0] * len(spans)
    for rec in spans:
        duration = rec[END] - rec[START]
        total[rec[NAME]] += duration
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += duration
    own: Counter = Counter()
    for i, rec in enumerate(spans):
        own[rec[NAME]] += rec[END] - rec[START] - child[i]
    return total, own


def layer_metrics(tracer: Tracer, audit_ratios: list[float], traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced run, as {name: {"value", "unit"}}."""
    total, own = self_times(tracer.spans)
    c = tracer.counts
    values = {
        "cnf.oracle_s": own["cnf.oracle"],
        "cnf.oracle_assignments": c["cnf.oracle_assignments"],
        "cnf.evaluate_s": own["cnf.evaluate"],
        "iss.build_s": own["iss.build"],
        "iss.tag_elements": c["iss.tag_elements"],
        "reduction.reduce_s": total["reduction.reduce"],
        "reduction.enumerate_s": own["reduction.enumerate"],
        "reduction.codes_scanned": c["reduction.codes_scanned"],
        "reduction.codes_kept": c["reduction.codes_kept"],
        "reduction.enumerate_yield": c["reduction.codes_kept"] / max(c["reduction.codes_scanned"], 1),
        "reduction.assemble_s": own["reduction.reduce"],
        "reduction.witness_text_s": own["reduction.witness_text"],
        "reduction.witness_bytes": c["reduction.witness_bytes"],
        "reduction.lift_lower_s": own["reduction.lift_lower"],
        "packing.validate_s": own["packing.validate"],
        "packing.serialize_s": own["packing.serialize"],
        "packing.parse_s": own["packing.parse"],
        "packing.instance_bytes": c["packing.instance_bytes"],
        "packing.sets": c["packing.sets"],
        "packing.pad_sets": c["packing.pad_sets"],
        "packing.universe": c["packing.universe"],
        "packing.elements": c["packing.elements"],
        "packing.solve_s": own["packing.solve"],
        "packing.solve_nodes": c["packing.solve_nodes"],
        "packing.nodes_per_s": c["packing.solve_nodes"] / own["packing.solve"] if own["packing.solve"] else 0.0,
        "packing.verify_s": own["packing.verify"],
        "packing.audit_s": own["packing.audit"],
        "packing.audit_ratio": statistics.median(audit_ratios) if audit_ratios else 0.0,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        "trace.unattributed_share": own["instance"] / total["instance"] if total["instance"] else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
