"""Measurement loops: the untraced end-to-end run and the traced per-layer run.

Both are closed loops with one client: instances run back to back in one
thread, and each starts when the previous one's checks are done. Only
`pipeline.run_pipeline` is timed; the checks and the digest are not.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import pipeline
import tracing
from workloads import Workload

# A run stops starting instances once this many times its nominal length
# has passed, so that its length stays bounded when the machine runs slower
# than when the workload rates were measured. Such a run reports fewer
# instances than planned, and its digest covers only those.
DEADLINE_FACTOR = 1.3


@dataclass
class Outcome:
    seconds: float
    products: pipeline.Products | None
    failures: list[str]
    record: dict


def run_one(formula, workload: Workload, span=pipeline.no_span) -> Outcome:
    """Run and check one instance. An exception counts as a failed check."""
    start = time.perf_counter()
    seconds = None
    try:
        with span("instance"):
            products = pipeline.run_pipeline(formula, workload.r, span)
        seconds = time.perf_counter() - start
        failures = pipeline.check(products)
        return Outcome(seconds, products, failures, pipeline.record(products, failures))
    except Exception as exc:  # the run goes on; the failure is counted and reported
        if seconds is None:
            seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
        return Outcome(seconds, None, [message], {"error": message})


def _digest_update(digest, record: dict) -> None:
    digest.update(json.dumps(record, sort_keys=True).encode())
    digest.update(b"\n")


def run_untraced(workload: Workload, formulas: list, seconds: float) -> dict:
    """End-to-end measurements of one pass over the formulas."""
    digest = hashlib.sha256()
    times: list[float] = []
    failed = decided = 0
    messages: list[str] = []
    begin = time.perf_counter()
    for formula in formulas:
        if time.perf_counter() - begin > DEADLINE_FACTOR * seconds:
            break
        outcome = run_one(formula, workload)
        times.append(outcome.seconds)
        if outcome.failures:
            failed += 1
            messages.extend(outcome.failures)
        if outcome.products is not None and outcome.products.result.verdict in ("yes", "no"):
            decided += 1
        _digest_update(digest, outcome.record)
        del outcome
    attempted = len(times)
    return {
        "attempted": attempted,
        "failed": failed,
        "decided": decided,
        "messages": messages,
        "digest": digest.hexdigest(),
        "wall_s": sum(times),
        "instance_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _run_traced_one(tracer: tracing.Tracer, formula, workload: Workload) -> Outcome:
    with tracing.instrumented(tracer):
        return run_one(formula, workload, tracer.span)


def run_traced(workload: Workload, formulas: list, seconds: float) -> dict:
    """Per-layer measurements over the first half of the formulas.

    Each instance runs once untraced and once traced, the order alternating,
    so that the tracing overhead is measured on the same inputs. The traced
    run must reproduce the untraced outputs exactly.
    """
    tracer = tracing.Tracer()
    digest = hashlib.sha256()
    failed = 0
    messages: list[str] = []
    audit_ratios: list[float] = []
    traced_s = untraced_s = 0.0
    begin = time.perf_counter()
    attempted = 0
    for i, formula in enumerate(formulas[: math.ceil(len(formulas) / 2)]):
        if time.perf_counter() - begin > DEADLINE_FACTOR * seconds:
            break
        attempted += 1
        tracer.instance = i
        if i % 2:
            spanned = _run_traced_one(tracer, formula, workload)
            plain = run_one(formula, workload)
        else:
            plain = run_one(formula, workload)
            spanned = _run_traced_one(tracer, formula, workload)
        untraced_s += plain.seconds
        traced_s += spanned.seconds
        failures = plain.failures + spanned.failures
        if spanned.record != plain.record:
            failures.append("traced run changed the outputs")
        if failures:
            failed += 1
            messages.extend(failures)
        if spanned.products is not None:
            tracing.count_products(tracer.counts, spanned.products)
            audit_ratios.append(spanned.products.report.ratio)
        _digest_update(digest, plain.record)
        del plain, spanned
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "digest": digest.hexdigest(),
        "metrics": tracing.layer_metrics(tracer, audit_ratios, traced_s, untraced_s),
    }
