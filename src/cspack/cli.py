"""Command-line front end.

Subcommands: gen-cnf, reduce, solve, verify, roundtrip, audit, bench.
Exit codes: 0 = done / verdicts agree, 1 = usage or I/O error,
2 = a failed check (a correctness bug), 3 = inconclusive (solver budget
exhausted). Integer arguments follow the file grammars' rule, cnf.read_int,
so "+2" and "1_0" are usage errors.
"""

from __future__ import annotations

import argparse
import codecs
import sys
from functools import partial

from . import bench, cnf, packing, reduction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED_CHECK = 2
EXIT_INCONCLUSIVE = 3

# reduce warns when m/n exceeds this: the reduction is meant for sparse formulas.
DENSITY_WARNING = 8.0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep 2 reserved for failed checks.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    # Each parser, a subcommand's included, refuses the arguments it does not
    # know, so the usage line printed names the subcommand they were given to.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_instance(path: str) -> packing.SetPackingInstance:
    """Parse an instance file as it is read, packing._READ_CHARS bytes at a time, never whole.

    It is decoded as UTF-8 on the way; a decode error names the bad byte's position in the file.
    """
    with open(path, "rb") as fh:
        blocks = iter(partial(fh.read, packing._READ_CHARS), b"")
        try:
            return packing.parse_instance(codecs.iterdecode(blocks, "utf-8"))
        except UnicodeDecodeError as exc:
            # exc.object is the bytes the decoder held back, then the block just read.
            position = fh.tell() - len(exc.object) + exc.start
            raise ValueError(
                f"'utf-8' codec can't decode byte 0x{exc.object[exc.start]:02x} in position {position}: {exc.reason}"
            ) from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_gen_cnf(args: argparse.Namespace) -> int:
    formula = bench.make_formula(args.n, args.m, args.seed, args.planted)
    text = cnf.to_dimacs(formula)
    if args.output:
        _write(args.output, text)
        print(f"wrote {formula.num_vars} vars, {formula.num_clauses} clauses to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    formula = cnf.parse_dimacs(_read(args.input))
    if formula.num_clauses > DENSITY_WARNING * formula.num_vars:
        print(
            f"warning: density m/n = {formula.num_clauses / formula.num_vars:.2f} "
            f"exceeds bound {DENSITY_WARNING:g}",
            file=sys.stderr,
        )
    instance, witness = reduction.reduce_to_packing(formula, args.r, dull_width=args.pad)
    widths = " ".join(map(str, witness.iss_widths))
    print(
        f"universe {instance.universe_size} = grid {witness.grid_size} "
        f"+ iss {witness.iss_total} (widths {widths}) + dull {witness.dull_width}"
    )
    group_sizes = " ".join(str(len(c)) for c in witness.codes)
    print(f"sets {instance.set_count} = core {witness.core_count} (per group: {group_sizes}) "
          f"+ padding {witness.pad_count}")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.writelines(packing.instance_blocks(instance))
    _write(args.output + ".wit", reduction.witness_to_text(witness))
    print(f"wrote instance to {args.output}, witness to {args.output}.wit")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _read_instance(args.instance)
    result = packing.solve_exact(instance, budget=args.budget)
    print(f"verdict {result.verdict} nodes {result.nodes}")
    if result.verdict == "yes":
        print("packing " + " ".join(map(str, result.packing)))
        return EXIT_OK
    if result.verdict == "no":
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _read_instance(args.instance)
    result = packing.verify_packing(instance, args.indices)
    print("valid" if result.ok else f"invalid: {result.reason}")
    return EXIT_OK if result.ok else EXIT_FAILED_CHECK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    formula = cnf.parse_dimacs(_read(args.input))
    row = bench.run_roundtrip_row(formula, args.r, dull_width=args.pad, budget=args.budget)
    print(f"packing verdict: {row.verdict} (nodes {row.solver_nodes})")
    print(f"oracle verdict:  {row.oracle_verdict}")
    if row.verdict == "budget":
        print("INCONCLUSIVE")
        return EXIT_INCONCLUSIVE
    print("AGREE")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    instance = _read_instance(args.instance)
    witness = reduction.witness_from_text(_read(args.witness)) if args.witness else None
    if witness is not None:
        try:
            reduction.check_witness(instance, witness)
        except ValueError as exc:
            raise RuntimeError(exc) from None
    report = packing.audit_compactness(instance, witness)
    print(f"universe {report.universe_size} sets {report.set_count} r {report.r}")
    print(f"log2(sets) {report.log2_set_count:.6f}")
    print(f"ratio universe / (r^3 * log2(sets)) = {report.ratio:.6f}")
    if report.grid_width is not None:
        print(f"breakdown: grid {report.grid_width} iss {report.iss_width} dull {report.dull_width}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = bench.load_sweep_config(args.config)
    rows = bench.run_sweep(config)
    csv_text = bench.rows_to_csv(rows)
    if args.output:
        _write(args.output, csv_text)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(csv_text)
    if any(row.verdict == "budget" for row in rows):
        print("some rows are INCONCLUSIVE (budget exhausted)", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cspack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cnf", help="generate a random 3-CNF formula in DIMACS")
    p.add_argument("--n", type=cnf.read_int, required=True)
    p.add_argument("--m", type=cnf.read_int, required=True)
    p.add_argument("--seed", type=cnf.read_int, default=0)
    p.add_argument("--planted", action="store_true",
                   help="plant a seed-derived satisfying assignment")
    p.add_argument("--output", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_gen_cnf)

    p = sub.add_parser("reduce", help="reduce a DIMACS CNF file to a set packing instance")
    p.add_argument("input", help="DIMACS CNF path")
    p.add_argument("--r", type=cnf.read_int, required=True, help="number of clause groups / packing parameter")
    p.add_argument("--pad", type=cnf.read_int, metavar="D", help="dull padding width, 2^D padding sets; 0 turns padding off")
    p.add_argument("--output", required=True, help="instance output path; the witness goes to OUTPUT.wit")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="decide an instance file exactly")
    p.add_argument("instance")
    p.add_argument("--budget", type=cnf.read_int, default=packing.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify that indices form an r-packing")
    p.add_argument("instance")
    p.add_argument("indices", type=cnf.read_int, nargs="+")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roundtrip", help="reduce, solve, lift, and cross-check the SAT oracle")
    p.add_argument("input", help="DIMACS CNF path")
    p.add_argument("--r", type=cnf.read_int, required=True)
    p.add_argument("--pad", type=cnf.read_int, metavar="D", help="dull padding width, 2^D padding sets; 0 turns padding off")
    p.add_argument("--budget", type=cnf.read_int, default=packing.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("audit", help="report the compactness ratio of an instance")
    p.add_argument("instance")
    p.add_argument("--witness", help="witness path: check that it builds the instance, then break the universe down")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bench", help="run a sweep from a JSON config and write CSV")
    p.add_argument("config", help="sweep config JSON path")
    p.add_argument("--output", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"cspack: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # Raised only for correctness bugs: a failed check of a round trip or a witness, or a contradicted verdict.
        print(f"cspack: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
