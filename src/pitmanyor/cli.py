"""Command-line interface.

Subcommands: `eppf` (evaluate the partition law), `sample` (draw partitions),
`verify` (run a verification suite), `growth` (block-count growth experiment).

One JSON document (or CSV table with --csv) goes to standard output; it is
strict JSON, so a value with no number, such as the exponent of a one-point
growth grid, prints as null, never NaN.  Human-readable progress goes to the
error stream.  Exit codes: 0 success, 1 verification failure, 2 usage error.
All randomness is seeded and the seed defaults to a fixed constant, so
identical invocations are byte-identical.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

from .constants import DEFAULT_SEED, TV_TRIALS
from .core import PYParams
from .eppf import eppf_log_prob
from .harness import (
    SAMPLERS,
    format_partition,
    growth_experiment,
    parse_partition,
    run_monte_carlo,
    sample_partitions,
)
from .verify import SUITES, run_suite

__all__ = ["cli_main", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitmanyor",
        description="Two-parameter random partitions: evaluate, sample, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eppf", help="evaluate the partition law at one partition")
    pe.add_argument("--alpha", type=float, required=True)
    pe.add_argument("--d", type=float, required=True)
    pe.add_argument("--partition", required=True, help="blocks like '1,3|2'")
    pe.add_argument("--csv", action="store_true", help="CSV output")
    pe.add_argument("--out", help="write output atomically to this path")

    ps = sub.add_parser("sample", help="draw partitions of [n]")
    ps.add_argument("--method", choices=tuple(SAMPLERS), required=True)
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--d", type=float, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--trials", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ps.add_argument("--tabulate", action="store_true",
                    help="aggregate into a frequency table instead of listing draws")
    ps.add_argument("--csv", action="store_true")
    ps.add_argument("--out", help="write output atomically to this path")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    pv.add_argument("--alpha", type=float)
    pv.add_argument("--d", type=float)
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--trials", type=int, default=TV_TRIALS,
                    help="Monte Carlo trials for the statistical checks")
    pv.add_argument("--out", help="write the JSON report atomically to this path")

    pg = sub.add_parser("growth", help="mean block count across sample sizes")
    pg.add_argument("--alpha", type=float, required=True)
    pg.add_argument("--d", type=float, required=True)
    pg.add_argument("--ngrid", required=True, help="comma-separated sizes, e.g. 100,1000,10000")
    pg.add_argument("--trials", type=int, default=200)
    pg.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pg.add_argument("--csv", action="store_true")
    pg.add_argument("--out", help="write output atomically to this path")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pitmanyor-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            umask = os.umask(0)  # mkstemp made the file 0600; give it open()'s mode
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.replace(tmp, out_path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_eppf(args) -> tuple:
    params = PYParams(args.alpha, args.d)
    partition = parse_partition(args.partition)
    log_prob = eppf_log_prob(params, partition)
    doc = {
        "command": "eppf",
        "alpha": params.alpha,
        "d": params.d,
        "n": partition.n,
        "partition": format_partition(partition),
        "log_prob": log_prob,
        "prob": math.exp(log_prob),
    }
    header = ("alpha", "d", "n", "partition", "log_prob", "prob")
    return doc, header, [tuple(doc[key] for key in header)]


def _cmd_sample(args) -> tuple:
    params = PYParams(args.alpha, args.d)
    doc = {
        "command": "sample",
        "method": args.method,
        "alpha": params.alpha,
        "d": params.d,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
    }
    if args.tabulate:
        print(f"sampling {args.trials} partitions of [{args.n}] via {args.method} ...",
              file=sys.stderr)
        emp = run_monte_carlo(params, args.n, args.trials, args.method, args.seed)
        table = {format_partition(p): c for p, c in emp.counts.items()}
        doc["counts"] = table
        doc["freq"] = {key: count / args.trials for key, count in table.items()}
        rows = [(key, count, doc["freq"][key]) for key, count in table.items()]
        return doc, ("partition", "count", "freq"), rows
    draws = sample_partitions(params, args.n, args.trials, args.method, args.seed)
    doc["partitions"] = [format_partition(p) for p in draws]
    return doc, ("partition",), [(key,) for key in doc["partitions"]]


def _cmd_verify(args) -> tuple:
    report = run_suite(
        args.suite, alpha=args.alpha, d=args.d, trials=args.trials, seed=args.seed
    )
    for record in report["checks"]:
        status = "PASS" if record["passed"] else "FAIL"
        print(f"[{status}] {record['name']}", file=sys.stderr)
    return report, None, None


def _cmd_growth(args) -> tuple:
    params = PYParams(args.alpha, args.d)
    try:
        grid = [int(tok) for tok in args.ngrid.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad --ngrid value {args.ngrid!r}") from None
    records, exponent = growth_experiment(params, grid, args.trials, args.seed)
    rows = [
        {"n": r.n, "mean_kn": r.mean_kn, "se": r.se, "trials": r.trials}
        for r in records
    ]
    doc = {
        "command": "growth",
        "alpha": params.alpha,
        "d": params.d,
        "trials": args.trials,
        "seed": args.seed,
        "records": rows,
        # a one-point grid fits no slope: JSON has no NaN, so it prints null
        "exponent": None if math.isnan(exponent) else exponent,
    }
    header = ("n", "mean_kn", "se", "trials")
    return doc, header, [tuple(row[key] for key in header) for row in rows]


# each handler returns its JSON document and, for --csv, a header and rows;
# cli_main renders and writes the one output
_HANDLERS = {
    "eppf": _cmd_eppf,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "growth": _cmd_growth,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("seed must be nonnegative")
        doc, header, rows = _HANDLERS[args.command](args)
        if getattr(args, "csv", False):
            # a partition's text holds commas, so such fields are quoted
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
            text = buffer.getvalue()
        else:
            text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        _emit(text, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only a verify report carries "passed"
    return 0 if doc.get("passed", True) else 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
