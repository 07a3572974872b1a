"""Command-line front end: compute measures, verify identities, sweep ranges.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .config import check_tol, show_config
from .identities import SUITES, reports_to_jsonl, run_suite, summary_table, sweep_reports
from .measures import _FAMILIES, MeasureValue, _double, family_measures, mahler_jensen_2var, mahler_torus
from .poly import FamilySpec, make_family, poly_from_text
from .quadrature import NumericalError, _isolate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_CSV_HEADER = "lambda,lhs,rhs,residual,error_estimate,status"


def _fmt(v) -> str:
    return repr(float(v))


@functools.cache  # one parser per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahler",
        description="Mahler measures of the Q/P/R families and their identity checks.",
    )
    parser.add_argument("--show-config", action="store_true", help="print budgets/tolerances as JSON and exit")
    sub = parser.add_subparsers(dest="command")

    pc = sub.add_parser("compute", help="compute one measure value")
    pc.add_argument("--family", choices=("q", "p", "r", "qk"), help="family to evaluate")
    pc.add_argument("--lambda", dest="lam", type=float, help="family parameter")
    pc.add_argument("--k", type=int, help="integer parameter for family qk")
    pc.add_argument("--poly-file", help="evaluate a serialized polynomial instead of a family")
    pc.add_argument("--method", choices=("fast", "jensen", "torus"), default="fast")
    pc.add_argument("--tol", type=float, help="target error estimate")
    pc.add_argument("--format", choices=("table", "json"), default="table")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=("all", *SUITES))
    pv.add_argument("--lambda", dest="lams", type=float, nargs="+", help="parameter list override")
    pv.add_argument("--k", dest="ks", type=int, nargs="+", help="k list override (boyd)")
    pv.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                    help="tolerance override, e.g. --tol main=1e-6 (repeatable)")
    pv.add_argument("--out", help="write JSON lines here instead of stdout")

    ps = sub.add_parser("sweep", help="sweep a family or identity over a parameter range")
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=("q", "p", "r"))
    group.add_argument("--identity", choices=[name for suite in SUITES.values() for name in suite.sweeps])
    ps.add_argument("--from", dest="start", type=float, required=True)
    ps.add_argument("--to", dest="stop", type=float, required=True)
    ps.add_argument("--step", type=float, required=True)
    ps.add_argument("--out", help="write CSV here instead of stdout")
    ps.add_argument("--jobs", type=int, default=1,
                    help="accepted and ignored: the rows of a sweep are evaluated together as one batch")
    return parser


def _parse_tol_overrides(pairs) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value or name not in SUITES:
            raise ValueError(f"bad tolerance override {pair!r}")
        out[name] = check_tol(f"--tol {name}", value, zero=True)
    return out


def cmd_compute(args) -> int:
    if args.tol is not None:
        check_tol("--tol", args.tol)
    method, fast = args.method, False
    if args.poly_file:
        with open(args.poly_file, "r", encoding="utf-8") as fh:
            poly = poly_from_text(fh.read())
        label, parameter = os.path.basename(args.poly_file), None
        if poly.nvars != 2:
            method = "torus"
    else:
        if not args.family:
            raise ValueError("need --family or --poly-file")
        label = args.family
        option, value = ("--k", args.k) if label == "qk" else ("--lambda", args.lam)
        if value is None:
            raise ValueError(f"family {label} needs {option}")
        parameter = _double(value, f"the parameter of family {label}")
        fast = method == "fast" and label != "qk"
        if not fast:
            poly = make_family(FamilySpec({**_FAMILIES, "qk": "Q"}[label], value))
    if fast:
        mv = family_measures(label, [parameter], tol=args.tol)[0]
    else:
        mv = (mahler_torus if method == "torus" else mahler_jensen_2var)(poly, tol=args.tol)
    payload = {
        "family": label,
        "parameter": parameter,
        "value": mv.value,
        "method": mv.method,
        "error_estimate": mv.error_estimate,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        par = "" if parameter is None else f" parameter={_fmt(parameter)}"
        print(f"{label}{par} value={_fmt(mv.value)} method={mv.method} error_estimate={_fmt(mv.error_estimate)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    tolerances = _parse_tol_overrides(args.tol)
    reports = run_suite(args.suite, lambdas=args.lams, ks=args.ks, tolerances=tolerances)
    jsonl = reports_to_jsonl(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(jsonl)
    else:
        sys.stdout.write(jsonl)
    sys.stderr.write(summary_table(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    # a NaN or infinite bound or step never lets the grid pass --to
    for option, value in (("--from", start), ("--to", stop), ("--step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    # a step below the float spacing would leave the grid where it is, row after row
    reach = max(abs(start), abs(stop))
    if reach + step == reach:
        raise ValueError(f"--step {step!r} does not move the grid at {reach!r}")
    # the slack forgives rounding in start + k * step, but never a whole step past --to
    slack = min(1e-12 * max(1.0, abs(stop)), 0.5 * step)
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + slack:
            break
        values.append(v)
        k += 1
    return values


def _csv_row(lam: float, result) -> str:
    """One sweep row: a family value, an identity report, or the error its row failed with."""
    if isinstance(result, Exception):
        reason = str(result).replace(",", ";").replace("\n", " ")
        return f"{_fmt(lam)},,,,,error:{reason}"
    if isinstance(result, MeasureValue):
        return f"{_fmt(lam)},{_fmt(result.value)},,,{_fmt(result.error_estimate)},ok"
    status = "ok" if result.passed else "fail"
    return (
        f"{_fmt(lam)},{_fmt(result.lhs)},{_fmt(result.rhs)},{_fmt(result.residual)},"
        f"{_fmt(result.error_estimate)},{status}"
    )


def cmd_sweep(args) -> int:
    values = _sweep_values(args.start, args.stop, args.step)
    if not values:
        raise ValueError("empty sweep range")
    if args.family:
        results = _isolate(lambda lams: family_measures(args.family, lams), values)
    else:
        results = sweep_reports(args.identity, values)
    rows = [_csv_row(lam, result) for lam, result in zip(values, results)]
    text = _CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    succeeded = sum(1 for r in rows if ",error:" not in r)
    return EXIT_OK if succeeded >= 1 else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.show_config:
            suites = {name: {"params": suite.params, "tolerance": suite.tolerance} for name, suite in SUITES.items()}
            print(show_config(verify=suites))
            return EXIT_OK
        if args.command is None:
            parser.error("a command is required (compute, verify or sweep)")
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_sweep(args)
    except (NumericalError, OverflowError) as exc:  # OverflowError: a float operation past double range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
