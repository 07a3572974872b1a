#!/usr/bin/env python3
"""Benchmark of the mahler command line, with oracle-checked outputs.

    python3 perfbench/run.py --workload {verify-all,sweep,generic-poly,all} \
        --seed N --seconds S --trace {0,1}

Drives ``mahler.cli.main`` in-process in a closed loop on the sources under
``src/`` of this checkout: one untimed warm-up pass, then timed passes of the
workload's command list until ``--seconds`` have passed (at least
``MIN_PASSES``).  Every pass is checked: exit codes, parsed JSON lines and
CSV, stdout bytes identical to the first pass, and every output that has an
offline reference (oracle.py) held to its reported error estimate (see
``SLACK``).  References are computed outside the timed region.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics of the
median traced pass are reported (spans.py), with the tracing overhead.  The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's provenance.
Result records and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
DIGITS_CAP = 15.0
# An item fails when an output is further than max(error_estimate, tolerance)
# + SLACK * max(1, |ref|) from its reference; an output further than
# error_estimate + SLACK * max(1, |ref|) is an estimate miss: it is counted in
# estimate_held_share, not as a failure.
SLACK = 1e-12

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "oracle_digits_min": "digits",
    "converged_share": "ratio",
    "estimate_held_share": "ratio",
    "passed_share": "ratio",
}


def _import_cli():
    if not (SRC / "mahler" / "cli.py").is_file():
        sys.exit(f"error: no mahler sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mahler.cli

    if Path(mahler.cli.__file__).resolve().parent != SRC / "mahler":
        sys.exit(f"error: imported mahler from {mahler.cli.__file__}, not from {SRC}")
    return mahler.cli


def setup_once():
    """Wall time of a fresh interpreter that imports mahler.cli and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mahler.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - t0


def run_pass(cli, commands):
    """One pass over the command list: (wall, cpu, [(exit code, stdout)])."""
    gc.collect()
    wall = cpu = 0.0
    outs = []
    for cmd in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = cli.main(cmd.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc(file=sys.__stderr__)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        outs.append((rc, out.getvalue()))
    return wall, cpu, outs


class Checker:
    """Checks every pass and keeps the failure counts of the run."""

    def __init__(self, commands, refs):
        self.commands = commands
        self.refs = refs
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.items = []  # (item, ok, held) of the last pass

    def _problem(self, text):
        if text not in self.problems:
            self.problems.append(text)

    def check(self, outs):
        texts = [text for _, text in outs]
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            self._problem("stdout differs between passes")
        self.items = []
        for cmd, (rc, text) in zip(self.commands, outs):
            self.attempted += cmd.n_items
            if rc != 0:
                self._problem(f"{' '.join(cmd.argv)}: exit code {rc}")
                self.failed += cmd.n_items
                continue
            try:
                items = cmd.parse(text, self.refs)
            except (ValueError, KeyError, TypeError) as exc:
                self._problem(f"{' '.join(cmd.argv)}: unreadable output ({exc})")
                self.failed += cmd.n_items
                continue
            for item in items:
                errs = [(abs(v - ref), SLACK * max(1.0, abs(ref))) for v, ref in item.outputs]
                ok = item.passed and all(e <= max(item.error_estimate, item.tolerance) + s for e, s in errs)
                held = all(e <= item.error_estimate + s for e, s in errs)
                self.failed += not ok
                self.items.append((item, ok, held))

    def quality(self):
        """oracle_digits_min, converged_share and estimate_held_share of the last pass."""
        n = len(self.items)
        digits = [_digits(v, ref) for item, _, _ in self.items for v, ref in item.outputs]
        unconverged = sum(item.error_estimate > item.tolerance for item, _, _ in self.items)
        held = sum(h for _, _, h in self.items)
        return {
            "oracle_digits_min": min(digits) if digits else 0.0,
            "converged_share": 1.0 - unconverged / n if n else 0.0,
            "estimate_held_share": held / n if n else 0.0,
        }

    def summary(self):
        return {
            "problems": self.problems,
            "failed_items": [i.label for i, ok, _ in self.items if not ok],
            "estimate_misses": [i.label for i, _, held in self.items if not held],
            "unconverged_items": [
                f"{i.label} err={i.error_estimate!r} tol={i.tolerance!r}"
                for i, _, _ in self.items if i.error_estimate > i.tolerance
            ],
            "worst_outputs": sorted((_digits(v, ref), i.label) for i, _, _ in self.items for v, ref in i.outputs)[:5],
        }


def _digits(value, ref):
    err = abs(value - ref) / max(1.0, abs(ref))
    return DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))


def timed_run(cli, commands, checker, seconds):
    """Timed passes, each followed by one set-up sample, so that both sample
    the whole run rather than one stretch of it."""
    walls, cpus, setups = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, cpu, outs = run_pass(cli, commands)
        checker.check(outs)
        walls.append(wall)
        cpus.append(cpu)
        setups.append(setup_once())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [round(w, 4) for w in walls],
        **checker.quality(),
    }


def traced_run(cli, commands, checker, seconds, dump_path):
    tracer = spans.Tracer()
    plain, traced = [], []  # traced: (wall, pass id)
    start = time.perf_counter()
    while min(len(plain), len(traced)) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, _, outs = run_pass(cli, commands)
        checker.check(outs)
        plain.append(wall)
        tracer.pass_id += 1
        tracer.install()
        try:
            wall, _, outs = run_pass(cli, commands)
        finally:
            tracer.uninstall()
        checker.check(outs)
        traced.append((wall, tracer.pass_id))
    wall, pass_id = statistics.median_low(traced)
    metrics = spans.layer_metrics(tracer.spans, pass_id)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(plain)
    metrics["passes"] = [round(w, 4) for w, _ in traced]
    tracer.dump(dump_path)
    return metrics


def provenance(args):
    import mpmath
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = res.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def run_workload(args):
    cli = _import_cli()
    OUT.mkdir(exist_ok=True)
    commands = workloads.build(args.workload, args.seed, OUT / "inputs" / f"{args.workload}-seed{args.seed}")
    checker = Checker(commands, workloads.References())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checker.check(run_pass(cli, commands)[2])  # warm-up; also fills the reference cache
    if args.trace:
        measured = traced_run(cli, commands, checker, args.seconds, OUT / f"spans-{tag}.jsonl")
        units = {k: ("count" if not k.endswith("_s") else "s") for k in measured}
        units["roots.us_per_call"] = "us"
    else:
        measured = timed_run(cli, commands, checker, args.seconds)
        measured["passed_share"] = 1.0 - checker.failed / checker.attempted
        units = E2E_UNITS
    passes = measured.pop("passes")
    metrics = {name: {"value": measured[name], "unit": units[name]} for name in sorted(measured)}
    result = {
        "correct": not checker.problems and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    prov = dict(provenance(args), passes=passes)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "checks": checker.summary()}, fh, indent=1)
    for problem in checker.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:>12}  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; metric names gain a workload prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {res.returncode}")
        one = json.loads(lines[-1])
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    if args.trace:
        idle = [layer for layer in spans.LAYERS
                if not any(merged["metrics"].get(f"{w}.{layer}.calls", {}).get("value") for w in workloads.WORKLOADS)]
        if idle:
            print(f"problem: no workload calls layer(s) {', '.join(idle)}", file=sys.stderr)
            merged["correct"] = False
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
