#!/usr/bin/env python3
"""The repository benchmark: one command, every metric by name.

    python3 perf/run.py                       # all five workloads
    python3 perf/run.py --workload embed_bulk --seed 3
    python3 perf/run.py --trace 1             # per-layer metrics
    python3 perf/run.py --runs 10 --out perf/out/a.json   # for compare.py
    python3 perf/run.py --quick               # seconds-long smoke run

The driver's form is ``--workload W --seed N --seconds S --trace 0|1``;
the last line printed is then the run's result as one JSON object.
Names, units and bounds come from ``BENCHMARK.json``; ``README.md`` in
this directory says what each one means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent


def parse_args(argv, manifest):
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"],
                        help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run that gives the per-layer "
                        "metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes: a smoke test, not a measurement")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", default=None,
                        help="write every run's record to this JSON file "
                        "(default perf/out/last.json)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outcomes in expected.json "
                        "(default seed only)")
    return parser.parse_args(argv), names


def environment(seed, nproc):
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "commit": commit,
        "seed": seed,
    }


def make_clock(cpus):
    """Pin this process and start the core monitors; raw wall time
    where the platform does not let us."""
    from harness import clock

    try:
        clock.pin(0, cpus["bench"])
        core_clock = clock.CoreClock(cpus)
        core_clock.start()
        return core_clock
    except (AttributeError, OSError) as error:
        print(f"note: cores not pinned ({error}); times are raw",
              file=sys.stderr)
        return clock.WallClock()


def run_once(name, seed, args, cpus, nproc):
    from harness import checks, layers
    from harness.common import Context
    from harness.embed_workloads import measure
    from harness.serve_workloads import serve_durable, serve_window

    served = {"serve_window": serve_window, "serve_durable": serve_durable}
    core_clock = make_clock(cpus)
    ctx = Context(seed, args.seconds, core_clock, args.quick)
    began = time.perf_counter()
    try:
        if args.trace:
            result = layers.trace(name, ctx)
        elif name in served:
            result = served[name](ctx)
        else:
            result = measure(name, ctx)
        checks.check(name, ctx, result, traced=bool(args.trace),
                     record=args.record)
    finally:
        ctx.cleanup()
        core_clock.abort()
    return {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in result.metrics.items()
        },
        "samples": result.counts,
        "problems": result.problems,
        "notes": {k: v for k, v in result.notes.items()
                  if not isinstance(v, (list, dict))},
        "clock": {role: core_clock.summary(role)
                  for role in ("bench", "server")},
        "wall_s": time.perf_counter() - began,
        "env": environment(seed, nproc),
    }


def show(record, declared):
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['trace'] else 'untraced'}  "
          f"{record['wall_s']:.1f} s wall  "
          f"failed {record['failed']}/{record['attempted']}  "
          f"python {record['env']['python']}  "
          f"nproc {record['env']['nproc']}  "
          f"commit {record['env']['commit'][:12]}")
    for entry in declared:
        metric = record["metrics"][entry["name"]]
        bound = (f"bound {entry['bound']:.2f}" if "bound" in entry
                 else "")
        count = record["samples"].get(entry["name"])
        samples = f"n={count}" if count is not None else ""
        print(f"  {entry['name']:34s} {metric['value']:14.4f} "
              f"{metric['unit']:6s} {bound:10s} {samples}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None):
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]        # every run measures the defaults
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: no src/repro beside perf/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(PERF), str(ROOT / "src")]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    args, names = parse_args(argv, manifest)
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    out = Path(args.out) if args.out else PERF / "out" / "last.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.workload and args.runs == 1:
        record = measure_here(args, declared)
        records = None if record is None else [record]
    else:
        records = measure_in_children(args, names, out)
    if records is None:
        return 3
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
        handle.write("\n")
    return 0 if all(r["correct"] for r in records) else 1


def measure_here(args, declared):
    """One run of one workload in this process: what the driver asks
    for.  Returns the run's record, None when the workload and
    ``BENCHMARK.json`` disagree on the metric names."""
    from harness import clock

    nproc = len(os.sched_getaffinity(0))
    cpus = clock.plan_cpus()        # before this process pins itself
    record = run_once(args.workload, args.seed, args, cpus, nproc)
    differing = {e["name"] for e in declared} ^ set(record["metrics"])
    if differing:
        print(f"perf/run.py: {args.workload} and BENCHMARK.json disagree "
              f"on {sorted(differing)}", file=sys.stderr)
        return None
    show(record, declared)
    print(json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }), flush=True)
    return record


def measure_in_children(args, names, out):
    """Several runs: each in a process of its own, as the driver makes
    them, so that one run's memory and caches are not another's."""
    records = []
    for name in [args.workload] if args.workload else names:
        for run in range(args.runs):
            part = out.with_name(f"{out.stem}.part.json")
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed + run),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(part),
            ]
            command += ["--quick"] if args.quick else []
            command += ["--record"] if args.record else []
            code = subprocess.run(command, check=False).returncode
            if code not in (0, 1):
                return None
            with open(part, encoding="utf-8") as handle:
                records += json.load(handle)
            part.unlink()
    return records


if __name__ == "__main__":
    sys.exit(main())
