"""The repository benchmark: one entry point for every workload.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run.py --workload hiseq-inproc --seed 1 --seconds 10 --trace 0

prints a detail line, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, untraced then traced, with a table of every metric
by name and unit and a results file under ``.bench_results/``::

    python3 perfbench/run.py [--seed N] [--seconds S]

Compare two results files (refused when their hosts had a different
number of usable cores)::

    python3 perfbench/run.py --compare OLD.json NEW.json

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# module level on purpose: spawned workers re-import this script as
# __mp_main__, and must find the program and trace themselves too
sys.path.insert(0, SRC)

import spans  # noqa: E402

spans.install_from_env()


def _spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale_name: str) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    import host
    import workloads

    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    scale = {"full": workloads.FULL, "tiny": workloads.TINY}[scale_name]
    ctx = workloads.Context(ROOT, seed, float(seconds), trace, scale)
    ctx.work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(ctx.work, exist_ok=True)
    started = time.perf_counter()
    try:
        result = workloads.WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))  # only if no other run is using it
        except OSError:
            pass
        _stop_resource_tracker()
    values = result.layers if trace else result.e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "scale": scale.name,
        "run_s": time.perf_counter() - started,
        "host": host.host_block(),
        "missing_metrics": missing,
        **result.detail,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": bool(result.correct and not missing),
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                    if m["name"] in values
                },
            }
        )
    )
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts on first spawn.

    It would otherwise outlive the run by the moment it takes to notice
    this process exiting; a run waits for every process it started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; a table and a results file."""
    import host

    spec = _spec()
    record = {"host": host.host_block(), "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        plain = _child(name, seed, seconds, False)
        traced = _child(name, seed, seconds, True)
        record["workloads"][name] = {"end_to_end": plain, "per_layer": traced}
        r = plain["result"]
        ok &= r["correct"] and traced["result"]["correct"] and r["failed"] == 0
        extra = plain["detail"]
        print(f"\n== {name}  correct={r['correct']}  attempted={r['attempted']} "
              f"failed={r['failed']}  failed_frac={r['failed'] / r['attempted']:.4f}")
        for m, v in r["metrics"].items():
            print(f"  {m:<34} {v['value']:>14.6g} {v['unit']}")
        for key, unit in (("p99_ms", "ms"), ("max_rate_rps", "req/s"), ("failed_frac", "fraction")):
            if key in extra:
                print(f"  {key:<34} {extra[key]:>14.6g} {unit}  (reported, not gated)")
        print(f"  -- traced (correct={traced['result']['correct']})")
        for m, v in traced["result"]["metrics"].items():
            print(f"  {m:<34} {v['value']:>14.6g} {v['unit']}")
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"results-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"\nresults: {path}")
    return 0 if ok else 1


def compare(old_path: str, new_path: str) -> int:
    """Per-workload end-to-end deltas against the benchmark's bounds."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    a, b = old["host"]["cores_available"], new["host"]["cores_available"]
    if a != b:
        print(f"refusing to compare: cores_available {a} vs {b}", file=sys.stderr)
        return 2
    worse = False
    for m in _spec()["end_to_end"]:
        for w in sorted(set(old["workloads"]) & set(new["workloads"])):
            x = old["workloads"][w]["end_to_end"]["result"]["metrics"][m["name"]]["value"]
            y = new["workloads"][w]["end_to_end"]["result"]["metrics"][m["name"]]["value"]
            change = (y - x) / x if x else 0.0
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse |= bad
            print(f"{w:<14} {m['name']:<22} {x:>12.5g} -> {y:<12.5g} {change:+.1%}"
                  f"{'  WORSE than bound' if bad else ''}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(SPEC) or not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: run from a checkout holding BENCHMARK.json and src/", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    raise SystemExit(main())
