"""Self-test of the benchmark: every workload at tiny scale, traced and not.

    python3 perfbench/selftest.py          # check
    python3 perfbench/selftest.py --pin    # re-pin the default-seed input digests

Asserts for each workload and mode: the run is correct (output oracle,
pinned inputs, no leaked process or shared-memory block) with no
failed read, every metric ``BENCHMARK.json`` names is present with its
unit, and in the traced run ``trace.unattributed_s`` is at most 5% of
the traced wall time.  It also checks the full-scale default-seed
input digests (generation only, no index build).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _digests() -> dict:
    out: dict = {}
    for scale in (workloads.FULL, workloads.TINY):
        for name in workloads.WORKLOADS:
            ctx = workloads.Context(ROOT, workloads.DEFAULT_SEED, 0.0, False, scale)
            ctx.work = os.path.join(ROOT, ".bench_work", f"digest-{os.getpid()}")
            os.makedirs(ctx.work, exist_ok=True)
            try:
                out.setdefault(scale.name, {})[name] = workloads.input_digest(ctx, name)
            finally:
                shutil.rmtree(ctx.work, ignore_errors=True)
    return out


def _run(name: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", name, "--seed", str(workloads.DEFAULT_SEED),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and len(lines) >= 2, proc.stderr[-3000:]
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    digests = _digests()
    if "--pin" in argv:
        with open(workloads.DIGESTS, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"pinned {workloads.DIGESTS}")
        return 0
    with open(workloads.DIGESTS) as fh:
        pinned = json.load(fh)
    failures = []
    if digests != pinned:
        failures.append(f"input digests changed: {digests} != {pinned}")
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            detail, result = _run(w["name"], trace)
            tag = f"{w['name']} trace={trace}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: incorrect ({detail.get('problems')})")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append(f"{tag}: metric {m['name']} missing or wrong unit")
            if trace:
                v = {k: x["value"] for k, x in result["metrics"].items()}
                if v["trace.unattributed_s"] > 0.05 * v["trace.wall_s"]:
                    failures.append(
                        f"{tag}: unattributed {v['trace.unattributed_s']:.3f}s > 5% of "
                        f"{v['trace.wall_s']:.3f}s"
                    )
            print(f"{tag}: {'ok' if not failures else 'FAILED'}", flush=True)
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
