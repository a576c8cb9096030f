"""dirlap benchmark entry point.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload advection --seed 0 --seconds 30 --trace 0

Workloads (inputs in ``workloads.py``; why each exists is in BENCHMARK.json):
``advection``, ``lattice-sym``, ``oscillator`` and ``hypotheses``.

Every solve happens in a fresh interpreter started by this script, one
process at a time, with BLAS and OpenMP threads capped at the number of
usable cores.  A timed run starts one untimed set-up-only process (it warms
the bytecode and file caches), then repeats the solve, each in its own
process, while the next one is expected to end within ``--seconds``, and at
least once.  Each solve checks its outputs against the oracles of the
acceptance suite; a solve that raises or misses a tolerance counts as failed
but still reports its timings.

With ``--trace 0`` the last line reports the end-to-end metrics as medians
over the run's solves: ``wall_ref`` and ``cpu_ref`` are the solve's wall and
CPU time divided by ``ref_s``, the time of a fixed pure-Python loop run in
the same process just before and after the solve (see ``child.py``), and
``setup_s`` and ``peak_rss_mb`` are as measured.  The raw seconds are printed
per solve.  The division is there because on a shared 2-core cloud VM
(Intel Xeon, Python 3.11) everything, this loop included, ran up to a
quarter slower for a minute or more at a time: over ten 30 s runs per
workload, the quartiles of the median solve time lay 12-19 % apart and those
of the ratio 5-13 %.
With ``--trace 1`` the script makes one traced solve instead and reports its
per-layer metrics (see ``spans.py``); its spans are kept in
``.perfbench-out/``.

The program is run from ``src/`` of the checkout; without it the script exits
with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict) -> dict:
    """Run one child to completion and return its JSON result."""
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(args)}: no result within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit status {proc.returncode}")
    return json.loads(lines[-1])


def machine(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **versions}


def describe(label: str, result: dict) -> str:
    checks = ", ".join(f"{c['name']}={c['value']}{'' if c['ok'] else ' FAIL ' + c['limit']}"
                       for c in result["checks"])
    status = "ok" if result["ok"] else "FAILED"
    line = (f"{label}: {status} wall_s={result['wall_s']:.4f} cpu_s={result['cpu_s']:.4f} "
            f"ref_s={result['ref_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f} setup_s={result['setup_s']:.4f}")
    return line + (f" [{checks}]" if checks else "")


def spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} over {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def timed_runs(base: list[str], seconds: float, env: dict) -> list[dict]:
    spawn(base + ["--setup-only"], env)  # warm-up: bytecode and file cache
    runs = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        runs.append(spawn(base, env))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return runs


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "dirlap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'dirlap'} is missing")

    env = child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    spans = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.npz"
    try:
        if args.trace:
            spans.parent.mkdir(exist_ok=True)
            runs = [spawn(base + ["--spans", str(spans)], env)]
        else:
            runs = timed_runs(base, args.seconds, env)
    except ChildFailed as exc:
        sys.exit(f"perfbench: {exc}")

    print("machine: " + json.dumps(machine(runs[0]["versions"])))
    for i, r in enumerate(runs):
        print(describe(("traced solve " if args.trace else "solve ") + str(i), r))
    if args.trace:
        from spans import layer_metrics
        values = layer_metrics(spans)
        for name, value in values.items():
            print(f"  {name:34s} {value}")
        print("  waiting time: none recorded; dirlap runs in one process "
              "with no queue or lock")
    else:
        walls = [r["wall_s"] for r in runs]
        setups = [r["setup_s"] for r in runs]
        wall_ref = [r["wall_s"] / r["ref_s"] for r in runs]
        print(f"wall_s {spread(walls)}; wall_ref {spread(wall_ref)}; setup_s {spread(setups)}")
        values = {"wall_ref": statistics.median(wall_ref),
                  "setup_s": statistics.median(setups),
                  "cpu_ref": statistics.median(r["cpu_s"] / r["ref_s"] for r in runs),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    failed = sum(not r["ok"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
