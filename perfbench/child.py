"""One workload run in a fresh interpreter; prints one JSON line of results.

Started by ``run.py`` with ``--launched``, the parent's ``time.monotonic()``
just before the start of this process (the clock is system-wide on Linux), so
``setup_s`` covers interpreter start, ``import dirlap`` and building the
inputs.  With ``--setup-only`` the process stops there.  With ``--spans PATH``
the layer entry points are traced and the spans written to PATH.

Around the solve the process times ``reference_loop`` once before and once
after; ``ref_s`` is the sum.  The loop is fixed benchmark code, so the ratio
of the solve's time to ``ref_s`` measures the program's cost in units that
move much less than seconds when a shared host speeds up or slows down.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF_ITERATIONS = 1_500_000


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes on the host right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += (i * i) & 7
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    # Only the checkout's own sources count as the program under test.
    sys.path.insert(0, str(ROOT / "src"))
    import dirlap
    if Path(dirlap.__file__).resolve().parent != ROOT / "src" / "dirlap":
        sys.exit(f"child: imported dirlap from {dirlap.__file__}, not from src/")
    from workloads import WORKLOADS

    tracer = None
    wrap = lambda _name, fn: fn  # noqa: E731
    if args.spans:
        from spans import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
        wrap = tracer.wrap
    run = WORKLOADS[args.workload](args.seed, wrap)

    t0 = time.monotonic()
    setup_s = t0 - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    ref_s = reference_loop()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    ok, checks = False, []
    try:
        checks = run()
        ok = all(c["ok"] for c in checks)
    except Exception:  # a program failure is a failed run, not a crash
        traceback.print_exc()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    ref_s += reference_loop()
    if tracer is not None:
        tracer.save(args.spans)

    import numpy
    import scipy
    print(json.dumps({
        "ok": ok,
        "checks": checks,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))


if __name__ == "__main__":
    main()
