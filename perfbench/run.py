"""Run one spinphase benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oneshot-c --seed 1 --seconds 30 --trace 0

Run it from the root of a spinphase checkout; it imports the package from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics of a separate traced run.  Lines before it are a
readable report: the environment, every metric with its unit, and the
figures that cannot be JSON metrics (``failed_frac`` and the tail latency).
Scratch files live under ``.perfbench_work/`` in the checkout and are
removed on exit, also when the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# BLAS reads these once, when numpy first loads it; CLI children inherit them.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _print_report(spec, args, env, result, units):
    layer = bool(args.trace)
    print(f"workload {spec.name}: method={spec.kind} d={spec.d} n={spec.n} s={spec.s} "
          f"states=random,squeezed,coherent,ghz,dicke seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in result.metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    log = result.log
    print(f"  {'failed_frac':<30} {log.failed / log.attempted:>14.6g} frac "
          f"({log.failed} of {log.attempted} operations)")
    if not layer:
        tail = result.details["tail"]
        if tail is None:
            print(f"  {'latency_tail_s':<30} {'omitted':>14} "
                  f"({len(log.latencies)} verified operations, fewer than 20)")
        else:
            print(f"  {'latency_tail_s':<30} {tail[1]:>14.6g} s "
                  f"(p{tail[0]:.4g} of {len(log.latencies)} operations)")
    else:
        print(f"  fourier.k_build_gflop and *_gflop_per_s are computed as 8 d^4 / 1e9, "
              f"not counted; kcache.read_gbps is computed from bytes_read / read_s")
        print(f"  traced run: {result.details}")
    for error in log.errors[:3]:
        print("error " + error, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinphase" / "__init__.py").is_file():
        print(f"error: no spinphase sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PIN)
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy, so only after the thread pin is set

    import spinphase
    if Path(spinphase.__file__).resolve().parent != SRC / "spinphase":
        print(f"error: imported spinphase from {spinphase.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = harness.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_ROOT))
    try:
        result = harness.measure(spec, args.seed, args.seconds, bool(args.trace),
                                 workdir, SRC)
        env = harness.environment(THREAD_PIN)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    units = harness.LAYER_UNITS if args.trace else harness.E2E_UNITS
    _print_report(spec, args, env, result, units)
    log = result.log
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if log.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
