"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
yields the per-layer metrics (BENCHMARK.json lists both sets, and
perfbench/README.md says which end-to-end metric each layer metric should
move).  Every metric is printed with its unit, then one environment line,
then the result as the last line of standard output.  A failed
correctness check prints ``"correct": false`` and exits with status 1;
a checkout without the program's sources exits with status 2 before any
result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from types import FrameType
from typing import Any, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("core-churn", "serve-durable-write", "serve-evict-mixed", "cluster-quorum")

#: Per-layer metrics a workload does not exercise read 0 (see README.md).
NOT_EXERCISED = 0.0


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Make the checkout's own ``src/repro`` importable, and only that one."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _terminate(signum: int, frame: Optional[FrameType]) -> None:
    """SIGTERM unwinds like an error, so the servers a run started are stopped."""
    raise SystemExit(128 + signum)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    if name == "core-churn":
        import core_churn

        return core_churn.run(seed, seconds, trace)
    if name == "cluster-quorum":
        import cluster

        return cluster.run(seed, seconds, trace, workdir)
    import serve

    return serve.run(name, seed, seconds, trace, workdir)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_program()
    from common import CheckFailed, cpu_ticks, environment

    signal.signal(signal.SIGTERM, _terminate)
    # One vCPU for the benchmark and every server it starts (they inherit
    # it), so the calibration loop runs where the measured work runs: on a
    # shared host each vCPU is slowed by its own neighbours.  One op is in
    # flight at a time, so a second vCPU would have little to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    steal0, ticks0 = cpu_ticks()
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except CheckFailed as e:
        print(f"perfbench: correctness check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    measured = res["metrics"]
    metrics: dict[str, dict[str, Any]] = {}
    for m in declared:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                raise KeyError(f"workload {args.workload} did not measure {m['name']}")
            value = NOT_EXERCISED
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:34s} {value:14.6g} {m['unit']}")
    win = res["window"]
    steal1, ticks1 = cpu_ticks()
    # Time the hypervisor gave to other guests: on a shared host, the
    # usual reason two runs of one seed differ.
    steal_share = (steal1 - steal0) / max(1, ticks1 - ticks0)
    env = environment(args.seed, workload=args.workload, seconds=args.seconds,
                      trace=args.trace, cpu_steal_share=round(steal_share, 4), **res["env"])
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": win.attempted,
        "failed": win.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
