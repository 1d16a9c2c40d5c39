"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run the real workloads (about three minutes in all), so they are not
part of the tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import core_churn  # noqa: E402

#: Not used while the benchmark was built or tuned.
UNSEEN_SEED = 90_210

WORKLOADS = ("core-churn", "serve-durable-write", "serve-evict-mixed", "cluster-quorum")


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_core_churn_counts_repeat_for_one_seed() -> None:
    def counts() -> dict[str, float]:
        sched, churn, _ = core_churn.setup(7)
        return core_churn.count_window(sched, churn)

    first, second = counts(), counts()
    assert first == second
    assert set(first) >= {
        "realloc_moved_per_op", "realloc_volume_per_op", "cost_ratio",
        "kcursor.slots_moved_per_op", "kcursor.slots_scanned_per_op", "kcursor.rebalances_per_op",
    }


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_unseen_seed_passes_every_check(workload: str, trace: int) -> None:
    proc = _run(workload, UNSEEN_SEED, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if workload == "serve-evict-mixed" and trace:
        env = json.loads(proc.stdout.strip().splitlines()[-2][len("env: "):])
        for kind in ("read", "write"):
            assert env["hit_miss"][kind]["hits"] > 0 and env["hit_miss"][kind]["misses"] > 0, env


def test_checkout_without_sources_fails_without_a_result(tmp_path: os.PathLike[str]) -> None:
    bare = str(tmp_path)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("core-churn", 1, 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_readme_maps_every_per_layer_metric() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert f"`{m['name']}`" in readme, m["name"]


def test_window_scales_each_slice_by_its_calibration() -> None:
    """A slice whose calibration ran at half the reference pace has its
    latencies halved and its throughput doubled; an op in flight while a
    calibration ran is left out, and so is a slice the hypervisor stole
    from."""
    from common import CAL_REF_S, Window

    win = Window(seconds=2.0)
    win.cals = [(0.0, CAL_REF_S), (1.0, 1.0 + 2 * CAL_REF_S)]
    for i in range(100):
        win.samples["write"].append((0.01 + i * 0.009, 0.001))
        win.samples["write"].append((1.01 + i * 0.009, 0.002))
    win.samples["write"].append((1.0 + CAL_REF_S, 0.5))  # held up by the calibration
    assert win.latency_metrics()["write_p50_ms"] == pytest.approx(1.0)
    assert win.latency_metrics(raw=True)["write_p50_ms"] == pytest.approx(1.5)
    slice0 = 100 / (1.0 - CAL_REF_S)
    slice1 = 100 / (1.0 - 2 * CAL_REF_S)
    assert win.throughput(raw=True) == pytest.approx((slice0 + slice1) / 2)
    assert win.throughput() == pytest.approx((slice0 + 2 * slice1) / 2)

    # half of slice 1 stolen by the hypervisor: only slice 0 counts
    win.steals = [(0.0, 0.0), (1.0, 0.5)]
    assert win.latency_metrics()["write_p50_ms"] == pytest.approx(1.0)
    assert win.latency_metrics()["write_p99_ms"] == pytest.approx(1.0)
    assert win.throughput() == pytest.approx(slice0)
    assert win.throughput(raw=True) == pytest.approx((slice0 + slice1) / 2)
