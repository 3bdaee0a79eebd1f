"""Smoke tests of the benchmark's own code, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from run import REFERENCE_S, Reference  # noqa: E402
from spans import Recorder, per_op_totals, span_cost  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "# fail_ratio 0 ratio" in done.stdout


def test_refuses_a_tree_without_sources(tmp_path):
    done = bench("--workload", "family-m8", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--src", str(tmp_path))
    assert done.returncode == 2
    assert done.stdout == ""


def test_self_time_excludes_child_spans():
    rec = Recorder()
    inner = rec._wrap(lambda: time.sleep(0.01), "x.inner")
    outer = rec._wrap(lambda: (inner(), inner()), "x.outer")
    for _ in range(2):
        with rec.root("bench.op"):
            outer()
    totals = per_op_totals(rec, "bench.op")
    assert list(totals["x.inner"]["calls"]) == [2, 2]
    assert list(totals["x.outer"]["calls"]) == [1, 1]
    outer_s, outer_self = totals["x.outer"]["s"], totals["x.outer"]["self_s"]
    assert all(outer_s >= 0.02) and all(outer_self < outer_s - 0.019)
    cost = span_cost()
    assert 0 < cost < 1e-4
    charged = per_op_totals(rec, "bench.op", cost)["x.outer"]["self_s"]
    assert list(charged) == pytest.approx(list(np.maximum(outer_self - 2 * cost, 0.0)))


def test_reference_scales_by_the_nearest_slices():
    ref = Reference()
    slices = iter([0.2, 0.4, 0.1, 0.4, 0.4, 0.4])
    ref.slice = lambda: next(slices)
    # measurement k lies between slices k and k + 1; its window is slices k - 1 .. k + 2
    scaled = ref.scaled(iter([1.0, None, 3.0, 4.0, 5.0]))
    assert [item for item, _ in scaled] == [1.0, 3.0, 4.0, 5.0]
    medians = [0.2, 0.4, 0.4, 0.4]  # of (0.2, 0.4, 0.1), (0.4, 0.1, 0.4, 0.4), ...
    assert [f for _, f in scaled] == pytest.approx([REFERENCE_S / m for m in medians])
    with Reference() as ref:
        assert 0 < ref.slice() < 10
    assert ref.proc.returncode == 0


def test_comparison_rule():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, "lower", 0.1, False)[0] == "gain"
    assert verdict(parent, faster, "lower", 0.1, True)[0] == "ok"
    assert verdict(parent, faster[:5], "lower", 0.1, False)[0] == "ok"
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.1, False)[0] == "REGRESSION"
    assert verdict(parent, [v * 1.3 for v in parent], "higher", 0.1, False)[0] == "gain"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 1.0, 0.9, 1.1]
    assert verdict(noisy, noisy[::-1], "lower", 0.1, False)[0] == "unresolved"
    assert verdict(parent, parent[::-1], "lower", 0.1, False)[0] == "ok"
