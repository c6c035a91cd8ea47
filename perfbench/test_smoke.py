"""Short runs of every workload with all checks on.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _assert_clean(res: dict, names: list[str]) -> None:
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] >= 1
    assert list(res["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        harness.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean(name):
    res = harness.run(name, seed=1, seconds=1, trace=False)
    _assert_clean(res, list(harness.END_TO_END_UNITS))
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_layers_and_overhead():
    name = "couple-exact-k3-n6"
    res = harness.run(name, seed=1, seconds=1, trace=True)
    _assert_clean(res, list(harness.per_layer_units()))
    metrics = {k: m["value"] for k, m in res["metrics"].items()}
    assert metrics["setup.exactengine.get_engine.ms"] > 0
    assert metrics["sampling.sample_gstar.ms"] > 0
    assert metrics["dgraphs.sparse_cycle_placements.calls"] >= 1
    outcomes = sum(v for k, v in metrics.items()
                   if k.startswith("coupling.outcome."))
    assert outcomes == pytest.approx(1.0)
    trace = json.loads(
        (harness.OUT_DIR / f"trace-{name}-seed1.json").read_text())
    assert trace["spans"]["ops"]
    span_id, parent, op, layer, start, end = trace["spans"]["ops"][0]
    assert op >= 0 and end >= start and layer
