"""Self-tests of the benchmark: wrapper binding, layer pattern, metric names.

Run from the repository root: ``python3 -m pytest perfbench -q`` (about 20 s).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS  # noqa: E402
from tracer import Tracer, public_functions  # noqa: E402
from worker import LAYER_METRICS, layer_metrics, layer_unit, traced_once  # noqa: E402
from workloads import EXPECTED_NONZERO, WORKLOADS  # noqa: E402

# sized-down versions; each still reaches every layer its full version reaches
SMOKE = {
    "train": {"count": 5, "epochs": 3},
    "evaluate-gt": {},
    "sweep-tau": {"epochs": 2, "tau_values": "0.15,0.3"},
}


def test_install_rebinds_every_alias_and_uninstall_restores():
    import sprayseg
    from sprayseg import cli, learner, objective

    originals = (learner.train, cli.train, sprayseg.train, objective.total_loss)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.train is learner.train is sprayseg.train
        assert cli.train.__wrapped__ is originals[0]
        assert objective.total_loss.__wrapped__ is originals[3]
        assert vars(learner)["total_loss"] is objective.total_loss
        for name in public_functions(sys.modules["sprayseg.spraysim"]):
            assert hasattr(getattr(sprayseg.spraysim, name), "__wrapped__"), name
    finally:
        tracer.uninstall()
    assert (learner.train, cli.train, sprayseg.train, objective.total_loss) == originals


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layers_are_zero_exactly_where_predicted(workload, tmp_path):
    setup_snap, snap, problems = traced_once(workload, 0, tmp_path, **SMOKE[workload])
    assert problems == []
    metrics = layer_metrics(setup_snap, [snap], 0.0)
    wrong = {n: metrics[n] for n, nonzero in EXPECTED_NONZERO[workload].items()
             if (metrics[n] != 0) != nonzero}
    assert wrong == {}


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, layer_unit(n)) for n in LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    for expected in EXPECTED_NONZERO.values():
        assert set(expected) <= set(LAYER_METRICS)
