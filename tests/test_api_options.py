"""The grid-shaped plan verb of ``repro.api``.

:func:`repro.api.evaluate_grid` is proven point-for-point identical to
:func:`repro.api.run_plan`, and caches through the ambient session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.core.designs import supernpu
from repro.core.plan import (
    ExperimentPlan,
    Grid,
    batch_axis,
    config_axis,
    library_axis,
    workload_axis,
)
from repro.errors import ConfigError


@pytest.fixture()
def tiny_plan(tiny_network, rsfq):
    grid = Grid("curve", (
        config_axis((supernpu(),)),
        workload_axis((tiny_network,)),
        batch_axis((1, 2, 4)),
        library_axis((rsfq,)),
    ))
    return ExperimentPlan("tiny", (grid,), description="options test grid")


# -- evaluate_grid ----------------------------------------------------------

def test_evaluate_grid_matches_run_plan_pointwise(tiny_plan):
    resultset = api.run_plan(tiny_plan)
    evaluation = api.evaluate_grid(tiny_plan)
    assert evaluation.plan_hash == resultset.plan_hash
    flat = list(evaluation.grid().results.ravel())
    assert len(flat) == len(resultset.results) == 3
    for grid_point, plan_point in zip(flat, resultset.results):
        assert grid_point.run.total_cycles == plan_point.run.total_cycles
        assert grid_point.run.mac_per_s == plan_point.run.mac_per_s


def test_evaluated_grid_shape_and_metric_array(tiny_plan):
    grid = api.evaluate_grid(tiny_plan).grid()
    assert grid.shape == (1, 1, 3, 1)
    assert grid.axis_names == ("config", "workload", "batch", "library")
    throughput = grid.array("mac_per_s")
    assert throughput.shape == (1, 1, 3, 1)
    assert np.isfinite(throughput).all()
    # Larger batches never lower throughput on this tiny workload.
    flat = throughput.ravel()
    assert flat[2] >= flat[0]


def test_evaluated_grid_label_lookup(tiny_plan):
    grid = api.evaluate_grid(tiny_plan).grid()
    point = grid.result(config="SuperNPU", workload="TinyNet",
                        batch="2", library="rsfq")
    assert point.run.batch == 2
    with pytest.raises(ConfigError) as err:
        grid.result(config="SuperNPU", workload="TinyNet", library="rsfq")
    assert err.value.code == "plan.missing_axis"
    with pytest.raises(ConfigError) as err:
        grid.result(config="SuperNPU", workload="TinyNet",
                    batch="99", library="rsfq")
    assert err.value.code == "plan.unknown_label"


def test_grid_evaluation_unknown_grid(tiny_plan):
    evaluation = api.evaluate_grid(tiny_plan)
    assert [g.name for g in evaluation] == ["curve"]
    with pytest.raises(ConfigError) as err:
        evaluation["nope"]
    assert err.value.code == "plan.unknown_grid"


def test_evaluate_grid_with_options_and_cache(tmp_path, tiny_plan):
    with api.session(cache_dir=tmp_path / "cache") as runner:
        first = api.evaluate_grid(tiny_plan)
        second = api.evaluate_grid(tiny_plan)
    assert runner.stats.hits == 3
    np.testing.assert_array_equal(first.grid().array("total_cycles"),
                                  second.grid().array("total_cycles"))
