"""Reading a plan's results through :class:`~repro.core.plan.ResultSet`.

A grid-shaped metric array is :meth:`ResultSet.column` reshaped onto the
grid's axes, a point is :meth:`ResultSet.one` by its labels, and plans
cache through the ambient session.
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


def _array(resultset, metric, grid="curve"):
    """``metric`` over ``grid`` as a dense array shaped by its axes."""
    planned = next(each for each in resultset.plan.grids if each.name == grid)
    shape = tuple(len(axis.values) for axis in planned.axes)
    return np.array(resultset.column(metric, grid=grid), float).reshape(shape)


def test_column_matches_the_results_pointwise(tiny_plan):
    resultset = api.run_plan(tiny_plan)
    other = api.run_plan(tiny_plan)
    assert other.plan_hash == resultset.plan_hash
    cycles = resultset.column("total_cycles", grid="curve")
    throughput = resultset.column("mac_per_s", grid="curve")
    assert len(cycles) == len(other.results) == 3
    for total_cycles, mac_per_s, plan_point in zip(cycles, throughput, other.results):
        assert total_cycles == plan_point.run.total_cycles
        assert mac_per_s == plan_point.run.mac_per_s


def test_column_reshapes_onto_the_grid_axes(tiny_plan):
    resultset = api.run_plan(tiny_plan)
    grid = resultset.plan.grids[0]
    assert tuple(axis.name for axis in grid.axes) == ("config", "workload", "batch", "library")
    throughput = _array(resultset, "mac_per_s")
    assert throughput.shape == (1, 1, 3, 1)
    assert np.isfinite(throughput).all()
    # Larger batches never lower throughput on this tiny workload.
    flat = throughput.ravel()
    assert flat[2] >= flat[0]


def test_one_looks_up_a_point_by_its_labels(tiny_plan):
    resultset = api.run_plan(tiny_plan)
    point = resultset.one(grid="curve", config="SuperNPU", workload="TinyNet",
                          batch="2", library="rsfq")
    assert point.run.batch == 2
    # Leaving an axis out matches its every label; an unknown label none.
    with pytest.raises(ConfigError) as err:
        resultset.one(grid="curve", config="SuperNPU", workload="TinyNet", library="rsfq")
    assert err.value.code == "plan.ambiguous_selection"
    assert err.value.context["matches"] == 3
    with pytest.raises(ConfigError) as err:
        resultset.one(grid="curve", config="SuperNPU", workload="TinyNet",
                      batch="99", library="rsfq")
    assert err.value.code == "plan.ambiguous_selection"
    assert err.value.context["matches"] == 0


def test_column_of_an_unknown_grid_is_an_error(tiny_plan):
    resultset = api.run_plan(tiny_plan)
    assert [grid.name for grid in resultset.plan.grids] == ["curve"]
    with pytest.raises(ConfigError) as err:
        resultset.column("mac_per_s", grid="nope")
    assert err.value.code == "plan.unknown_grid"


def test_run_plan_twice_in_a_cached_session_hits(tmp_path, tiny_plan):
    with api.session(cache_dir=tmp_path / "cache") as runner:
        first = api.run_plan(tiny_plan)
        second = api.run_plan(tiny_plan)
    assert runner.stats.hits == 3
    np.testing.assert_array_equal(_array(first, "total_cycles"),
                                  _array(second, "total_cycles"))
