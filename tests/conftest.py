"""Shared fixtures: cell libraries, design points, small workloads."""

from __future__ import annotations

import pytest

from repro.core.designs import baseline, buffer_opt, resource_opt, supernpu
from repro.device.cells import ersfq_library, rsfq_library
from repro.workloads.layers import ConvLayer, fc_layer
from repro.workloads.models import Network


@pytest.fixture(autouse=True)
def _quiescent_obs():
    """Observability must stay off (and empty) unless a test opts in."""
    from repro import obs

    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def obs_enabled():
    """Turn the global obs runtime on for one test, cleaned up after."""
    from repro import obs

    obs.enable()
    yield obs
    obs.disable()
    obs.reset()


@pytest.fixture(scope="session")
def rsfq():
    return rsfq_library()


@pytest.fixture(scope="session")
def ersfq():
    return ersfq_library()


@pytest.fixture(scope="session")
def baseline_config():
    return baseline()


@pytest.fixture(scope="session")
def buffer_opt_config():
    return buffer_opt()


@pytest.fixture(scope="session")
def resource_opt_config():
    return resource_opt()


@pytest.fixture(scope="session")
def supernpu_config():
    return supernpu()


@pytest.fixture(scope="session")
def tiny_network():
    """A three-layer CNN small enough for exhaustive checks."""
    layers = (
        ConvLayer("conv1", in_channels=3, in_height=16, in_width=16,
                  out_channels=8, kernel_height=3, kernel_width=3, padding=1),
        ConvLayer("conv2", in_channels=8, in_height=16, in_width=16,
                  out_channels=16, kernel_height=3, kernel_width=3,
                  stride=2, padding=1),
        fc_layer("fc", 16 * 8 * 8, 10),
    )
    return Network("TinyNet", layers)
