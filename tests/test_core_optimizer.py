"""Design-space sweep tests (Figs. 20-22 shapes).

The sweeps run all six workloads per point; to keep the unit suite fast we
sweep a reduced set here and leave the full-span runs to the claims table
(``repro.core.golden``).
"""

import pytest

from repro.core.optimizer import (
    balanced_buffer_bytes,
    buffer_sweep,
    register_sweep,
    resource_config,
    resource_sweep,
)
from repro.uarch.config import MIB
from repro.workloads.models import alexnet, mobilenet, resnet50


@pytest.fixture(scope="module")
def workloads():
    return [alexnet(), resnet50(), mobilenet()]


def test_fig20_shape(workloads):
    points = buffer_sweep(workloads=workloads, divisions=(2, 16, 64, 1024))
    labels = [p.label for p in points]
    assert labels[0] == "Baseline"
    assert labels[1] == "+Integration (Division 2)"
    single = [p.metrics["single_batch"] for p in points]
    max_batch = [p.metrics["max_batch"] for p in points]
    area = [p.metrics["area"] for p in points]
    # Performance rises with division and integration...
    assert single[1] > 1.5
    assert single[-1] > single[1]
    assert max_batch[-1] >= single[-1]
    # ...but high division costs area (Fig. 20's right side).
    assert area[-1] > area[1]
    assert max(max_batch) > 10  # paper: ~20x at division 64


def test_fig20_single_batch_saturates(workloads):
    points = buffer_sweep(workloads=workloads, divisions=(16, 64, 4096))
    single = {p.label: p.metrics["single_batch"] for p in points}
    # 64-fold more division past 64 buys almost nothing (paper saturates
    # at division 64); allow a generous 35% residual.
    assert single["+Division 4096"] < 1.35 * single["+Division 64"]
    assert single["+Division 64"] >= single["+Division 16"]


def test_balanced_buffer_bytes_matches_fig21():
    """Fig. 21 x-axis: (256, 24 MB) ... (64, ~46 MB) ... (16, ~51 MB)."""
    assert balanced_buffer_bytes(256) == 24 * MIB
    b64 = balanced_buffer_bytes(64) / MIB
    b16 = balanced_buffer_bytes(16) / MIB
    assert 40 <= b64 <= 55
    assert b16 > b64
    assert b16 <= 60


def test_balanced_buffer_rejects_wider_than_reference():
    with pytest.raises(ValueError):
        balanced_buffer_bytes(512)


def test_resource_config_keeps_chunk_length_constant():
    """Section V-B2: division scales so chunk lengths stay put."""
    from repro.uarch.buffers import ShiftRegisterBuffer

    lengths = set()
    for width in (256, 128, 64):
        config = resource_config(width)
        buf = ShiftRegisterBuffer(
            config.output_buffer_bytes,
            io_width=config.pe_array_width,
            division=config.output_division,
        )
        lengths.add(buf.chunk_length_entries)
    # Division degrees are rounded to powers of the 64-chunk reference, so
    # chunk lengths stay within a narrow band rather than exactly equal.
    assert max(lengths) < 1.5 * min(lengths)


def test_fig21_added_buffer_beats_fixed(workloads):
    points = resource_sweep(workloads=workloads, widths=(128, 64))
    for point in points:
        assert (
            point.metrics["max_batch_added_buffer"]
            >= point.metrics["max_batch_fixed_buffer"] * 0.95
        )
        assert point.metrics["max_batch_added_buffer"] > 5  # far above Baseline


def test_fig22_registers_help_width64(workloads):
    rows = register_sweep(workloads=workloads, widths=(64,), registers=(1, 8))
    one, eight = rows[64]
    assert eight.metrics["speedup"] > one.metrics["speedup"]


def test_fig22_width64_scales_better_with_registers(workloads):
    """Fig. 22: the 128-wide array 'cannot improve its performance further
    due to its lower computational intensity', while the 64-wide one keeps
    gaining from extra registers."""
    rows = register_sweep(workloads=workloads, widths=(64, 128), registers=(1, 8))
    gain64 = rows[64][1].metrics["speedup"] / rows[64][0].metrics["speedup"]
    gain128 = rows[128][1].metrics["speedup"] / rows[128][0].metrics["speedup"]
    assert gain64 > gain128
    assert gain64 > 1.1
