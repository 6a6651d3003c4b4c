"""Data alignment unit structure tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import cells
from repro.uarch.dau import DataAlignmentUnit


def test_paper_delay_example():
    """Fig. 9: with 3-stage PEs the second row is delayed 2 cycles."""
    dau = DataAlignmentUnit(rows=4, bits=8, pe_pipeline_stages=3)
    assert dau.delay_stages(0) == 0
    assert dau.delay_stages(1) == 2
    assert dau.delay_stages(2) == 4


def test_delay_stages_validation():
    dau = DataAlignmentUnit(rows=4)
    with pytest.raises(ValueError):
        dau.delay_stages(4)
    with pytest.raises(ValueError):
        dau.delay_stages(-1)


def test_total_delay_cells_quadratic_in_rows():
    small = DataAlignmentUnit(rows=8, bits=1, pe_pipeline_stages=15)
    large = DataAlignmentUnit(rows=16, bits=1, pe_pipeline_stages=15)
    # sum over r of r*(stages-1): 28*14 vs 120*14.
    assert small.total_delay_cells == 28 * 14
    assert large.total_delay_cells == 120 * 14


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 512), stages=st.integers(1, 40), bits=st.integers(1, 16))
def test_total_delay_cells_closed_form_equals_per_row_sum(rows, stages, bits):
    dau = DataAlignmentUnit(rows=rows, bits=bits, pe_pipeline_stages=stages)
    assert dau.total_delay_cells == bits * sum(dau.delay_stages(r) for r in range(rows))


def test_bypassable_dffs_in_gate_counts():
    dau = DataAlignmentUnit(rows=4, bits=8, pe_pipeline_stages=3)
    counts = dau.gate_counts()
    assert counts[cells.DFF_BYPASS] == dau.total_delay_cells
    # Selection tree: rows^2 splitter leaves per bit.
    assert counts[cells.SPLITTER] == 4 * 4 * 8


def test_selector_and_controller_per_row():
    dau = DataAlignmentUnit(rows=4, bits=8)
    counts = dau.gate_counts()
    assert counts[cells.AND] >= 4 * 8  # selector AND per bit per row
    assert counts[cells.TFF] == 24 * 4  # controller counters


def test_invalid_parameters():
    with pytest.raises(ValueError):
        DataAlignmentUnit(rows=0)
    with pytest.raises(ValueError):
        DataAlignmentUnit(rows=4, pe_pipeline_stages=0)


def test_dau_does_not_bound_npu_clock(rsfq):
    dau = DataAlignmentUnit(rows=64, bits=8)
    assert dau.frequency(rsfq).frequency_ghz > 52.6
