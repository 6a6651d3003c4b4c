"""Bit-true cycle-stepped *output-stationary* systolic array (Fig. 6(b)).

The OS dataflow keeps each output value resident in its PE while both
operands stream through: ifmap reduction sequences enter from the left
(one output position per row), weight sequences from the top (one filter
per column), and PE(r, c) accumulates their aligned products locally.

Together with :mod:`repro.functional.systolic` (weight-stationary), this
gives both of the paper's Fig. 6 dataflows a functional existence proof;
the *performance* comparison between them lives in
:mod:`repro.simulator.dataflow_ablation`.

The operand skews align each product pair exactly, so a full run reduces
to one integer matmul — :meth:`OSSystolicArray.run` does that, while
:meth:`OSSystolicArray.run_stepped` keeps the per-cycle emulation as the
golden reference the matmul is tested bitwise-equal against.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.functional.dau import aligned_streams


class OSSystolicArray:
    """A ``rows x cols`` output-stationary MAC grid, stepped per cycle.

    Row ``r`` owns one output position, column ``c`` one filter; operands
    are skewed so that ``x[r][d]`` and ``w[c][d]`` meet in PE(r, c) at
    cycle ``r + c + d``.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self._x = np.zeros((rows, cols), dtype=np.int64)
        self._w = np.zeros((rows, cols), dtype=np.int64)
        self._acc = np.zeros((rows, cols), dtype=np.int64)

    def reset(self) -> None:
        self._x[:] = 0
        self._w[:] = 0
        self._acc[:] = 0

    def step(self, left_inputs: np.ndarray, top_inputs: np.ndarray) -> None:
        """Advance one clock: ifmap values enter rows, weights enter columns."""
        if left_inputs.shape != (self.rows,):
            raise ValueError(f"need {self.rows} left inputs")
        if top_inputs.shape != (self.cols,):
            raise ValueError(f"need {self.cols} top inputs")
        new_x = np.empty_like(self._x)
        new_x[:, 0] = left_inputs
        new_x[:, 1:] = self._x[:, :-1]
        new_w = np.empty_like(self._w)
        new_w[0, :] = top_inputs
        new_w[1:, :] = self._w[:-1, :]
        self._acc += new_x * new_w
        self._x = new_x
        self._w = new_w

    def run(self, x_streams: np.ndarray, w_streams: np.ndarray) -> np.ndarray:
        """Stream full reduction sequences; returns the (rows, cols) outputs.

        The operand skews align ``x[r][d]`` with ``w[c][d]`` in PE(r, c),
        so each accumulator ends up holding the plain dot product
        ``sum_d x[r][d] * w[c][d]`` — one integer matmul, bit-identical
        (int64 wraparound included, integer addition being associative)
        to the cycle-stepped :meth:`run_stepped`.

        Args:
            x_streams: shape (rows_used, D) — reduction sequence per output
                position.
            w_streams: shape (cols_used, D) — reduction sequence per filter.
        """
        if x_streams.ndim != 2 or w_streams.ndim != 2:
            raise ValueError("streams must be 2-D")
        if x_streams.shape[1] != w_streams.shape[1]:
            raise ValueError("operand streams must share the reduction length")
        rows_used = x_streams.shape[0]
        cols_used = w_streams.shape[0]
        if rows_used > self.rows or cols_used > self.cols:
            raise ValueError("streams exceed the array")
        self.reset()
        return x_streams.astype(np.int64, copy=False) @ w_streams.astype(
            np.int64, copy=False
        ).T

    def run_stepped(self, x_streams: np.ndarray, w_streams: np.ndarray) -> np.ndarray:
        """Cycle-stepped golden reference for :meth:`run` (same contract).

        Skews both operand sets and advances the grid one clock at a
        time — the original dataflow emulation, kept for equivalence
        tests.
        """
        if x_streams.ndim != 2 or w_streams.ndim != 2:
            raise ValueError("streams must be 2-D")
        if x_streams.shape[1] != w_streams.shape[1]:
            raise ValueError("operand streams must share the reduction length")
        rows_used, depth = x_streams.shape
        cols_used = w_streams.shape[0]
        if rows_used > self.rows or cols_used > self.cols:
            raise ValueError("streams exceed the array")
        self.reset()
        total = depth + self.rows + self.cols
        left = np.zeros((self.rows, total), dtype=np.int64)
        top = np.zeros((self.cols, total), dtype=np.int64)
        for r in range(rows_used):
            left[r, r : r + depth] = x_streams[r]
        for c in range(cols_used):
            top[c, c : c + depth] = w_streams[c]
        for t in range(total):
            self.step(left[:, t], top[:, t])
        return self._acc[:rows_used, :cols_used].copy()


def conv2d_os(
    ifmap: np.ndarray,
    weights: np.ndarray,
    array_rows: int,
    array_cols: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Full convolution via output-stationary tiling.

    Output positions tile over array rows, filters over array columns; the
    complete reduction streams through per tile (no partial-sum parking —
    the OS selling point the paper weighs against its clock penalty).
    """
    filters, channels, kernel_h, kernel_w = weights.shape
    if ifmap.shape[0] != channels:
        raise ValueError("ifmap/weight channel mismatch")
    reduction = channels * kernel_h * kernel_w
    out_h = (ifmap.shape[1] + 2 * padding - kernel_h) // stride + 1
    out_w = (ifmap.shape[2] + 2 * padding - kernel_w) // stride + 1
    positions = out_h * out_w

    # aligned_streams yields shape (reduction, positions): transpose to get
    # one reduction sequence per output position.
    x_all = aligned_streams(
        ifmap, list(range(reduction)), kernel_h, kernel_w, stride, padding
    ).T
    w_all = weights.reshape(filters, reduction)

    array = OSSystolicArray(array_rows, array_cols)
    output = np.zeros((filters, positions), dtype=np.int64)
    position_tiles: List[range] = [
        range(start, min(start + array_rows, positions))
        for start in range(0, positions, array_rows)
    ]
    filter_tiles: List[range] = [
        range(start, min(start + array_cols, filters))
        for start in range(0, filters, array_cols)
    ]
    for p_tile in position_tiles:
        for f_tile in filter_tiles:
            acc = array.run(
                x_all[p_tile.start : p_tile.stop],
                w_all[f_tile.start : f_tile.stop],
            )
            output[f_tile.start : f_tile.stop, p_tile.start : p_tile.stop] = acc.T
    return output.reshape(filters, out_h, out_w)
