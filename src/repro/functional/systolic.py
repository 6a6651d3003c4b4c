"""Bit-true cycle-stepped weight-stationary systolic array.

This is the functional counterpart of the performance model: an actual PE
grid that latches, multiplies and accumulates integers cycle by cycle, fed
by the DAU streams, so tests can prove the dataflow computes real
convolutions (not just count cycles).

Dataflow (paper Fig. 4(c)/6(a)): weights stay put; ifmap values enter each
row from the left skewed one cycle per row and travel right; partial sums
enter each column from the top and travel down, accumulating one weight
per row; column ``c``'s results emerge at the bottom after ``rows + c``
cycles of skew.

Because those skews cancel exactly, a whole tile run reduces to one
integer matmul — :meth:`SystolicArray.run` does that, while
:meth:`SystolicArray.run_stepped` keeps the per-cycle emulation as the
golden reference the matmul is tested bitwise-equal against.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.functional.dau import aligned_streams
from repro.functional.reference import conv2d_reference  # noqa: F401  (re-export convenience)


class SystolicArray:
    """A ``rows x cols`` weight-stationary MAC grid, stepped per cycle."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.weights = np.zeros((rows, cols), dtype=np.int64)
        # Pipeline registers: ifmap value held in each PE (moving right) and
        # partial sum held in each PE (moving down).
        self._x = np.zeros((rows, cols), dtype=np.int64)
        self._psum = np.zeros((rows, cols), dtype=np.int64)

    def load_weights(self, weights: np.ndarray) -> None:
        """Load a (rows, cols) weight tile (zero-padded if smaller)."""
        if weights.ndim != 2:
            raise ValueError("weight tile must be 2-D")
        if weights.shape[0] > self.rows or weights.shape[1] > self.cols:
            raise ValueError(
                f"tile {weights.shape} exceeds array {(self.rows, self.cols)}"
            )
        self.weights[:] = 0
        self.weights[: weights.shape[0], : weights.shape[1]] = weights
        self._x[:] = 0
        self._psum[:] = 0

    def step(self, left_inputs: np.ndarray) -> np.ndarray:
        """Advance one clock: feed one ifmap value per row, emit bottom psums.

        Args:
            left_inputs: shape (rows,), the values entering column 0.

        Returns:
            The partial sums leaving the bottom edge, shape (cols,).
        """
        if left_inputs.shape != (self.rows,):
            raise ValueError(f"need {self.rows} left inputs")
        bottom = self._psum[-1].copy()
        # Psums move down: row r takes row r-1's result and adds its MAC.
        new_x = np.empty_like(self._x)
        new_x[:, 0] = left_inputs
        new_x[:, 1:] = self._x[:, :-1]
        shifted_psum = np.vstack([np.zeros((1, self.cols), dtype=np.int64), self._psum[:-1]])
        self._psum = shifted_psum + self.weights * new_x
        self._x = new_x
        return bottom

    def run(self, streams: np.ndarray) -> np.ndarray:
        """Stream a whole tile through the array and collect column outputs.

        The input/output skews of the cycle-stepped dataflow cancel
        exactly: column ``c``'s ``k``-th de-skewed result is
        ``sum_r weights[r, c] * streams[r, k]``, so the whole run
        collapses to one integer matmul — bit-identical (including int64
        wraparound, since integer addition is associative) to stepping
        the grid cycle by cycle, which :meth:`run_stepped` still does.

        Args:
            streams: shape (rows, T) — one already-aligned value stream per
                row (rows beyond ``streams.shape[0]`` receive zeros).

        Returns:
            Array of shape (cols, T): for every column, the T accumulated
            results (one per stream position), de-skewed.
        """
        if streams.ndim != 2:
            raise ValueError("streams must be 2-D (rows, time)")
        used_rows, _ = streams.shape
        if used_rows > self.rows:
            raise ValueError("more streams than array rows")
        # Reset the pipeline registers so back-to-back runs stay
        # independent (load_weights clears them between tiles anyway).
        self._x[:] = 0
        self._psum[:] = 0
        return self.weights[:used_rows].T @ streams.astype(np.int64, copy=False)

    def run_stepped(self, streams: np.ndarray) -> np.ndarray:
        """Cycle-stepped golden reference for :meth:`run` (same contract).

        Feeds the skewed streams through :meth:`step` one clock at a time
        and de-skews the bottom-edge outputs — the original dataflow
        emulation, kept for equivalence tests.
        """
        if streams.ndim != 2:
            raise ValueError("streams must be 2-D (rows, time)")
        used_rows, duration = streams.shape
        if used_rows > self.rows:
            raise ValueError("more streams than array rows")
        # Row r's stream is skewed r cycles; column c's output appears
        # rows + c cycles after its inputs start entering.
        total_cycles = duration + self.rows + self.cols + 1
        padded = np.zeros((self.rows, total_cycles), dtype=np.int64)
        for r in range(used_rows):
            padded[r, r : r + duration] = streams[r]
        outputs = np.zeros((self.cols, duration), dtype=np.int64)
        for t in range(total_cycles):
            bottom = self.step(padded[:, t])
            for c in range(self.cols):
                # Column c's k-th result leaves the bottom edge at cycle
                # k + rows (psum descent) + c (ifmap skew across columns).
                k = t - (self.rows + c)
                if 0 <= k < duration:
                    outputs[c, k] = bottom[c]
        return outputs


def conv2d_systolic(
    ifmap: np.ndarray,
    weights: np.ndarray,
    array_rows: int,
    array_cols: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Full convolution via tiled weight mappings on a systolic array.

    Mirrors the simulator's tiling: the reduction dimension C*R*S is split
    over array rows (partial sums of later row tiles accumulate into the
    earlier ones — the psum buffer's job), filters over array columns.

    Returns the (K, E, F) output, bit-identical to
    :func:`~repro.functional.reference.conv2d_reference` for integer data.
    """
    filters, channels, kernel_h, kernel_w = weights.shape
    if ifmap.shape[0] != channels:
        raise ValueError("ifmap/weight channel mismatch")
    reduction = channels * kernel_h * kernel_w
    out_h = (ifmap.shape[1] + 2 * padding - kernel_h) // stride + 1
    out_w = (ifmap.shape[2] + 2 * padding - kernel_w) // stride + 1
    vectors = out_h * out_w

    flat_weights = weights.reshape(filters, reduction).T  # (reduction, filters)
    array = SystolicArray(array_rows, array_cols)
    accumulator = np.zeros((filters, vectors), dtype=np.int64)

    row_tiles: List[range] = [
        range(start, min(start + array_rows, reduction))
        for start in range(0, reduction, array_rows)
    ]
    col_tiles: List[range] = [
        range(start, min(start + array_cols, filters))
        for start in range(0, filters, array_cols)
    ]
    for col_tile in col_tiles:
        for row_tile in row_tiles:
            tile = flat_weights[row_tile.start : row_tile.stop, col_tile.start : col_tile.stop]
            array.load_weights(tile)
            streams = aligned_streams(
                ifmap, list(row_tile), kernel_h, kernel_w, stride, padding
            )
            outputs = array.run(streams)
            accumulator[col_tile.start : col_tile.stop] += outputs[: len(col_tile)]
    return accumulator.reshape(filters, out_h, out_w)
