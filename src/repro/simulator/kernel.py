"""The cycle model as one array pass over design points x a network's layers.

One kernel charges both dataflows over a network's :class:`LayerTable`:
:func:`charge_network` the weight-stationary (WS) array, and
:func:`charge_network_os` the output-stationary (OS) ablation of
:mod:`repro.simulator.dataflow_ablation`.  Each charge is an elementwise
int64 expression over ``(D, 1)`` config columns and the table's ``(L,)``
layer columns; residency, the DRAM ceiling and the ``max(on_chip, dram)``
tail are shared (:func:`_layer_columns`).

Every WS charge of :func:`~repro.simulator.engine.simulate_layer` — the
scalar golden reference, which walks the tiles of
:func:`~repro.simulator.mapping.map_layer` — is written here in closed
form.  A layer's WS mapping has at most four *tile classes*: a full
(``height``-row) or remainder row tile, crossed with a full (``width`` x
``registers``) or remainder column tile.  Each class stands for a known
number of identical mappings, and a column class's row tiles have rows
summing to the reduction size, so a sum over tiles is one closed form per
column class and no :class:`~repro.simulator.mapping.MappingTile` is
built.  Residency is not a real scan either: whether a layer's output
stays on chip depends on that layer alone, so the next layer's
``input_resident`` is the same array shifted down by one.

Integer charges are exact int64 arithmetic, so they equal Python ints as
long as nothing reaches :data:`EXACT_LIMIT`, which each pass checks per
design, with its own bound, before computing.  The float steps keep the
scalar order: DRAM and activation-transfer cycles are float64 ceilings of
the same quotients, each WS activity unit is a left fold over layers in
layer order, and each ``(design, layer)`` ``dau`` term is the reference's
fold over tiles (see :func:`_dau_cycles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulator.datapath import Datapath
from repro.simulator.memory import MemoryModel
from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer

#: Integers below 2**53 convert to float64 exactly.  The DRAM and
#: activation-transfer ceilings and the activity folds match the scalar
#: reference only below it, and it keeps int64 far from wrapping.
EXACT_LIMIT = 2 ** 53


def tile_charges(rows, cols, regs, vectors, pe_stages, tiles=1):
    """``(weight load, compute plus fill)`` cycles of ``tiles`` mappings.

    Loading a mapping shifts ``rows * regs`` weights down the columns plus
    ``cols`` cycles of diagonal skew; computing streams ``vectors`` ifmap
    vectors per register plane, then drains the row, column and PE
    pipeline fill.  For several mappings of one column shape, ``rows`` is
    the sum of their row counts: the row terms add up, the rest is paid
    per mapping.  Works on ints and on numpy arrays alike.
    """
    return (rows * regs + tiles * cols,
            tiles * (vectors * regs + cols + pe_stages) + rows)


def _overflow(batch: int, bound: float) -> SimulationError:
    return SimulationError(
        "cycle charges could reach 2**53, where int64/float64 arithmetic "
        "stops being exact",
        code="simulation.charge_overflow", batch=batch, bound=bound,
        hint="simulate a smaller batch, smaller layers or a smaller array",
    )


@dataclass(frozen=True, eq=False)
class LayerTable:
    """The shape terms the cycle model reads, one int64 entry per layer.

    Built once per network (:attr:`repro.workloads.models.Network.layer_table`).
    The four ``*_bound`` fields are Python-int maxima over the layers from
    which each charge pass bounds every charge of a run.
    """

    names: Tuple[str, ...]
    reduction: np.ndarray  # C/g * R * S, tiled over the PE-array height
    filters: np.ndarray  # filters per group, tiled over width x registers
    groups: np.ndarray
    pixels: np.ndarray  # output pixels per image
    ifmap: np.ndarray  # bytes per image
    ofmap: np.ndarray  # bytes per image
    weights: np.ndarray  # bytes
    channels: np.ndarray  # input channels
    macs: np.ndarray  # per image
    #: max over layers of ``2 * macs + ofmap``: the per-image on-chip terms.
    on_chip_bound: int
    #: max over layers of ``ifmap * (filters + 1) + ofmap``: per-image traffic.
    traffic_bound: int
    #: max over layers of ``weights``.
    weight_bound: int
    #: max over layers of ``ofmap``: the per-image outputs.
    output_bound: int

    @classmethod
    def of(cls, layers: Sequence[ConvLayer]) -> "LayerTable":
        rows = [
            (layer.reduction_size, layer.filters_per_group, layer.groups,
             layer.output_pixels, layer.ifmap_bytes, layer.ofmap_bytes,
             layer.weight_bytes, layer.in_channels, layer.macs_per_image)
            for layer in layers
        ]
        on_chip = max(2 * row[8] + row[5] for row in rows)
        traffic = max(row[4] * (row[1] + 1) + row[5] for row in rows)
        weights = max(row[6] for row in rows)
        outputs = max(row[5] for row in rows)
        # Every column entry is at most one of these bounds.
        if max(on_chip, traffic, weights) >= EXACT_LIMIT:
            raise _overflow(1, max(on_chip, traffic, weights))
        columns = np.array(list(zip(*rows)), dtype=np.int64)
        columns.setflags(write=False)
        return cls(tuple(layer.name for layer in layers), *columns,
                   on_chip_bound=on_chip, traffic_bound=traffic,
                   weight_bound=weights, output_bound=outputs)


#: One design point of a charge pass: its config, batch, memory model and
#: datapath.
Design = Tuple[NPUConfig, int, MemoryModel, Datapath]


def _ws_bounds(table: LayerTable, batch: int, config: NPUConfig,
               datapath: Datapath) -> Tuple[int, int]:
    """Upper bounds on any layer's WS on-chip cycles and DRAM bytes.

    Mappings never outnumber weights, a mapping's fill, rewind and psum
    charges are bounded by the config terms below, and the streamed
    cycles are at most twice the layer's MACs.
    """
    per_weight = (config.pe_array_height + 2 * config.pe_array_width
                  + datapath.pe.pipeline_stages + 2 + datapath.rewind_cycles
                  + datapath.per_move_cycles)
    return (batch * table.on_chip_bound + table.weight_bound * per_weight,
            table.weight_bound + batch * table.traffic_bound)


def _os_bounds(table: LayerTable, batch: int, config: NPUConfig,
               datapath: Datapath) -> Tuple[int, int]:
    """Upper bounds on any layer's OS on-chip cycles and DRAM bytes.

    A layer has ``ceil(E*F*B / height) * ceil(K / width) * groups`` output
    tiles, at most ``B * ofmap / height + K * groups``, so at most
    ``tiles`` below.  ``reduction`` times that count is at most
    ``B * macs / height + weights``, so at most ``streamed``: a bound on
    the streamed reduction cycles, and on half the weight bytes streamed
    over all tiles.  Fill, drain, weight load and rewind are per tile.
    """
    height = config.pe_array_height
    tiles = -(-batch * table.output_bound // height) + table.output_bound
    streamed = -(-batch * table.on_chip_bound // height) + table.weight_bound
    per_tile = datapath.pe.pipeline_stages + 2 * height + datapath.rewind_cycles
    return (streamed + tiles * per_tile,
            2 * streamed + batch * table.traffic_bound)


def _design_columns(table: LayerTable, designs: Sequence[Design], bounds):
    """The config terms of ``designs`` as ``(D, 1)`` columns (scalars for
    one design).

    Returns eleven int64 columns (from one ``np.array`` call), the float64
    DRAM bytes per cycle, and whether each design has a psum buffer.
    Checks every design against :data:`EXACT_LIMIT` first, in Python ints,
    with the pass's ``bounds`` (:func:`_ws_bounds` or :func:`_os_bounds`)
    and the config-term products the WS pass takes in int64.
    """
    rows = []
    per_cycle = []
    has_psum = []
    for config, batch, memory, datapath in designs:
        on_chip, traffic_bytes = bounds(table, batch, config, datapath)
        bound = max(on_chip, traffic_bytes / memory.bytes_per_cycle + 1,
                    config.pe_array_width * config.registers_per_pe,
                    config.pe_array_height * config.ifmap_division)
        if bound >= EXACT_LIMIT:
            raise _overflow(batch, bound)

        # Every byte count compared with a buffer size is below the limit,
        # so capping the sizes there keeps each comparison and int64 safe.
        rows.append((config.pe_array_height, config.pe_array_width,
                     config.registers_per_pe, datapath.pe.pipeline_stages,
                     datapath.rewind_cycles, datapath.per_move_cycles,
                     min(config.ifmap_buffer_bytes, EXACT_LIMIT),
                     min(config.output_buffer_bytes, EXACT_LIMIT),
                     config.ifmap_division, config.output_division, batch))
        per_cycle.append(memory.bytes_per_cycle)
        has_psum.append(datapath.psum_buffer is not None)
    columns = np.array(rows, dtype=np.int64)
    per_cycle = np.array(per_cycle)
    if len(rows) == 1:
        # Numpy scalars: one design's charges are plain (L,) arrays, which
        # skips the broadcasting cost a (1, 1) column adds to every step.
        return columns[0], per_cycle[0], has_psum
    return columns.T[:, :, np.newaxis], per_cycle[:, np.newaxis], has_psum


def _layer_columns(phases, traffic, ifmap_bytes, ofmap_bytes, output_buffer,
                   bytes_per_cycle, macs) -> List[List[List[int]]]:
    """Per design, one column of Python ints per
    :class:`~repro.simulator.results.LayerResult` field after ``name``, in
    field order, with one entry per layer.

    ``phases`` are the on-chip charges (mappings, weight load, ifmap prep,
    psum move, activation transfer, compute) and ``traffic`` the DRAM
    bytes besides the activations, which move only when not resident.  A
    layer takes ``max(on_chip, dram)`` cycles (double-buffered DMA).
    """
    output_resident = ofmap_bytes <= output_buffer
    output_resident[..., -1] = False  # the last layer's output goes to DRAM
    input_resident = np.zeros_like(output_resident)
    input_resident[..., 1:] = output_resident[..., :-1]
    traffic = (traffic + np.where(input_resident, 0, ifmap_bytes)
               + np.where(output_resident, 0, ofmap_bytes))

    _, weight_load, ifmap_prep, psum_move, activation, compute = phases
    on_chip = weight_load + ifmap_prep + psum_move + compute + activation
    dram = np.ceil(traffic / bytes_per_cycle).astype(np.int64)
    charges = np.array((*phases, traffic, dram, np.maximum(on_chip, dram), macs))
    if charges.ndim == 2:  # one design, without the design axis
        charges = charges[:, np.newaxis]
    # (10, D, L) -> (D, 10, L): per design, one column per field.
    return charges.transpose(1, 0, 2).tolist()


def charge_network(
    table: LayerTable, designs: Sequence[Design],
) -> Tuple[List[List[List[int]]], List[Dict[str, float]]]:
    """Every layer's weight-stationary charges, and each run's activity,
    for several designs of one network in one array pass.

    The config terms are ``(D, 1)`` columns against the table's ``(L,)``
    layer columns, so every charge is a ``(D, L)`` array.  The arithmetic
    is rank-polymorphic (it indexes layers with ``[..., -1]`` and folds
    along ``axis=-1``): a single design passes its terms as scalars and
    runs the same code on ``(L,)`` arrays.

    Returns, per design, the :func:`_layer_columns` (mappings, weight load,
    ifmap prep, psum move, activation transfer, compute, DRAM traffic,
    DRAM cycles, total, MACs), and the effective activity cycles per unit
    in sorted-unit order.  Both are bitwise what a loop of
    :func:`~repro.simulator.engine.simulate_layer` produces for that
    design alone.

    Raises:
        SimulationError: ``simulation.charge_overflow`` when some charge
            of some design could reach :data:`EXACT_LIMIT`.
    """
    columns, bytes_per_cycle, has_psum = _design_columns(table, designs, _ws_bounds)
    (height, width, registers, pe_stages, rewind, per_move, ifmap_buffer,
     output_buffer, ifmap_division, output_division, batch) = columns

    vectors = table.pixels * batch
    full_rows, rem_rows = np.divmod(table.reduction, height)
    has_rem_rows = rem_rows > 0
    row_tiles = full_rows + has_rem_rows
    full_cols, rem_filters = np.divmod(table.filters, width * registers)
    has_rem_cols = rem_filters > 0
    col_tiles = full_cols + has_rem_cols
    # The remainder filters spread over as few register planes as needed.
    rem_regs = np.minimum(registers, -(-rem_filters // width))
    rem_cols = -(-rem_filters // np.maximum(rem_regs, 1))

    # Each column class maps every row tile once per group and column
    # tile; its row tiles' rows add up to the reduction size.  An absent
    # class has count 0.
    full_count = full_cols * table.groups
    rem_count = has_rem_cols * table.groups
    full_load, full_fill = tile_charges(
        table.reduction, width, registers, vectors, pe_stages, row_tiles)
    rem_load, rem_fill = tile_charges(
        table.reduction, rem_cols, rem_regs, vectors, pe_stages, row_tiles)
    weight_load = full_count * full_load + rem_count * rem_load
    compute = full_count * full_fill + rem_count * rem_fill

    mappings = table.groups * col_tiles * row_tiles
    ifmap_prep = (mappings - 1) * rewind
    psum_move = table.groups * col_tiles * (row_tiles - 1) * per_move

    ofmap_bytes = table.ofmap * batch
    activation = np.ceil(ofmap_bytes / height).astype(np.int64)
    activation[..., -1] = 0  # the last layer's output goes to DRAM

    ifmap_bytes = table.ifmap * batch
    ifmap_fits = ((ifmap_bytes <= ifmap_buffer)
                  & (table.channels * batch <= height * ifmap_division))
    refetch = np.where(ifmap_fits, 1, col_tiles)
    macs = table.macs * batch
    layer_columns = _layer_columns(
        (mappings, weight_load, ifmap_prep, psum_move, activation, compute),
        table.weights + ifmap_bytes * (refetch - 1), ifmap_bytes, ofmap_bytes,
        output_buffer, bytes_per_cycle, macs)

    array_activity = macs / (height * width)
    dau = _dau_cycles(full_count * vectors * registers,
                      rem_count * vectors * rem_regs, full_rows, rem_rows, height)
    units = ("dau", "ifmap_buffer", "network", "output_buffer", "pe_array",
             "psum_buffer", "weight_buffer")
    # Left folds over the layers, in layer order: accumulate never
    # reassociates, unlike the pairwise np.sum.
    folded = np.add.accumulate(np.array(
        (dau, (compute + ifmap_prep) / ifmap_division, array_activity,
         compute / output_division + psum_move, array_activity, psum_move,
         weight_load), dtype=np.float64), axis=-1)[..., -1]
    if folded.ndim == 1:  # one design, without the design axis
        folded = folded[:, np.newaxis]
    activity = [
        {unit: value for unit, value in zip(units, totals)
         if psum or unit != "psum_buffer"}
        for totals, psum in zip(folded.T.tolist(), has_psum)
    ]
    return layer_columns, activity


def charge_network_os(
    table: LayerTable, designs: Sequence[Design],
) -> List[List[List[int]]]:
    """Every layer's output-stationary charges, per design the
    :func:`_layer_columns`, for several designs of one network in one pass.

    A tile of ``height x width`` outputs stays in the PEs while the whole
    reduction streams through: ``ceil(E*F*B / height) * ceil(K / width) *
    groups`` tiles, each charged ``reduction + pe_stages`` compute cycles,
    a ``height``-cycle drain (as activation transfer, the last layer's
    too), an ifmap rewind (but the first) and ``min(reduction, height) *
    min(K, width)`` weight bytes, re-streamed per tile and loaded one per
    column per cycle.  Accumulation is in place: no psum movement, and no
    WS ifmap refetch.

    Raises:
        SimulationError: ``simulation.charge_overflow`` when some charge
            of some design could reach :data:`EXACT_LIMIT`.
    """
    columns, bytes_per_cycle, _ = _design_columns(table, designs, _os_bounds)
    height, width, _, pe_stages, rewind, _, _, output_buffer, _, _, batch = columns

    tiles = (-(-table.pixels * batch // height)) * (-(-table.filters // width)) * table.groups
    weight_tile = np.minimum(table.reduction, height) * np.minimum(table.filters, width)
    phases = (tiles, tiles * -(-weight_tile // width), (tiles - 1) * rewind,
              np.zeros_like(tiles), tiles * height, tiles * (table.reduction + pe_stages))
    return _layer_columns(phases, tiles * weight_tile, table.ifmap * batch,
                          table.ofmap * batch, output_buffer, bytes_per_cycle,
                          table.macs * batch)


def _dau_cycles(full_tile: np.ndarray, rem_tile: np.ndarray, full_rows: np.ndarray,
                rem_rows: np.ndarray, height) -> np.ndarray:
    """Each (design's) layer's DAU activity, equal to the reference's fold
    over tiles.

    ``full_tile`` and ``rem_tile`` are ``count * vectors * regs`` of one
    mapping tile of the full and of the remainder column class.  In tile
    order the reference adds, for each column class, ``full_rows``
    full-row terms ``per_tile`` (``rows / height`` is exactly 1.0), then
    one remainder-row term ``per_tile * (rem_rows / height)``.

    The full class's full-row terms are integers, so their prefix sums
    are exact, and its one remainder term is rounded once, as here.  The
    remainder class then adds the integer ``rem_tile`` ``full_rows``
    times to that sum, ``first``.  All those partial sums share
    ``first``'s binary fraction: with ``first = n * 2**-k`` (``n`` odd when
    ``k > 0``) they are ``n_j * 2**-k`` for odd, increasing ``n_j``, and
    each is representable iff ``n_j < 2**53``.  So every addition of the
    run is exact iff its last sum is, that is iff the one closed-form
    addition below has zero rounding error (TwoSum).  Where it has not,
    that layer (of that design) is folded tile by tile, as the reference
    does.
    """
    row_share = rem_rows / height
    first = (full_rows * full_tile).astype(np.float64) + full_tile * row_share
    second = (full_rows * rem_tile).astype(np.float64)
    middle = first + second
    # TwoSum: the exact rounding error of first + second.
    shift = middle - first
    error = (first - (middle - shift)) + (second - shift)
    rem_last = rem_tile * row_share
    dau = middle + rem_last
    for index in zip(*np.nonzero(error)):
        acc = float(first[index])
        step = float(rem_tile[index])
        for _ in range(int(full_rows[index])):
            acc += step
        dau[index] = acc + float(rem_last[index])
    return dau
