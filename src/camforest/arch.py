"""End-to-end behavioral inference on the programmed arrays.

Programming turns every stored range into a conductance pair (optionally
quantized and noised), tile by tile; padding slots hold wildcards. It runs in
two steps: the encoding (calibration, conductances, slot tables and vote
matrix) depends on the plan and quantization only, and each trial then adds
its own programming noise. Programming then sorts the branches: a branch
whose discharge gate stays at or below the transistor threshold across the
whole DL window draws exactly 0.0 A for every (clipped) input and is skipped.
The remaining branches are the kernel's terms, and programming compiles
one schedule of adds that turns them into row totals: the adds of numpy's
pairwise sum over a dense row of W cell currents, in numpy's order, pruned
to the cells that hold terms. Inference computes each input's T1 current
once, runs the rest of the cell law on the terms only and runs the
schedule, so that every ML voltage is bit-identical to evaluating every
cell. It then integrates over the clock window, senses the match lines,
ANDs each original row across its groups, and reads the majority vote as
per-class currents through the conductance matrix.

The kernel evaluates programs on a leading axis. A single program is the
one-row case; a sweep point runs all its trials as one batch over the union
of their terms, where a branch one trial skips adds exactly 0.0 to its row.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cell import (
    CellParams,
    Parasitics,
    lower_branch_t1,
    t1_current,
    upper_branch_t1,
)
from .device import (
    DeviceModel,
    build_calibration,
    encode_bounds,
    feature_to_voltage,
    inject_noise,
    reference_current,
    V_DL_MAX,
    V_DL_MIN,
)
from .errors import ConfigError, DataError
from .forest import Forest
from .mapper import TiledPlan, compile_forest

SWEEP_VARIABLES = ("sigma", "n_bits", "t_clk", "tile_h", "tile_w")

# Byte budget of one chunk of the kernel's per-row arrays (see
# ``_chunk_shape``): large enough to amortise the per-chunk numpy calls,
# small enough to keep a chunk's passes in cache. At twice this budget a
# fresh process refaulted the per-chunk temporaries on every chunk of its
# first call (ten times the minor page faults on a 16-feature model).
CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class ArchConfig:
    """Electrical operating point of the match and vote arrays."""

    params: CellParams = CellParams()
    parasitics: Parasitics = Parasitics()
    t_clk: float = 1e-6
    v_ml0: float = 0.8
    v_sa: float = 0.4
    v_read: float = 0.2
    vote_sigma: float = 0.0

    def __post_init__(self):
        if self.t_clk <= 0:
            raise ConfigError("t_clk must be positive")
        if not 0 < self.v_sa < self.v_ml0:
            raise ConfigError("need 0 < v_sa < v_ml0")
        if self.v_read <= 0 or self.vote_sigma < 0:
            raise ConfigError("v_read must be positive, vote_sigma >= 0")


@dataclass(frozen=True)
class _Encoding:
    """The noise-free part of programming, shared by every trial programmed
    from one (plan, n_bits). Cells are flat, group after group, each group
    in (stacked tile, row, column) order."""

    plan: TiledPlan
    config: ArchConfig
    device: DeviceModel
    n_classes: int
    feature_bounds: tuple
    n_bits: int | None
    m1: np.ndarray            # (cells,) encoded conductances before noise
    m2: np.ndarray
    groups: tuple             # per group: slice of its cells
    cell_input: np.ndarray    # (cells,) DL source: original feature, F = padding
    slot_rows: tuple
    vote_matrix: np.ndarray


@dataclass(frozen=True)
class _RowSchedule:
    """The adds that turn the term currents of a (program, sample) row into
    slot totals, each bit-identical to numpy's sum of the slot's dense row
    of W cell currents: the dense sum's adds in its order, pruned to the
    cells that hold terms (a skipped cell adds exactly 0.0). A two-branch
    cell first adds its lower and upper term, as the dense cell current
    does.

    The values are the terms, then each add's result, level by level: the
    adds of one level read only earlier values and write values
    ``start:stop``."""

    width: int                # terms + adds
    levels: tuple             # per level: (start, stop, a values, b values)
    slots: np.ndarray         # flat ids of the slots that hold terms
    roots: np.ndarray         # per such slot, the value of its row total

    def run(self, values) -> np.ndarray:
        """(slots, rows) row totals, after filling ``values[terms:]`` of the
        (width, rows) ``values`` whose first rows hold the terms."""
        for start, stop, a, b in self.levels:
            np.add(values[a], values[b], out=values[start:stop])
        return values[self.roots]


@dataclass(frozen=True)
class _Programs:
    """What inference reads: one or more programs (trials) of one encoding,
    sharing one kernel term layout, with one row of term conductances each.

    Tiles of all groups are stacked in group order; a slot is one tile row
    and its flat id is ``stacked tile * H + row``.
    """

    plan: TiledPlan
    config: ArchConfig
    device: DeviceModel
    n_classes: int
    feature_bounds: tuple     # original feature order
    vote_matrix: np.ndarray   # (rows, n_classes)
    n_bits: int | None
    sigma_rel: float
    slot_rows: tuple          # per group: (map row ids, flat slot ids)
    active_input: np.ndarray  # (cells,) DL source: original feature, F = padding
    active_cell: np.ndarray   # (cells,) flat slot * W + column
    # Kernel terms: the branches of active cells that can draw current,
    # lower branches first, then upper branches.
    term_cell: np.ndarray     # (terms,) index into the active_* arrays
    n_lower: int              # terms[:n_lower] are lower branches
    row_terms: _RowSchedule   # how the terms add up to row totals
    term_g: np.ndarray        # (programs, terms): g_m1 of lower, g_m2 of upper terms

    @property
    def n_active_arrays(self) -> int:
        return sum(1 for tiles in self.plan.groups if tiles)

    @property
    def cycles_per_decision(self) -> int:
        # Pre-charge, evaluate, latch per array, then one vote read.
        return 3 * self.n_active_arrays + 1


@dataclass(frozen=True)
class ProgrammedArchitecture(_Programs):
    """Immutable programmed state of one trial, shared read-only by
    inference: the one-program case, which also keeps every cell."""

    cells_m1: tuple           # per group: (tiles, H, W) conductances
    cells_m2: tuple
    active_m1: np.ndarray     # (cells,) conductances of cells that can draw current
    active_m2: np.ndarray


@dataclass(frozen=True)
class InferenceTrace:
    """Single-sample record of every intermediate decision signal."""

    ml_outputs: dict          # (group, tile) -> (H,) match booleans
    ml_voltages: dict         # (group, tile) -> (H,) volts at sense time
    row_matches: np.ndarray   # (rows,) AND-combined results
    vote_currents: np.ndarray  # (n_classes,) amperes
    predicted: int
    cycles: int


def _slot_table(tiles, tile_h: int, empty: int) -> np.ndarray:
    """(tiles, H) map row id per slot; padding slots hold ``empty``."""
    table = np.full((len(tiles), tile_h), empty, dtype=np.intp)
    for t, tile in enumerate(tiles):
        table[t, :len(tile)] = tile
    return table


def _branches_can_draw(g_m1, g_m2, params: CellParams) -> tuple:
    """(lower, upper): cells whose lower/upper branch draws current for
    some DL input in the (clipping) window.

    Within a regime of the fitted T1 law each branch's current is monotone
    in the DL voltage, so its maximum over the window lies at a window end
    or on either side of a regime boundary inside it. A branch that draws
    0.0 A at all of those draws exactly 0.0 A for every input."""
    probes = [V_DL_MIN, V_DL_MAX]
    for b in (params.v_sub_max, params.v_ohmic_min):
        if V_DL_MIN < b <= V_DL_MAX:
            probes += [np.nextafter(b, -np.inf), b]
    v = np.reshape(probes, (-1,) + (1,) * np.ndim(g_m1))
    i_t1 = t1_current(v, None, params)
    return (np.any(lower_branch_t1(i_t1, g_m1, params) > 0, axis=0),
            np.any(upper_branch_t1(i_t1, g_m2, params) > 0, axis=0))


def _encode(plan: TiledPlan, device: DeviceModel, config: ArchConfig,
            feature_bounds, n_classes: int, n_bits: int | None) -> _Encoding:
    """Calibrate, encode the plan's ranges into noise-free conductances and
    build the slot tables and the vote matrix."""
    n_features = plan.tmap.n_features
    if len(feature_bounds) != n_features:
        raise DataError("feature_bounds length differs from plan features")
    bounds = np.asarray(feature_bounds, dtype=float)
    if bounds.shape != (n_features, 2) or not (
            np.all(np.isfinite(bounds)) and np.all(bounds[:, 0] < bounds[:, 1])):
        raise DataError("feature bounds must be finite with min < max")
    i_ref = reference_current(config.parasitics.ml_capacitance(plan.tile_w),
                              config.v_ml0, config.v_sa, config.t_clk)
    cal = build_calibration(config.params, device, i_ref)
    h, w = plan.tile_h, plan.tile_w
    n_rows = len(plan.tmap.rows)
    padded = plan.n_groups * w
    # Map-order bounds padded with a wildcard row (for padding slots) and
    # wildcard columns; padding columns take any valid feature bounds.
    lo = np.full((n_rows + 1, padded), -np.inf)
    hi = np.full((n_rows + 1, padded), np.inf)
    lo[:n_rows, :n_features], hi[:n_rows, :n_features] = \
        plan.tmap.bound_arrays()
    col_feature = np.full(padded, n_features, dtype=np.intp)
    col_feature[:n_features] = plan.col_perm
    col_bounds = np.tile([0.0, 1.0], (padded, 1))
    col_bounds[:n_features] = bounds[col_feature[:n_features]]

    m1, m2, inputs, groups, slot_rows = [], [], [], [], []
    first_slot = 0
    for g, tiles in enumerate(plan.groups):
        cols = slice(g * w, (g + 1) * w)
        table = _slot_table(tiles, h, n_rows)
        g_m1, g_m2 = encode_bounds(lo[:, cols][table], hi[:, cols][table],
                                   col_bounds[cols], device, cal, n_bits)
        m1.append(g_m1.ravel())
        m2.append(g_m2.ravel())
        inputs.append(np.broadcast_to(col_feature[cols], g_m1.shape).ravel())
        groups.append(slice(first_slot * w, (first_slot + table.size) * w))
        slots = first_slot + np.arange(table.size)
        placed = table.ravel() < n_rows
        slot_rows.append((table.ravel()[placed], slots[placed]))
        first_slot += table.size
    labels = plan.tmap.labels
    if labels.size and not 0 <= labels.min() <= labels.max() < n_classes:
        raise DataError("row class outside [0, n_classes)")
    vote = np.full((labels.size, n_classes), device.g_hrs)
    vote[np.arange(labels.size), labels] = device.g_lrs
    return _Encoding(
        plan=plan, config=config, device=device, n_classes=n_classes,
        feature_bounds=tuple(map(tuple, bounds.tolist())), n_bits=n_bits,
        m1=np.concatenate(m1), m2=np.concatenate(m2), groups=tuple(groups),
        cell_input=np.concatenate(inputs), slot_rows=tuple(slot_rows),
        vote_matrix=vote)


def _noisy(device: DeviceModel, sigma_rel: float | None) -> DeviceModel:
    """``device`` with ``sigma_rel`` (when given) as its programming noise."""
    return replace(device, sigma_rel=(device.sigma_rel if sigma_rel is None
                                      else float(sigma_rel)))


def _draw(enc: _Encoding, device: DeviceModel, seed) -> tuple:
    """Flat (g_m1, g_m2) of one trial: the encoding with programming noise
    from the trial's own stream, drawn group by group, m1 before m2."""
    rng = np.random.default_rng(seed)
    m1, m2 = np.empty_like(enc.m1), np.empty_like(enc.m2)
    for cells in enc.groups:
        m1[cells] = inject_noise(enc.m1[cells], device, rng)
        m2[cells] = inject_noise(enc.m2[cells], device, rng)
    return m1, m2


def _program_trials(enc: _Encoding, device: DeviceModel, seeds) -> tuple:
    """(``_Programs`` fields, the last trial's flat (g_m1, g_m2)) of one
    program per seed, over one term layout: the union of the branches that
    can draw current in any of them.

    A trial keeps its own conductance on a union branch it skips, which
    draws exactly 0.0 A, and adding 0.0 to a row total changes no bit, so
    each trial's ML voltages are those of its own program. Each trial keeps
    its conductances on the cells of the union found so far; one drawn
    before the union last grew is drawn again, so no (trials, cells) array
    is held."""
    can_lower = can_upper = False
    kept = []
    for seed in seeds:
        m1, m2 = _draw(enc, device, seed)
        lower, upper = _branches_can_draw(m1, m2, enc.config.params)
        can_lower = can_lower | lower
        can_upper = can_upper | upper
        held = np.flatnonzero(can_lower | can_upper)
        kept.append((m1[held], m2[held]))
    active = held
    lower, upper = can_lower[active], can_upper[active]
    term_cell = np.concatenate([np.flatnonzero(lower), np.flatnonzero(upper)])
    n_lower = int(lower.sum())
    term_g = np.empty((len(seeds), term_cell.size))
    for trial, (seed, (a_m1, a_m2)) in enumerate(zip(seeds, kept)):
        if a_m1.size < active.size:
            a_m1, a_m2 = (g[active] for g in _draw(enc, device, seed))
        term_g[trial, :n_lower] = a_m1[term_cell[:n_lower]]
        term_g[trial, n_lower:] = a_m2[term_cell[n_lower:]]
    second = np.concatenate([np.zeros(n_lower, dtype=bool), lower[upper]])
    plan = enc.plan
    fields = dict(
        plan=plan, config=enc.config, device=enc.device,
        n_classes=enc.n_classes, feature_bounds=enc.feature_bounds,
        vote_matrix=enc.vote_matrix, n_bits=enc.n_bits,
        sigma_rel=device.sigma_rel, slot_rows=enc.slot_rows,
        active_input=enc.cell_input[active], active_cell=active,
        term_cell=term_cell, n_lower=n_lower,
        row_terms=_row_terms(active[term_cell], second,
                             plan.n_tiles * plan.tile_h, plan.tile_w),
        term_g=term_g)
    return fields, (m1, m2)


def program(plan: TiledPlan, device: DeviceModel, config: ArchConfig,
            feature_bounds, n_classes: int, n_bits: int | None = None,
            sigma_rel: float | None = None, seed=0) -> ProgrammedArchitecture:
    """Encode the plan's ranges into conductances and build the vote matrix.

    ``sigma_rel`` overrides the device's programming-noise setting; noise
    applies to the CAM cells only (the vote array is treated as ideal).
    Deterministic for a fixed seed.
    """
    enc = _encode(plan, device, config, feature_bounds, n_classes, n_bits)
    fields, (m1, m2) = _program_trials(enc, _noisy(device, sigma_rel), [seed])
    active = fields["active_cell"]

    def grids(flat):
        return tuple(flat[cells].reshape(-1, plan.tile_h, plan.tile_w)
                     for cells in enc.groups)

    return ProgrammedArchitecture(
        **fields, cells_m1=grids(m1), cells_m2=grids(m2),
        active_m1=m1[active], active_m2=m2[active])


def _dense_sum_order(w: int) -> tuple:
    """The adds of numpy's float ``add.reduce`` over a contiguous row of
    ``w`` values: ((left, right) per add in evaluation order, depth per
    value). Values 0..w-1 are the row, value w + k is the k-th add.

    Pairwise summation: below 8 values the row is added in sequence; from 8
    to 128, eight partial sums r[j] = a[j] + a[j + 8] + ... are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the w mod 8 tail
    is added in sequence; above 128 the row splits at w / 2, rounded down to
    a multiple of 8, and each part is summed that way."""
    adds, depth = [], [0] * w

    def add(a, b):
        adds.append((a, b))
        depth.append(1 + max(depth[a], depth[b]))
        return len(depth) - 1

    def pairwise(lo, n):
        if n < 8:
            total = lo
            for i in range(lo + 1, lo + n):
                total = add(total, i)
            return total
        if n <= 128:
            r = list(range(lo, lo + 8))
            for i in range(lo + 8, lo + n - n % 8, 8):
                r = [add(r[j], i + j) for j in range(8)]
            total = add(add(add(r[0], r[1]), add(r[2], r[3])),
                        add(add(r[4], r[5]), add(r[6], r[7])))
            for i in range(lo + n - n % 8, lo + n):
                total = add(total, i)
            return total
        half = n // 2 - n // 2 % 8
        return add(pairwise(lo, half), pairwise(lo + half, n - half))

    pairwise(0, w)
    return adds, depth


def _row_terms(term_pos, second, n_slots: int, w: int) -> _RowSchedule:
    """``_Programs.row_terms`` from each term's flat cell position (slot * W
    + column) and whether it is the second term of its cell.

    Walks the dense sum's adds by depth for every slot at once: an add with
    both operands present becomes a schedule add, one with a single operand
    passes it on and one with none stays absent. A two-branch cell's leaf is
    the add of its first and second term."""
    n_terms = term_pos.size
    later = np.flatnonzero(second)
    leaf = np.full(n_slots * w, -1, dtype=np.intp)
    leaf[term_pos[~second]] = np.flatnonzero(~second)
    ops = [(leaf[term_pos[later]], later, np.ones(later.size, dtype=np.intp))]
    leaf[term_pos[later]] = n_terms + np.arange(later.size)
    n_adds = later.size
    slots = np.flatnonzero(np.bincount(term_pos // w, minlength=n_slots))
    adds, depth = _dense_sum_order(w)
    # Per value of the dense sum (rows) and slot (columns): the schedule
    # value that holds it, -1 where the slot has none, and the kernel level
    # at which it is ready.
    value = np.full((len(depth), slots.size), -1, dtype=np.intp)
    value[:w] = leaf.reshape(n_slots, w)[slots].T
    level = (value >= n_terms).astype(np.intp)
    left, right = np.array(adds, dtype=np.intp).reshape(-1, 2).T
    add_depth = np.array(depth[w:], dtype=np.intp)
    for d in range(1, max(depth) + 1):
        node = np.flatnonzero(add_depth == d)
        a, b = value[left[node]], value[right[node]]
        both = (a >= 0) & (b >= 0)
        node_level = np.maximum(level[left[node]], level[right[node]]) + both
        node_value = np.where(a >= 0, a, b)
        k = int(np.count_nonzero(both))
        node_value[both] = n_terms + n_adds + np.arange(k)
        ops.append((a[both], b[both], node_level[both]))
        n_adds += k
        value[w + node], level[w + node] = node_value, node_level
    # Number the adds level by level, so that each level writes one
    # contiguous run of values.
    a, b, add_level = (np.concatenate(x) for x in zip(*ops))
    order = np.argsort(add_level, kind="stable")
    renumber = np.arange(n_terms + n_adds)
    renumber[n_terms + order] = n_terms + np.arange(n_adds)
    a, b = renumber[a[order]], renumber[b[order]]
    stops = np.cumsum(np.bincount(add_level, minlength=1))
    levels = tuple((n_terms + start, n_terms + stop, a[start:stop],
                    b[start:stop])
                   for start, stop in zip(stops[:-1], stops[1:])
                   if stop > start)
    return _RowSchedule(width=n_terms + n_adds, levels=levels, slots=slots,
                        roots=renumber[value[-1]])


def program_forest(forest: Forest, device: DeviceModel = DeviceModel(),
                   config: ArchConfig = ArchConfig(), tile_h: int = 16,
                   tile_w: int = 16, reorder_map: bool = True,
                   n_bits: int | None = None, sigma_rel: float | None = None,
                   seed=0) -> ProgrammedArchitecture:
    """Compile and program a trained forest in one step."""
    plan = compile_forest(forest, tile_h, tile_w, reorder_map)
    return program(plan, device, config, forest.feature_bounds,
                   forest.n_classes, n_bits, sigma_rel, seed)


def _check_samples(arch, X) -> np.ndarray:
    """``X`` as a finite (samples, features) float array for ``arch``'s plan."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != arch.plan.tmap.n_features:
        raise DataError(f"samples must have {arch.plan.tmap.n_features} features")
    if not np.all(np.isfinite(X)):
        raise DataError("samples contain NaN or infinite features")
    return X


def _clock(config: ArchConfig, t_clk) -> float:
    t = config.t_clk if t_clk is None else float(t_clk)
    if t <= 0:
        raise ConfigError("t_clk must be positive")
    return t


def _input_voltages(arch, X) -> np.ndarray:
    """(samples, F + 1) DL voltages in original feature order; the last
    column is the mid-window voltage that drives padding columns."""
    v = np.empty((X.shape[0], X.shape[1] + 1))
    v[:, :-1] = feature_to_voltage(X, arch.feature_bounds)
    v[:, -1] = 0.5 * (V_DL_MIN + V_DL_MAX)
    return v


def _term_t1(arch: _Programs, v_in) -> np.ndarray:
    """(terms, samples) T1 current of each term's input. It depends on the
    input alone, so it is computed once per (sample, feature) and shared by
    every program."""
    i_t1 = t1_current(v_in, None, arch.config.params)
    return i_t1.T[arch.active_input[arch.term_cell]]


def _workspace(arch: _Programs, rows: int) -> tuple:
    """(values, row current) buffers for kernel calls of up to ``rows``
    rows: the flat values buffer and the (slots, rows) row currents, zero."""
    return (np.empty(arch.row_terms.width * rows),
            np.zeros((arch.plan.n_tiles * arch.plan.tile_h, rows)))


def _ml_voltages(arch: _Programs, term_t1, t: float, g=None,
                 work=None) -> np.ndarray:
    """(programs * samples, slots) ML voltages at sense time, program-major,
    of the programs whose term conductances are the rows of ``g`` (default
    ``arch.term_g``) on the samples whose ``_term_t1`` is ``term_t1``.

    The rest of the cell law runs on the terms only: the branches of active
    cells that can draw current (a cell's other branch adds exactly 0.0).
    Each row total must equal the dense sum over all W cell currents bit for
    bit, where every skipped cell adds 0.0: ``arch.row_terms`` replays that
    sum's adds on the terms. The kernel works term-major, one (program,
    sample) row per column, so each add level gathers whole rows; the
    result is the transpose of a (slots, rows) array. ``work`` is a
    ``_workspace`` of at least this call's rows, reused across calls."""
    cfg = arch.config
    p = cfg.params
    schedule = arch.row_terms
    g = arch.term_g if g is None else g
    n_lower = arch.n_lower
    n_samples = term_t1.shape[1]
    rows = len(g) * n_samples
    buffer, row_current = _workspace(arch, rows) if work is None else work
    values = buffer[:schedule.width * rows].reshape(schedule.width, rows)
    row_current = row_current[:, :rows]
    terms = values.reshape(schedule.width, len(g), n_samples)
    terms[:n_lower] = lower_branch_t1(
        term_t1[:n_lower, None], g.T[:n_lower, :, None], p)
    terms[n_lower:g.shape[1]] = upper_branch_t1(
        term_t1[n_lower:, None], g.T[n_lower:, :, None], p)
    row_current[schedule.slots] = schedule.run(values)
    c_ml = cfg.parasitics.ml_capacitance(arch.plan.tile_w)
    return np.maximum(cfg.v_ml0 - row_current * t / c_ml, 0.0).T


def _chunk_shape(arch: _Programs, n_samples: int) -> tuple:
    """(programs, samples) per kernel chunk: either every sample of several
    programs or a run of one program's samples, so that a chunk's
    program-major rows are contiguous. A chunk holds, per sample, the T1
    current of every term and, per (program, sample) row, the cell law's
    currents of one branch side (at most every term), the schedule's values
    (terms, then adds) and the row current and ML voltage of every slot;
    per program it holds the term conductances."""
    n_terms = arch.term_cell.size
    per_row = (n_terms + arch.row_terms.width
               + 2 * arch.plan.n_tiles * arch.plan.tile_h)
    samples = max(1, CHUNK_BYTES // (8 * max(1, n_terms + per_row)))
    if samples < n_samples:
        return 1, samples
    programs = ((CHUNK_BYTES // 8 - n_samples * n_terms)
                // max(1, n_samples * per_row + n_terms))
    return max(1, min(programs, len(arch.term_g))), max(1, n_samples)


def _evaluate_programs(arch: _Programs, v_in, t: float,
                       keep_matches: bool = False, collect: bool = False):
    """Every program of ``arch`` on DL inputs ``v_in`` at sense time ``t``.

    Returns (row matches if ``keep_matches``, vote currents, (sensed lines,
    ML voltages) of the first row if ``collect``), one row per (program,
    sample), program-major. One ``_workspace``, sized for the largest
    chunk, serves every chunk."""
    cfg = arch.config
    n_programs, n_samples = len(arch.term_g), len(v_in)
    n_rows = len(arch.plan.tmap.rows)
    per_chunk, samples = _chunk_shape(arch, n_samples)
    work = _workspace(arch, min(per_chunk, n_programs)
                      * min(samples, n_samples))
    # Exact-count evaluation of v_read * (matches @ vote_matrix): each vote
    # row holds g_lrs on its class and g_hrs elsewhere, so per-class
    # currents follow from counts of matched rows. Those are sums of 0.0
    # and 1.0 far below 2**53, exact in float64 in any summation order, so
    # classes with equal counts get bitwise-equal currents and argmax ties
    # resolve to the lowest index, not to float summation-order noise.
    onehot = (arch.vote_matrix == arch.device.g_lrs).T.astype(float)
    g_hrs, g_lrs = arch.device.g_hrs, arch.device.g_lrs
    size = n_programs * n_samples
    matches = np.empty((size, n_rows), dtype=bool) if keep_matches else None
    currents = np.empty((size, arch.n_classes))
    first = None
    for s0 in range(0, n_samples, samples):
        term_t1 = _term_t1(arch, v_in[s0:s0 + samples])
        for k0 in range(0, n_programs, per_chunk):
            g = arch.term_g[k0:k0 + per_chunk]
            r0 = k0 * n_samples + s0
            r1 = r0 + len(g) * term_t1.shape[1]
            v_ml = _ml_voltages(arch, term_t1, t, g, work)
            ml = v_ml.T > cfg.v_sa
            block = np.ones((n_rows, r1 - r0), dtype=bool)
            for rows, slots in arch.slot_rows:
                block[rows] &= ml[slots]
            counts = onehot @ block.astype(float)
            total = block.sum(axis=0)
            currents[r0:r1] = (cfg.v_read * (g_hrs * total +
                                             (g_lrs - g_hrs) * counts)).T
            if matches is not None:
                matches[r0:r1] = block.T
            if collect and first is None:
                first = ml[:, 0], v_ml[0]
    return matches, currents, first


def _evaluate(arch: ProgrammedArchitecture, X, t_clk=None, collect=False):
    """Core kernel: returns (row match matrix, vote currents, tile record)."""
    X = _check_samples(arch, X)
    t = _clock(arch.config, t_clk)
    matches, currents, first = _evaluate_programs(
        arch, _input_voltages(arch, X), t, keep_matches=True, collect=collect)
    tile_record = volt_record = None
    if collect:
        tile_record, volt_record = {}, {}
        h = arch.plan.tile_h
        slot = 0
        for g, tiles in enumerate(arch.plan.groups):
            for ti in range(len(tiles)):
                tile_record[(g, ti)] = first[0][slot:slot + h].copy()
                volt_record[(g, ti)] = first[1][slot:slot + h].copy()
                slot += h
    return matches, currents, (tile_record, volt_record)


def _vote(config: ArchConfig, currents, rng) -> np.ndarray:
    """Predicted class per sample from its vote currents (argmax, ties
    lowest), after vote noise drawn from ``rng`` when ``vote_sigma`` > 0."""
    if config.vote_sigma > 0:
        if rng is None:
            raise ConfigError("vote_sigma > 0 requires an rng")
        currents = currents * (
            1.0 + rng.normal(0.0, config.vote_sigma, currents.shape))
    return np.argmax(currents, axis=1)


def infer_batch(arch: ProgrammedArchitecture, X, t_clk=None,
                rng=None) -> np.ndarray:
    """Predicted class per sample (argmax of vote currents, ties lowest)."""
    _, currents, _ = _evaluate(arch, X, t_clk)
    return _vote(arch.config, currents, rng)


def infer(arch: ProgrammedArchitecture, sample, t_clk=None) -> InferenceTrace:
    """Single-sample inference keeping every intermediate signal."""
    sample = np.asarray(sample, dtype=float).reshape(1, -1)
    matches, currents, records = _evaluate(arch, sample, t_clk, collect=True)
    return InferenceTrace(
        ml_outputs=records[0],
        ml_voltages=records[1],
        row_matches=matches[0],
        vote_currents=currents[0],
        predicted=int(np.argmax(currents[0])),
        cycles=arch.cycles_per_decision,
    )


def _evaluation_set(X, y) -> tuple:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.size == 0 or y.size == 0:
        raise DataError("empty evaluation dataset")
    return X, y


def _score(pred, y, n_classes: int) -> tuple:
    """(fraction correct, confusion matrix[true, predicted])."""
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(confusion, (y, pred), 1)
    return float(np.mean(pred == y)), confusion


def evaluate_accuracy(arch: ProgrammedArchitecture, X, y, t_clk=None,
                      rng=None) -> tuple:
    """(fraction correct, confusion matrix[true, predicted]); ``rng`` drives
    the vote noise as in ``infer_batch``."""
    X, y = _evaluation_set(X, y)
    return _score(infer_batch(arch, X, t_clk, rng), y, arch.n_classes)


@dataclass(frozen=True)
class SweepResult:
    variable: str
    rows: tuple     # (value, trial, accuracy)
    summary: tuple  # (value, mean, std)


def sweep(forest: Forest, X, y, variable: str, grid, trials: int, seed: int,
          device: DeviceModel = DeviceModel(), config: ArchConfig = ArchConfig(),
          tile_h: int = 16, tile_w: int = 16, n_bits: int | None = None,
          sigma_rel: float | None = None, reorder_map: bool = True,
          workers: int | None = None) -> SweepResult:
    """Monte-Carlo accuracy sweep over one variable.

    Each (point, trial) programs with its own RNG substream and draws its
    vote noise from another, so results are independent of scheduling, and
    every row equals ``program(..., seed=[seed, i, trial])`` evaluated by
    ``evaluate_accuracy(..., rng=default_rng([seed, i, trial, 1]))``. A
    point's trials share one encoding and run as one batch; when its
    programming noise is zero they are one program, evaluated once. Points
    are the unit of work of the ``workers`` threads.
    Sweeping t_clk keeps the programming calibrated at the configured clock
    and only changes the evaluation window, mimicking a fixed part driven
    at a different speed.
    """
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}; "
                          f"choose from {', '.join(SWEEP_VARIABLES)}")
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep grid is empty")
    if trials < 1:
        raise ConfigError("trials must be at least 1")

    plans, encodings, points = {}, {}, []
    for i, value in enumerate(grid):
        h = int(value) if variable == "tile_h" else tile_h
        w = int(value) if variable == "tile_w" else tile_w
        nb = int(value) if variable == "n_bits" else n_bits
        sg = float(value) if variable == "sigma" else sigma_rel
        t_eval = float(value) if variable == "t_clk" else None
        if (h, w) not in plans:
            plans[h, w] = compile_forest(forest, h, w, reorder_map)
        if (h, w, nb) not in encodings:
            encodings[h, w, nb] = _encode(plans[h, w], device, config,
                                          forest.feature_bounds,
                                          forest.n_classes, nb)
        points.append((i, encodings[h, w, nb], _noisy(device, sg),
                       _clock(config, t_eval)))
    X, y = _evaluation_set(X, y)
    v_in = _input_voltages(points[0][1], _check_samples(points[0][1], X))

    def run(point):
        i, enc, noisy, t = point
        n_programs = trials if noisy.sigma_rel > 0 else 1
        fields, _ = _program_trials(
            enc, noisy, [[seed, i, trial] for trial in range(n_programs)])
        _, currents, _ = _evaluate_programs(_Programs(**fields), v_in, t)
        currents = currents.reshape(n_programs, len(v_in), -1)
        accs = []
        for trial in range(trials):
            vote_rng = (np.random.default_rng([seed, i, trial, 1])
                        if config.vote_sigma > 0.0 else None)
            pred = _vote(config, currents[min(trial, n_programs - 1)],
                         vote_rng)
            accs.append(_score(pred, y, enc.n_classes)[0])
        return accs

    n_workers = workers if workers else min(32, os.cpu_count() or 1)
    if n_workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=min(n_workers, len(points))) as pool:
            results = list(pool.map(run, points))
    else:
        results = [run(p) for p in points]
    rows = tuple((float(value), trial, acc)
                 for value, accs in zip(grid, results)
                 for trial, acc in enumerate(accs))
    summary = tuple((float(value), float(np.mean(accs)), float(np.std(accs)))
                    for value, accs in zip(grid, results))
    return SweepResult(variable=variable, rows=rows, summary=summary)
