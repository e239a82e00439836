"""End-to-end behavioral inference on the programmed arrays.

Programming turns every stored range into a conductance pair (optionally
quantized and noised), tile by tile; padding slots hold wildcards. It runs in
two steps: the encoding (calibration, conductances, slot tables and vote
matrix) depends on the plan and quantization only, and each trial then adds
its own programming noise.

A branch's discharge current is a monotone function of the T1 current of
its input, which calibration keeps strictly increasing in the DL voltage
across the window. ``device.band_edges`` gives the T1 current at which a
branch's current becomes exactly 0.0 and the one at which it alone pulls
the match line to the sense threshold, each the branch's conductance
times a constant; ``cell.t1_inverse`` turns them into DL voltages.
Programming keeps as terms the branches not at 0.0 A for every input in
the window. Inference decides each (program, slot, sample) with two
voltage compares per term, as a cell compares its data line with its
stored window: the slot matches when every term draws 0.0 A, and
mismatches when one term reaches the sense current, since currents are
never negative and rounded adds are monotone. Only the slots left, with a
term inside its band, run the cell law: every cell's lower plus upper
current in a zeroed row of W cells, summed along the row, which is the
every-cell evaluation's own expression, so every sensed bit equals it. A
trace senses every line of its one sample that way and votes on them.

Sensed bits live in packed words, 64 samples to a uint64. A kernel chunk
compares each data line's voltages with its compare rows (below) along
as many (program, 64 samples) words as its packed footprint allows within
``CHUNK_BYTES``, and packs their bits at once. Its undecided (line,
program, sample) triples run the cell law together, ORing the lines that
stay above v_sa into the words. Inference then ANDs each original row's
words across its groups and reads the majority vote as per-class currents
through the conductance matrix, from exact counts of each class's matched
rows, added in byte lanes: one byte per sample, eight to a uint64, at most
255 rows to an add, so that no lane carries into the next.

A split threshold bounds every leaf below it, so one (data line,
conductance) pair is stored in many rows: blobs16 holds 894 terms on 428
distinct pairs, wide64 1,475 on 740 and the ideal Iris program 301 on 84.
Programming builds a compare table of the distinct pairs, sorted on data
line; chunks compare each data line's row of voltages with the thresholds
of its rows, each distinct (data line, threshold) compared once, and
gather the packed words back to terms before reducing them per line.
Under programming noise every cell draws its own conductance, so each
term is its own compare row. A data line whose thresholds in a chunk
number at least twice its samples (a sweep point's 50 trials on Iris's
150 samples) sorts its samples once into a staircase of packed words, one
row per count of samples below a threshold, and reads each threshold's
words at its rank; any other compares in one broadcast per run of its
rows.

The kernel reads one type, ``ProgrammedArchitecture``: the encoding and the
term layout of its programs, which lie on a leading axis. A single program
is the one-row case; a sweep point runs all its trials as one batch over the
union of their terms, each trial with its own thresholds, so a term that
only another trial can draw on is found at 0.0 A on every input.
"""

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cell import (
    CellParams,
    Parasitics,
    lower_branch_t1,
    t1_current,
    t1_inverse,
    upper_branch_t1,
)
from .device import (
    DeviceModel,
    band_edges,
    build_calibration,
    encode_bounds,
    feature_to_voltage,
    inject_noise,
    reference_current,
    V_DL_MAX,
    V_DL_MIN,
)
from .errors import ConfigError, DataError
from .forest import Forest, _integer_labels
from .mapper import TiledPlan, compile_forest
from .perf import CYCLES_PER_ARRAY, V_ML0

SWEEP_VARIABLES = ("sigma", "n_bits", "t_clk", "tile_h", "tile_w")

# Relative widening of the classifier's T1-current edges toward the band:
# far above the rounding of the cell law and of its inverse (about 1e-13
# relative, the last bit of np.exp included) and far below the bands'
# widths (1e-3 relative and more).
BAND_MARGIN = 1e-9

# Byte budget of one kernel chunk's per-term arrays (see ``_chunk_shape``).
CHUNK_BYTES = 2 << 20

# The mid-window voltage that drives padding columns.
PAD_VOLTAGE = 0.5 * (V_DL_MIN + V_DL_MAX)


@dataclass(frozen=True)
class ArchConfig:
    """Electrical operating point of the match and vote arrays."""

    params: CellParams = CellParams()
    parasitics: Parasitics = Parasitics()
    t_clk: float = 1e-6
    v_ml0: float = V_ML0
    v_sa: float = 0.4
    v_read: float = 0.2
    vote_sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t_clk) and self.t_clk > 0):
            raise ConfigError("t_clk must be positive")
        if not 0 < self.v_sa < self.v_ml0:
            raise ConfigError("need 0 < v_sa < v_ml0")
        if not (self.v_read > 0 and math.isfinite(self.vote_sigma)
                and self.vote_sigma >= 0):
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
    feature_bounds: tuple     # original feature order
    n_bits: int | None
    m1: np.ndarray            # (cells,) encoded conductances before noise
    m2: np.ndarray
    groups: tuple             # per group: slice of its cells
    cell_input: np.ndarray    # (cells,) DL source: original feature, F = padding
    slot_rows: tuple          # per group: (map row ids, flat slot ids)
    vote_matrix: np.ndarray   # (rows, n_classes)
    class_rows: tuple         # per class: the rows holding g_lrs on it


@dataclass(frozen=True)
class ProgrammedArchitecture(_Encoding):
    """Immutable programmed state, shared read-only by inference: one or more
    programs (trials) of one encoding over one term layout (``program``
    gives one). Tiles of all groups are stacked in group order; a slot is
    one tile row, with flat id ``stacked tile * H + row``."""

    sigma_rel: float
    drawn: tuple              # the last program's flat (g_m1, g_m2)
    active_input: np.ndarray  # (cells,) DL source: original feature, F = padding
    active_cell: np.ndarray   # (cells,) flat slot * W + column, ascending
    # Kernel terms: the branches of active cells not at 0.0 A across the
    # window in some program, cell by cell, a cell's lower branch first.
    term_cell: np.ndarray     # (terms,) index into the active cells
    term_upper: np.ndarray    # (terms,) True for an upper branch
    term_g: np.ndarray        # (terms, programs): g_m1 of lower, g_m2 of upper terms
    term_slots: np.ndarray    # (lines,) flat ids of the slots holding terms
    line_terms: np.ndarray    # (lines + 1,) first term of each such slot, then terms
    line_rows: tuple          # per group: (map row ids, their lines)
    # Compare table: one row per distinct (DL source, term_g row).
    compare_term: np.ndarray  # (rows,) a term holding each compare row
    term_compare: np.ndarray  # (terms,) each term's compare row

    def _grids(self, flat) -> tuple:
        return tuple(flat[cells].reshape(-1, self.plan.tile_h, self.plan.tile_w)
                     for cells in self.groups)

    @property
    def cells_m1(self) -> tuple:
        """Per group: the last program's (tiles, H, W) conductances."""
        return self._grids(self.drawn[0])

    @property
    def cells_m2(self) -> tuple:
        return self._grids(self.drawn[1])

    @property
    def n_active_arrays(self) -> int:
        return self.plan.n_active_groups

    @property
    def cycles_per_decision(self) -> int:
        # Pre-charge, evaluate, latch per array, then one vote read.
        return CYCLES_PER_ARRAY * self.n_active_arrays + 1


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


def _limits(arch, t: float) -> tuple:
    """``band_edges`` at the sense current of clock ``t``, widened toward
    the band by ``BAND_MARGIN``: (lower zero, lower full, upper zero, upper
    full) T1 current per siemens of a term's conductance."""
    cfg = arch.config
    e = band_edges(cfg.params, reference_current(
        cfg.parasitics.ml_capacitance(arch.plan.tile_w), cfg.v_ml0, cfg.v_sa,
        t))
    return (e.lower_zero * (1 + BAND_MARGIN), e.lower_full * (1 - BAND_MARGIN),
            e.upper_zero * (1 - BAND_MARGIN), e.upper_full * (1 + BAND_MARGIN))


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
    n_rows = plan.tmap.n_rows
    padded = plan.n_groups * w
    # Map-order bounds padded with a wildcard row (for padding slots) and
    # wildcard columns; padding columns take any valid feature bounds.
    lo = np.full((n_rows + 1, padded), -np.inf)
    hi = np.full((n_rows + 1, padded), np.inf)
    lo[:n_rows, :n_features] = plan.tmap.lo
    hi[:n_rows, :n_features] = plan.tmap.hi
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
        vote_matrix=vote,
        class_rows=tuple(map(np.flatnonzero, vote.T == device.g_lrs)))


def _sigma(value) -> float:
    """``value`` as a programming-noise level: a finite number >= 0."""
    if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
        raise ConfigError("sigma_rel must be non-negative")
    return float(value)


def _draw(enc: _Encoding, sigma_rel: float, seed) -> tuple:
    """Flat (g_m1, g_m2) of one trial: the encoding with programming noise
    from the trial's own stream, group by group, m1 before m2. A
    Generator's stream split across calls is that of one call of the
    total size, so the cells go through ``inject_noise`` at once, laid
    out in that order."""
    parts = [part for cells in enc.groups
             for part in (enc.m1[cells], enc.m2[cells])]
    noisy = inject_noise(np.concatenate(parts), sigma_rel, enc.device,
                         np.random.default_rng(seed))
    m1, m2 = np.empty_like(enc.m1), np.empty_like(enc.m2)
    at = 0
    for cells in enc.groups:
        n = cells.stop - cells.start
        m1[cells], m2[cells] = noisy[at:at + n], noisy[at + n:at + 2 * n]
        at += 2 * n
    return m1, m2


def _compare_table(source, term_g) -> tuple:
    """(compare_term, term_compare) of terms with DL sources ``source`` and
    conductances ``term_g`` (terms, programs). Terms with one source and
    equal conductances in every program have bitwise-equal thresholds and
    compare alike. Sorted on (source, first program's conductance), each
    run of neighbours equal in source and in every program shares one
    compare row, held by its first term. A distinct pair gets more than
    one row only when a term equal to it in source and first conductance
    but not in a later program sorts between its terms."""
    order = np.lexsort((term_g[:, 0], source))
    g, s = term_g[order], source[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (s[1:] != s[:-1]) | np.any(g[1:] != g[:-1], axis=1)
    term_compare = np.empty_like(order)
    term_compare[order] = np.cumsum(new) - 1
    return order[new], term_compare


def _program_trials(enc: _Encoding, sigma_rel: float,
                    seeds) -> ProgrammedArchitecture:
    """One program per seed at noise ``sigma_rel``, over one term layout:
    the branches that the kernel's zero compare does not find at 0.0 A for
    every input in the window, in any of them. Active cells hold terms; a
    trial keeps its own conductance on a term it finds at 0.0 A.

    Each trial keeps its conductances on the cells of the union found so
    far; one drawn before the union last grew is drawn again, so no
    (trials, cells) array of every cell is held."""
    lower_zero, _, upper_zero, _ = _limits(enc, enc.config.t_clk)
    # Calibration admits no regime boundary of the T1 law inside the DL
    # window, so T1 rises across it from one end to the other.
    t1_min, t1_max = t1_current(np.array([V_DL_MIN, V_DL_MAX]), None,
                                enc.config.params)
    can_lower = can_upper = False
    kept = []
    for seed in seeds:
        m1, m2 = _draw(enc, sigma_rel, seed)
        can_lower = can_lower | (t1_min < m1 * lower_zero)
        can_upper = can_upper | (t1_max > m2 * upper_zero)
        held = np.flatnonzero(can_lower | can_upper)
        kept.append((m1[held], m2[held]))
    active = held
    g_m1, g_m2 = np.empty((2, len(seeds), active.size))
    for trial, (seed, (a_m1, a_m2)) in enumerate(zip(seeds, kept)):
        if a_m1.size < active.size:
            a_m1, a_m2 = (g[active] for g in _draw(enc, sigma_rel, seed))
        g_m1[trial], g_m2[trial] = a_m1, a_m2
    lower, upper = can_lower[active], can_upper[active]
    term_cell = np.concatenate([np.flatnonzero(lower), np.flatnonzero(upper)])
    order = np.argsort(term_cell, kind="stable")
    term_cell, term_upper = term_cell[order], order >= lower.sum()
    term_slots, line_terms = np.unique(active[term_cell] // enc.plan.tile_w,
                                       return_index=True)
    line_rows = []
    for rows, slots in enc.slot_rows:
        lit = np.isin(slots, term_slots)
        line_rows.append((rows[lit], np.searchsorted(term_slots, slots[lit])))
    active_input = enc.cell_input[active]
    term_g = np.where(term_upper[:, None], g_m2.T[term_cell],
                      g_m1.T[term_cell])
    compare_term, term_compare = _compare_table(
        2 * active_input[term_cell] + term_upper, term_g)
    return ProgrammedArchitecture(
        **vars(enc), sigma_rel=sigma_rel, drawn=(m1, m2),
        active_input=active_input, active_cell=active, term_cell=term_cell,
        term_upper=term_upper, term_g=term_g, term_slots=term_slots,
        line_terms=np.append(line_terms, term_cell.size),
        line_rows=tuple(line_rows), compare_term=compare_term,
        term_compare=term_compare)


def program(plan: TiledPlan, device: DeviceModel, config: ArchConfig,
            feature_bounds, n_classes: int, n_bits: int | None = None,
            sigma_rel: float = 0.0, seed=0) -> ProgrammedArchitecture:
    """Encode the plan's ranges into conductances and build the vote matrix.

    ``sigma_rel`` is the relative std of the programming noise, recorded as
    the result's ``sigma_rel``; it applies to the CAM cells only (the vote
    array is treated as ideal). Deterministic for a fixed seed.
    """
    return _program_trials(
        _encode(plan, device, config, feature_bounds, n_classes, n_bits),
        _sigma(sigma_rel), [seed])


def program_forest(forest: Forest, device: DeviceModel = DeviceModel(),
                   config: ArchConfig = ArchConfig(), tile_h: int = 16,
                   tile_w: int = 16, reorder_map: bool = True,
                   n_bits: int | None = None, sigma_rel: float = 0.0,
                   seed=0) -> ProgrammedArchitecture:
    """Compile and program a trained forest in one step."""
    plan = compile_forest(forest, tile_h, tile_w, reorder_map)
    return program(plan, device, config, forest.feature_bounds,
                   forest.n_classes, n_bits, sigma_rel, seed)


def _clock(config: ArchConfig, t_clk) -> float:
    t = config.t_clk if t_clk is None else float(t_clk)
    if not (math.isfinite(t) and t > 0):
        raise ConfigError("t_clk must be positive")
    return t


def _input_voltages(arch, X) -> np.ndarray:
    """(F + 1, samples) DL voltages of finite (samples, F) ``X``, one row
    per DL source: row f is original feature f, mapped in place in one
    contiguous array, and row F, the padding columns' source, holds
    ``PAD_VOLTAGE``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != arch.plan.tmap.n_features:
        raise DataError(f"samples must have {arch.plan.tmap.n_features} features")
    if not np.all(np.isfinite(X)):
        raise DataError("samples contain NaN or infinite features")
    v = np.empty((X.shape[1] + 1, X.shape[0]))
    v[-1] = PAD_VOLTAGE
    # Transposed 64 samples at a time, so that each block of X stays in
    # cache while its columns are written out (a strided whole-array copy
    # takes about four times as long).
    for s0 in range(0, X.shape[0], 64):
        v[:-1, s0:s0 + 64] = X[s0:s0 + 64].T
    feature_to_voltage(v[:-1], np.asarray(arch.feature_bounds)[:, None],
                       out=v[:-1])
    return v


def _line_voltages(arch: ProgrammedArchitecture, v_in, t: float, line, program,
                   sample) -> np.ndarray:
    """ML voltages of (line, program, sample) triples from the every-cell
    expression: each cell's lower plus upper current in a zeroed row of W
    cells, summed along the row. A branch without a term draws exactly
    0.0 A, so only terms run the cell law, on the T1 current of their
    sample's DL input, and an upper term adds onto its cell's lower one.
    Runs in batches of ``_undecided_shape`` lines on one zeroed buffer."""
    cfg = arch.config
    w = arch.plan.tile_w
    c_ml = cfg.parasitics.ml_capacitance(w)
    n_samples = v_in.shape[1]
    _, batch = _undecided_shape(arch)
    v_ml = np.empty(line.size)
    zeroed = np.empty(min(batch, line.size) * w)
    for b in range(0, line.size, batch):
        cut = slice(b, b + batch)
        first = arch.line_terms[line[cut]]
        count = arch.line_terms[line[cut] + 1] - first
        row = np.repeat(np.arange(count.size), count)
        term = np.arange(row.size) + np.repeat(
            first - np.cumsum(count) + count, count)
        cell = arch.term_cell[term]
        i = t1_current(np.take(v_in, arch.active_input[cell] * n_samples
                               + sample[cut][row]), None, cfg.params)
        g = np.take(arch.term_g, term * arch.term_g.shape[1]
                    + program[cut][row])
        at = row * w + arch.active_cell[cell] % w
        up = arch.term_upper[term]
        current = zeroed[:count.size * w]
        current.fill(0.0)
        current[at[~up]] = lower_branch_t1(i[~up], g[~up], cfg.params)
        current[at[up]] += upper_branch_t1(i[up], g[up], cfg.params)
        v_ml[cut] = np.maximum(
            cfg.v_ml0 - current.reshape(-1, w).sum(axis=-1) * t / c_ml, 0.0)
    return v_ml


def _chunk_shape(arch: ProgrammedArchitecture, n_samples: int) -> tuple:
    """(programs, words) of a kernel chunk, which is one compare block.

    Per (program, word) a chunk holds both compares' packed words of every
    compare row, beside the buffers of ``_block_plan`` or a source's
    ``_staircase`` (at most one row more than its packed words), and a
    packed word per line and per map row and the byte lanes of up to 255
    of a class's rows, a byte per sample; the larger of the two footprints
    stays within ``CHUNK_BYTES``."""
    n_programs = arch.term_g.shape[1]
    n_words = max(1, -(-n_samples // 64))
    class_rows = np.bincount(arch.plan.tmap.labels).max(initial=1)
    per_word = max(32 * max(1, arch.compare_term.size),
                   8 * (arch.term_slots.size + arch.plan.tmap.n_rows)
                   + 64 * min(255, int(class_rows)))
    cells = max(1, CHUNK_BYTES // per_word)
    words = min(cells, n_words)
    return max(1, min(cells // words, n_programs)), words


def _block_plan(arch: ProgrammedArchitecture, programs: int,
                words: int) -> tuple:
    """(runs, rows per piece, lines per piece) of a compare block of
    ``programs`` × ``words`` words. A piece of compare rows, from a
    multiple of its size, holds the bools of both their compares within a
    sixteenth of ``CHUNK_BYTES`` (or one row), and a piece of lines their
    terms' gathered words within about a sixteenth. A run (first row, stop
    row, source) is the rows of one source in one piece."""
    source = arch.active_input[arch.term_cell[arch.compare_term]]
    rows = max(1, CHUNK_BYTES // (32 * programs * 64 * words))
    cuts = sorted({source.size, *range(0, source.size, rows), *(
        np.flatnonzero(source[1:] != source[:-1]) + 1).tolist()})
    return ([(a, b, int(source[a])) for a, b in zip(cuts[:-1], cuts[1:])],
            rows, max(1, CHUNK_BYTES * arch.term_slots.size // (
                128 * programs * words * max(1, arch.term_cell.size))))


def _row_thresholds(arch: ProgrammedArchitecture, t: float) -> np.ndarray:
    """(2, compare rows, programs, 1) DL voltages that the kernel compares
    with ``>=``, the ``_limits`` edges through ``t1_inverse``, in one
    array. A lower row's branch draws exactly 0.0 A at or above ``[0]`` and
    at least the sense current of clock ``t`` below ``[1]``; an upper
    row's branch the sense current at or above ``[0]`` and 0.0 A below
    ``[1]``. T1 is above 0 across the window (calibration), so an edge at
    or below 0 A holds for every input (-inf), +inf for none. ``[1]`` is
    the float just above its edge, so that an input is at most the edge
    exactly where it is not at or above ``[1]``."""
    lower_zero, lower_full, upper_zero, upper_full = _limits(arch, t)
    g = arch.term_g[arch.compare_term]
    up = arch.term_upper[arch.compare_term, None]
    at = np.empty((2,) + g.shape)
    np.multiply(g, np.where(up, upper_full, lower_zero), out=at[0])
    np.multiply(g, np.where(up, upper_zero, lower_full), out=at[1])
    always = at <= 0
    at[always] = 1.0                # any current > 0: no log of 0
    t1_inverse(at, V_DL_MIN, arch.config.params, out=at)
    at[always] = -np.inf
    np.nextafter(at[1], np.inf, out=at[1])
    return at[..., None]


def _undecided_shape(arch: ProgrammedArchitecture) -> tuple:
    """(undecided triples held per chunk, lines per ``_line_voltages``
    batch): held triples keep three ids each within a quarter of
    ``CHUNK_BYTES``, beside the compare block; a batch makes a zeroed row
    of W currents and about 16 values per term within ``CHUNK_BYTES``."""
    per_line = -(-arch.term_cell.size // max(1, arch.term_slots.size))
    return (max(1, CHUNK_BYTES // (4 * 3 * 8)),
            max(1, CHUNK_BYTES // (8 * (arch.plan.tile_w + 16 * per_line))))


def _or_undecided(arch: ProgrammedArchitecture, v_in, t: float, words,
                  first: tuple, undecided) -> None:
    """Sense undecided (line, program, sample) triples on ``_line_voltages``
    and OR the bits that pass v_sa into ``words``, the packed lines of the
    chunk whose first program and sample are ``first``."""
    line, program, sample = (np.concatenate(ids) for ids in zip(*undecided))
    hit = _line_voltages(arch, v_in, t, line, program, sample) > \
        arch.config.v_sa
    # A triple sets one bit of one byte of the little-endian packing.
    sample = sample[hit] - first[1]
    at = ((line[hit] * words.shape[1] + program[hit] - first[0])
          * (8 * words.shape[2]) + sample // 8)
    np.bitwise_or.at(words.view(np.uint8).reshape(-1), at,
                     np.left_shift(1, sample % 8).astype(np.uint8))


def _chunks(arch: ProgrammedArchitecture, n_samples: int):
    """Yield the (programs, samples) slices of each kernel chunk of
    ``_chunk_shape``."""
    chunk_programs, chunk_words = _chunk_shape(arch, n_samples)
    n_programs = arch.term_g.shape[1]
    for p0 in range(0, n_programs, chunk_programs):
        for s0 in range(0, n_samples, 64 * chunk_words):
            yield (slice(p0, min(p0 + chunk_programs, n_programs)),
                   slice(s0, min(s0 + 64 * chunk_words, n_samples)))


def _staircase(v, n_words: int) -> tuple:
    """(sorted ``v``, (len(v) + 1, n_words) words) of one DL source's row of
    voltages ``v``: row r holds the packed ``>=`` bits of a threshold above
    exactly r samples, set on the samples at stable-sorted positions r and
    later and on every bit past the last sample, in the byte layout of
    ``np.packbits(..., bitorder="little")``."""
    n = v.size
    order = np.argsort(v, kind="stable")
    table = np.zeros((n + 1, n_words), dtype=np.uint64)
    table_bytes = table.view(np.uint8)
    table_bytes[np.arange(n), order >> 3] = np.left_shift(
        1, order & 7).astype(np.uint8)
    table_bytes[n] = np.packbits(np.arange(64 * n_words) >= n,
                                 bitorder="little")
    np.bitwise_or.accumulate(table[::-1], axis=0, out=table[::-1])
    return v[order], table


def _sensed_words(arch: ProgrammedArchitecture, v_in, t: float, thresholds,
                  programs: slice, samples: slice) -> np.ndarray:
    """(lines, programs, words) sensed match bits of the slots holding
    terms, for one chunk of ``arch``'s programs on the (source, sample) DL
    voltages ``v_in`` at sense time ``t``, ``thresholds`` the chunk's
    programs of ``_row_thresholds``: 64 samples to a uint64 word in
    little-endian bit order (bits past the last sample are undefined).
    Every other slot draws exactly 0.0 A and matches.

    The kernel compares each DL source's row of ``v_in`` with ``>=``, as a
    cell compares its data line with its stored window, against both
    thresholds of every compare row, in volts. A source whose thresholds in
    the chunk number at least twice its samples reads each threshold's packed
    words from its ``_staircase`` at the threshold's rank among the
    samples (``searchsorted`` counts the samples below it); any other
    source compares in one broadcast per run of ``_block_plan`` and packs
    the bits. The second side is inverted, so that a lower term's zero
    bits are its first words and an upper term's its second (full bits
    the other way round). Gathered back to terms a piece of lines at a
    time, they are reduced per line: the AND of zero bits matches it, the
    OR of full bits mismatches it. Lines with neither are held as (line,
    program, sample) triples and sensed together on ``_line_voltages``
    after the last piece, or once ``_undecided_shape``'s count of them is
    held."""
    n_rows = arch.compare_term.size
    zero_row = arch.term_compare + n_rows * arch.term_upper
    full_row = arch.term_compare + n_rows * ~arch.term_upper
    n = samples.stop - samples.start
    n_programs, n_words = programs.stop - programs.start, -(-n // 64)
    runs, piece, per_piece = _block_plan(arch, n_programs, n_words)
    line_terms, n_lines = arch.line_terms, arch.term_slots.size
    held, _ = _undecided_shape(arch)
    source_rows = {}
    for a, b, s in runs:
        source_rows[s] = source_rows.get(s, 0) + b - a
    tables = {s: _staircase(v_in[s, samples], n_words)
              for s, count in source_rows.items()
              if count * n_programs >= n}
    if len(tables) < len(source_rows):
        bits = np.empty((2, min(piece, n_rows), n_programs, 64 * n_words),
                        dtype=bool)
        # Past the last sample every lower term draws 0.0 A and every upper
        # term the sense current: decided, never held.
        bits[..., n:] = True
    packed = np.empty((2, n_rows, n_programs, n_words), dtype=np.uint64)
    lines = np.empty((n_lines, n_programs, n_words), dtype=np.uint64)
    for a, b, s in runs:
        if s in tables:
            sorted_v, table = tables[s]
            packed[:, a:b] = table[np.searchsorted(sorted_v,
                                                   thresholds[:, a:b, :, 0])]
            continue
        np.greater_equal(v_in[s, samples], thresholds[:, a:b],
                         out=bits[:, :b - a, :, :n])
        packed[:, a:b] = np.packbits(
            bits[:, :b - a], axis=-1, bitorder="little").view(np.uint64)
    np.invert(packed[1], out=packed[1])
    words = packed.reshape(2 * n_rows, n_programs, n_words)
    first = (programs.start, samples.start)
    undecided, n_undecided = [], 0
    for l0 in range(0, n_lines, per_piece):
        l1 = min(l0 + per_piece, n_lines)
        span = slice(line_terms[l0], line_terms[l1])
        starts = line_terms[l0:l1] - span.start
        matched = lines[l0:l1]
        np.bitwise_and.reduceat(words[zero_row[span]], starts, out=matched)
        unsure = ~(matched | np.bitwise_or.reduceat(words[full_row[span]],
                                                    starts))
        # Flat positions of the undecided bits (nonzero runs fastest on
        # flat arrays and on bools).
        held_words = np.flatnonzero(unsure)
        if not held_words.size:
            continue
        bit = np.flatnonzero(np.unpackbits(
            unsure.reshape(-1)[held_words].view(np.uint8),
            bitorder="little").view(bool))
        line, trial, word = np.unravel_index(held_words[bit >> 6],
                                             unsure.shape)
        undecided.append((l0 + line, first[0] + trial,
                          first[1] + 64 * word + (bit & 63)))
        n_undecided += line.size
        if n_undecided >= held:
            _or_undecided(arch, v_in, t, lines, first, undecided)
            undecided, n_undecided = [], 0
    # Not held through the last batch.
    packed = words = bits = tables = table = None
    if undecided:
        _or_undecided(arch, v_in, t, lines, first, undecided)
    return lines


def _unpack(words, n: int) -> np.ndarray:
    """The first ``n`` bits of each row of packed ``words`` as bools."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n,
                         bitorder="little").view(bool)


def _vote_step(arch: ProgrammedArchitecture, lines, n: int) -> tuple:
    """(row words, vote currents) of ``lines``, the (lines, programs, words)
    sensed words of the slots holding terms over ``n`` samples: each map row
    ANDs its lines' words across its groups (a row without terms matches),
    and the currents are (programs, n, classes)."""
    block = np.full((arch.plan.tmap.n_rows,) + lines.shape[1:], ~np.uint64(0))
    for rows, group_lines in arch.line_rows:
        block[rows] &= lines[group_lines]
    del lines                       # not held through the counts
    # Exact-count evaluation of v_read * (matches @ vote_matrix): each vote
    # row holds g_lrs on its class and g_hrs elsewhere, so per-class
    # currents follow from counts of matched rows. Those are integers far
    # below 2**53, exact in float64 in any summation order, so classes with
    # equal counts get bitwise-equal currents and argmax ties resolve to
    # the lowest index, not to float summation-order noise. A class's rows
    # are counted in byte lanes: unpacked to one byte per sample, eight
    # samples to a uint64, and added 255 rows at a time, so that no lane
    # passes 255 and no carry crosses into the next on any byte order;
    # lanes past the n-th, the undefined bits past the last sample, are
    # dropped.
    g_hrs, g_lrs = arch.device.g_hrs, arch.device.g_lrs
    counts = np.zeros((arch.n_classes,) + block.shape[1:-1] + (n,),
                      dtype=np.intp)
    for counted, rows in zip(counts, arch.class_rows):
        for r0 in range(0, rows.size, 255):
            lanes = np.add.reduce(np.unpackbits(
                block[rows[r0:r0 + 255]].view(np.uint8), axis=-1,
                bitorder="little").view(np.uint64))
            counted += lanes.view(np.uint8)[..., :n]
    return block, np.moveaxis(arch.config.v_read * (
        g_hrs * counts.sum(axis=0) + (g_lrs - g_hrs) * counts), 0, -1)


def _evaluate_programs(arch: ProgrammedArchitecture, v_in, t: float,
                       keep_matches: bool = False) -> tuple:
    """Every program of ``arch`` on DL inputs ``v_in`` at sense time ``t``:
    (row matches if ``keep_matches``, vote currents), each (programs,
    samples, ...)."""
    n_programs, n_samples = arch.term_g.shape[1], v_in.shape[1]
    matches = (np.empty((n_programs, n_samples, arch.plan.tmap.n_rows),
                        dtype=bool) if keep_matches else None)
    currents = np.empty((n_programs, n_samples, arch.n_classes))
    thresholds = _row_thresholds(arch, t)
    for programs, samples in _chunks(arch, n_samples):
        n = samples.stop - samples.start
        block, currents[programs, samples] = _vote_step(arch, _sensed_words(
            arch, v_in, t, thresholds[:, :, programs], programs, samples), n)
        if matches is not None:
            matches[programs, samples] = _unpack(block, n).transpose(1, 2, 0)
    return matches, currents


def _evaluate(arch: ProgrammedArchitecture, X, t_clk=None) -> tuple:
    """Core kernel on ``arch``'s one program: (row match matrix, vote
    currents, predicted classes, argmax with ties lowest) per sample."""
    v_in = _input_voltages(arch, X)
    matches, currents = _evaluate_programs(
        arch, v_in, _clock(arch.config, t_clk), keep_matches=True)
    return matches[0], currents[0], np.argmax(currents[0], axis=1)


def _vote(config: ArchConfig, currents, rngs) -> np.ndarray:
    """Predicted class per (program, sample) from (programs, samples,
    classes) vote currents (argmax, ties lowest), after vote noise drawn
    for program p from ``rngs[p]`` when ``vote_sigma`` > 0."""
    if config.vote_sigma > 0:
        if None in rngs:
            raise ConfigError("vote_sigma > 0 requires an rng")
        currents = currents * (1.0 + np.array([
            rng.normal(0.0, config.vote_sigma, currents.shape[1:])
            for rng in rngs]))
    return np.argmax(currents, axis=-1)


def infer_batch(arch: ProgrammedArchitecture, X, t_clk=None,
                rng=None) -> np.ndarray:
    """Predicted class per sample (argmax of vote currents, ties lowest)."""
    v_in = _input_voltages(arch, X)
    _, currents = _evaluate_programs(arch, v_in, _clock(arch.config, t_clk))
    return _vote(arch.config, currents, [rng])[0]


def infer(arch: ProgrammedArchitecture, sample, t_clk=None) -> InferenceTrace:
    """Single-sample inference keeping every intermediate signal: every ML
    voltage comes from the every-cell expression (a slot without terms
    stays at v_ml0), and ``_vote_step`` votes on the lines sensed."""
    v_in = _input_voltages(arch, np.asarray(sample, dtype=float).reshape(1, -1))
    h, cfg = arch.plan.tile_h, arch.config
    v_ml = np.full(arch.plan.n_tiles * h, cfg.v_ml0)
    first = np.zeros(arch.term_slots.size, dtype=np.intp)
    v_ml[arch.term_slots] = _line_voltages(
        arch, v_in, _clock(cfg, t_clk), np.arange(first.size), first, first)
    sensed = v_ml > cfg.v_sa
    block, currents = _vote_step(
        arch, sensed[arch.term_slots].astype(np.uint64)[:, None, None], 1)
    keys = [(g, ti) for g, tiles in enumerate(arch.plan.groups)
            for ti in range(len(tiles))]
    return InferenceTrace(
        ml_outputs=dict(zip(keys, sensed.reshape(-1, h))),
        ml_voltages=dict(zip(keys, v_ml.reshape(-1, h))),
        row_matches=_unpack(block, 1)[:, 0, 0],
        vote_currents=currents[0, 0],
        predicted=int(np.argmax(currents[0, 0])),
        cycles=arch.cycles_per_decision,
    )


def _evaluation_set(X, y, n_classes: int) -> tuple:
    """(X, y) as arrays, ``y`` one integer in [0, n_classes) per sample."""
    X = np.asarray(X, dtype=float)
    y = _integer_labels(y)
    if X.size == 0 or y.size == 0:
        raise DataError("empty evaluation dataset")
    if y.shape != (len(np.atleast_2d(X)),) or y.min() < 0:
        raise DataError("labels must be one non-negative integer per sample")
    if y.max() >= n_classes:
        raise DataError("dataset labels exceed the model's class count")
    return X, y


def evaluate_accuracy(arch: ProgrammedArchitecture, X, y, t_clk=None,
                      rng=None) -> tuple:
    """(fraction correct, confusion matrix[true, predicted]); ``rng`` drives
    the vote noise as in ``infer_batch``."""
    X, y = _evaluation_set(X, y, arch.n_classes)
    pred = infer_batch(arch, X, t_clk, rng)
    confusion = np.zeros((arch.n_classes, arch.n_classes), dtype=int)
    np.add.at(confusion, (y, pred), 1)
    return float(np.mean(pred == y)), confusion


@dataclass(frozen=True)
class SweepResult:
    variable: str
    rows: tuple     # (value, trial, accuracy)
    summary: tuple  # (value, mean, std)


def sweep(forest: Forest, X, y, variable: str, grid, trials: int, seed: int,
          device: DeviceModel = DeviceModel(), config: ArchConfig = ArchConfig(),
          tile_h: int = 16, tile_w: int = 16, n_bits: int | None = None,
          sigma_rel: float = 0.0, reorder_map: bool = True,
          workers: int | None = None) -> SweepResult:
    """Monte-Carlo accuracy sweep over one variable.

    Each (point, trial) programs with its own RNG substream and draws its
    vote noise from another, so results are independent of scheduling, and
    every row equals ``program(..., seed=[seed, i, trial])`` evaluated by
    ``evaluate_accuracy(..., rng=default_rng([seed, i, trial, 1]))``. A
    point's trials share one encoding and run as one batch; when its
    programming noise is zero they are one program, evaluated once. Points
    are the unit of work of the ``workers`` threads (``None``: one per CPU,
    at most 32).
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
    for name, count in (("trials", trials),
                        ("workers", 1 if workers is None else workers)):
        if (isinstance(count, bool) or not isinstance(count, numbers.Integral)
                or count < 1):
            raise ConfigError(f"{name} must be an integer >= 1")
    if variable in ("n_bits", "tile_h", "tile_w") and not all(
            float(value).is_integer() for value in grid):
        raise ConfigError(f"sweep {variable} values must be integers")

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
        points.append((i, encodings[h, w, nb], _sigma(sg),
                       _clock(config, t_eval)))
    X, y = _evaluation_set(X, y, forest.n_classes)
    v_in = _input_voltages(points[0][1], X)

    def run(point):
        i, enc, sg, t = point
        n_programs = trials if sg > 0 else 1
        batch = _program_trials(
            enc, sg, [[seed, i, trial] for trial in range(n_programs)])
        _, currents = _evaluate_programs(batch, v_in, t)
        rngs = ([np.random.default_rng([seed, i, trial, 1])
                 for trial in range(trials)]
                if config.vote_sigma > 0 else None)
        pred = _vote(config, np.broadcast_to(
            currents, (trials,) + currents.shape[1:]), rngs)
        # Row means of exact integer counts over len(y), as
        # ``evaluate_accuracy`` gives them.
        return np.mean(pred == y, axis=1).tolist()

    n_workers = workers or min(32, os.cpu_count() or 1)
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
