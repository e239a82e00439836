"""End-to-end behavioral inference on the programmed arrays.

Programming turns every stored range into a conductance pair (optionally
quantized and noised), tile by tile; padding slots hold wildcards. It then
sorts the programmed branches: a branch whose discharge gate stays at or
below the transistor threshold across the whole DL window draws exactly
0.0 A for every (clipped) input and is skipped. The remaining branches (the
kernel's terms) are listed in compact index arrays, grouped by how many
terms their row holds. Inference computes each input's T1 current once,
runs the rest of the cell law on the terms only and adds each row's terms
so that every ML voltage is bit-identical to evaluating every cell: one or
two terms directly, three or more in a zeroed buffer summed in the dense
row order. It then integrates over the clock window, senses the match
lines, ANDs each original row across its groups, and reads the majority
vote as per-class currents through the conductance matrix.
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

# Byte budget of one chunk of the kernel's per-sample temporaries (one float
# per term plus the rows of the >= 3-term buffer): large enough to amortise
# the per-chunk numpy calls, small enough to keep a chunk's passes in cache.
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
class ProgrammedArchitecture:
    """Immutable programmed state shared read-only by inference.

    Tiles of all groups are stacked in group order; a slot is one tile row
    and its flat id is ``stacked tile * H + row``.
    """

    plan: TiledPlan
    config: ArchConfig
    device: DeviceModel
    n_classes: int
    feature_bounds: tuple     # original feature order
    cells_m1: tuple           # per group: (tiles, H, W) conductances
    cells_m2: tuple
    vote_matrix: np.ndarray   # (rows, n_classes)
    n_bits: int | None
    sigma_rel: float
    active_m1: np.ndarray     # (cells,) conductances of cells that can draw current
    active_m2: np.ndarray
    active_input: np.ndarray  # (cells,) DL source: original feature, F = padding
    active_cell: np.ndarray   # (cells,) flat slot * W + column
    slot_rows: tuple          # per group: (map row ids, flat slot ids)
    # Kernel terms: the branches of active cells that can draw current,
    # lower branches first, then upper branches.
    term_cell: np.ndarray     # (terms,) index into the active_* arrays
    n_lower: int              # terms[:n_lower] are lower branches
    # Row totals by the slot's term count: (slots, terms) for one term,
    # (slots, terms a, terms b) for two, and for three or more (slots,
    # first terms, their buffer positions, second terms, their positions);
    # a position is slot rank * W + column and a second term is the upper
    # branch of a cell whose lower branch is its first term.
    row_terms: tuple

    @property
    def n_active_arrays(self) -> int:
        return sum(1 for tiles in self.plan.groups if tiles)

    @property
    def cycles_per_decision(self) -> int:
        # Pre-charge, evaluate, latch per array, then one vote read.
        return 3 * self.n_active_arrays + 1


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


def program(plan: TiledPlan, device: DeviceModel, config: ArchConfig,
            feature_bounds, n_classes: int, n_bits: int | None = None,
            sigma_rel: float | None = None, seed=0) -> ProgrammedArchitecture:
    """Encode the plan's ranges into conductances and build the vote matrix.

    ``sigma_rel`` overrides the device's programming-noise setting; noise
    applies to the CAM cells only (the vote array is treated as ideal).
    Deterministic for a fixed seed.
    """
    n_features = plan.tmap.n_features
    if len(feature_bounds) != n_features:
        raise DataError("feature_bounds length differs from plan features")
    bounds = np.asarray(feature_bounds, dtype=float)
    if bounds.shape != (n_features, 2) or not (
            np.all(np.isfinite(bounds)) and np.all(bounds[:, 0] < bounds[:, 1])):
        raise DataError("feature bounds must be finite with min < max")
    sigma = device.sigma_rel if sigma_rel is None else float(sigma_rel)
    noisy_device = replace(device, sigma_rel=sigma)
    i_ref = reference_current(config.parasitics.ml_capacitance(plan.tile_w),
                              config.v_ml0, config.v_sa, config.t_clk)
    cal = build_calibration(config.params, device, i_ref)
    rng = np.random.default_rng(seed)
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

    m1, m2, slot_rows = [], [], []
    act_m1, act_m2, act_input, act_cell = [], [], [], []
    act_lower, act_upper = [], []
    first_slot = 0
    for g, tiles in enumerate(plan.groups):
        cols = slice(g * w, (g + 1) * w)
        table = _slot_table(tiles, h, n_rows)
        g_m1, g_m2 = encode_bounds(lo[:, cols][table], hi[:, cols][table],
                                   col_bounds[cols], device, cal, n_bits)
        g_m1 = inject_noise(g_m1, noisy_device, rng)
        g_m2 = inject_noise(g_m2, noisy_device, rng)
        m1.append(g_m1)
        m2.append(g_m2)
        slots = first_slot + np.arange(table.size)
        placed = table.ravel() < n_rows
        slot_rows.append((table.ravel()[placed], slots[placed]))
        lower, upper = _branches_can_draw(g_m1, g_m2, config.params)
        active = (lower | upper).ravel()
        act_lower.append(lower.ravel()[active])
        act_upper.append(upper.ravel()[active])
        act_m1.append(g_m1.ravel()[active])
        act_m2.append(g_m2.ravel()[active])
        act_input.append(np.broadcast_to(col_feature[cols],
                                         g_m1.shape).ravel()[active])
        act_cell.append(first_slot * w + np.flatnonzero(active))
        first_slot += table.size
    labels = plan.tmap.labels
    if labels.size and not 0 <= labels.min() <= labels.max() < n_classes:
        raise DataError("row class outside [0, n_classes)")
    vote = np.full((labels.size, n_classes), device.g_hrs)
    vote[np.arange(labels.size), labels] = device.g_lrs

    act_m1, act_m2, act_input, act_cell, lower, upper = (
        np.concatenate(a) for a in (act_m1, act_m2, act_input, act_cell,
                                    act_lower, act_upper))
    term_cell = np.concatenate([np.flatnonzero(lower), np.flatnonzero(upper)])
    second = np.concatenate([np.zeros(lower.sum(), dtype=bool), lower[upper]])
    return ProgrammedArchitecture(
        plan=plan, config=config, device=device, n_classes=n_classes,
        feature_bounds=tuple(map(tuple, bounds.tolist())),
        cells_m1=tuple(m1), cells_m2=tuple(m2), vote_matrix=vote,
        n_bits=n_bits, sigma_rel=sigma,
        active_m1=act_m1, active_m2=act_m2, active_input=act_input,
        active_cell=act_cell, slot_rows=tuple(slot_rows),
        term_cell=term_cell, n_lower=int(lower.sum()),
        row_terms=_row_terms(act_cell[term_cell], second, first_slot, w))


def _row_terms(term_pos, second, n_slots: int, w: int) -> tuple:
    """``ProgrammedArchitecture.row_terms`` from each term's flat cell
    position and whether it is the second term of its cell."""
    slot = term_pos // w
    per_slot = np.bincount(slot, minlength=n_slots)
    count = per_slot[slot]
    one = np.flatnonzero(count == 1)
    two = np.flatnonzero(count == 2)
    two = two[np.argsort(slot[two], kind="stable")]
    many = np.flatnonzero(count >= 3)
    multi_slots = np.flatnonzero(per_slot >= 3)
    pos = np.searchsorted(multi_slots, slot[many]) * w + term_pos[many] % w
    later = second[many]
    return ((slot[one], one), (slot[two[::2]], two[::2], two[1::2]),
            (multi_slots, many[~later], pos[~later], many[later], pos[later]))


def program_forest(forest: Forest, device: DeviceModel = DeviceModel(),
                   config: ArchConfig = ArchConfig(), tile_h: int = 16,
                   tile_w: int = 16, reorder_map: bool = True,
                   n_bits: int | None = None, sigma_rel: float | None = None,
                   seed=0) -> ProgrammedArchitecture:
    """Compile and program a trained forest in one step."""
    plan = compile_forest(forest, tile_h, tile_w, reorder_map)
    return program(plan, device, config, forest.feature_bounds,
                   forest.n_classes, n_bits, sigma_rel, seed)


def _input_voltages(arch: ProgrammedArchitecture, X) -> np.ndarray:
    """(samples, F + 1) DL voltages in original feature order; the last
    column is the mid-window voltage that drives padding columns."""
    v = np.empty((X.shape[0], X.shape[1] + 1))
    v[:, :-1] = feature_to_voltage(X, arch.feature_bounds)
    v[:, -1] = 0.5 * (V_DL_MIN + V_DL_MAX)
    return v


def _ml_voltages(arch: ProgrammedArchitecture, v_in, t: float) -> np.ndarray:
    """(samples, slots) ML voltages at sense time for DL inputs ``v_in``.

    The T1 current depends on the input alone, so it is computed once per
    (sample, feature). The rest of the cell law runs on the terms only: the
    branches of active cells that can draw current (a cell's other branch
    adds exactly 0.0). Each row total must equal the dense sum over all W
    cell currents bit for bit, where every skipped cell adds 0.0. A slot
    with one term takes that term and one with two takes a + b, since
    adding zeros changes neither. Slots with three or more assemble their
    cell currents (lower + upper for a two-term cell) in a zeroed
    (samples, slots, W) buffer summed whole, in the dense order."""
    cfg = arch.config
    w = arch.plan.tile_w
    n = len(v_in)
    p = cfg.params
    lower, upper = np.split(arch.term_cell, [arch.n_lower])
    i_t1 = t1_current(v_in, None, p)
    terms = np.concatenate(
        [lower_branch_t1(i_t1[:, arch.active_input[lower]],
                         arch.active_m1[lower], p),
         upper_branch_t1(i_t1[:, arch.active_input[upper]],
                         arch.active_m2[upper], p)], axis=1)
    (s1, t1), (s2, ta, tb), (s3, first, first_pos, second, second_pos) = \
        arch.row_terms
    row_current = np.zeros((n, arch.plan.n_tiles * arch.plan.tile_h))
    row_current[:, s1] = terms[:, t1]
    row_current[:, s2] = terms[:, ta] + terms[:, tb]
    buffer = np.zeros((n, s3.size * w))
    buffer[:, first_pos] = terms[:, first]
    buffer[:, second_pos] += terms[:, second]
    row_current[:, s3] = buffer.reshape(n, s3.size, w).sum(axis=-1)
    c_ml = cfg.parasitics.ml_capacitance(w)
    return np.maximum(cfg.v_ml0 - row_current * t / c_ml, 0.0)


def _evaluate(arch: ProgrammedArchitecture, X, t_clk=None, collect=False):
    """Core kernel: returns (row match matrix, vote currents, tile record)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != arch.plan.tmap.n_features:
        raise DataError(f"samples must have {arch.plan.tmap.n_features} features")
    if not np.all(np.isfinite(X)):
        raise DataError("samples contain NaN or infinite features")
    cfg = arch.config
    t = cfg.t_clk if t_clk is None else float(t_clk)
    if t <= 0:
        raise ConfigError("t_clk must be positive")
    plan = arch.plan
    n_rows = len(plan.tmap.rows)
    n_samples = X.shape[0]
    v_in = _input_voltages(arch, X)
    per_sample = arch.term_cell.size + arch.row_terms[2][0].size * plan.tile_w
    chunk = max(1, CHUNK_BYTES // (8 * max(1, per_sample)))
    # Exact-count evaluation of v_read * (matches @ vote_matrix): each vote
    # row holds g_lrs on its class and g_hrs elsewhere, so per-class
    # currents follow from integer counts. Classes with equal counts get
    # bitwise-equal currents and argmax ties resolve to the lowest index,
    # not to float summation-order noise.
    onehot = (arch.vote_matrix == arch.device.g_lrs).astype(np.int64)
    matches = np.ones((n_samples, n_rows), dtype=bool)
    counts = np.empty((n_samples, arch.n_classes), dtype=np.int64)
    for s0 in range(0, n_samples, chunk):
        v_ml = _ml_voltages(arch, v_in[s0:s0 + chunk], t)
        ml = v_ml > cfg.v_sa
        block = matches[s0:s0 + chunk]
        for rows, slots in arch.slot_rows:
            block[:, rows] &= ml[:, slots]
        counts[s0:s0 + chunk] = block.astype(np.int64) @ onehot
        if s0 == 0:
            first_ml, first_v_ml = ml[0], v_ml[0]
    tile_record = volt_record = None
    if collect:
        tile_record, volt_record = {}, {}
        h = plan.tile_h
        slot = 0
        for g, tiles in enumerate(plan.groups):
            for ti in range(len(tiles)):
                tile_record[(g, ti)] = first_ml[slot:slot + h].copy()
                volt_record[(g, ti)] = first_v_ml[slot:slot + h].copy()
                slot += h
    total = matches.sum(axis=1, keepdims=True)
    currents = cfg.v_read * (arch.device.g_hrs * total +
                             (arch.device.g_lrs - arch.device.g_hrs) * counts)
    return matches, currents, (tile_record, volt_record)


def infer_batch(arch: ProgrammedArchitecture, X, t_clk=None,
                rng=None) -> np.ndarray:
    """Predicted class per sample (argmax of vote currents, ties lowest)."""
    _, currents, _ = _evaluate(arch, X, t_clk)
    if arch.config.vote_sigma > 0:
        if rng is None:
            raise ConfigError("vote_sigma > 0 requires an rng")
        currents = currents * (
            1.0 + rng.normal(0.0, arch.config.vote_sigma, currents.shape))
    return np.argmax(currents, axis=1)


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


def evaluate_accuracy(arch: ProgrammedArchitecture, X, y, t_clk=None,
                      rng=None) -> tuple:
    """(fraction correct, confusion matrix[true, predicted]); ``rng`` drives
    the vote noise as in ``infer_batch``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.size == 0 or y.size == 0:
        raise DataError("empty evaluation dataset")
    pred = infer_batch(arch, X, t_clk, rng)
    k = arch.n_classes
    confusion = np.zeros((k, k), dtype=int)
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
          sigma_rel: float | None = None, reorder_map: bool = True,
          workers: int | None = None) -> SweepResult:
    """Monte-Carlo accuracy sweep over one variable.

    Each (point, trial) reprograms with its own RNG substream and draws its
    vote noise from another, so results are independent of scheduling.
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

    plans = {}

    def plan_for(h, w):
        key = (h, w)
        if key not in plans:
            plans[key] = compile_forest(forest, h, w, reorder_map)
        return plans[key]

    jobs = []
    for i, value in enumerate(grid):
        h = int(value) if variable == "tile_h" else tile_h
        w = int(value) if variable == "tile_w" else tile_w
        nb = int(value) if variable == "n_bits" else n_bits
        sg = float(value) if variable == "sigma" else sigma_rel
        t_eval = float(value) if variable == "t_clk" else None
        plan = plan_for(h, w)
        for trial in range(trials):
            jobs.append((i, value, trial, plan, nb, sg, t_eval))

    def run(job):
        i, value, trial, plan, nb, sg, t_eval = job
        arch = program(plan, device, config, forest.feature_bounds,
                       forest.n_classes, nb, sg, seed=[seed, i, trial])
        vote_rng = (np.random.default_rng([seed, i, trial, 1])
                    if config.vote_sigma > 0.0 else None)
        acc, _ = evaluate_accuracy(arch, X, y, t_clk=t_eval, rng=vote_rng)
        return (i, trial, float(value), acc)

    n_workers = workers if workers else min(32, os.cpu_count() or 1)
    if n_workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    results.sort(key=lambda r: (r[0], r[1]))
    rows = tuple((value, trial, acc) for _, trial, value, acc in results)
    summary = []
    for i, value in enumerate(grid):
        accs = np.array([r[3] for r in results if r[0] == i])
        summary.append((float(value), float(np.mean(accs)),
                        float(np.std(accs))))
    return SweepResult(variable=variable, rows=rows, summary=tuple(summary))
