"""Power, delay, throughput, and energy arithmetic for the tiled arrays.

All functions are closed-form models of the architecture's electrical
behavior: static divider current, data-line charging through the DAC
output resistance, match-line charge/discharge, and first-order (Elmore)
propagation delay along a data line loaded by H cells. They deliberately
take plain geometry counts so they can be evaluated standalone or driven
from a TiledPlan via report_for_plan.

The match-line dynamic power is computed in two modes. The default
"dimensional" mode uses C.V^2/(2t) per row; the "as_printed" mode uses
(C.V)^2/(2t), which is not dimensionally a power but is retained for
fidelity with the source formula. The mode is recorded in the report.
``PerfConfig`` holds every setting, one field per ``[perf]`` value key.
"""

from dataclasses import dataclass

import numpy as np

from .cell import CellParams, Parasitics
from .errors import ConfigError

ML_MODES = ("dimensional", "as_printed")
CYCLES_PER_ARRAY = 3
V_ML0 = 0.8  # match-line pre-charge, V


@dataclass(frozen=True)
class PerfConfig:
    """Electrical operating point for the performance model.

    c_dl and c_ml are per-cell loadings; row/line totals are formed by the
    report assembly. r_out is the DAC output resistance driving one data
    line and r_w the per-cell wire resistance along it. cap_scale scales
    every capacitance, volt_scale every voltage and power_scale the power
    terms (standing in for current scaling).
    """

    v_dd: float = 0.8
    v_sl_hi: float = 0.8
    t_clk: float = 1e-9
    r_out: float = 1e4
    r_w: float = Parasitics.r_wire
    c_dl: float = Parasitics.c_line
    c_ml: float = Parasitics.c_line
    pipelined: bool = False
    power_scale: float = 1.0
    cap_scale: float = 1.0
    volt_scale: float = 1.0

    def __post_init__(self):
        for name in ("power_scale", "cap_scale", "volt_scale", "v_dd",
                     "v_sl_hi", "t_clk", "r_out", "r_w", "c_dl", "c_ml"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")


@dataclass(frozen=True)
class PerfReport:
    p_static: float
    p_dl: float
    p_ml: float
    p_total: float
    tau_dl: float
    throughput: float
    energy_per_decision: float
    energy_per_node_per_decision: float
    ml_mode: str
    pipelined: bool


def p_static(tile_h: int, tile_w: int, n_tiles: int, v_sl_hi: float,
             i_d0: float) -> float:
    """Static divider power: two always-on dividers per placed cell."""
    if tile_h < 0 or tile_w < 0 or n_tiles < 0:
        raise ConfigError("cell counts must be >= 0")
    return 2.0 * tile_h * tile_w * n_tiles * v_sl_hi * i_d0


def p_dl(v_dd: float, tile_w: int, n_tiles: int, r_out: float) -> float:
    """Dynamic power charging W data lines per tile through the DAC."""
    if not r_out > 0.0:
        raise ConfigError("r_out must be > 0")
    if tile_w < 0 or n_tiles < 0:
        raise ConfigError("counts must be >= 0")
    return v_dd * v_dd * tile_w * n_tiles / r_out


def p_ml(t_clk: float, c_ml_row: float, v_ml0: float, tile_h: int,
         n_tiles: int, final_ml_voltages, mode: str = "dimensional") -> float:
    """Match-line charge plus discharge power over one clock period.

    Every row is pre-charged to v_ml0 each cycle; rows that discharged to
    a final voltage V dissipate the (v_ml0 - V) swing again on the next
    pre-charge. final_ml_voltages must hold one entry per tile row.
    """
    if mode not in ML_MODES:
        raise ConfigError(f"mode must be one of {ML_MODES}")
    if not t_clk > 0.0:
        raise ConfigError("t_clk must be > 0")
    v_final = np.asarray(final_ml_voltages, dtype=float).ravel()
    if v_final.size != tile_h * n_tiles:
        raise ConfigError("final_ml_voltages must have tile_h * n_tiles entries")
    swing = v_ml0 - v_final
    if mode == "dimensional":
        charge = v_final.size * c_ml_row * v_ml0 * v_ml0
        discharge = c_ml_row * float(np.sum(swing * swing))
    else:
        charge = v_final.size * (c_ml_row * v_ml0) ** 2
        discharge = float(np.sum((c_ml_row * swing) ** 2))
    return (charge + discharge) / (2.0 * t_clk)


def elmore_delay(tile_h: int, r_out: float, r_w: float, c_dl: float) -> float:
    """First-order delay of a data line driving tile_h cell loads."""
    if tile_h < 1:
        raise ConfigError("tile_h must be >= 1")
    return c_dl * (r_out * tile_h + r_w * tile_h * (tile_h - 1) / 2.0)


def elmore_delay_sum(tile_h: int, r_out: float, r_w: float,
                     c_dl: float) -> float:
    """Summation form of elmore_delay; exposed as a cross-check."""
    if tile_h < 1:
        raise ConfigError("tile_h must be >= 1")
    i = np.arange(tile_h, dtype=float)
    return float(np.sum((r_out + i * r_w) * c_dl))


def choose_r_out(t_clk: float, tile_h: int, r_w: float, c_dl: float,
                 safety: float = 0.1) -> float:
    """Largest DAC output resistance keeping the DL settled within budget.

    Maximizing r_out minimizes p_dl; the budget is safety * t_clk on the
    Elmore delay. Infeasible when the wire term alone exceeds the budget.
    """
    if not 0.0 < safety < 1.0:
        raise ConfigError("safety must be in (0, 1)")
    if tile_h < 1:
        raise ConfigError("tile_h must be >= 1")
    if not c_dl > 0.0:
        raise ConfigError("c_dl must be > 0")
    budget = safety * t_clk
    r_out = (budget / c_dl - r_w * tile_h * (tile_h - 1) / 2.0) / tile_h
    if not r_out > 0.0:
        raise ConfigError("wire delay alone exceeds the clock budget")
    return r_out


def throughput(n_arrays: int, t_clk: float, pipelined: bool) -> float:
    """Decisions per second for a chain of sequentially matched arrays.

    Each array costs CYCLES_PER_ARRAY clocks; pipelining overlaps arrays
    so the chain retires one decision per array slot.
    """
    if n_arrays < 1:
        raise ConfigError("n_arrays must be >= 1")
    if not t_clk > 0.0:
        raise ConfigError("t_clk must be > 0")
    if pipelined:
        return 1.0 / (CYCLES_PER_ARRAY * t_clk)
    return 1.0 / (n_arrays * CYCLES_PER_ARRAY * t_clk)


def perf_report(tile_h: int, tile_w: int, n_tiles: int, n_arrays: int,
                n_nodes: int, config: PerfConfig,
                ml_mode: str = "dimensional") -> PerfReport:
    """Assemble the full power/delay/throughput/energy report.

    Powers are computed with every array concurrently active; in
    non-pipelined operation only one array works at a time, so every
    component is scaled by 1/n_arrays. That uniform scaling makes
    energy_per_decision identical in both modes by construction. Match
    lines pre-charge to V_ML0 and end fully discharged (worst case); the
    dividers draw the cell's ``CellParams().i_d0``.
    """
    for name, count in (("tile_h", tile_h), ("tile_w", tile_w),
                        ("n_tiles", n_tiles), ("n_arrays", n_arrays),
                        ("n_nodes", n_nodes)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1")
    v_dd = config.v_dd * config.volt_scale
    v_sl_hi = config.v_sl_hi * config.volt_scale
    v_ml0 = V_ML0 * config.volt_scale
    c_dl = config.c_dl * config.cap_scale
    c_ml_row = config.c_ml * config.cap_scale * tile_w

    p_stat = p_static(tile_h, tile_w, n_tiles, v_sl_hi,
                      CellParams().i_d0) * config.power_scale
    p_line = p_dl(v_dd, tile_w, n_tiles, config.r_out) * config.power_scale
    p_match = p_ml(config.t_clk, c_ml_row, v_ml0, tile_h, n_tiles,
                   np.zeros(tile_h * n_tiles), ml_mode) * config.power_scale
    if not config.pipelined:
        p_stat /= n_arrays
        p_line /= n_arrays
        p_match /= n_arrays
    p_total = p_stat + p_line + p_match

    tau = elmore_delay(tile_h, config.r_out, config.r_w, c_dl)
    tput = throughput(n_arrays, config.t_clk, config.pipelined)
    energy = p_total / tput
    return PerfReport(
        p_static=p_stat,
        p_dl=p_line,
        p_ml=p_match,
        p_total=p_total,
        tau_dl=tau,
        throughput=tput,
        energy_per_decision=energy,
        energy_per_node_per_decision=energy / n_nodes,
        ml_mode=ml_mode,
        pipelined=config.pipelined,
    )


def report_for_plan(plan, n_nodes: int) -> PerfReport:
    """Performance report for a compiled TiledPlan at the default
    PerfConfig; n_arrays is the plan's number of active groups."""
    return perf_report(plan.tile_h, plan.tile_w, plan.n_tiles,
                       max(1, plan.n_active_groups), n_nodes, PerfConfig())

