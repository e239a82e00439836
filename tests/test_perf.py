"""Power, delay, throughput, and energy model checks.

Hand-computed reference values are frozen into the asserts; randomized
checks compare the implementations against independently written
plain-Python expressions.
"""

from dataclasses import fields

import numpy as np
import pytest

from camforest.config import SCHEMA
from camforest.datasets import load_iris
from camforest.errors import ConfigError
from camforest.forest import train_forest
from camforest.mapper import compile_forest
from camforest.perf import (
    PerfConfig,
    choose_r_out,
    elmore_delay,
    elmore_delay_sum,
    p_dl,
    p_ml,
    p_static,
    perf_report,
    report_for_plan,
    throughput,
)


def test_p_static_hand_value():
    # one cell, two dividers: 2 * 0.8 V * 50 nA = 80 nW
    assert p_static(1, 1, 1, 0.8, 50e-9) == pytest.approx(8.0e-8, rel=1e-12)


def test_p_static_linearity_and_zero():
    assert p_static(16, 16, 0, 0.8, 50e-9) == 0.0
    one = p_static(8, 16, 3, 0.8, 50e-9)
    assert p_static(8, 16, 6, 0.8, 50e-9) == pytest.approx(2 * one, rel=1e-12)
    with pytest.raises(ConfigError):
        p_static(-1, 16, 1, 0.8, 50e-9)


def test_p_dl_hand_value():
    # 0.8^2 * 16 / 10 kOhm = 1.024 mW
    assert p_dl(0.8, 16, 1, 1e4) == pytest.approx(1.024e-3, rel=1e-12)


def test_p_dl_zero_and_monotone():
    assert p_dl(0.8, 16, 0, 1e4) == 0.0
    assert p_dl(0.8, 16, 1, 5e3) == pytest.approx(2 * p_dl(0.8, 16, 1, 1e4),
                                                  rel=1e-12)
    with pytest.raises(ConfigError):
        p_dl(0.8, 16, 1, 0.0)


def test_p_ml_dimensional_hand_value():
    # one row staying charged: only the pre-charge term,
    # 0.5 * 100 fF * 0.64 V^2 / 1 ns = 32 uW
    val = p_ml(1e-9, 1e-13, 0.8, 1, 1, [0.8], mode="dimensional")
    assert val == pytest.approx(3.2e-5, rel=1e-12)


def test_p_ml_full_discharge_symmetry():
    # a fully discharged row dissipates the charge term twice
    charged = p_ml(1e-9, 1e-13, 0.8, 1, 1, [0.8])
    total = p_ml(1e-9, 1e-13, 0.8, 1, 1, [0.0])
    assert total == pytest.approx(2 * charged, rel=1e-12)


def test_p_ml_as_printed_mode():
    # (C*V)^2/(2t) as printed: (1e-13*0.8)^2 / 2e-9
    val = p_ml(1e-9, 1e-13, 0.8, 1, 1, [0.8], mode="as_printed")
    assert val == pytest.approx((1e-13 * 0.8) ** 2 / 2e-9, rel=1e-12)
    with pytest.raises(ConfigError):
        p_ml(1e-9, 1e-13, 0.8, 1, 1, [0.8], mode="bogus")


def test_p_ml_row_count_validation():
    with pytest.raises(ConfigError):
        p_ml(1e-9, 1e-13, 0.8, 4, 2, [0.8] * 7)


def test_elmore_hand_value():
    # 1.9 fF * (1 kOhm * 4 + 1.4 * 6) = 7.616e-12 s
    tau = elmore_delay(4, 1e3, 1.4, 1.9e-15)
    assert tau == pytest.approx(7.616e-12, rel=1e-3)
    assert tau == pytest.approx(1.9e-15 * (4e3 + 1.4 * 6), rel=1e-12)


def test_elmore_single_cell():
    assert elmore_delay(1, 1e3, 1.4, 1.9e-15) == pytest.approx(1.9e-12,
                                                               rel=1e-12)


def test_elmore_matches_summation():
    rng = np.random.default_rng(7)
    for h in (1, 2, 3, 7, 64, 513, 10_000):
        r_out = float(rng.uniform(1e2, 1e5))
        r_w = float(rng.uniform(0.1, 10.0))
        c = float(rng.uniform(0.5e-15, 5e-15))
        closed = elmore_delay(h, r_out, r_w, c)
        summed = elmore_delay_sum(h, r_out, r_w, c)
        assert closed == pytest.approx(summed, rel=1e-12)


def test_elmore_monotone_in_height():
    taus = [elmore_delay(h, 1e3, 1.4, 1.9e-15) for h in range(1, 51)]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_choose_r_out_zero_wire_inversion():
    r = choose_r_out(1e-9, 16, 0.0, 1.9e-15, safety=0.1)
    assert r == pytest.approx(0.1e-9 / (1.9e-15 * 16), rel=1e-12)
    assert choose_r_out(2e-9, 16, 0.0, 1.9e-15, safety=0.1) == \
        pytest.approx(2 * r, rel=1e-12)


def test_choose_r_out_bisection_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t_clk = float(rng.uniform(0.5e-9, 50e-9))
        h = int(rng.integers(1, 65))
        r_w = float(rng.uniform(0.0, 5.0))
        c = float(rng.uniform(0.5e-15, 5e-15))
        try:
            r = choose_r_out(t_clk, h, r_w, c, safety=0.1)
        except ConfigError:
            continue
        budget = 0.1 * t_clk
        assert elmore_delay(h, r, r_w, c) <= budget * (1 + 1e-12)
        assert elmore_delay(h, 1.01 * r, r_w, c) > budget


def test_choose_r_out_infeasible():
    # wire delay alone blows the budget at this height
    with pytest.raises(ConfigError):
        choose_r_out(1e-12, 1000, 10.0, 1.9e-15, safety=0.1)
    with pytest.raises(ConfigError):
        choose_r_out(1e-9, 16, 1.4, 1.9e-15, safety=1.5)


def test_throughput_reference_points():
    non_pipe = throughput(16, 1e-9, pipelined=False)
    pipe = throughput(16, 1e-9, pipelined=True)
    assert non_pipe == pytest.approx(20.83e6, rel=5e-3)
    assert pipe == pytest.approx(333e6, rel=5e-3)
    assert non_pipe == pytest.approx(1.0 / 48e-9, rel=1e-12)
    assert pipe == pytest.approx(1.0 / 3e-9, rel=1e-12)


def test_throughput_monotone_in_arrays():
    vals = [throughput(n, 1e-9, pipelined=False) for n in range(1, 33)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ConfigError):
        throughput(0, 1e-9, pipelined=False)


def test_report_additivity_and_energy_identity():
    cfg = PerfConfig()
    rep = perf_report(16, 16, 12, 16, 300, cfg)
    assert rep.p_total == rep.p_static + rep.p_dl + rep.p_ml
    assert rep.energy_per_decision * rep.throughput == \
        pytest.approx(rep.p_total, rel=1e-15)
    assert rep.energy_per_node_per_decision == \
        pytest.approx(rep.energy_per_decision / 300, rel=1e-15)


@pytest.mark.parametrize("at", range(5))
def test_report_rejects_counts_below_one(at):
    """tile_h, tile_w, n_tiles, n_arrays and n_nodes must each be >= 1."""
    counts = [16, 16, 12, 16, 300]
    names = ["tile_h", "tile_w", "n_tiles", "n_arrays", "n_nodes"]
    for bad in (0, -4):
        counts[at] = bad
        with pytest.raises(ConfigError, match=f"{names[at]} must be >= 1"):
            perf_report(*counts, PerfConfig())


def test_energy_invariant_under_pipelining():
    base = PerfConfig(pipelined=False)
    piped = PerfConfig(pipelined=True)
    rep_n = perf_report(16, 16, 16, 16, 300, base)
    rep_p = perf_report(16, 16, 16, 16, 300, piped)
    assert rep_p.throughput == pytest.approx(16 * rep_n.throughput, rel=1e-12)
    assert rep_p.p_total == pytest.approx(16 * rep_n.p_total, rel=1e-12)
    assert rep_p.energy_per_decision == rep_n.energy_per_decision


def test_formula_fidelity_random_points():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        n = int(rng.integers(0, 40))
        v = float(rng.uniform(0.2, 2.0))
        i0 = float(rng.uniform(1e-9, 1e-6))
        r = float(rng.uniform(1e2, 1e6))
        t = float(rng.uniform(1e-10, 1e-6))
        c_row = float(rng.uniform(1e-14, 1e-12))
        v0 = float(rng.uniform(0.2, 1.5))
        vf = rng.uniform(0.0, v0, size=h * max(n, 1) if n else 0)

        assert p_static(h, w, n, v, i0) == pytest.approx(
            2 * h * w * n * v * i0, rel=1e-9)
        assert p_dl(v, w, n, r) == pytest.approx(v ** 2 * w * n / r, rel=1e-9)
        if n:
            want = sum(c_row * v0 ** 2 / (2 * t) for _ in vf) + \
                sum(c_row * (v0 - x) ** 2 / (2 * t) for x in vf)
            assert p_ml(t, c_row, v0, h, n, vf) == pytest.approx(want,
                                                                 rel=1e-9)
            want_printed = sum((c_row * v0) ** 2 / (2 * t) for _ in vf) + \
                sum((c_row * (v0 - x)) ** 2 / (2 * t) for x in vf)
            assert p_ml(t, c_row, v0, h, n, vf, mode="as_printed") == \
                pytest.approx(want_printed, rel=1e-9)
        c = float(rng.uniform(0.5e-15, 5e-15))
        rw = float(rng.uniform(0.0, 10.0))
        want_tau = sum((r + i * rw) * c for i in range(h))
        assert elmore_delay(h, r, rw, c) == pytest.approx(want_tau, rel=1e-9)


def test_scale_factors_apply():
    cfg = PerfConfig(volt_scale=0.5)
    base = PerfConfig()
    rep = perf_report(8, 8, 4, 4, 100, cfg)
    ref = perf_report(8, 8, 4, 4, 100, base)
    # p_dl ~ V^2, p_static ~ V, and the default all-discharged ML term ~ V^2
    assert rep.p_dl == pytest.approx(0.25 * ref.p_dl, rel=1e-12)
    assert rep.p_static == pytest.approx(0.5 * ref.p_static, rel=1e-12)
    assert rep.p_ml == pytest.approx(0.25 * ref.p_ml, rel=1e-12)

    doubled_c = PerfConfig(cap_scale=2.0)
    assert perf_report(8, 8, 4, 4, 100, doubled_c).tau_dl == \
        pytest.approx(2 * ref.tau_dl, rel=1e-12)

    powered = PerfConfig(power_scale=0.1)
    assert perf_report(8, 8, 4, 4, 100, powered).p_total == \
        pytest.approx(0.1 * ref.p_total, rel=1e-12)


def test_perf_config_fields_are_the_perf_value_keys():
    """``cmd_perf`` builds ``PerfConfig`` from ``[perf]`` by field name, so
    its fields are the section's keys bar the mode and the geometry."""
    geometry = {"ml_mode", "tile_h", "tile_w", "n_tiles", "n_arrays",
                "n_nodes"}
    assert {f.name for f in fields(PerfConfig)} == \
        set(SCHEMA["perf"]) - geometry


def test_config_validation():
    with pytest.raises(ConfigError):
        PerfConfig(t_clk=0.0)
    with pytest.raises(ConfigError):
        PerfConfig(r_out=-1.0)
    with pytest.raises(ConfigError):
        PerfConfig(cap_scale=0.0)
    with pytest.raises(ConfigError):
        perf_report(8, 8, 4, 4, 0, PerfConfig())


def test_report_for_plan_geometry():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=5, max_depth=4, seed=0)
    plan = compile_forest(forest, tile_h=8, tile_w=2)
    n_nodes = sum(t.n_leaves() - 1 for t in forest.trees)
    rep = report_for_plan(plan, n_nodes=n_nodes)
    n_active = sum(1 for g in plan.groups if g)
    want = perf_report(8, 2, plan.n_tiles, n_active, n_nodes, PerfConfig())
    assert rep == want

