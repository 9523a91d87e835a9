import math

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    MarketParams,
    SampledPath,
    TimeGrid,
    aposteriori_optimal,
    challenger_plans,
    cost_J,
    static_optimal,
    terminal_penalty_optimal,
    twap,
)
from pathexec.pricemodels import expected_path, sample_path

PARAMS = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=10_000.0, horizon=1.0)


def test_static_constant_forecast_is_sinh_profile(grid):
    e = SampledPath.constant(grid, 100.0)
    plan = static_optimal(PARAMS, e)
    c3 = PARAMS.risk_ratio
    analytic = 10_000.0 * np.sinh(c3 * (1.0 - grid.times)) / math.sinh(c3)
    assert np.allclose(plan.q.values, analytic, atol=1e-6 * 10_000.0)
    assert abs(plan.terminal) <= 1e-8 * 10_000.0


def test_static_risk_neutral_is_twap(grid):
    p0 = MarketParams(impact=1.35, risk_aversion=0.0,
                      initial_inventory=10_000.0, horizon=1.0)
    e = SampledPath.constant(grid, 100.0)
    st = static_optimal(p0, e)
    tw = twap(p0, grid)
    assert np.allclose(st.q.values, tw.q.values, atol=1e-9 * 10_000.0)


def test_twap_line(grid):
    plan = twap(PARAMS, grid)
    assert plan.q.values[grid.index_of(0.5)] == pytest.approx(5_000.0)
    assert np.all(plan.r.values == -10_000.0)
    assert plan.terminal == pytest.approx(0.0)


def test_aposteriori_degenerations(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    st = static_optimal(PARAMS, e)
    apost_of_forecast = aposteriori_optimal(PARAMS, e)
    assert np.array_equal(st.q.values, apost_of_forecast.q.values)
    ap = aposteriori_optimal(PARAMS, brownian_path)
    assert ap.q.values[0] == 10_000.0
    assert abs(ap.terminal) <= 1e-8 * 10_000.0


def test_aposteriori_beats_pinned_competitors_pathwise(grid):
    model = ArithmeticBrownian(100.0, 5.0)
    e = expected_path(model, grid)
    st = static_optimal(PARAMS, e)
    tw = twap(PARAMS, grid)
    rng = np.random.default_rng(5)
    real = sample_path(model, grid, np.arange(100))
    j_ap = cost_J("quadratic", PARAMS, real, aposteriori_optimal(PARAMS, real))
    tol = 1e-9 * (1.0 + np.abs(j_ap))
    assert np.all(j_ap <= cost_J("quadratic", PARAMS, real, st) + tol)
    assert np.all(j_ap <= cost_J("quadratic", PARAMS, real, tw) + tol)
    # brute force: random pinned perturbations never improve on it
    real = sample_path(model, grid, 123)
    ap = aposteriori_optimal(PARAMS, real)
    j_ap = cost_J("quadratic", PARAMS, real, ap)
    t = grid.times
    k = np.arange(1, 9)
    basis = np.sin(np.outer(k, np.pi * t))
    dbasis = (k[:, None] * np.pi) * np.cos(np.outer(k, np.pi * t))
    for _ in range(200):
        c = rng.standard_normal(8) * 20.0 / k
        pert = SampledPath(grid, ap.q.values + c @ basis)
        rate = SampledPath(grid, ap.r.values + c @ dbasis)
        from pathexec.strategies import ExecutionPlan

        eta = ExecutionPlan(q=pert, r=rate, strategy_tag="pert", criterion_tag="quadratic")
        assert cost_J("quadratic", PARAMS, real, eta) >= j_ap - 1e-9 * (1.0 + abs(j_ap))


def test_weak_euler_lagrange_identity():
    # quadrature residual decays at mesh^2; at N=4096 a genuine identity sits
    # orders of magnitude below the 1e-4 relative gate
    fine = TimeGrid.uniform(1.0, 4096)
    model = ArithmeticBrownian(100.0, 5.0)
    e = expected_path(model, fine)
    realized = sample_path(model, fine, 2024)
    cases = [
        (static_optimal(PARAMS, e), e.values),
        (aposteriori_optimal(PARAMS, realized), realized.values),
    ]
    t = fine.times
    rng = np.random.default_rng(3)
    c1, c2 = PARAMS.impact, PARAMS.risk_aversion
    k = np.arange(1, 9)
    for plan, price in cases:
        for _ in range(20):
            c = rng.standard_normal(8) / k
            psi = (c[:, None] * np.sin(np.outer(k, np.pi * t))).sum(axis=0)
            dpsi = (c[:, None] * (k[:, None] * np.pi) * np.cos(np.outer(k, np.pi * t))).sum(axis=0)
            lhs = np.trapezoid((price + 2 * c1**2 * plan.r.values) * dpsi, t)
            rhs = np.trapezoid(2 * c2**2 * plan.q.values * psi, t)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs + rhs) <= 1e-4 * scale


def test_terminal_penalty_zero_drift(grid):
    e = SampledPath.constant(grid, 100.0)
    drift = SampledPath.constant(grid, 0.0)
    p = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0,
                     horizon=1.0, terminal_penalty=0.5 * 1.35)
    plan = terminal_penalty_optimal(p, e, drift)
    c3, c6 = p.risk_ratio, p.penalty_ratio
    q_t = c3 * 10_000.0 / (c3 * math.cosh(c3) + c6**2 * math.sinh(c3))
    assert plan.terminal == pytest.approx(q_t, abs=1e-10 * 10_000.0)
    # c6 = 0: pure cosh relaxation
    p0 = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=10_000.0, horizon=1.0)
    pl0 = terminal_penalty_optimal(p0, e, drift)
    cosh_profile = 10_000.0 * np.cosh(c3 * (1.0 - grid.times)) / math.cosh(c3)
    assert np.allclose(pl0.q.values, cosh_profile, atol=1e-9 * 10_000.0)
    # c6 -> large: approaches the fuel-constrained sinh profile
    pb = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0,
                      horizon=1.0, terminal_penalty=1e6 * 1.35)
    plb = terminal_penalty_optimal(pb, e, drift)
    sinh_profile = 10_000.0 * np.sinh(c3 * (1.0 - grid.times)) / math.sinh(c3)
    assert np.max(np.abs(plb.q.values - sinh_profile)) <= 1e-4 * 10_000.0


def test_terminal_penalty_with_drift_consistency(grid):
    # deterministic linear drift: the schedule must integrate it; sanity-check
    # the rate against finite differences of the inventory
    e = SampledPath.constant(grid, 100.0)
    drift = SampledPath(grid, 5.0 * grid.times)
    p = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0,
                     horizon=1.0, terminal_penalty=1.35)
    plan = terminal_penalty_optimal(p, e, drift)
    assert plan.q.values[0] == 10_000.0
    fd = np.gradient(plan.q.values, grid.times)
    assert np.max(np.abs(fd[1:-1] - plan.r.values[1:-1])) <= 2e-2 * np.max(np.abs(plan.r.values))


def test_reduction_to_static_small_monte_carlo():
    g = TimeGrid.uniform(1.0, 128)
    model = ArithmeticBrownian(100.0, 2.0)
    params = MarketParams(impact=1.35, risk_aversion=1.15,
                          initial_inventory=1_000.0, horizon=1.0)
    e = expected_path(model, g)
    st = static_optimal(params, e)
    seeds = np.random.SeedSequence(21).generate_state(2000, np.uint64)
    real = sample_path(model, g, seeds)
    j_st = cost_J("quadratic", params, real, st)
    excess = {ch.strategy_tag: cost_J("quadratic", params, real, ch) - j_st
              for ch in challenger_plans(params, real, e, feedback=5.0)}
    assert set(excess) == {"twap", "front-loaded", "back-loaded",
                           "reactive-pos", "reactive-neg"}
    for tag, d in excess.items():
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert d.mean() >= -2.0 * se, tag


def test_challengers_are_fuel_constrained_and_adapted(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    for ch in challenger_plans(PARAMS, brownian_path, e, feedback=5.0):
        assert ch.q.values[0] == 10_000.0
        assert abs(ch.terminal) <= 1e-9 * 10_000.0
        assert ch.max_rate_consistency_gap() <= 1e-6 * 10_000.0
