import math
from dataclasses import replace

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    MarketParams,
    SampledPath,
    TimeGrid,
    airy_pair,
    aposteriori_optimal,
    challenger_plans,
    cost_J,
    good_exec_quadratic_closed,
    good_exec_time_closed,
    good_exec_var_closed,
    static_optimal,
    terminal_penalty_optimal,
    twap,
)
from pathexec.pricemodels import expected_path, sample_path

PARAMS = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=10_000.0, horizon=1.0)


def test_static_constant_forecast_is_sinh_profile(grid):
    e = SampledPath.constant(grid, 100.0)
    plan = static_optimal(PARAMS, e, good_exec_quadratic_closed)
    c3 = PARAMS.risk_ratio
    analytic = 10_000.0 * np.sinh(c3 * (1.0 - grid.times)) / math.sinh(c3)
    assert np.allclose(plan.q.values, analytic, atol=1e-6 * 10_000.0)
    assert abs(plan.terminal) <= 1e-8 * 10_000.0


def test_static_risk_neutral_is_twap(grid):
    p0 = MarketParams(impact=1.35, risk_aversion=0.0,
                      initial_inventory=10_000.0, horizon=1.0)
    e = SampledPath.constant(grid, 100.0)
    st = static_optimal(p0, e, good_exec_quadratic_closed)
    tw = twap(p0, grid)
    assert np.allclose(st.q.values, tw.q.values, atol=1e-9 * 10_000.0)


@pytest.mark.parametrize("criterion", ["time", "var"])
def test_static_of_the_criterion_beats_the_quadratic_static_on_the_forecast(criterion):
    # each criterion's static plan is its pathwise optimum on the forecast path
    params = MarketParams(impact=1.35, risk_aversion=4.0, initial_inventory=1_000.0, horizon=1.0)
    e = expected_path(ArithmeticBrownian(100.0, 5.0), TimeGrid.uniform(1.0, 512))
    airy = airy_pair(params.risk_ratio ** (2.0 / 3.0) * params.horizon)
    closed = {"time": lambda p, s, x: good_exec_time_closed(p, s, x, airy),
              "var": good_exec_var_closed}[criterion]
    own = static_optimal(params, e, closed)
    quadratic = static_optimal(params, e, good_exec_quadratic_closed)
    assert cost_J(criterion, params, e, own) <= cost_J(criterion, params, e, quadratic)


def test_twap_line(grid):
    plan = twap(PARAMS, grid)
    assert plan.q.values[grid.index_of(0.5)] == pytest.approx(5_000.0)
    assert np.all(plan.r.values == -10_000.0)
    assert plan.terminal == pytest.approx(0.0)


def test_aposteriori_degenerations(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    st = static_optimal(PARAMS, e, good_exec_quadratic_closed)
    apost_of_forecast = aposteriori_optimal(PARAMS, e, good_exec_quadratic_closed)
    assert np.array_equal(st.q.values, apost_of_forecast.q.values)
    ap = aposteriori_optimal(PARAMS, brownian_path, good_exec_quadratic_closed)
    assert ap.q.values[0] == 10_000.0
    assert abs(ap.terminal) <= 1e-8 * 10_000.0


def test_aposteriori_beats_pinned_competitors_pathwise(grid):
    model = ArithmeticBrownian(100.0, 5.0)
    e = expected_path(model, grid)
    st = static_optimal(PARAMS, e, good_exec_quadratic_closed)
    tw = twap(PARAMS, grid)
    rng = np.random.default_rng(5)
    real = sample_path(model, grid, np.arange(100))
    j_ap = cost_J("quadratic", PARAMS, real,
                  aposteriori_optimal(PARAMS, real, good_exec_quadratic_closed))
    tol = 1e-9 * (1.0 + np.abs(j_ap))
    assert np.all(j_ap <= cost_J("quadratic", PARAMS, real, st) + tol)
    assert np.all(j_ap <= cost_J("quadratic", PARAMS, real, tw) + tol)
    # brute force: random pinned perturbations never improve on it
    real = sample_path(model, grid, 123)
    ap = aposteriori_optimal(PARAMS, real, good_exec_quadratic_closed)
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

        eta = ExecutionPlan(q=pert, r=rate)
        assert cost_J("quadratic", PARAMS, real, eta) >= j_ap - 1e-9 * (1.0 + abs(j_ap))


def test_weak_euler_lagrange_identity():
    # quadrature residual decays at mesh^2; at N=4096 a genuine identity sits
    # orders of magnitude below the 1e-4 relative gate
    fine = TimeGrid.uniform(1.0, 4096)
    model = ArithmeticBrownian(100.0, 5.0)
    e = expected_path(model, fine)
    realized = sample_path(model, fine, 2024)
    cases = [
        (static_optimal(PARAMS, e, good_exec_quadratic_closed), e.values),
        (aposteriori_optimal(PARAMS, realized, good_exec_quadratic_closed), realized.values),
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
    plan = terminal_penalty_optimal(p, drift)
    c3, c6 = p.risk_ratio, p.penalty_ratio
    q_t = c3 * 10_000.0 / (c3 * math.cosh(c3) + c6**2 * math.sinh(c3))
    assert plan.terminal == pytest.approx(q_t, abs=1e-10 * 10_000.0)
    # c6 = 0: pure cosh relaxation
    p0 = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=10_000.0, horizon=1.0)
    pl0 = terminal_penalty_optimal(p0, drift)
    cosh_profile = 10_000.0 * np.cosh(c3 * (1.0 - grid.times)) / math.cosh(c3)
    assert np.allclose(pl0.q.values, cosh_profile, atol=1e-9 * 10_000.0)
    # c6 -> large: approaches the fuel-constrained sinh profile
    pb = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0,
                      horizon=1.0, terminal_penalty=1e6 * 1.35)
    plb = terminal_penalty_optimal(pb, drift)
    sinh_profile = 10_000.0 * np.sinh(c3 * (1.0 - grid.times)) / math.sinh(c3)
    assert np.max(np.abs(plb.q.values - sinh_profile)) <= 1e-4 * 10_000.0


def test_terminal_penalty_risk_neutral_is_a_straight_line():
    # risk_aversion = 0 takes phi's c3 -> 0 branch: under zero drift
    # q_t = x0 (1 + c6^2 (T - t)) / (1 + c6^2 T) at the constant rate -c6^2 x0 / (1 + c6^2 T)
    x0, T = 1e4, 2.0
    grid = TimeGrid.uniform(T, 400)
    drift = SampledPath.constant(grid, 0.0)
    p = MarketParams(impact=1.35, risk_aversion=0.0, initial_inventory=x0, horizon=T,
                     terminal_penalty=0.7)
    c6sq = p.penalty_ratio**2
    q = x0 * (1.0 + c6sq * (T - grid.times)) / (1.0 + c6sq * T)
    r = -c6sq * x0 / (1.0 + c6sq * T)
    for risk_aversion, tol in ((0.0, 1e-12), (1e-6, 1e-11)):  # 1e-6: the hyperbolic branch
        case = replace(p, risk_aversion=risk_aversion)
        assert case.risk_neutral == (risk_aversion == 0.0)
        plan = terminal_penalty_optimal(case, drift)
        assert np.max(np.abs(plan.q.values - q)) <= tol * x0
        assert np.max(np.abs(plan.r.values - r)) <= tol * x0


def test_terminal_penalty_with_drift_consistency(grid):
    # deterministic linear drift: the schedule must integrate it; sanity-check
    # the rate against finite differences of the inventory
    e = SampledPath.constant(grid, 100.0)
    drift = SampledPath(grid, 5.0 * grid.times)
    p = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0,
                     horizon=1.0, terminal_penalty=1.35)
    plan = terminal_penalty_optimal(p, drift)
    assert plan.q.values[0] == 10_000.0
    fd = np.gradient(plan.q.values, grid.times)
    assert np.max(np.abs(fd[1:-1] - plan.r.values[1:-1])) <= 2e-2 * np.max(np.abs(plan.r.values))


def test_reduction_to_static_small_monte_carlo():
    g = TimeGrid.uniform(1.0, 128)
    model = ArithmeticBrownian(100.0, 2.0)
    params = MarketParams(impact=1.35, risk_aversion=1.15,
                          initial_inventory=1_000.0, horizon=1.0)
    e = expected_path(model, g)
    st = static_optimal(params, e, good_exec_quadratic_closed)
    seeds = np.random.SeedSequence(21).generate_state(2000, np.uint64)
    real = sample_path(model, g, seeds)
    j_st = cost_J("quadratic", params, real, st)
    excess = {name: cost_J("quadratic", params, real, ch) - j_st
              for name, ch in challenger_plans(params, real, e, feedback=5.0).items()}
    assert set(excess) == {"twap", "front-loaded", "back-loaded",
                           "reactive-pos", "reactive-neg"}
    for tag, d in excess.items():
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert d.mean() >= -2.0 * se, tag


def test_challengers_are_fuel_constrained_and_adapted(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    for ch in challenger_plans(PARAMS, brownian_path, e, feedback=5.0).values():
        assert ch.q.values[0] == 10_000.0
        assert abs(ch.terminal) <= 1e-9 * 10_000.0
        assert ch.max_rate_consistency_gap() <= 1e-6 * 10_000.0

