import math

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    DomainError,
    GridMismatchError,
    MarketParams,
    SampledPath,
    TimeGrid,
    good_exec_quadratic_closed,
    good_exec_quadratic_ivp,
    good_exec_var_closed,
    resample,
)
from pathexec.pricemodels import expected_path, sample_path
from pathexec.strategies import CRITERIA, _euler_ivp


def const_paths(grid, level):
    p = SampledPath.constant(grid, level)
    return p, p


def test_constant_price_sinh_profile(fig2_params, grid):
    realized, expected = const_paths(grid, 485777.0)
    plan = good_exec_quadratic_closed(fig2_params, realized, expected)
    c3, T = fig2_params.risk_ratio, 1.0
    analytic = 10_000.0 * np.sinh(c3 * (T - grid.times)) / math.sinh(c3 * T)
    assert np.allclose(plan.q.values, analytic, atol=1e-6 * 10_000.0)
    mid = grid.index_of(0.5)
    assert plan.q.values[mid] == pytest.approx(4578.39, abs=0.01)


def test_initial_inventory_exact(fig2_params, grid, brownian_path):
    expected = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    for builder in (good_exec_quadratic_closed, good_exec_quadratic_ivp):
        plan = builder(fig2_params, brownian_path, expected)
        assert plan.q.values[0] == 10_000.0


def test_risk_neutral_limit_matches_var_criterion(grid, brownian_path):
    params = MarketParams(impact=1.35, risk_aversion=0.0,
                          initial_inventory=10_000.0, horizon=1.0)
    expected = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    quad_plan = good_exec_quadratic_closed(params, brownian_path, expected)
    var_plan = good_exec_var_closed(params, brownian_path, expected)
    assert np.max(np.abs(quad_plan.q.values - var_plan.q.values)) <= 1e-10 * 10_000.0
    # explicit risk-neutral formula
    t = grid.times
    cum = np.concatenate(([0.0], np.cumsum(
        0.5 * (brownian_path.values[1:] + brownian_path.values[:-1]) * np.diff(t))))
    total = np.trapezoid(expected.values, t)
    half = 2.0 * 1.35**2
    manual = 10_000.0 * (1 - t) - cum / half + t * total / half
    assert np.allclose(quad_plan.q.values, manual, atol=1e-9 * 10_000.0)


def test_ivp_constant_price_initial_rate(fig2_params, grid):
    realized, expected = const_paths(grid, 485777.0)
    plan = good_exec_quadratic_ivp(fig2_params, realized, expected)
    c3 = fig2_params.risk_ratio
    assert plan.r.values[0] == pytest.approx(-c3 * 10_000.0 / math.tanh(c3), rel=1e-6)


def test_closed_vs_ivp_selfconvergence_smooth(fig2_params):
    fine = TimeGrid.uniform(1.0, 2**13)
    smooth = SampledPath.from_function(fine, lambda t: 100.0 + 10.0 * np.sin(2 * np.pi * t))
    expected = SampledPath.constant(fine, 100.0)
    gaps = []
    for k in (10, 11, 12, 13):
        g = fine.restrict(2**k)
        s, e = resample(smooth, g, "previous"), resample(expected, g, "previous")
        cl = good_exec_quadratic_closed(fig2_params, s, e)
        iv = good_exec_quadratic_ivp(fig2_params, s, e)
        gaps.append(np.max(np.abs(cl.q.values - iv.q.values)))
    slope = math.log2(gaps[0] / gaps[-1]) / 3.0
    assert slope + 1e-6 >= 1.0


def test_adaptedness_future_never_read(fig2_params, grid, brownian_path):
    expected = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    cut = 700
    frozen = brownian_path.values.copy()
    frozen[cut + 1 :] = frozen[cut]  # a different future
    alt = SampledPath(grid, frozen)
    for builder in (good_exec_quadratic_closed, good_exec_quadratic_ivp):
        a = builder(fig2_params, brownian_path, expected)
        b = builder(fig2_params, alt, expected)
        assert np.array_equal(a.q.values[: cut + 1], b.q.values[: cut + 1])


def test_ivp_rate_perturbation_grows_like_sinh(fig2_params, grid, brownian_path):
    expected = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    base = good_exec_quadratic_ivp(fig2_params, brownian_path, expected)
    c3 = fig2_params.risk_ratio
    delta = 1e-3
    q2, _ = _euler_ivp(
        grid.times, brownian_path.values, base.r.values[0] + delta, 10_000.0,
        fig2_params.impact, *CRITERIA["quadratic"](c3**2, grid.times),
    )
    law = delta * np.sinh(c3 * grid.times) / c3
    assert np.max(np.abs((q2 - base.q.values) - law)) <= 5.0 * delta * grid.mesh
    # identical data reproduces the identical trajectory
    again = good_exec_quadratic_ivp(fig2_params, brownian_path, expected)
    assert np.array_equal(again.q.values, base.q.values)


def test_euler_lagrange_flow_is_absolutely_continuous(fig2_params, brownian_path):
    # sum |f_{n+1} - f_n - 2 c2^2 q_n dt| halves with the mesh (f = 2c1^2 r + S)
    fine = brownian_path
    sums = []
    for k in (8, 9, 10):
        g = fine.grid.restrict(2**k)
        s = resample(fine, g, "previous")
        e = SampledPath.constant(g, 100.0)
        plan = good_exec_quadratic_closed(fig2_params, s, e)
        f = 2.0 * fig2_params.impact**2 * plan.r.values + s.values
        gap = np.abs(np.diff(f) - 2.0 * fig2_params.risk_aversion**2
                     * plan.q.values[:-1] * np.diff(g.times))
        sums.append(float(np.sum(gap)))
    assert sums[2] <= 0.6 * sums[1] <= 0.6 * 0.6 * sums[0]


def test_grid_and_domain_errors(fig2_params, grid, brownian_path):
    with pytest.raises(GridMismatchError):
        good_exec_quadratic_closed(
            fig2_params, brownian_path, SampledPath.constant(TimeGrid.uniform(1.0, 7), 1.0))
    with pytest.raises(DomainError):
        MarketParams(impact=0.0, risk_aversion=1.0, initial_inventory=1.0, horizon=1.0)


def test_market_params_reject_non_finite():
    good = dict(impact=1.35, risk_aversion=1.15, initial_inventory=1_000.0, horizon=1.0,
                target_inventory=0.0, terminal_penalty=0.0)
    for field in good:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                MarketParams(**{**good, field: value})


def test_plan_rate_consistency(fig2_params, grid, brownian_path):
    expected = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    plan = good_exec_quadratic_closed(fig2_params, brownian_path, expected)
    # the trapezoid integral of the analytic rate rebuilds the inventory up
    # to quadrature noise driven by the rough price term in r
    assert plan.max_rate_consistency_gap() <= 5.0 * math.sqrt(grid.mesh)


def test_unbiasedness_small_monte_carlo(fig2_params):
    g = TimeGrid.uniform(1.0, 256)
    model = ArithmeticBrownian(100.0, 5.0)
    expected = expected_path(model, g)
    seeds = np.random.SeedSequence(99).generate_state(2000, np.uint64)
    terms = good_exec_quadratic_closed(fig2_params, sample_path(model, g, seeds), expected).terminal
    stderr = terms.std(ddof=1) / math.sqrt(terms.size)
    assert abs(terms.mean()) <= 3.0 * stderr
