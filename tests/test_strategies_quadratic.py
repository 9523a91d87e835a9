import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from pathexec import (
    ArithmeticBrownian,
    DomainError,
    GridMismatchError,
    MarketParams,
    SampledPath,
    TimeGrid,
    certificate_quadratic,
    good_exec_quadratic_closed,
    good_exec_quadratic_ivp,
    good_exec_var_closed,
    resample,
)
from pathexec.pricemodels import expected_path, sample_path
from pathexec.strategies import alt_terminal_K, _euler_ivp


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
        fig2_params.impact, lambda tt, qq, ss: c3**2 * qq,
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


def test_certificates(fig2_params, grid, brownian_path):
    expected = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    variance = SampledPath(grid, 25.0 * grid.times)
    cert = certificate_quadratic(fig2_params, brownian_path, expected, variance)
    assert math.isfinite(cert.c) and cert.c > 0.0
    assert math.isfinite(cert.xi) and cert.xi > 0.0
    # deterministic price: C = +inf
    zero_var = SampledPath.constant(grid, 0.0)
    assert certificate_quadratic(fig2_params, brownian_path, expected, zero_var).c == math.inf
    # risk-neutral: the C formula has prefactor c3
    p0 = MarketParams(impact=1.35, risk_aversion=0.0, initial_inventory=10_000.0, horizon=1.0)
    assert certificate_quadratic(p0, brownian_path, expected, variance).c == math.inf


def test_certificate_against_quadrature_oracle():
    # arithmetic-bm sigma=1, c3=1, T=1: C^-1 = int_0^1 sinh(1-u) sqrt(u) du
    params = MarketParams(impact=1.0, risk_aversion=1.0, initial_inventory=1.0, horizon=1.0)
    g = TimeGrid.uniform(1.0, 2**14)
    s = SampledPath.constant(g, 1.0)
    variance = SampledPath(g, g.times)
    cert = certificate_quadratic(params, s, s, variance)
    oracle, err = quad(lambda u: math.sinh(1.0 - u) * math.sqrt(u), 0.0, 1.0)
    assert 1.0 / cert.c == pytest.approx(oracle, abs=max(1e-6, 10 * err))
    # xi matches 1/|2 c1^2 r_T + S_T| computed from the plan itself
    plan = good_exec_quadratic_closed(params, s, s)
    f_t = 2.0 * params.impact**2 * plan.r.values[-1] + s.values[-1]
    assert cert.xi == pytest.approx(1.0 / abs(f_t), rel=1e-9)


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


def test_alt_terminal_window_constants():
    params = MarketParams(impact=1.0, risk_aversion=1.0, initial_inventory=1.0, horizon=1.0)
    g = TimeGrid.uniform(1.0, 2048)
    expected = SampledPath.constant(g, 1.0)
    t = g.times
    k_base = np.trapezoid(np.cosh(1.0 - t) * expected.values, t) / (2.0 * math.sinh(1.0))
    k_limit = alt_terminal_K(params, expected, "mean-square-window", 1.0 - 1e-6)
    assert k_limit == pytest.approx(k_base, abs=1e-6)

    # psi == 0 identically when the forecast is zero and x0 = xT = 0
    p0 = MarketParams(impact=1.0, risk_aversion=1.0, initial_inventory=0.0, horizon=1.0)
    zero = SampledPath.constant(g, 0.0)
    assert alt_terminal_K(p0, zero, "mean-square-window", 0.25) == pytest.approx(0.0, abs=1e-15)
    assert alt_terminal_K(p0, zero, "window-average", 0.25) == pytest.approx(0.0, abs=1e-15)

    # window average at t0 = 0 against an independent quadrature oracle:
    # psi = 2 c1^2 (xT - q0) = int_0^t cosh(c3 (t-u)) E_u du - 2 c1^2 (1-a(t)) (x0 - xT)
    def psi(tt):
        inner, _ = quad(lambda u: math.cosh(tt - u), 0.0, tt)
        return inner - 2.0 * math.sinh(1.0 - tt) / math.sinh(1.0)

    num, _ = quad(psi, 0.0, 1.0)
    oracle = num / (2.0 * (math.cosh(1.0) - 1.0))
    got = alt_terminal_K(params, expected, "window-average", 0.0)
    assert got == pytest.approx(oracle, abs=1e-6)

    with pytest.raises(DomainError):
        alt_terminal_K(params, expected, "window-average", 1.0)
    with pytest.raises(DomainError):
        alt_terminal_K(params, expected, "nonsense", 0.5)


def _window_oracle(params, mode, t0, level, slope):
    """Brute-force minimizer of alt_terminal_K's objective for the forecast
    level + slope t, with q0 written out analytically on a 2^16-step grid."""
    c1, c3, T = params.impact, params.risk_ratio, params.horizon
    x0, x_t = params.initial_inventory, params.target_inventory
    t = np.linspace(0.0, T, 2**16 + 1)
    conv = level * np.sinh(c3 * t) / c3 + slope * (np.cosh(c3 * t) - 1.0) / c3**2
    sinh_full = math.sinh(c3 * T)
    q0 = (x0 * np.sinh(c3 * (T - t)) + x_t * np.sinh(c3 * t)) / sinh_full - conv / (2.0 * c1**2)
    w = t >= t0
    tw, qw, sw = t[w], q0[w], np.sinh(c3 * t[w])
    if mode == "mean-square-window":
        objective = lambda k: np.trapezoid((qw + k * sw - x_t) ** 2, tw) / (T - t0)
    else:
        objective = lambda k: (np.trapezoid(qw + k * sw, tw) / (T - t0) - x_t) ** 2
    return minimize_scalar(objective, bracket=(-1.0, 1.0), tol=1e-12).x


@pytest.mark.parametrize("t0", [0.0, 0.25, 0.75])
@pytest.mark.parametrize("c1", [0.5, 1.0 / math.sqrt(2.0), 1.0, 1.35])
def test_alt_terminal_constant_minimizes_its_objective(c1, t0):
    params = MarketParams(impact=c1, risk_aversion=1.3 * c1, initial_inventory=1.0,
                          horizon=1.0, target_inventory=0.2)
    g = TimeGrid.uniform(1.0, 256)
    expected = SampledPath(g, 1.0 + 0.5 * g.times)
    for mode in ("mean-square-window", "window-average"):
        want = _window_oracle(params, mode, t0, 1.0, 0.5)
        assert alt_terminal_K(params, expected, mode, t0) == pytest.approx(want, abs=1e-5)


def test_terminal_constant_substitution():
    params = MarketParams(impact=1.0, risk_aversion=1.0, initial_inventory=1.0, horizon=1.0)
    g = TimeGrid.uniform(1.0, 2048)
    s = SampledPath.constant(g, 1.0)
    from pathexec.strategies import quadratic_with_terminal_constant

    # with the near-limit window constant the schedule reproduces the
    # standard one; with a generic window it leaves the unbiased class
    k_near = alt_terminal_K(params, s, "mean-square-window", 1.0 - 1e-6)
    near = quadratic_with_terminal_constant(params, s, k_near)
    standard = good_exec_quadratic_closed(params, s, s)
    assert np.max(np.abs(near.q.values - standard.q.values)) <= 1e-5
    assert near.strategy_tag == "good-quadratic-biased-terminal"
    k_wide = alt_terminal_K(params, s, "window-average", 0.0)
    wide = quadratic_with_terminal_constant(params, s, k_wide)
    assert abs(wide.terminal) > 1e-3  # biased terminal by construction
    assert wide.q.values[0] == 1.0


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
