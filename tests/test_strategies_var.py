import math
from dataclasses import replace

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    MarketParams,
    SampledPath,
    TimeGrid,
    good_exec_quadratic_closed,
    good_exec_var_closed,
    good_exec_var_ivp,
    resample,
)
from pathexec.pricemodels import expected_path, sample_path
from pathexec.strategies import _euler_ivp

PARAMS = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=10_000.0, horizon=1.0)


def test_constant_price_closed_form(grid):
    s0 = 320.0
    s = SampledPath.constant(grid, s0)
    plan = good_exec_var_closed(PARAMS, s, s)
    t = grid.times
    c1, c2 = PARAMS.impact, PARAMS.risk_aversion
    analytic = (1 - t) * 10_000.0 - (s0 * c2**2 / (4 * c1**2)) * t * (1 - t)
    assert np.allclose(plan.q.values, analytic, atol=1e-8 * 10_000.0)
    assert plan.q.values[0] == 10_000.0


def test_constant_price_initial_rate(grid):
    s0 = 320.0
    s = SampledPath.constant(grid, s0)
    plan = good_exec_var_ivp(PARAMS, s, s)
    c1, c2 = PARAMS.impact, PARAMS.risk_aversion
    assert plan.r.values[0] == pytest.approx(-10_000.0 - s0 * c2**2 * 1.0 / (4 * c1**2), rel=1e-9)
    assert plan.q.values[0] == 10_000.0


def test_risk_neutral_coincides_with_quadratic(grid, brownian_path):
    p0 = MarketParams(impact=1.35, risk_aversion=0.0,
                      initial_inventory=10_000.0, horizon=1.0)
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    v = good_exec_var_closed(p0, brownian_path, e)
    q = good_exec_quadratic_closed(p0, brownian_path, e)
    assert np.max(np.abs(v.q.values - q.q.values)) <= 1e-10 * 10_000.0


def test_closed_vs_ivp_selfconvergence():
    fine = TimeGrid.uniform(1.0, 2**13)
    smooth = SampledPath.from_function(fine, lambda t: 100.0 + 10.0 * np.sin(2 * np.pi * t))
    e = SampledPath.constant(fine, 100.0)
    gaps = []
    for k in (10, 11, 12, 13):
        g = fine.restrict(2**k)
        s, ee = resample(smooth, g, "previous"), resample(e, g, "previous")
        cl = good_exec_var_closed(PARAMS, s, ee)
        iv = good_exec_var_ivp(PARAMS, s, ee)
        gaps.append(np.max(np.abs(cl.q.values - iv.q.values)))
    slope = math.log2(gaps[0] / gaps[-1]) / 3.0
    assert slope + 1e-6 >= 1.0


def test_adaptedness(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    cut = 512
    frozen = brownian_path.values.copy()
    frozen[cut + 1 :] = 1e6  # absurd future
    alt = SampledPath(grid, frozen)
    for builder in (good_exec_var_closed, good_exec_var_ivp):
        a = builder(PARAMS, brownian_path, e)
        b = builder(PARAMS, alt, e)
        assert np.array_equal(a.q.values[: cut + 1], b.q.values[: cut + 1])


def test_unbiasedness_small_monte_carlo():
    g = TimeGrid.uniform(1.0, 256)
    model = ArithmeticBrownian(100.0, 5.0)
    e = expected_path(model, g)
    seeds = np.random.SeedSequence(31).generate_state(2000, np.uint64)
    terms = good_exec_var_closed(PARAMS, sample_path(model, g, seeds), e).terminal
    stderr = terms.std(ddof=1) / math.sqrt(terms.size)
    assert abs(terms.mean()) <= 3.0 * stderr


def test_variance_bound_var_criterion():
    # Var(qT) <= (T/2c1^4) int_0^T (c2^4 t int_0^t Var(S_u) du + Var(S_t)) dt
    g = TimeGrid.uniform(1.0, 128)
    sigma = 5.0
    model = ArithmeticBrownian(100.0, sigma)
    e = expected_path(model, g)
    seeds = np.random.SeedSequence(13).generate_state(4000, np.uint64)
    terms = good_exec_var_closed(PARAMS, sample_path(model, g, seeds), e).terminal
    var = terms.var(ddof=1)
    centered = terms - terms.mean()
    var_se = math.sqrt(max(np.mean(centered**4) - var**2, 0.0) / terms.size)
    t = g.times
    c1, c2 = PARAMS.impact, PARAMS.risk_aversion
    var_s = sigma**2 * t
    inner = np.concatenate(([0.0], np.cumsum(0.5 * (var_s[1:] + var_s[:-1]) * np.diff(t))))
    bound = 1.0 / (2.0 * c1**4) * np.trapezoid(c2**4 * t * inner + var_s, t)
    assert var <= bound + 2.0 * var_se


def test_certificate_xi_matches_formula(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    plan = good_exec_var_closed(PARAMS, brownian_path, e)
    t = grid.times
    c1, c2 = PARAMS.impact, PARAMS.risk_aversion
    inner = np.concatenate(([0.0], np.cumsum(
        0.5 * (e.values[1:] + e.values[:-1]) * np.diff(t))))
    k = np.trapezoid(e.values - c2**2 * inner, t) / (2 * c1**2 * 1.0)
    f_t = abs(2 * c1**2 * (0.0 - 10_000.0) / 1.0 + 2 * c1**2 * k
              + c2**2 * np.trapezoid(brownian_path.values, t))
    assert plan.xi == pytest.approx(1.0 / f_t, rel=1e-9)
    # the quadratic plan's xi is 1/|2 c1^2 r_T + S_T| at its own terminal rate
    quad = good_exec_quadratic_closed(PARAMS, brownian_path, e)
    f_quad = abs(2 * c1**2 * quad.r.values[-1] + brownian_path.values[-1])
    assert quad.xi == pytest.approx(1.0 / f_quad, rel=1e-9)


def _var_ivp_cases():
    # with no inventory to sell the rate stays near 0, where a sum taken in
    # another order rounds differently; at x0 = 10^4 most reorderings round alike
    flat = replace(PARAMS, initial_inventory=0.0)
    abm = ArithmeticBrownian(s0=100.0, sigma=5.0)
    uniform = TimeGrid.uniform(1.0, 512)
    rng = np.random.default_rng(11)
    uneven = TimeGrid(np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 300)), [1.0])))
    seeds = np.random.SeedSequence(31).generate_state(40, np.uint64)
    return {
        "block": (flat, sample_path(abm, uniform, seeds), expected_path(abm, uniform)),
        "one-path": (flat, sample_path(abm, uniform, 5), expected_path(abm, uniform)),
        "non-uniform-grid": (flat, sample_path(abm, uneven, seeds[:9]),
                             expected_path(abm, uneven)),
        "risk-neutral": (replace(flat, risk_aversion=0.0), sample_path(abm, uniform, seeds),
                         expected_path(abm, uniform)),
    }


@pytest.mark.parametrize("case", sorted(_var_ivp_cases()))
def test_var_ivp_equals_the_per_step_euler_loop(case):
    # the reference is the loop the quadratic and time steppers run, with the
    # var drift (c3^2/2) S_t; the two running sums must give its bytes
    params, realized, expected = _var_ivp_cases()[case]
    plan = good_exec_var_ivp(params, realized, expected)
    half_c3sq = 0.5 * params.risk_ratio**2
    q, r = _euler_ivp(realized.grid.times, realized.values, plan.r.values[..., 0],
                      params.initial_inventory, params.impact,
                      lambda tt, qq, ss: half_c3sq * ss)
    assert plan.q.values.shape == plan.r.values.shape == realized.values.shape
    assert plan.q.values.tobytes() == q.tobytes()
    assert plan.r.values.tobytes() == r.tobytes()
