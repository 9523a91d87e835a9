import math

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    MarketParams,
    SampledPath,
    TimeGrid,
    airy_pair,
    good_exec_quadratic_closed,
    good_exec_quadratic_ivp,
    good_exec_time_closed,
    good_exec_time_ivp,
    resample,
)
from pathexec.pricemodels import expected_path, sample_path


@pytest.fixture(scope="module")
def airy():
    c3 = 1.15 / 1.35
    return airy_pair(c3 ** (2.0 / 3.0) * 1.0, tol=1e-9)


PARAMS = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=10_000.0, horizon=1.0)


def test_constant_price_collapses_to_airy_combination(airy, grid):
    s = SampledPath.constant(grid, 250.0)
    plan = good_exec_time_closed(PARAMS, s, s, airy)
    # zero increments: phi == 0, so q = cA a + cB b with the boundary rows
    # solved against an independent linear-system oracle
    scale = PARAMS.risk_ratio ** (2.0 / 3.0)
    a = airy.ai(scale * grid.times)
    b = airy.bi(scale * grid.times)
    mat = np.array([[a[0], b[0]], [a[-1], b[-1]]])
    coeff = np.linalg.solve(mat, np.array([10_000.0, 0.0]))
    assert np.allclose(plan.q.values, coeff[0] * a + coeff[1] * b, atol=1e-6 * 10_000.0)
    assert plan.q.values[0] == pytest.approx(10_000.0, rel=1e-9)
    assert plan.terminal == pytest.approx(0.0, abs=1e-7 * 10_000.0)


def test_initial_inventory_exact(airy, grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    for builder in (good_exec_time_closed, good_exec_time_ivp):
        plan = builder(PARAMS, brownian_path, e, airy)
        assert plan.q.values[0] == 10_000.0


def test_closed_vs_ivp_selfconvergence(airy):
    fine = TimeGrid.uniform(1.0, 2**13)
    smooth = SampledPath.from_function(fine, lambda t: 100.0 + 10.0 * np.sin(2 * np.pi * t))
    e = SampledPath.constant(fine, 100.0)
    gaps = []
    for k in (10, 11, 12, 13):
        g = fine.restrict(2**k)
        s, ee = resample(smooth, g, "previous"), resample(e, g, "previous")
        cl = good_exec_time_closed(PARAMS, s, ee, airy)
        iv = good_exec_time_ivp(PARAMS, s, ee, airy)
        gaps.append(np.max(np.abs(cl.q.values - iv.q.values)))
    slope = math.log2(gaps[0] / gaps[-1]) / 3.0
    assert slope + 1e-6 >= 1.0


def test_tiny_risk_ratio_matches_risk_neutral_quadratic(grid, brownian_path):
    # continuity in parameters: at c3 = 1e-8 the Airy machinery still runs
    # (just above the degenerate guard) and reproduces the risk-neutral
    # quadratic schedule
    tiny = MarketParams(impact=1.0, risk_aversion=1e-8,
                        initial_inventory=10_000.0, horizon=1.0)
    assert not tiny.risk_neutral
    airy_small = airy_pair(max(tiny.risk_ratio ** (2.0 / 3.0), 1e-6), tol=1e-9)
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    neutral = MarketParams(impact=1.0, risk_aversion=0.0,
                           initial_inventory=10_000.0, horizon=1.0)
    closed_gap = np.max(np.abs(
        good_exec_time_closed(tiny, brownian_path, e, airy_small).q.values
        - good_exec_quadratic_closed(neutral, brownian_path, e).q.values))
    ivp_gap = np.max(np.abs(
        good_exec_time_ivp(tiny, brownian_path, e, airy_small).q.values
        - good_exec_quadratic_ivp(neutral, brownian_path, e).q.values))
    assert closed_gap <= 1e-4 * 10_000.0
    assert ivp_gap <= 1e-4 * 10_000.0


def test_degenerate_aversion_delegates_to_quadratic(grid, brownian_path, airy):
    p0 = MarketParams(impact=1.35, risk_aversion=0.0,
                      initial_inventory=10_000.0, horizon=1.0)
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    t_plan = good_exec_time_closed(p0, brownian_path, e, airy)
    q_plan = good_exec_quadratic_closed(p0, brownian_path, e)
    assert np.array_equal(t_plan.q.values, q_plan.q.values)


def test_adaptedness(airy, grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    cut = 600
    frozen = brownian_path.values.copy()
    frozen[cut + 1 :] = frozen[cut]
    alt = SampledPath(grid, frozen)
    a = good_exec_time_closed(PARAMS, brownian_path, e, airy)
    b = good_exec_time_closed(PARAMS, alt, e, airy)
    assert np.array_equal(a.q.values[: cut + 1], b.q.values[: cut + 1])


def test_boundary_constant_routes_agree(airy):
    # the stepper's terminal constant (wronskian-integral route) and the
    # closed form's alpha_T E[phi_T] (nested-quadrature route) discretize the
    # same object: their gap must shrink at second order in the mesh
    from pathexec.pathcalc import trapezoid
    from pathexec.strategies import _airy_basis, _time_response

    gaps = []
    for k in (11, 13):
        g = TimeGrid.uniform(1.0, 2**k)
        t = g.times
        e_vals = 100.0 + 8.0 * t - 3.0 * t**2
        a, da, b, db = _airy_basis(PARAMS, t, airy)
        w = a[0] * db[0] - da[0] * b[0]
        half = 2.0 * PARAMS.impact**2
        g_prime = (a[-1] * db - b[-1] * da) / w
        k_ivp = (e_vals[0] * (a[-1] * b[0] - a[0] * b[-1]) / w
                 + trapezoid(e_vals * g_prime, t)) / half
        ephi, _ = _time_response(PARAMS, t, a, e_vals, e_vals[0])
        gaps.append(abs(k_ivp - a[-1] * ephi[-1]))
    assert gaps[1] <= 0.3 * gaps[0]
    assert gaps[1] <= 1e-4


def test_certificates_agree_between_routes(airy, grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    cl = good_exec_time_closed(PARAMS, brownian_path, e, airy)
    iv = good_exec_time_ivp(PARAMS, brownian_path, e, airy)
    assert cl.xi == pytest.approx(iv.xi, rel=1e-3)


def test_unbiasedness_small_monte_carlo(airy):
    g = TimeGrid.uniform(1.0, 256)
    model = ArithmeticBrownian(100.0, 5.0)
    e = expected_path(model, g)
    seeds = np.random.SeedSequence(7).generate_state(2000, np.uint64)
    terms = good_exec_time_closed(PARAMS, sample_path(model, g, seeds), e, airy).terminal
    stderr = terms.std(ddof=1) / math.sqrt(terms.size)
    assert abs(terms.mean()) <= 3.0 * stderr

