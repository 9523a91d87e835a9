import math

import numpy as np
import pytest
from scipy import special

from pathexec import (ArithmeticBrownian, DomainError, MarketParams, TimeGrid, airy_pair,
                      good_exec_time_closed)
from pathexec import airy as airy_module
from pathexec.pricemodels import expected_path, sample_path

# power-series oracle: u(x) = a f(x) + b g(x) with
#   f = sum x^{3k} prod-form,  g = sum x^{3k+1} prod-form
# both solving u'' = x u; Ai and Bi pick the classical (a, b) pairs.
F_COEFF = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
G_COEFF = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)


def series_f(x, terms=40):
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= x**3 / ((3 * k) * (3 * k - 1))
        total += term
    return total


def series_g(x, terms=40):
    total, term = x, x
    for k in range(1, terms):
        term *= x**3 / ((3 * k + 1) * (3 * k))
        total += term
    return total


def series_ai(x):
    return F_COEFF * series_f(x) - G_COEFF * series_g(x)


def series_bi(x):
    return math.sqrt(3.0) * (F_COEFF * series_f(x) + G_COEFF * series_g(x))


PAIR = airy_pair(2.0, tol=1e-9)


def test_values_at_origin_match_series_oracle():
    assert PAIR.ai(0.0) == pytest.approx(0.3550280539, abs=1e-9)
    assert PAIR.bi(0.0) == pytest.approx(0.6149266274, abs=1e-9)
    assert PAIR.ai(0.0) == pytest.approx(series_ai(0.0), abs=1e-12)
    assert PAIR.bi(0.0) == pytest.approx(series_bi(0.0), abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 0.8518518518518519 ** (2.0 / 3.0), 1.3, 2.0])
def test_values_match_series_on_domain(x):
    assert float(PAIR.ai(x)) == pytest.approx(series_ai(x), rel=1e-10, abs=1e-12)
    assert float(PAIR.bi(x)) == pytest.approx(series_bi(x), rel=1e-10, abs=1e-12)


def test_ode_residual_small_at_random_points():
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.0, 2.0, size=50)
    res = PAIR.ode_residual(xs)
    bound = 1e-8 * (1.0 + np.abs(PAIR.bi(xs)))
    assert np.all(res <= bound)


def test_wronskian_constant_one_over_pi():
    xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    w = PAIR.wronskian(xs)
    assert np.allclose(w, 1.0 / math.pi, atol=1e-8)
    assert np.max(np.abs(w - w[0])) <= 1e-8


def test_rescaled_wronskian_carries_chain_rule_factor():
    # basis a(t) = Ai(s t), b(t) = Bi(s t) has t-Wronskian s/pi
    s = 0.8518518518518519 ** (2.0 / 3.0)
    t = np.array([0.0, 0.5, 1.0])
    w_t = PAIR.ai(s * t) * s * PAIR.dbi(s * t) - s * PAIR.dai(s * t) * PAIR.bi(s * t)
    assert np.allclose(w_t, s / math.pi, atol=1e-10)


@pytest.mark.parametrize("c3", [20.0, 30.0])
def test_high_urgency_matches_bessel_identities(c3):
    # T = 1, so x_max = c3^(2/3).  Criterion 9's ODE-residual and Wronskian
    # checks come first: they hold for any Ai + eps Bi, the error that forward
    # integration of the decaying solution produces, so alone they do not
    # catch a wrong Ai.  The Bessel identities and the sign of Ai do.
    pair = airy_pair(c3 ** (2.0 / 3.0), tol=1e-9)
    xs = np.linspace(0.5, pair.x_max, 200)
    assert np.all(pair.ode_residual(xs) <= 1e-8 * (1.0 + np.abs(pair.bi(xs))))
    w = pair.wronskian(np.linspace(0.0, pair.x_max, 64))
    assert np.max(np.abs(w - 1.0 / math.pi)) <= 1e-8
    zeta = 2.0 / 3.0 * xs**1.5
    ai_ref = np.sqrt(xs / 3.0) * special.kv(1.0 / 3.0, zeta) / math.pi
    dai_ref = -xs * special.kv(2.0 / 3.0, zeta) / (math.pi * math.sqrt(3.0))
    assert np.allclose(pair.ai(xs), ai_ref, rtol=1e-10, atol=0.0)
    assert np.allclose(pair.dai(xs), dai_ref, rtol=1e-10, atol=0.0)
    assert np.all(pair.ai(xs) > 0.0)


@pytest.mark.parametrize("x_max", [10.0, 20.0, 30.0, 45.0, 60.0, 65.398])
def test_ode_residual_certifies_the_whole_admitted_range(x_max):
    # criterion 9's bound, up to the largest x_max that airy_pair admits
    pair = airy_pair(x_max, tol=1e-9)
    xs = np.linspace(0.0, x_max, 400)
    assert np.all(pair.ode_residual(xs) <= 1e-8 * (1.0 + np.abs(pair.bi(xs))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_urgency_past_representable_range_is_a_domain_error():
    # 1/Ai(x_max)^2 overflows from x_max ~ 65.398, i.e. c3 ~ 528.87 at T = 1
    airy_pair(65.39)
    for x_max in (65.41, 600.0 ** (2.0 / 3.0), math.inf, math.nan):
        with pytest.raises(DomainError, match=r"x_max = c3\^\(2/3\)\*T"):
            airy_pair(x_max)


def test_domain_and_tolerance_validation():
    with pytest.raises(DomainError):
        PAIR.ai(2.5)
    with pytest.raises(DomainError):
        airy_pair(1.0, tol=1e-3)
    with pytest.raises(DomainError):
        airy_pair(-1.0)


def test_vectorized_evaluation_matches_scalar():
    xs = np.linspace(0.0, 2.0, 23)
    vec = PAIR.ai(xs)
    assert np.allclose(vec, [float(PAIR.ai(float(x))) for x in xs], atol=1e-14)


def test_cached_rows_are_read_only_and_still_range_checked():
    xs = np.linspace(0.0, 2.0, 31)
    for row in (PAIR.ai, PAIR.dai, PAIR.bi, PAIR.dbi):
        with pytest.raises(ValueError):
            row(xs)[0] = 1.0
    with pytest.raises(DomainError):
        PAIR.ai(PAIR.x_max + 1.0)
    # the rows are cached by argument alone; a narrower pair still rejects them
    wide = airy_pair(5.0, tol=1e-9)
    wide.ai(2.5 * xs)
    with pytest.raises(DomainError):
        PAIR.bi(2.5 * xs)


def test_time_schedule_evaluates_the_airy_rows_once_per_grid(monkeypatch):
    params = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=1_000.0,
                          horizon=1.0)
    pair = airy_pair(params.risk_ratio ** (2.0 / 3.0), tol=1e-9)
    model, grid = ArithmeticBrownian(100.0, 5.0), TimeGrid.uniform(1.0, 333)
    calls, scipy_airy = [], airy_module._airy

    def counted(x):
        calls.append(np.shape(x))
        return scipy_airy(x)

    monkeypatch.setattr(airy_module, "_airy", counted)
    airy_module._airy_rows.cache_clear()
    expected = expected_path(model, grid)
    for seed in range(3):
        good_exec_time_closed(params, sample_path(model, grid, seed), expected, pair)
    assert calls == [grid.times.shape]
