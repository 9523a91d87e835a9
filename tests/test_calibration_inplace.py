"""Calibration runs in place or in chunks: same fits, bounded working set.

The oracle below is the straightforward whole-array form of the calibration
pipeline (one temporary per expression).  The library computes every stage
by the same operations in the same order, only in place or in chunks, so
every fitted number must match the oracle bit for bit.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pathexec import (
    DomainError,
    MidPriceSeries,
    OuJumpDiffusion,
    SampledPath,
    TimeGrid,
    calibrate_ou_jump,
    extract_target,
    two_point_marks,
)
from pathexec import calibration
from pathexec.calibration import JumpDetection, OuFit
from pathexec.pricemodels import sample_path


def oracle_extract_target(series, window):
    if window > series.span:
        window = series.span
    t = series.timestamps
    logp = np.log(series.prices)
    lo_time = np.clip(t - 0.5 * window, t[0], t[-1] - window)
    hi_time = lo_time + window
    eps = 1e-9 * max(window, 1.0)
    lo = np.searchsorted(t, lo_time - eps, side="left")
    hi = np.searchsorted(t, hi_time + eps, side="right")
    csum = np.concatenate(([0.0], np.cumsum(logp)))
    m = (csum[hi] - csum[lo]) / (hi - lo)
    return SampledPath(TimeGrid(t - t[0]), m)


def oracle_fit_ou(residual):
    y = residual.values
    t = residual.grid.times
    assert not np.allclose(y, y[0])
    dt = np.diff(t)
    if np.ptp(dt) <= 1e-9 * dt[0]:
        step = float(dt[0])
        y0, y1 = y[:-1], y[1:]
        x0 = y0 - y0.mean()
        denom = float(x0 @ x0)
        rho = float(x0 @ (y1 - y1.mean())) / denom
        boundary = rho <= 0.0
        alpha = -math.log(1e-8) / step if boundary else -math.log(rho) / step
        resid = y1 - y1.mean() - rho * x0
        ssr = float(resid @ resid) / resid.size
        shrink = (1.0 - math.exp(-2.0 * alpha * step)) / (2.0 * alpha)
        return OuFit(alpha=alpha, sigma=math.sqrt(ssr / shrink), boundary=boundary)

    mean = y.mean()
    y0, y1 = y[:-1] - mean, y[1:] - mean

    def neg_profile_loglik(log_alpha):
        a = math.exp(log_alpha)
        decay = np.exp(-a * dt)
        v = (1.0 - decay**2) / (2.0 * a)
        resid_sq = (y1 - decay * y0) ** 2
        s2 = float(np.mean(resid_sq / v))
        return 0.5 * float(np.sum(np.log(v))) + 0.5 * resid_sq.size * math.log(s2)

    res = minimize_scalar(neg_profile_loglik, bounds=(-10.0, 15.0), method="bounded")
    alpha = math.exp(res.x)
    decay = np.exp(-alpha * dt)
    v = (1.0 - decay**2) / (2.0 * alpha)
    sigma = math.sqrt(float(np.mean((y1 - decay * y0) ** 2 / v)))
    return OuFit(alpha=alpha, sigma=sigma, boundary=res.x >= 15.0 - 1e-6)


def oracle_detect_jumps(residual, alpha, sigma, k):
    y = residual.values
    t = residual.grid.times
    dt = np.diff(t)
    decay = np.exp(-alpha * dt)
    displacement = y[1:] - decay * y[:-1]
    scale = sigma * np.sqrt((1.0 - decay**2) / (2.0 * alpha))
    hits = np.abs(displacement) > k * scale
    times = t[1:][hits]
    marks = displacement[hits]
    span = float(t[-1] - t[0])
    lam = times.size / span if span > 0 else 0.0
    mark_size = float(np.median(np.abs(marks))) if marks.size else 0.0
    return JumpDetection(times=times, marks=marks, intensity=lam, mark_size=mark_size)


def oracle_calibrate(series, window, k=4.0):
    target = oracle_extract_target(series, window)
    grid = target.grid
    residual = SampledPath(grid, np.log(series.prices) - target.values)
    first = oracle_fit_ou(residual)
    jumps = oracle_detect_jumps(residual, first.alpha, first.sigma, k)
    cleaned = residual.values.copy()
    if jumps.count:
        idx = np.searchsorted(grid.times, jumps.times)
        steps = np.zeros_like(cleaned)
        family = np.where(np.abs(jumps.marks) > 0.5 * jumps.mark_size,
                          np.sign(jumps.marks) * jumps.mark_size, 0.0)
        steps[idx] = family
        cleaned = cleaned - np.cumsum(steps)
    refit = oracle_fit_ou(SampledPath(grid, cleaned))
    return target, refit, jumps, first


def jump_series(times, seed=2026):
    model = OuJumpDiffusion(
        m=lambda t: np.full_like(np.asarray(t, dtype=float), math.log(100.0)),
        alpha=5.0, sigma=0.02, lam=10.0, mark_sampler=two_point_marks(0.01))
    grid = TimeGrid(np.asarray(times, dtype=float))
    return MidPriceSeries(grid.times, sample_path(model, grid, seed=seed).values)


def uniform_series(rows, span=50.0):
    return jump_series(np.linspace(0.0, span, rows))


def irregular_series(rows, seed=5):
    gaps = np.random.default_rng(seed).uniform(0.5, 1.5, size=rows - 1) * 2.5e-3
    return jump_series(np.concatenate(([0.0], np.cumsum(gaps))))


def assert_same_fit(series, window):
    fit = calibrate_ou_jump(series, window, k=4.0)
    target, refit, jumps, first = oracle_calibrate(series, window, k=4.0)
    assert np.array_equal(fit.target.values, target.values)
    assert np.array_equal(fit.target.grid.times, target.grid.times)
    assert fit.ou == refit and fit.first_pass == first
    assert np.array_equal(fit.jumps.times, jumps.times)
    assert np.array_equal(fit.jumps.marks, jumps.marks)
    assert fit.jumps.intensity == jumps.intensity and fit.jumps.mark_size == jumps.mark_size
    assert jumps.count > 0
    return fit


@pytest.mark.parametrize("fraction", [0.1, 1.0 / 3.0, 1.0, 2.0])
def test_uniform_fit_is_byte_identical_to_the_oracle(fraction):
    series = uniform_series(20_000)
    assert_same_fit(series, fraction * series.span)


def test_irregular_fit_is_byte_identical_to_the_oracle():
    series = irregular_series(20_000)
    fit = assert_same_fit(series, 0.2 * series.span)
    assert not fit.ou.boundary  # the likelihood branch found an interior optimum


@pytest.mark.parametrize("make", [uniform_series, irregular_series], ids=["uniform", "irregular"])
def test_ou_fit_holds_python_values(make):
    # both fit_ou branches, the regression and the likelihood, return a Python
    # bool, so a fit serialises as JSON
    series = make(5_000)
    fit = calibrate_ou_jump(series, 0.2 * series.span, k=4.0)
    for ou in (fit.first_pass, fit.ou):
        assert type(ou.boundary) is bool
        json.dumps(dataclasses.asdict(ou))


def test_target_does_not_depend_on_the_chunk_length(monkeypatch):
    series = irregular_series(5_000)
    window = 0.3 * series.span
    whole = extract_target(series, window)
    monkeypatch.setattr(calibration, "_TARGET_CHUNK", 7)
    assert np.array_equal(extract_target(series, window).values, whole.values)


def test_calibration_working_set_is_bounded():
    # outputs (target values and grid), one working residual, two temporaries
    # and slack: at most six series-length float64 arrays above the input
    series = uniform_series(200_000)
    n = series.prices.size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit = calibrate_ou_jump(series, series.span, k=4.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fit.jumps.count > 0
    assert peak <= 6 * n * 8, f"peak {peak / (n * 8):.2f} series-length arrays"


NEIGHBOURS = {
    "increasing": [0.0, 1.0, 2.0],
    "equal": [0.0, 1.0, 1.0],
    "decreasing": [0.0, 2.0, 1.0],
    "nan": [0.0, math.nan, 2.0],
    "inf-inf": [0.0, math.inf, math.inf],
    "inf-then-finite": [0.0, math.inf, 1.0],
    "-inf-then-inf": [0.0, -math.inf, math.inf],
    "overflowing-drop": [0.0, 1e308, -1e308],
}


@pytest.mark.parametrize("times", NEIGHBOURS.values(), ids=NEIGHBOURS.keys())
def test_monotonicity_checks_on_edge_neighbours(times):
    # TimeGrid wants strictly increasing times, the series non-decreasing finite
    # ones; each decides order as a sign test on np.diff(times) would, with the
    # same message, and the series then refuses a non-finite timestamp
    t = np.array(times)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(t)
        if np.all(d > 0.0):
            TimeGrid(t)
        else:
            with pytest.raises(DomainError, match="strictly increasing"):
                TimeGrid(t)
        if np.any(d < 0):
            with pytest.raises(DomainError, match="non-decreasing"):
                MidPriceSeries(t, np.ones(t.size))
        elif not np.all(np.isfinite(t)):
            with pytest.raises(DomainError, match="timestamps must be finite"):
                MidPriceSeries(t, np.ones(t.size))
        else:
            MidPriceSeries(t, np.ones(t.size))


def test_monotonicity_checks_subtract_nothing():
    # comparing neighbours cannot overflow or meet inf - inf: no RuntimeWarning
    for times in ([0.0, math.inf, math.inf], [0.0, 1e308, -1e308]):
        with pytest.raises(DomainError):
            TimeGrid(np.array(times))
    with pytest.raises(DomainError, match="non-decreasing"):
        MidPriceSeries(np.array([0.0, 1e308, -1e308]), np.ones(3))
