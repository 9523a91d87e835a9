import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pathexec import (
    DomainError,
    EstimationError,
    MidPriceSeries,
    OuJumpDiffusion,
    SampledPath,
    TimeGrid,
    calibrate_ou_jump,
    detect_jumps,
    extract_target,
    fit_ou,
    two_point_marks,
)
import pathexec
from pathexec.pricemodels import sample_path


def ou_series(alpha, sigma, steps, span, seed, level=0.0):
    grid = TimeGrid.uniform(span, steps)
    rng = np.random.default_rng(seed)
    dt = span / steps
    decay = math.exp(-alpha * dt)
    std = sigma * math.sqrt((1.0 - decay**2) / (2.0 * alpha))
    y = np.empty(steps + 1)
    y[0] = 0.0
    shocks = std * rng.standard_normal(steps)
    for i in range(steps):
        y[i + 1] = y[i] * decay + shocks[i]
    return SampledPath(grid, level + y)


def test_extract_target_constant_series():
    t = np.linspace(0.0, 10.0, 501)
    series = MidPriceSeries(t, np.full(t.size, 42.0))
    m = extract_target(series, window=1.0)
    assert np.allclose(m.values, math.log(42.0))
    full = extract_target(series, window=10.0)
    assert np.allclose(full.values, math.log(42.0))


def test_extract_target_linear_log_price_interior():
    t = np.linspace(0.0, 10.0, 2001)
    series = MidPriceSeries(t, np.exp(0.5 + 0.05 * t))
    m = extract_target(series, window=1.0)
    interior = (t > 1.0) & (t < 9.0)
    assert np.max(np.abs(m.values[interior] - (0.5 + 0.05 * t[interior]))) <= 1e-9


def test_extract_target_scale_equivariance():
    t = np.linspace(0.0, 5.0, 301)
    prices = np.exp(np.sin(t)) + 3.0
    a = extract_target(MidPriceSeries(t, prices), window=0.7)
    b = extract_target(MidPriceSeries(t, prices * 10.0), window=0.7)
    assert np.allclose(b.values - a.values, math.log(10.0), atol=1e-12)


def test_extract_target_window_validation():
    t = np.linspace(0.0, 1.0, 50)
    series = MidPriceSeries(t, np.ones(50))
    with pytest.raises(DomainError):
        extract_target(series, window=0.0)


def test_fit_ou_recovers_synthetic_parameters():
    path = ou_series(alpha=5.0, sigma=0.02, steps=100_000, span=100.0, seed=77)
    fit = fit_ou(path)
    assert fit.alpha == pytest.approx(5.0, rel=0.10)
    assert fit.sigma == pytest.approx(0.02, rel=0.10)
    assert not fit.boundary


def test_fit_ou_degenerate_and_boundary():
    g = TimeGrid.uniform(1.0, 200)
    with pytest.raises(EstimationError):
        fit_ou(SampledPath.constant(g, 0.3))
    with pytest.raises(DomainError):
        fit_ou(SampledPath(TimeGrid.uniform(1.0, 10), np.random.default_rng(0).normal(size=11)))
    # white noise: slope ~ 0 -> boundary regime flagged, alpha at resolver limit
    rng = np.random.default_rng(1)
    wn = SampledPath(TimeGrid.uniform(1.0, 5000), rng.standard_normal(5001))
    fit = fit_ou(wn)
    dt = 1.0 / 5000
    assert fit.alpha >= -math.log(1e-6) / dt or fit.boundary


def test_fit_ou_irregular_timestamps():
    rng = np.random.default_rng(3)
    gaps = rng.uniform(0.5, 1.5, size=40_000) * 1e-3
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    alpha, sigma = 5.0, 0.02
    y = np.empty(t.size)
    y[0] = 0.0
    for i in range(t.size - 1):
        d = math.exp(-alpha * (t[i + 1] - t[i]))
        std = sigma * math.sqrt((1.0 - d * d) / (2.0 * alpha))
        y[i + 1] = y[i] * d + std * rng.standard_normal()
    fit = fit_ou(SampledPath(TimeGrid(t), y))
    assert fit.alpha == pytest.approx(alpha, rel=0.15)
    assert fit.sigma == pytest.approx(sigma, rel=0.10)


def test_detect_jumps_false_positive_rate_pure_ou():
    path = ou_series(alpha=5.0, sigma=0.02, steps=200_000, span=100.0, seed=9)
    det = detect_jumps(path, alpha=5.0, sigma=0.02, k=4.0)
    # two-sided gaussian tail at 4 sigma
    assert det.count / 200_000 <= 2.0 * 1.3e-4


def test_detect_jumps_recall_on_injected_marks():
    path = ou_series(alpha=5.0, sigma=0.02, steps=100_000, span=50.0, seed=10)
    rng = np.random.default_rng(11)
    idx = rng.choice(np.arange(1, 100_000), size=400, replace=False)
    marks = 0.01 * rng.choice([-1.0, 1.0], size=400)
    bumped = path.values.copy()
    steps = np.zeros_like(bumped)
    steps[idx] = marks
    bumped += np.cumsum(steps)
    det = detect_jumps(SampledPath(path.grid, bumped), alpha=5.0, sigma=0.02, k=3.0)
    matched = {float(t): m for t, m in zip(np.round(det.times, 12), det.marks)}
    true_times = np.round(path.grid.times[idx], 12)
    hits = [float(t) in matched for t in true_times]
    assert np.mean(hits) >= 0.95
    recovered = np.array([abs(matched[float(t)]) for t in true_times if float(t) in matched])
    assert np.median(recovered) == pytest.approx(0.01, rel=0.05)


def test_detect_jumps_constant_residual():
    g = TimeGrid.uniform(1.0, 500)
    det = detect_jumps(SampledPath.constant(g, 0.0), alpha=5.0, sigma=0.02, k=3.0)
    assert det.count == 0 and det.intensity == 0.0


def test_round_trip_full_model():
    model = OuJumpDiffusion(
        m=lambda t: np.full_like(np.asarray(t, dtype=float), math.log(100.0)),
        alpha=5.0, sigma=0.02, lam=10.0, mark_sampler=two_point_marks(0.01))
    grid = TimeGrid.uniform(50.0, 100_000)
    s = sample_path(model, grid, seed=20_26)
    series = MidPriceSeries(grid.times, s.values)
    fit = calibrate_ou_jump(series, window=50.0, k=4.0)
    assert fit.ou.alpha == pytest.approx(5.0, rel=0.15)
    assert fit.ou.sigma == pytest.approx(0.02, rel=0.15)
    assert fit.jumps.intensity == pytest.approx(10.0, rel=0.15)
    # the jump-contaminated first pass underestimates the reversion speed
    assert fit.first_pass.alpha < fit.ou.alpha


def test_series_validation():
    with pytest.raises(DomainError):
        MidPriceSeries(np.array([0.0, 1.0]), np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        MidPriceSeries(np.array([1.0, 0.0]), np.array([1.0, 2.0]))


def test_import_leaves_scipy_optimize_unloaded():
    # fit_ou imports the optimizer when it needs it, so a cold import stays cheap
    src = os.path.dirname(os.path.dirname(pathexec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, pathexec; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
