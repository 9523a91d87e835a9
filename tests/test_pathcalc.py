import math

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    DomainError,
    GridMismatchError,
    SampledPath,
    TimeGrid,
    resample,
    young_integral,
)
from pathexec.pathcalc import cumulative_young
from pathexec.pricemodels import sample_path


def test_grid_invariants():
    g = TimeGrid.uniform(2.0, 4)
    assert g.times[0] == 0.0 and g.horizon == 2.0
    assert np.max(np.diff(g.times)) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(DomainError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_uniform_grid_needs_a_finite_positive_horizon(horizon):
    with pytest.raises(DomainError, match="finite horizon > 0"):
        TimeGrid.uniform(horizon, 4)


def test_path_validation(grid):
    with pytest.raises(DomainError):
        SampledPath(grid, np.ones(3))
    bad = np.ones(len(grid))
    bad[3] = np.inf
    with pytest.raises(DomainError):
        SampledPath(grid, bad)


def test_young_constant_integrator_is_zero(grid, brownian_path):
    eta = SampledPath(grid, brownian_path.values)  # arbitrary integrand
    const = SampledPath.constant(grid, 7.0)
    assert young_integral(eta, const, 0.0, 1.0) == 0.0


def test_young_smooth_case_matches_riemann():
    g = TimeGrid.uniform(1.0, 2**16)
    t_path = SampledPath.from_function(g, lambda t: t)
    assert young_integral(t_path, t_path, 0.0, 1.0) == pytest.approx(0.5, abs=1e-4)


def test_young_unit_integrand_telescopes(grid, brownian_path):
    one = SampledPath.constant(grid, 1.0)
    v = young_integral(one, brownian_path, 0.0, 1.0)
    assert v == pytest.approx(brownian_path.values[-1] - brownian_path.values[0], abs=1e-12)


def test_young_errors(grid, brownian_path):
    other = TimeGrid.uniform(1.0, 100)
    with pytest.raises(GridMismatchError):
        young_integral(SampledPath.constant(other, 1.0), brownian_path, 0.0, 1.0)
    with pytest.raises(DomainError):
        young_integral(brownian_path, brownian_path, 0.0, 0.12345678)
    with pytest.raises(DomainError):
        young_integral(brownian_path, brownian_path, 1.0, 0.0)  # s > t
    assert young_integral(brownian_path, brownian_path, 0.5, 0.5) == 0.0


def test_grid_restrict_requires_divisibility(grid):
    with pytest.raises(DomainError):
        grid.restrict(3)
    assert len(grid.restrict(2**5)) == 2**5 + 1


def test_stieltjes_examples():
    g = TimeGrid.uniform(1.0, 2**16)
    const = SampledPath.constant(g, 3.0)
    lin = SampledPath.from_function(g, lambda t: t)
    assert young_integral(const, lin, 0.0, 1.0) == pytest.approx(3.0, abs=1e-12)
    quad = SampledPath.from_function(g, lambda t: t**2)
    assert young_integral(lin, quad, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_integration_by_parts_residual_brownian():
    g = TimeGrid.uniform(1.0, 2**16)
    s = sample_path(ArithmeticBrownian(s0=100.0, sigma=1.0), g, 5)
    eta = SampledPath.from_function(g, np.sin)
    lhs = young_integral(eta, s, 0.0, 1.0) + young_integral(s, eta, 0.0, 1.0)
    boundary = eta.values[-1] * s.values[-1] - eta.values[0] * s.values[0]
    cross = float(np.sum(np.diff(eta.values) * np.diff(s.values)))
    # on a fixed grid the identity is exact: residual equals the cross sum
    assert lhs - boundary == pytest.approx(-cross, abs=1e-9)
    sup_s = np.max(np.abs(s.values))
    sup_eta = np.max(np.abs(eta.values))
    assert abs(lhs - boundary) <= 1e-6 * sup_s * sup_eta


@pytest.mark.parametrize("maker,order_floor", [("brownian", 0.5), ("lipschitz", 1.0)])
def test_integration_by_parts_rate(maker, order_floor):
    fine = TimeGrid.uniform(1.0, 2**16)
    if maker == "brownian":
        s_fine = sample_path(ArithmeticBrownian(s0=0.0, sigma=1.0), fine, 2024)
        kind = "previous"
    else:
        s_fine = SampledPath.from_function(fine, lambda t: np.cos(3 * t))
        kind = "linear"
    residuals = []
    for k in (10, 12, 14):
        g = fine.restrict(2**k)
        s = resample(s_fine, g, kind)
        eta = SampledPath.from_function(g, np.sin)
        lhs = young_integral(eta, s, 0.0, 1.0) + young_integral(s, eta, 0.0, 1.0)
        boundary = eta.values[-1] * s.values[-1] - eta.values[0] * s.values[0]
        residuals.append(abs(lhs - boundary))
    slope = math.log2(residuals[0] / residuals[-1]) / 4.0
    # 1e-6 absorbs the noise of the slope estimator itself, nothing more
    assert slope + 1e-6 >= order_floor


def test_young_linearity_and_additivity(grid, brownian_path):
    a = SampledPath.from_function(grid, np.sin)
    b = SampledPath.from_function(grid, np.cos)
    combo = SampledPath(grid, 2.0 * a.values - 3.0 * b.values)
    lhs = young_integral(combo, brownian_path, 0.0, 1.0)
    rhs = 2.0 * young_integral(a, brownian_path, 0.0, 1.0) - 3.0 * young_integral(
        b, brownian_path, 0.0, 1.0
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    mid = grid.times[517]
    split = young_integral(a, brownian_path, 0.0, mid) + young_integral(
        a, brownian_path, mid, 1.0
    )
    assert split == pytest.approx(young_integral(a, brownian_path, 0.0, 1.0), abs=1e-12)


def test_resample_rules(grid):
    jumpy = SampledPath.from_function(grid, lambda t: np.where(t < 0.5, 1.0, 2.0))
    coarse = TimeGrid.uniform(1.0, 64)
    cadlag = resample(jumpy, coarse, "previous")
    assert set(np.unique(cadlag.values)) == {1.0, 2.0}  # the jump is not smoothed
    lin = resample(SampledPath.from_function(grid, lambda t: t), coarse, "linear")
    assert np.allclose(lin.values, coarse.times)


def test_cumulative_young_runs_the_young_integral(brownian_path):
    eta = SampledPath.from_function(brownian_path.grid, np.cos)
    t = brownian_path.grid.times
    w, x = eta.values.tolist(), brownian_path.values.tolist()

    def left_point(i, k):  # the oracle: a Python loop over the terms w_m (x_{m+1} - x_m)
        total = 0.0
        for m in range(i, k):
            total += w[m] * (x[m + 1] - x[m])
        return total

    running = cumulative_young(eta.values, brownian_path.values)
    for k in (0, 1, 500, t.size - 1):
        assert running[k] == pytest.approx(left_point(0, k), rel=1e-12, abs=1e-12)
        assert young_integral(eta, brownian_path, 0.0, t[k]) == pytest.approx(
            left_point(0, k), rel=1e-12, abs=1e-12)
    assert young_integral(eta, brownian_path, t[100], t[500]) == pytest.approx(
        left_point(100, 500), rel=1e-12, abs=1e-12)
    block = np.stack([brownian_path.values, 2.0 * brownian_path.values])
    assert np.array_equal(cumulative_young(eta.values, block)[0], running)
