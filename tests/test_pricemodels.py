import math

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    BrownianBridge,
    DeterministicPrice,
    DomainError,
    ExponentialMartingale,
    OuJumpDiffusion,
    TimeGrid,
    p_variation,
    two_point_marks,
)
from pathexec.pricemodels import expected_path, sample_path, variance_path

GRID = TimeGrid.uniform(1.0, 128)


def mc_paths(model, n, root=1, grid=GRID):
    seeds = np.random.SeedSequence(root).generate_state(n, np.uint64)
    return np.array([sample_path(model, grid, int(s)).values for s in seeds])


def flat_log(level):
    return lambda t: np.full_like(np.asarray(t, dtype=float), math.log(level))


def test_determinism_same_seed():
    m = ArithmeticBrownian(s0=100.0, sigma=2.0)
    a = sample_path(m, GRID, 42)
    b = sample_path(m, GRID, 42)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, sample_path(m, GRID, 43).values)


def test_bm_moments():
    m = ArithmeticBrownian(s0=100.0, sigma=1.0)
    assert np.all(expected_path(m, GRID).values == 100.0)
    idx = GRID.index_of(0.25)
    assert variance_path(m, GRID).values[idx] == pytest.approx(0.25)
    assert variance_path(m, GRID).values[0] == 0.0


def test_expmartingale_moments():
    m = ExponentialMartingale(s0=100.0, sigma=0.3)
    assert np.all(expected_path(m, GRID).values == 100.0)
    v = variance_path(m, GRID).values
    assert v[0] == 0.0
    assert v[-1] == pytest.approx(100.0**2 * (math.exp(0.09) - 1.0))
    assert np.all(sample_path(m, GRID, 9).values > 0.0)


def test_bridge_moments_and_pinning():
    m = BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0)
    e = expected_path(m, GRID).values
    assert e[GRID.index_of(0.5)] == pytest.approx(0.5 * (103.893 + 100.0))
    v = variance_path(m, GRID).values
    assert v[0] == 0.0 and v[-1] == pytest.approx(0.0)
    s = sample_path(m, GRID, 3)
    assert s.values[-1] == pytest.approx(100.0)  # grid reaches maturity: pinned
    with pytest.raises(DomainError):
        sample_path(m, TimeGrid.uniform(2.0, 8), 0)


def test_bridge_zero_vol_is_straight_relaxation():
    m = BrownianBridge(s0=110.0, face_value=100.0, sigma=0.0, maturity=2.0)
    s = sample_path(m, GRID, 1)
    expected = 100.0 + (110.0 - 100.0) * (2.0 - GRID.times) / 2.0
    assert np.allclose(s.values, expected, atol=1e-10)


def test_oujump_noise_off_reduces_to_target():
    m = OuJumpDiffusion(m=flat_log(120.0), alpha=3.0, sigma=0.0, lam=0.0)
    s = sample_path(m, GRID, 7)
    assert np.allclose(s.values, 120.0)
    assert m.s0 == pytest.approx(120.0)


def test_oujump_jump_substream_isolated_from_diffusion():
    base = dict(m=flat_log(100.0), alpha=4.0, sigma=0.05)
    with_jumps = OuJumpDiffusion(lam=25.0, **base)
    without = OuJumpDiffusion(lam=0.0, **base)
    a = np.log(sample_path(with_jumps, GRID, 11).values)
    b = np.log(sample_path(without, GRID, 11).values)
    jumps = a - b  # toggling jumps must leave the diffusion draw untouched
    assert np.max(np.abs(jumps)) > 0.0
    steps = np.diff(jumps)
    nonzero = steps[np.abs(steps) > 1e-12]
    # default two-point marks: every step is a whole number of +/-0.01 marks
    # (several events may snap onto one grid cell)
    assert np.allclose(np.round(nonzero / 0.01) * 0.01, nonzero)


def test_mark_symmetry_and_mean_jump_component():
    m = OuJumpDiffusion(m=flat_log(100.0), alpha=4.0, sigma=0.0, lam=30.0,
                        mark_sampler=two_point_marks(0.02))
    n = 4000
    paths = np.log(mc_paths(m, n)) - math.log(100.0)  # pure jump component
    term = paths[:, -1]
    z = abs(term.mean()) / (term.std(ddof=1) / math.sqrt(n))
    assert z < 4.0


@pytest.mark.parametrize(
    "model",
    [
        ArithmeticBrownian(s0=100.0, sigma=2.0),
        ExponentialMartingale(s0=100.0, sigma=0.3),
        BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0),
        OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=10.0),
    ],
)
def test_mc_mean_matches_expected_path(model):
    n = 10_000
    paths = mc_paths(model, n)
    mu = expected_path(model, GRID).values
    se = paths.std(axis=0, ddof=1) / math.sqrt(n)
    z = np.abs(paths.mean(axis=0) - mu) / np.where(se > 0, se, 1.0)
    assert np.max(z[1:]) < 4.0


@pytest.mark.parametrize(
    "model",
    [
        ArithmeticBrownian(s0=100.0, sigma=2.0),
        BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0),
    ],
)
def test_mc_variance_at_midpoint(model):
    n = 10_000
    paths = mc_paths(model, n)
    idx = GRID.index_of(0.5)
    mc_var = paths[:, idx].var(ddof=1)
    th = variance_path(model, GRID).values[idx]
    assert mc_var == pytest.approx(th, rel=0.10)


def test_sampled_paths_have_finite_pvar_estimate():
    for model in (
        ArithmeticBrownian(s0=100.0, sigma=2.0),
        OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=10.0),
    ):
        s = sample_path(model, GRID, 12)
        assert math.isfinite(p_variation(s, 2.5, method="lower"))


def test_ou_variance_path_is_mc_and_reproducible():
    m = OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=5.0,
                        variance_mc_paths=256)
    v1 = variance_path(m, GRID).values
    v2 = variance_path(m, GRID).values
    assert np.array_equal(v1, v2)
    assert np.all(v1[1:] > 0.0)


def test_deterministic_model():
    m = DeterministicPrice(fn=lambda t: 100.0 + 3.0 * np.asarray(t))
    s = sample_path(m, GRID, 0)
    assert np.allclose(s.values, 100.0 + 3.0 * GRID.times)
    assert np.array_equal(expected_path(m, GRID).values, s.values)
    assert np.all(variance_path(m, GRID).values == 0.0)


def test_parameter_validation():
    with pytest.raises(DomainError):
        ArithmeticBrownian(s0=1.0, sigma=-1.0)
    with pytest.raises(DomainError):
        OuJumpDiffusion(m=flat_log(1.0), alpha=0.0, sigma=0.1, lam=1.0)
    with pytest.raises(DomainError):
        BrownianBridge(s0=1.0, face_value=1.0, sigma=0.1, maturity=-1.0)


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: ArithmeticBrownian(s0=math.nan, sigma=1.0), "s0", id="abm-s0"),
    pytest.param(lambda: ArithmeticBrownian(s0=100.0, sigma=math.inf), "sigma", id="abm-sigma"),
    pytest.param(lambda: ExponentialMartingale(s0=math.nan, sigma=0.2), "s0", id="exp-s0"),
    pytest.param(lambda: BrownianBridge(s0=math.nan, face_value=100.0, sigma=1.0, maturity=1.0),
                 "s0", id="bridge-s0"),
    pytest.param(lambda: OuJumpDiffusion(m=flat_log(1.0), alpha=math.inf, sigma=0.1,
                                         lam=math.nan), "alpha", id="ou-alpha"),
    pytest.param(lambda: OuJumpDiffusion(m=flat_log(1.0), alpha=5.0, sigma=0.1, lam=math.nan),
                 "lam", id="ou-lam"),
])
def test_non_finite_parameters_name_the_field(build, field):
    with pytest.raises(DomainError, match=rf"\.{field} must be finite"):
        build()
