import math

import numpy as np
import pytest
from scipy.stats import poisson

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
    return sample_path(model, grid, seeds).values


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


NON_UNIFORM = TimeGrid(np.concatenate(([0.0], np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 90)),
                                       [1.0])))
# heavy jumps: exp(m) alone misses this model's mean by z ~ 32 at 10^4 paths
HEAVY_JUMPS = OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.2, lam=50.0,
                              mark_sampler=two_point_marks(0.05))
# pure jumps on a 4-step grid: a mean count of lam t_k in place of the left
# snap's lam t_(k+1) moves the mean by 14%, about 15 standard errors
COARSE_JUMPS = (OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.0, lam=4.0,
                                mark_sampler=two_point_marks(0.5)), TimeGrid.uniform(1.0, 4))
OU_MOMENT_CASES = [
    pytest.param(HEAVY_JUMPS, GRID, id="ou-heavy-jumps-uniform"),
    pytest.param(HEAVY_JUMPS, NON_UNIFORM, id="ou-heavy-jumps-non-uniform"),
    pytest.param(*COARSE_JUMPS, id="ou-pure-jumps-coarse"),
]


@pytest.mark.parametrize("model, grid", [
    pytest.param(ArithmeticBrownian(s0=100.0, sigma=2.0), GRID, id="model0"),
    pytest.param(ExponentialMartingale(s0=100.0, sigma=0.3), GRID, id="model1"),
    pytest.param(BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0), GRID,
                 id="model2"),
    pytest.param(OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=10.0), GRID,
                 id="model3"),
] + OU_MOMENT_CASES)
def test_mc_mean_matches_expected_path(model, grid):
    n = 10_000
    paths = mc_paths(model, n, grid=grid)
    mu = expected_path(model, grid).values
    se = paths.std(axis=0, ddof=1) / math.sqrt(n)
    z = np.abs(paths.mean(axis=0) - mu) / np.where(se > 0, se, 1.0)
    assert np.max(z[1:]) < 4.0


@pytest.mark.parametrize("model, grid", [
    pytest.param(ArithmeticBrownian(s0=100.0, sigma=2.0), GRID, id="model0"),
    pytest.param(BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0), GRID,
                 id="model1"),
] + OU_MOMENT_CASES)
def test_mc_variance_at_midpoint(model, grid):
    n = 10_000
    x = mc_paths(model, n, grid=grid)[:, len(grid) // 2]
    mc_var = x.var(ddof=1)
    # standard error of the sample variance, from the sample's fourth moment
    se = math.sqrt(max(np.mean((x - x.mean()) ** 4) - mc_var**2 * (n - 3) / (n - 1), 0.0) / n)
    th = variance_path(model, grid).values[len(grid) // 2]
    assert abs(mc_var - th) < 4.0 * se


def test_sampled_paths_have_finite_pvar_estimate():
    for model in (
        ArithmeticBrownian(s0=100.0, sigma=2.0),
        OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=10.0),
    ):
        s = sample_path(model, GRID, 12)
        assert math.isfinite(p_variation(s, 2.5, method="lower"))


def _reference_ou_jump_path(model, grid, seed):
    """The per-path jump-diffusion sampler, one seed at a time: the oracle
    for the block sampler."""
    rng_diff, rng_jump = (np.random.Generator(np.random.PCG64(c))
                          for c in np.random.SeedSequence(seed).spawn(2))
    t = grid.times
    dt = np.diff(t)
    decay = np.exp(-model.alpha * dt)
    if model.sigma > 0:
        std = model.sigma * np.sqrt((1.0 - decay**2) / (2.0 * model.alpha))
    else:
        std = np.zeros_like(dt)
    shocks = std * rng_diff.standard_normal(dt.size)
    y = np.zeros(t.size)
    if np.ptp(dt) <= 1e-12 * dt[0]:
        from scipy.signal import lfilter

        y[1:] = lfilter([1.0], [1.0, -decay[0]], shocks)
    else:
        for i in range(dt.size):
            y[i + 1] = y[i] * decay[i] + shocks[i]
    n = np.zeros(t.size)
    n_jumps = rng_jump.poisson(model.lam * grid.horizon) if model.lam > 0 else 0
    if n_jumps:
        event_times = np.sort(rng_jump.uniform(0.0, grid.horizon, size=n_jumps))
        marks = model.mark_sampler(rng_jump, n_jumps)
        np.add.at(n, np.searchsorted(t, event_times, side="right") - 1, marks)
        n = np.cumsum(n)
    return np.exp(model.m(t) + y + n)


def _reference_path(model, grid, seed):
    """Every model's one-path sampler, one seed at a time in scalar steps: the
    oracle for the block samplers."""
    t = grid.times
    if isinstance(model, OuJumpDiffusion):
        return _reference_ou_jump_path(model, grid, seed)
    if isinstance(model, DeterministicPrice):
        return np.asarray(model.fn(t), dtype=float)
    (rng,) = (np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(1))
    if isinstance(model, BrownianBridge):
        s = np.empty(t.size)
        s[0] = model.s0
        z = rng.standard_normal(t.size - 1)
        for i in range(t.size - 1):
            gap = model.maturity - t[i]
            dt = t[i + 1] - t[i]
            mean = s[i] + dt / gap * (model.face_value - s[i])
            var = model.sigma**2 * dt * (model.maturity - t[i + 1]) / gap
            s[i + 1] = mean + math.sqrt(max(var, 0.0)) * z[i]
        return s
    w = np.concatenate(([0.0], np.cumsum(rng.standard_normal(t.size - 1) * np.sqrt(np.diff(t)))))
    if isinstance(model, ArithmeticBrownian):
        return model.s0 + model.sigma * w
    return model.s0 * np.exp(model.sigma * w - 0.5 * model.sigma**2 * t)


@pytest.mark.parametrize("kw, grid", [
    pytest.param(dict(), GRID, id="partial-block"),
    pytest.param(dict(lam=0.0), GRID, id="no-jumps"),
    pytest.param(dict(sigma=0.0), GRID, id="no-diffusion"),
    pytest.param(dict(lam=200.0), GRID, id="dense-jumps"),
    pytest.param(dict(), NON_UNIFORM, id="non-uniform-grid"),
])
def test_ou_jump_block_sampler_matches_per_path_loop(kw, grid):
    model = OuJumpDiffusion(**{**dict(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=10.0,
                                      mark_sampler=two_point_marks(0.02)), **kw})
    for seed in (0, 12, 2**63 + 5):
        assert (sample_path(model, grid, seed).values.tobytes()
                == _reference_ou_jump_path(model, grid, seed).tobytes())


@pytest.mark.parametrize("model", [
    ArithmeticBrownian(s0=100.0, sigma=2.0),
    ExponentialMartingale(s0=100.0, sigma=0.3),
    BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0),
    OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=10.0),
    DeterministicPrice(fn=lambda t: 100.0 + 3.0 * np.asarray(t)),
], ids=["abm", "exp", "bridge", "ou-jump", "deterministic"])
@pytest.mark.parametrize("grid", [GRID, NON_UNIFORM], ids=["uniform", "non-uniform"])
def test_block_rows_equal_one_seed_paths(model, grid):
    seeds = np.append(np.random.SeedSequence(3).generate_state(6, np.uint64), 2**63 + 5)
    block = sample_path(model, grid, seeds).values
    assert block.shape == (seeds.size, len(grid))
    for row, seed in zip(block, seeds):
        one = sample_path(model, grid, int(seed)).values
        assert one.shape == (len(grid),)
        assert row.tobytes() == one.tobytes() == _reference_path(model, grid, int(seed)).tobytes()
    with pytest.raises(DomainError, match="1-D array of seeds"):
        sample_path(model, grid, seeds.reshape(1, -1))


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
    pytest.param(lambda: two_point_marks(math.nan), "size", id="marks-size"),
])
def test_non_finite_parameters_name_the_field(build, field):
    with pytest.raises(DomainError, match=rf"\.{field} must be finite"):
        build()


def test_ou_jump_moments_need_two_point_marks():
    with pytest.raises(DomainError, match="two_point_marks"):
        OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.05, lam=10.0,
                        mark_sampler=lambda rng, n: rng.standard_normal(n))
    with pytest.raises(DomainError, match="size must be finite and >= 0"):
        two_point_marks(-0.01)


def test_ou_jump_moments_match_their_component_laws():
    grid = TimeGrid.uniform(1.0, 8)
    flat = OuJumpDiffusion(m=flat_log(120.0), alpha=3.0, sigma=0.0, lam=0.0)
    assert np.array_equal(expected_path(flat, grid).values, np.exp(flat_log(120.0)(grid.times)))
    assert np.all(variance_path(flat, grid).values == 0.0)
    # diffusion only: the moments of a lognormal with the OU factor's variance
    ou = OuJumpDiffusion(m=flat_log(100.0), alpha=4.0, sigma=0.3, lam=0.0)
    v = 0.3**2 * (1.0 - np.exp(-8.0 * grid.times)) / 8.0
    assert np.allclose(expected_path(ou, grid).values, 100.0 * np.exp(v / 2.0),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(variance_path(ou, grid).values, 100.0**2 * np.exp(v) * np.expm1(v),
                       rtol=1e-13, atol=0.0)
    # jumps only: sum over the Poisson count seen under the left snap,
    # E[S^k] = 100^k sum_j P(j) cosh(k a)^j
    jumps = OuJumpDiffusion(m=flat_log(100.0), alpha=4.0, sigma=0.0, lam=3.0,
                            mark_sampler=two_point_marks(0.5))
    j = np.arange(80)[:, None]
    law = poisson.pmf(j, 3.0 * np.append(grid.times[1:], 1.0))
    e1 = 100.0 * (law * math.cosh(0.5) ** j).sum(axis=0)
    e2 = 100.0**2 * (law * math.cosh(1.0) ** j).sum(axis=0)
    assert np.allclose(expected_path(jumps, grid).values, e1, rtol=1e-13, atol=0.0)
    assert np.allclose(variance_path(jumps, grid).values, e2 - e1**2, rtol=1e-11, atol=0.0)
    # tiny marks: cosh a - 1 must not cancel, Var(S_t) ~ E[S_t]^2 Lambda a^2
    tiny = OuJumpDiffusion(m=flat_log(100.0), alpha=4.0, sigma=0.0, lam=3.0,
                           mark_sampler=two_point_marks(1e-6))
    assert np.allclose(variance_path(tiny, grid).values,
                       100.0**2 * 3.0 * np.append(grid.times[1:], 1.0) * 1e-12,
                       rtol=1e-9, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("moment, name", [(expected_path, r"E\[S_t\]"),
                                          (variance_path, r"Var\(S_t\)")],
                         ids=["mean", "variance"])
def test_ou_jump_moment_overflow_is_a_domain_error(moment, name):
    # lam (cosh 2 - 1) T ~ 2.8e3: the mean's exponent passes log(max double)
    model = OuJumpDiffusion(m=flat_log(100.0), alpha=5.0, sigma=0.02, lam=1000.0,
                            mark_sampler=two_point_marks(2.0))
    with pytest.raises(DomainError, match=rf"^{name} of OuJumpDiffusion overflows"):
        moment(model, GRID)
