"""Price-process samplers and their deterministic moment functions.

Each model has one block sampler, with one realization per seed in a
``(paths, N)`` block (a single seed is the one-path case), plus the exact
moments of the sampled process: ``t -> E[S_t]`` and ``t -> Var(S_t)``.
Sampling uses exact Gaussian transition laws (no Euler stepping of SDEs), so
the only discretization left in the system is the grid itself.

Seed contract: one 64-bit seed per path, drawn in seed order; a path's
Gaussian noise comes from sub-stream 0 of its seed and its jumps from
sub-stream 1, so toggling jumps on or off never perturbs the diffusion draw,
and a block row equals its one-seed path bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod
from typing import Callable, Union

import numpy as np

from .errors import DomainError, check_domain
from .pathcalc import SampledPath, TimeGrid

__all__ = [
    "ArithmeticBrownian",
    "ExponentialMartingale",
    "OuJumpDiffusion",
    "BrownianBridge",
    "DeterministicPrice",
    "PriceModel",
    "two_point_marks",
    "sample_path",
    "expected_path",
    "variance_path",
]

# the largest lambda*T per path: 1e7 events hold about 0.3 GB of times, marks and indices
_MAX_MEAN_JUMPS = 1e7


def _stream(seed, k: int) -> np.random.Generator:
    """Sub-stream k of a seed: the k-th child of ``SeedSequence(seed).spawn()``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(k,))))


def _normals(seeds, points: int) -> np.ndarray:
    """Every sampler's Gaussian noise: one row per seed, a zero for the path's
    start, then one standard normal per step drawn from the seed's sub-stream 0."""
    z = np.zeros((len(seeds), points))
    for row, seed in enumerate(seeds):
        _stream(seed, 0).standard_normal(out=z[row, 1:])
    return z


def _brownian_block(grid: TimeGrid, seeds) -> np.ndarray:
    """W on the grid, one row per seed."""
    w = _normals(seeds, len(grid))
    w[:, 1:] *= np.sqrt(np.diff(grid.times))
    np.cumsum(w[:, 1:], axis=1, out=w[:, 1:])
    return w


@dataclass(frozen=True)
class TwoPointMarks:
    """Symmetric two-point mark law: +/- size with equal probability."""

    size: float

    def __post_init__(self):
        check_domain(self, {"size": ">= 0"})

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.size * (2.0 * rng.integers(0, 2, size=n) - 1.0)


two_point_marks = TwoPointMarks  # the public name


@dataclass(frozen=True)
class ArithmeticBrownian:
    """S_t = s0 + sigma W_t."""

    s0: float
    sigma: float

    def __post_init__(self):
        check_domain(self, {"s0": "finite", "sigma": ">= 0"})

    def _sample_block(self, grid: TimeGrid, seeds) -> np.ndarray:
        return self.s0 + self.sigma * _brownian_block(grid, seeds)

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(t, self.s0)

    def _variance(self, t: np.ndarray) -> np.ndarray:
        return self.sigma**2 * t


@dataclass(frozen=True)
class ExponentialMartingale:
    """S_t = s0 exp(sigma W_t - sigma^2 t / 2); a positive unit-mean exponential."""

    s0: float
    sigma: float

    def __post_init__(self):
        check_domain(self, {"s0": "finite", "sigma": ">= 0"})

    def _sample_block(self, grid: TimeGrid, seeds) -> np.ndarray:
        w = _brownian_block(grid, seeds)
        return self.s0 * np.exp(self.sigma * w - 0.5 * self.sigma**2 * grid.times)

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(t, self.s0)

    def _variance(self, t: np.ndarray) -> np.ndarray:
        return self.s0**2 * (np.exp(self.sigma**2 * t) - 1.0)


@dataclass(frozen=True)
class OuJumpDiffusion:
    """High-frequency mean-reverting jump diffusion on the log scale.

    S_t = exp(m(t) + Y_t + N_t): Y is an Ornstein-Uhlenbeck factor started at
    zero (dY = -alpha Y dt + sigma dW), sampled on every grid by its exact
    AR(1) recursion; N is a compound Poisson process with marks +/- a whose
    event times snap left onto the grid, so the sampled path is cadlag on the
    grid.  Both moments are exact on the grid:
    Y_k has variance v_k = sigma^2 (1 - exp(-2 alpha t_k)) / (2 alpha), and N
    at t_k sums the events before t_(k+1) (all of [0, T] at the last point),
    so its mean count is Lambda_k = lam t_(k+1), and S_0 is random once
    lam > 0.  With c = cosh a - 1, E[S] = exp(m + v/2 + Lambda c) and
    Var[S] = E[S]^2 expm1(v + 2 Lambda c cosh a).
    """

    m: Callable[[np.ndarray], np.ndarray]
    alpha: float
    sigma: float
    lam: float
    mark_sampler: TwoPointMarks = TwoPointMarks(0.01)

    def __post_init__(self):
        check_domain(self, {"alpha": "> 0", "sigma": ">= 0", "lam": ">= 0"})
        if not isinstance(self.mark_sampler, TwoPointMarks):
            raise DomainError("OuJumpDiffusion's moments need two_point_marks(size) marks")

    def _sample_block(self, grid: TimeGrid, seeds) -> np.ndarray:
        """Each path draws its diffusion from sub-stream 0 and its jumps from sub-stream 1."""
        t = grid.times
        dt = np.diff(t)
        decay = np.exp(-self.alpha * dt)
        std = self.sigma * np.sqrt((1.0 - decay**2) / (2.0 * self.alpha))
        mean_jumps = self.lam * grid.horizon
        if mean_jumps > _MAX_MEAN_JUMPS:
            raise DomainError(f"model.lambda = {self.lam:g} gives a mean jump count lambda*T = "
                              f"{mean_jumps:g}, above the per-path bound of {_MAX_MEAN_JUMPS:g}")
        # compound Poisson marks, each on the largest grid point <= its event time
        n = np.zeros((len(seeds), t.size))
        for row, seed in enumerate(seeds):
            rng_jump = _stream(seed, 1)
            n_jumps = rng_jump.poisson(mean_jumps)
            if n_jumps:
                events = np.sort(rng_jump.uniform(0.0, grid.horizon, size=n_jumps))
                np.add.at(n[row], np.searchsorted(t, events, side="right") - 1,
                          self.mark_sampler(rng_jump, n_jumps))

        # Ornstein-Uhlenbeck factor, started at zero: the exact AR(1) recursion,
        # one step per grid interval on every grid, run in the shocks' buffer
        y = _normals(seeds, t.size)
        y[:, 1:] *= std
        for i in range(dt.size):
            y[:, i + 1] += y[:, i] * decay[i]
        np.cumsum(n, axis=1, out=n)
        y += self.m(t)
        y += n
        return np.exp(y, out=y)

    def _moment(self, t: np.ndarray, name: str) -> np.ndarray:
        """E[S_t] or Var(S_t), as ``name`` says, on the sampled grid t."""
        v = -self.sigma**2 * np.expm1(-2.0 * self.alpha * t) / (2.0 * self.alpha)
        count = self.lam * np.append(t[1:], t[-1])
        c = 2.0 * math.sinh(0.5 * self.mark_sampler.size) ** 2  # cosh a - 1, without cancelling
        log_mean = self.m(t) + 0.5 * v + count * c
        with np.errstate(over="ignore", invalid="ignore"):
            out = (np.exp(log_mean) if name == "E[S_t]" else
                   np.exp(2.0 * log_mean) * np.expm1(v + 2.0 * count * c * (1.0 + c)))
        if not np.all(np.isfinite(out)):
            raise DomainError(f"{name} of {type(self).__name__} overflows a double")
        return out

    _mean = partialmethod(_moment, name="E[S_t]")
    _variance = partialmethod(_moment, name="Var(S_t)")


@dataclass(frozen=True)
class BrownianBridge:
    """dS = (V - S)/(maturity - t) dt + sigma dW, pinned at the face value V.

    Sampled by exact conditional Gaussian transitions rather than Euler
    stepping, which removes the discretization bias at the pinned end.
    """

    s0: float
    face_value: float
    sigma: float
    maturity: float

    def __post_init__(self):
        check_domain(self, {"s0": "finite", "face_value": "> 0", "sigma": ">= 0",
                            "maturity": "> 0"})

    def _sample_block(self, grid: TimeGrid, seeds) -> np.ndarray:
        if grid.horizon > self.maturity:
            raise DomainError("grid extends beyond the bridge maturity")
        t = grid.times
        gap, dt = self.maturity - t[:-1], np.diff(t)
        s = _normals(seeds, len(grid))
        s[:, 0] = self.s0
        # exact transition from t_i to t_(i+1): the conditional noise, plus a
        # dt/gap share of the way from S_i to the face value
        s[:, 1:] *= np.sqrt(np.maximum(self.sigma**2 * dt * (self.maturity - t[1:]) / gap, 0.0))
        for i, pull in enumerate(dt / gap):
            s[:, i + 1] += s[:, i] + pull * (self.face_value - s[:, i])
        return s

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return self.face_value + (self.s0 - self.face_value) * (self.maturity - t) / self.maturity

    def _variance(self, t: np.ndarray) -> np.ndarray:
        return self.sigma**2 * t * (self.maturity - t) / self.maturity


@dataclass(frozen=True)
class DeterministicPrice:
    """A known price trajectory; sampling just evaluates it."""

    fn: Callable[[np.ndarray], np.ndarray]

    def _sample_block(self, grid: TimeGrid, seeds) -> np.ndarray:
        return np.tile(np.asarray(self.fn(grid.times), dtype=float), (len(seeds), 1))

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t), dtype=float)

    def _variance(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(t)


PriceModel = Union[
    ArithmeticBrownian,
    ExponentialMartingale,
    OuJumpDiffusion,
    BrownianBridge,
    DeterministicPrice,
]


def sample_path(model: PriceModel, grid: TimeGrid, seed) -> SampledPath:
    """Realizations of the price process; deterministic in (model, grid, seed).

    A seed gives one path; a 1-D array of seeds gives a ``(paths, N)`` block
    whose rows equal the one-seed paths bit for bit.
    """
    seeds = np.asarray(seed)
    if seeds.ndim > 1:
        raise DomainError("seed must be one seed or a 1-D array of seeds")
    values = model._sample_block(grid, seeds.reshape(-1))
    return SampledPath(grid, values if seeds.ndim else values[0])


def expected_path(model: PriceModel, grid: TimeGrid) -> SampledPath:
    """The deterministic forecast trajectory t -> E[S_t]."""
    return SampledPath(grid, model._mean(grid.times))


def variance_path(model: PriceModel, grid: TimeGrid) -> SampledPath:
    """The trajectory t -> Var(S_t)."""
    return SampledPath(grid, model._variance(grid.times))
