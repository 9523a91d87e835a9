"""Price-process samplers and their deterministic moment functions.

Each model has one block sampler, with one realization per seed in a
``(paths, N)`` block (a single seed is the one-path case), plus the exact
moments of the sampled process: ``t -> E[S_t]`` and ``t -> Var(S_t)``.
Sampling uses exact Gaussian transition laws (no Euler stepping of SDEs), so
the only discretization left in the system is the grid itself.

Seed contract: one 64-bit seed per path, drawn in seed order; the diffusion
and jump components draw from sub-streams split off that seed in a fixed
order, so toggling jumps on or off never perturbs the diffusion draw, and a
block row equals its one-seed path bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod
from typing import Callable, Union

import numpy as np

from .errors import DomainError
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


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _brownian_block(grid: TimeGrid, seeds) -> np.ndarray:
    """W on the grid, one row per seed, each drawn from its seed's first sub-stream."""
    w = np.zeros((len(seeds), len(grid)))
    for row, seed in enumerate(seeds):
        _streams(int(seed), 1)[0].standard_normal(out=w[row, 1:])
    w[:, 1:] *= np.sqrt(np.diff(grid.times))
    np.cumsum(w[:, 1:], axis=1, out=w[:, 1:])
    return w


def _require_finite(model, *fields: str) -> None:
    for name in fields:
        if not math.isfinite(getattr(model, name)):
            raise DomainError(f"{type(model).__name__}.{name} must be finite, "
                              f"got {getattr(model, name)}")


@dataclass(frozen=True)
class TwoPointMarks:
    """Symmetric two-point mark law: +/- size with equal probability."""

    size: float

    def __post_init__(self):
        if not 0.0 <= self.size < math.inf:
            raise DomainError(f"TwoPointMarks.size must be finite and >= 0, got {self.size}")

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.size * (2.0 * rng.integers(0, 2, size=n) - 1.0)


two_point_marks = TwoPointMarks  # the public name


@dataclass(frozen=True)
class ArithmeticBrownian:
    """S_t = s0 + sigma W_t."""

    s0: float
    sigma: float

    def __post_init__(self):
        _require_finite(self, "s0", "sigma")
        if self.sigma < 0:
            raise DomainError("volatility must be >= 0")

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
        _require_finite(self, "s0", "sigma")
        if self.sigma < 0:
            raise DomainError("volatility must be >= 0")

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
    zero (dY = -alpha Y dt + sigma dW, exact transitions), N a compound Poisson
    process with marks +/- a whose event times snap left onto the grid, so the
    sampled path is cadlag on the grid.  Both moments are exact on the grid:
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
        _require_finite(self, "alpha", "sigma", "lam")
        if self.alpha <= 0:
            raise DomainError("mean-reversion speed must be > 0")
        if self.sigma < 0 or self.lam < 0:
            raise DomainError("sigma and jump intensity must be >= 0")
        if not isinstance(self.mark_sampler, TwoPointMarks):
            raise DomainError("OuJumpDiffusion's moments need two_point_marks(size) marks")

    def _sample_block(self, grid: TimeGrid, seeds) -> np.ndarray:
        """Each path draws from its own two sub-streams: diffusion, then jumps."""
        t = grid.times
        dt = np.diff(t)
        decay = np.exp(-self.alpha * dt)
        if self.sigma > 0:
            std = self.sigma * np.sqrt((1.0 - decay**2) / (2.0 * self.alpha))
        else:
            std = np.zeros_like(dt)
        shocks = np.empty((len(seeds), dt.size))
        # per path with jumps: its row's offset in the flattened block, its
        # sorted event times and its marks
        offsets, events, marks = [], [], []
        for row, seed in enumerate(seeds):
            rng_diff, rng_jump = _streams(int(seed), 2)
            rng_diff.standard_normal(out=shocks[row])
            n_jumps = rng_jump.poisson(self.lam * grid.horizon) if self.lam > 0 else 0
            if n_jumps:
                offsets.append(np.full(n_jumps, row * t.size))
                events.append(np.sort(rng_jump.uniform(0.0, grid.horizon, size=n_jumps)))
                marks.append(self.mark_sampler(rng_jump, n_jumps))
        shocks *= std

        # Ornstein-Uhlenbeck factor, started at zero: the exact AR(1) recursion
        y = np.zeros((len(seeds), t.size))
        if dt.size and np.ptp(dt) <= 1e-12 * dt[0]:
            # uniform grid: the recursion is a linear filter
            from scipy.signal import lfilter

            y[:, 1:] = lfilter([1.0], [1.0, -decay[0]], shocks, axis=1)
        else:
            for i in range(dt.size):
                y[:, i + 1] = y[:, i] * decay[i] + shocks[:, i]

        # compound Poisson factor; left snap: a jump lands on the largest
        # grid point <= its event time
        n = np.zeros_like(y)
        if events:
            idx = np.concatenate(offsets) + np.searchsorted(
                t, np.concatenate(events), side="right") - 1
            np.add.at(n.reshape(-1), idx, np.concatenate(marks))
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
        _require_finite(self, "s0", "face_value", "sigma", "maturity")
        if self.face_value <= 0:
            raise DomainError("face value must be > 0")
        if self.sigma < 0:
            raise DomainError("volatility must be >= 0")
        if self.maturity <= 0:
            raise DomainError("bridge maturity must be > 0")

    def _check_grid(self, grid: TimeGrid) -> None:
        if grid.horizon > self.maturity:
            raise DomainError("grid extends beyond the bridge maturity")

    def _sample_block(self, grid: TimeGrid, seeds) -> np.ndarray:
        self._check_grid(grid)
        t = grid.times
        gap, dt = self.maturity - t[:-1], np.diff(t)
        s = np.empty((len(seeds), len(grid)))
        s[:, 0] = self.s0
        for row, seed in enumerate(seeds):
            _streams(int(seed), 1)[0].standard_normal(out=s[row, 1:])
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
