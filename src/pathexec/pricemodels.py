"""Price-process samplers and their deterministic moment functions.

Each model provides one realization per (grid, seed), the expected path
``t -> E[S_t]`` and the variance path ``t -> Var(S_t)``.  Sampling uses exact
Gaussian transition laws wherever they exist (no Euler stepping of SDEs), so
the only discretization left in the system is the grid itself.

Seed contract: a single 64-bit seed; the diffusion and jump components draw
from sub-streams split off that seed in a fixed order, so toggling jumps on
or off never perturbs the diffusion draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _require_finite(model, *fields: str) -> None:
    for name in fields:
        if not math.isfinite(getattr(model, name)):
            raise DomainError(f"{type(model).__name__}.{name} must be finite, "
                              f"got {getattr(model, name)}")


def two_point_marks(size: float) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Symmetric two-point mark family: +/- size with equal probability."""
    if size < 0:
        raise DomainError("mark size must be >= 0")

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return size * (2.0 * rng.integers(0, 2, size=n) - 1.0)

    return sampler


@dataclass(frozen=True)
class ArithmeticBrownian:
    """S_t = s0 + sigma W_t."""

    s0: float
    sigma: float
    kind = "arithmetic-bm"

    def __post_init__(self):
        _require_finite(self, "s0", "sigma")
        if self.sigma < 0:
            raise DomainError("volatility must be >= 0")

    def _sample(self, grid: TimeGrid, seed: int) -> np.ndarray:
        (rng,) = _streams(seed, 1)
        dt = np.diff(grid.times)
        w = np.concatenate(([0.0], np.cumsum(rng.standard_normal(dt.size) * np.sqrt(dt))))
        return self.s0 + self.sigma * w

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(t, self.s0)

    def _variance(self, t: np.ndarray) -> np.ndarray:
        return self.sigma**2 * t


@dataclass(frozen=True)
class ExponentialMartingale:
    """S_t = s0 exp(sigma W_t - sigma^2 t / 2); a positive unit-mean exponential."""

    s0: float
    sigma: float
    kind = "exponential-martingale"

    def __post_init__(self):
        _require_finite(self, "s0", "sigma")
        if self.sigma < 0:
            raise DomainError("volatility must be >= 0")

    def _sample(self, grid: TimeGrid, seed: int) -> np.ndarray:
        (rng,) = _streams(seed, 1)
        t = grid.times
        dt = np.diff(t)
        w = np.concatenate(([0.0], np.cumsum(rng.standard_normal(dt.size) * np.sqrt(dt))))
        return self.s0 * np.exp(self.sigma * w - 0.5 * self.sigma**2 * t)

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(t, self.s0)

    def _variance(self, t: np.ndarray) -> np.ndarray:
        return self.s0**2 * (np.exp(self.sigma**2 * t) - 1.0)


@dataclass(frozen=True)
class OuJumpDiffusion:
    """High-frequency mean-reverting jump diffusion on the log scale.

    S_t = exp(m(t) + Y_t + N_t) with Y an Ornstein-Uhlenbeck factor started
    at zero (dY = -alpha Y dt + sigma dW, exact transitions) and N a compound
    Poisson process with i.i.d. marks symmetric around zero.  Poisson event
    times are snapped left onto the sampling grid, keeping the sampled path
    cadlag on the grid.

    The expected path is reported as exp(m(t)): the reversion target, which
    is the forecast the liquidator trades against.  This is the forecast
    convention, not the exact first moment of the exponential (the OU and
    jump convexity corrections are deliberately not folded in).
    """

    m: Callable[[np.ndarray], np.ndarray]
    alpha: float
    sigma: float
    lam: float
    mark_sampler: Callable[[np.random.Generator, int], np.ndarray] = field(
        default_factory=lambda: two_point_marks(0.01)
    )
    variance_mc_paths: int = 4096
    kind = "ou-jump-diffusion"

    def __post_init__(self):
        _require_finite(self, "alpha", "sigma", "lam")
        if self.alpha <= 0:
            raise DomainError("mean-reversion speed must be > 0")
        if self.sigma < 0 or self.lam < 0:
            raise DomainError("sigma and jump intensity must be >= 0")
        if self.variance_mc_paths < 2:
            raise DomainError("variance estimation needs >= 2 paths")

    @property
    def s0(self) -> float:
        return float(np.exp(self.m(np.zeros(1))[0]))

    def _ou_factor(self, grid: TimeGrid, rng: np.random.Generator) -> np.ndarray:
        dt = np.diff(grid.times)
        decay = np.exp(-self.alpha * dt)
        if self.sigma > 0:
            std = self.sigma * np.sqrt((1.0 - decay**2) / (2.0 * self.alpha))
        else:
            std = np.zeros_like(dt)
        shocks = std * rng.standard_normal(dt.size)
        y = np.empty(len(grid))
        y[0] = 0.0
        if dt.size and np.ptp(dt) <= 1e-12 * dt[0]:
            # uniform grid: the exact AR(1) recursion is a linear filter
            from scipy.signal import lfilter

            y[1:] = lfilter([1.0], [1.0, -decay[0]], shocks)
        else:
            for i in range(dt.size):
                y[i + 1] = y[i] * decay[i] + shocks[i]
        return y

    def _jump_factor(self, grid: TimeGrid, rng: np.random.Generator) -> np.ndarray:
        t = grid.times
        n_jumps = rng.poisson(self.lam * grid.horizon) if self.lam > 0 else 0
        n = np.zeros(len(grid))
        if n_jumps == 0:
            return n
        event_times = np.sort(rng.uniform(0.0, grid.horizon, size=n_jumps))
        marks = self.mark_sampler(rng, n_jumps)
        # left snap: the jump lands on the largest grid point <= event time
        idx = np.searchsorted(t, event_times, side="right") - 1
        np.add.at(n, idx, marks)
        return np.cumsum(n)

    def _sample(self, grid: TimeGrid, seed: int) -> np.ndarray:
        rng_diff, rng_jump = _streams(seed, 2)
        y = self._ou_factor(grid, rng_diff)
        n = self._jump_factor(grid, rng_jump)
        return np.exp(self.m(grid.times) + y + n)

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return np.exp(self.m(t))

    def _variance(self, t: np.ndarray) -> np.ndarray:
        # no closed form once jumps and the exponential interact: Monte Carlo
        # with a fixed internal sub-stream, so the estimate is reproducible
        grid = TimeGrid(t) if t[0] == 0.0 else None
        if grid is None:
            raise DomainError("variance grid must start at 0")
        samples = np.empty((self.variance_mc_paths, t.size))
        seeds = np.random.SeedSequence(0x0FACADE).generate_state(self.variance_mc_paths, np.uint64)
        for i in range(self.variance_mc_paths):
            samples[i] = self._sample(grid, int(seeds[i]))
        return samples.var(axis=0, ddof=1)


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
    kind = "brownian-bridge"

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

    def _sample(self, grid: TimeGrid, seed: int) -> np.ndarray:
        self._check_grid(grid)
        (rng,) = _streams(seed, 1)
        t = grid.times
        s = np.empty(len(grid))
        s[0] = self.s0
        z = rng.standard_normal(len(grid) - 1)
        for i in range(len(grid) - 1):
            gap = self.maturity - t[i]
            dt = t[i + 1] - t[i]
            mean = s[i] + dt / gap * (self.face_value - s[i])
            var = self.sigma**2 * dt * (self.maturity - t[i + 1]) / gap
            s[i + 1] = mean + math.sqrt(max(var, 0.0)) * z[i]
        return s

    def _mean(self, t: np.ndarray) -> np.ndarray:
        return self.face_value + (self.s0 - self.face_value) * (self.maturity - t) / self.maturity

    def _variance(self, t: np.ndarray) -> np.ndarray:
        return self.sigma**2 * t * (self.maturity - t) / self.maturity


@dataclass(frozen=True)
class DeterministicPrice:
    """A known price trajectory; sampling just evaluates it."""

    fn: Callable[[np.ndarray], np.ndarray]
    kind = "deterministic"

    @property
    def s0(self) -> float:
        return float(self.fn(np.zeros(1))[0])

    def _sample(self, grid: TimeGrid, seed: int) -> np.ndarray:
        return np.asarray(self.fn(grid.times), dtype=float)

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


def sample_path(model: PriceModel, grid: TimeGrid, seed: int) -> SampledPath:
    """One realization of the price process; deterministic in (model, grid, seed)."""
    return SampledPath(grid, model._sample(grid, seed))


def expected_path(model: PriceModel, grid: TimeGrid) -> SampledPath:
    """The deterministic forecast trajectory t -> E[S_t]."""
    return SampledPath(grid, model._mean(grid.times))


def variance_path(model: PriceModel, grid: TimeGrid) -> SampledPath:
    """The trajectory t -> Var(S_t); Monte Carlo estimated for the jump model."""
    return SampledPath(grid, model._variance(grid.times))
