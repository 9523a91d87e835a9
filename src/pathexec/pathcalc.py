"""Pathwise calculus on sampled paths.

Prices are handled as raw sampled paths of finite p-variation: no SDE
structure is assumed, and jumps are legitimate.  All integrals against such
paths are left-point Riemann-Stieltjes sums, which converge to the Young
integral when an absolutely continuous integrand meets a finite p-variation
integrator.  Smooth-kernel quadratures use the trapezoid rule (second-order,
exact for affine integrands).

Values may be a ``(paths, N)`` block on one grid: quadratures then run along
the time axis over C-contiguous rows, so each row's result equals its 1-D
path's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, GridMismatchError

__all__ = [
    "TimeGrid",
    "SampledPath",
    "trapezoid",
    "cumulative_trapezoid",
    "cumulative_young",
    "young_integral",
    "resample",
]


def trapezoid(values: np.ndarray, times: np.ndarray):
    """Trapezoid-rule integral of ``values`` sampled at ``times``.

    A float for a 1-D path, one value per path for a ``(paths, N)`` block.
    """
    total = np.trapezoid(values, times, axis=-1)
    return float(total) if np.ndim(total) == 0 else total


def cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Running trapezoid integral along the time axis, zero at the first node."""
    inc = 0.5 * (values[..., 1:] + values[..., :-1]) * np.diff(times)
    out = np.empty_like(values, dtype=float)
    out[..., 0] = 0.0
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def cumulative_young(integrand: np.ndarray, integrator: np.ndarray) -> np.ndarray:
    """Running left-point sum  I_k = sum_{i<k} w_i (x_{i+1} - x_i)  along the time axis."""
    inc = integrand[..., :-1] * np.diff(integrator)
    out = np.zeros(inc.shape[:-1] + (inc.shape[-1] + 1,))
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing instants covering ``[0, T]``, endpoints included."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 2:
            raise DomainError("grid needs at least two points")
        if t[0] != 0.0:
            raise DomainError("grid must start at 0")
        if not np.all(t[1:] > t[:-1]):
            raise DomainError("grid times must be strictly increasing")
        if not np.all(np.isfinite(t)):
            raise DomainError("grid times must be finite")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1 or not 0.0 < horizon < np.inf:
            raise DomainError("need steps >= 1 and finite horizon > 0")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return self.times.size

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to ``t``; DomainError if off-grid."""
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self) and abs(self.times[j] - t) <= 1e-12 * max(1.0, self.horizon):
                return j
        raise DomainError(f"instant {t} is not a grid point")

    def restrict(self, n_coarse: int) -> "TimeGrid":
        """Dyadic-style sub-grid keeping every k-th point (refinement studies)."""
        n = len(self) - 1
        if n % n_coarse != 0:
            raise DomainError("coarse step count must divide the fine one")
        return TimeGrid(self.times[:: n // n_coarse])

    def same_as(self, other: "TimeGrid") -> bool:
        return self.times is other.times or (
            len(self) == len(other) and bool(np.array_equal(self.times, other.times))
        )


@dataclass(frozen=True)
class SampledPath:
    """A cadlag path observed on a grid: one value per grid point.

    ``values`` of shape ``(paths, N)`` hold a block of paths on the grid.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim not in (1, 2) or v.shape[-1] != len(self.grid):
            raise DomainError("values and grid must have equal length")
        if not np.all(np.isfinite(v)):
            raise DomainError("path values must be finite")

    @classmethod
    def from_function(cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "SampledPath":
        return cls(grid, np.asarray(fn(grid.times), dtype=float))

    @classmethod
    def constant(cls, grid: TimeGrid, level: float) -> "SampledPath":
        return cls(grid, np.full(len(grid), float(level)))

    def __len__(self) -> int:
        return self.values.shape[-1]


def require_shared_grid(first, *others) -> TimeGrid:
    """The grid of ``first``; GridMismatchError unless every other path or plan shares it."""
    if not all(first.grid.same_as(other.grid) for other in others):
        raise GridMismatchError("paths live on different grids; resample first")
    return first.grid


def young_integral(integrand: SampledPath, integrator: SampledPath, s: float, t: float) -> float:
    """Left-point sum of the integrand against the integrator's increments.

    On refining grids this converges to the Young integral of an absolutely
    continuous integrand against a finite p-variation path; jumps of the
    integrator enter exactly, never smoothed.  It is ``cumulative_young``'s
    last value over the grid points from ``s`` to ``t``.
    """
    grid = require_shared_grid(integrand, integrator)
    i, j = grid.index_of(s), grid.index_of(t)
    if i > j:
        raise DomainError("need s <= t")
    return float(cumulative_young(integrand.values[i:j + 1], integrator.values[i:j + 1])[-1])


def resample(path: SampledPath, grid: TimeGrid, kind: str = "previous") -> SampledPath:
    """Move a path onto another grid.

    ``kind="previous"`` is the cadlag rule for price paths (jumps are kept
    sharp); ``kind="linear"`` is for inventory paths, which are absolutely
    continuous by construction.
    """
    told, vold = path.grid.times, path.values
    tnew = grid.times
    if kind == "linear":
        vnew = np.interp(tnew, told, vold)
    elif kind == "previous":
        idx = np.searchsorted(told, tnew, side="right") - 1
        vnew = vold[np.clip(idx, 0, vold.size - 1)]
    else:
        raise DomainError(f"unknown resampling kind {kind!r}")
    return SampledPath(grid, vnew)

