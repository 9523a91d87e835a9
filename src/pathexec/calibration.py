"""Fitting the mean-reverting jump-diffusion price model to a mid-price series.

Pipeline: extract the reversion target as a centered moving average of the
log-price, fit the Ornstein-Uhlenbeck factor on the residual by the exact
discrete AR(1) relation, flag increments displaced beyond k transition
standard deviations as jumps, then refit the OU factor with the detected
jump increments removed (a single pass would absorb the random-walk jump
component into the slope and bias the reversion speed down).

All concrete choices here (moving-average target, AR(1) regression with
intercept, symmetric two-point mark family) are implementation decisions:
the model pins down none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import DomainError, EstimationError
from .pathcalc import SampledPath, TimeGrid

__all__ = [
    "MidPriceSeries",
    "OuFit",
    "JumpDetection",
    "JumpModelFit",
    "extract_target",
    "fit_ou",
    "detect_jumps",
    "calibrate_ou_jump",
]


@dataclass(frozen=True)
class MidPriceSeries:
    """Timestamps (non-decreasing) and strictly positive mid prices."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        p = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "prices", p)
        if t.ndim != 1 or t.shape != p.shape or t.size < 2:
            raise DomainError("need matching 1-d timestamp/price arrays, >= 2 rows")
        if np.any(np.diff(t) < 0):
            raise DomainError("timestamps must be non-decreasing")
        if np.any(p <= 0) or not np.all(np.isfinite(p)):
            raise DomainError("prices must be positive and finite")

    @property
    def span(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


def extract_target(series: MidPriceSeries, window: float) -> SampledPath:
    """Centered moving average of the log-price: the reversion target m(t).

    Returned on the series' own clock shifted to start at zero; linear
    interpolation between samples is implied by SampledPath consumers.
    Multiplying all prices by a constant shifts the target by its log.
    """
    if not (math.isfinite(window) and window > 0):
        raise DomainError(f"window must be a finite number > 0, got {window}")
    if series.span <= 0:
        raise EstimationError("series spans zero time")
    if window > series.span:
        window = series.span
    t = series.timestamps
    logp = np.log(series.prices)
    # centered window, shifted to stay inside the data near the edges: the
    # full-span window then reduces to the global mean everywhere
    lo_time = np.clip(t - 0.5 * window, t[0], t[-1] - window)
    hi_time = lo_time + window
    # nudge the window edges so samples sitting exactly on a boundary are
    # included on both sides; otherwise float dust breaks the symmetry that
    # makes the average of a linear trend exact
    eps = 1e-9 * max(window, 1.0)
    lo = np.searchsorted(t, lo_time - eps, side="left")
    hi = np.searchsorted(t, hi_time + eps, side="right")
    csum = np.concatenate(([0.0], np.cumsum(logp)))
    m = (csum[hi] - csum[lo]) / (hi - lo)
    return SampledPath(TimeGrid(t - t[0]), m)


@dataclass(frozen=True)
class OuFit:
    """Reversion speed and volatility of the OU factor, with fit diagnostics."""

    alpha: float
    sigma: float
    boundary: bool = False  # slope indistinguishable from white noise


def fit_ou(residual: SampledPath) -> OuFit:
    """Exact-discretization AR(1) fit of dY = -alpha Y dt + sigma dW.

    Uniform steps use the closed-form regression  Y_{i+1} = a + rho Y_i + eps
    with rho = e^(-alpha dt); irregular steps profile the Gaussian likelihood
    over alpha with the per-step transition variance
    sigma^2 (1 - e^(-2 alpha dt_i)) / (2 alpha).
    """
    y = residual.values
    t = residual.grid.times
    if y.size < 100:
        raise DomainError("need at least 100 residual points")
    if np.allclose(y, y[0]):
        raise EstimationError("degenerate residual: sigma = 0, alpha unidentified")
    dt = np.diff(t)

    uniform = np.ptp(dt) <= 1e-9 * dt[0]
    if uniform:
        step = float(dt[0])
        y0, y1 = y[:-1], y[1:]
        x0 = y0 - y0.mean()
        denom = float(x0 @ x0)
        if denom == 0.0:
            raise EstimationError("residual carries no variance")
        rho = float(x0 @ (y1 - y1.mean())) / denom
        if rho >= 1.0:
            raise EstimationError(f"AR(1) slope {rho:.6f} >= 1: no mean reversion detected")
        boundary = rho <= 0.0
        if boundary:
            # white-noise regime: alpha beyond the grid's resolving power
            alpha = -math.log(1e-8) / step
        else:
            alpha = -math.log(rho) / step
        resid = y1 - y1.mean() - rho * x0
        ssr = float(resid @ resid) / resid.size
        shrink = (1.0 - math.exp(-2.0 * alpha * step)) / (2.0 * alpha)
        sigma = math.sqrt(ssr / shrink)
        return OuFit(alpha=alpha, sigma=sigma, boundary=boundary)

    mean = y.mean()
    y0, y1 = y[:-1] - mean, y[1:] - mean

    def neg_profile_loglik(log_alpha: float) -> float:
        a = math.exp(log_alpha)
        decay = np.exp(-a * dt)
        v = (1.0 - decay**2) / (2.0 * a)
        resid_sq = (y1 - decay * y0) ** 2
        s2 = float(np.mean(resid_sq / v))
        return 0.5 * float(np.sum(np.log(v))) + 0.5 * resid_sq.size * math.log(s2)

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(neg_profile_loglik, bounds=(-10.0, 15.0), method="bounded")
    alpha = math.exp(res.x)
    decay = np.exp(-alpha * dt)
    v = (1.0 - decay**2) / (2.0 * alpha)
    sigma = math.sqrt(float(np.mean((y1 - decay * y0) ** 2 / v)))
    boundary = res.x >= 15.0 - 1e-6
    return OuFit(alpha=alpha, sigma=sigma, boundary=boundary)


@dataclass(frozen=True)
class JumpDetection:
    """Jump times, marks, intensity and the symmetric two-point mark fit."""

    times: np.ndarray
    marks: np.ndarray
    intensity: float
    mark_size: float

    @property
    def count(self) -> int:
        return self.times.size


def detect_jumps(residual: SampledPath, alpha: float, sigma: float, k: float) -> JumpDetection:
    """Flag increments displaced beyond k transition standard deviations.

    An increment from Y_{t_{i-1}} to Y_{t_i} is a jump when
    |Y_{t_i} - Y_{t_{i-1}} e^(-alpha dt)| > k sigma sqrt((1 - e^(-2 alpha dt)) / (2 alpha)),
    the exact OU transition scale.  Marks are the excess displacements; the
    intensity is count/span; the mark family is fitted as +/- median|mark|.
    """
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"threshold multiplier must be a finite number > 0, got {k}")
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
    # median is robust to borderline threshold crossings polluting the sample
    mark_size = float(np.median(np.abs(marks))) if marks.size else 0.0
    return JumpDetection(times=times, marks=marks, intensity=lam, mark_size=mark_size)


@dataclass(frozen=True)
class JumpModelFit:
    """Full calibration output for the jump-diffusion price model."""

    target: SampledPath
    ou: OuFit
    jumps: JumpDetection
    first_pass: OuFit


def calibrate_ou_jump(series: MidPriceSeries, window: float, k: float = 4.0) -> JumpModelFit:
    """Target extraction, OU fit, jump detection, then a jump-cleaned refit.

    The refit matters: jump increments act as a random-walk component that
    drags the AR(1) slope toward one.  Cleaning subtracts the fitted
    symmetric mark (sign times the median size) rather than the raw
    displacement: the raw displacement also contains one diffusion shock,
    and removing five hundred of those would re-inject a spurious random
    walk of its own.
    """
    target = extract_target(series, window)
    grid = target.grid
    residual = SampledPath(grid, np.log(series.prices) - target.values)
    first = fit_ou(residual)
    jumps = detect_jumps(residual, first.alpha, first.sigma, k)
    cleaned = residual.values.copy()
    if jumps.count:
        idx = np.searchsorted(grid.times, jumps.times)
        steps = np.zeros_like(cleaned)
        # borderline threshold exceedances (|mark| nearer zero than the
        # fitted size) are noise, not family members: reconstruct them as 0
        family = np.where(np.abs(jumps.marks) > 0.5 * jumps.mark_size,
                          np.sign(jumps.marks) * jumps.mark_size, 0.0)
        steps[idx] = family
        cleaned = cleaned - np.cumsum(steps)
    refit = fit_ou(SampledPath(grid, cleaned))
    return JumpModelFit(target=target, ou=refit, jumps=jumps, first_pass=first)
