"""Pathwise cost functional, perturbation seminorms and optimality audits.

The running cost of a schedule against a realized price path is integrated
by the trapezoid rule.  Each criterion induces a Sobolev-style seminorm (the
F-weight) on trajectory perturbations; a competitor sits in the pathwise
tubular neighbourhood of a schedule when its terminal deviation is dominated
by xi times the squared F-weight of the deviation.  Inside that
neighbourhood the schedule's cost is provably no worse, which is what
``audit_good_inequality`` verifies numerically on randomly sampled
perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, GridMismatchError
from .pathcalc import SampledPath, trapezoid
from .strategies import ExecutionPlan, MarketParams

__all__ = [
    "CRITERIA",
    "cost_J",
    "pathwise_f_weight",
    "AuditReport",
    "audit_good_inequality",
    "LiquidationStats",
    "liquidation_stats",
]

# criterion -> level weights (c2^2, t) -> (a, b) of the running cost
# r S + c1^2 r^2 + a q^2 + b q S
CRITERIA = {
    "quadratic": lambda c2sq, t: (c2sq, 0.0),
    "time": lambda c2sq, t: (c2sq * t, 0.0),
    "var": lambda c2sq, t: (0.0, c2sq),
}

# absolute tolerance absorbing quadrature noise in inequality audits
AUDIT_TOL_SCALE = 1e-9


def _level_weights(criterion: str, params: MarketParams, t: np.ndarray):
    """Weights (a, b) of the running cost r S + c1^2 r^2 + a q^2 + b q S."""
    if criterion not in CRITERIA:
        raise DomainError(f"unknown criterion {criterion!r}")
    return CRITERIA[criterion](params.risk_aversion**2, t)


def cost_J(criterion: str, params: MarketParams, realized: SampledPath,
           plan: ExecutionPlan):
    """Trapezoid integral of the running cost F(t, S_t, q_t, r_t).

    One cost per path on a ``(paths, N)`` block (the plan may be 1-D).
    """
    if not realized.grid.same_as(plan.grid):
        raise GridMismatchError("realized path and plan must share the grid")
    t, s, q, r = realized.grid.times, realized.values, plan.q.values, plan.r.values
    a, b = _level_weights(criterion, params, t)
    f = r * s + params.impact**2 * r**2 + a * q**2
    return trapezoid(f + b * q * s if b else f, t)


def pathwise_f_weight(criterion: str, params: MarketParams, eta: SampledPath,
                      rate: Optional[np.ndarray] = None) -> float:
    """The criterion-induced seminorm of a trajectory perturbation.

    quadratic: sqrt( int c2^2 eta^2 + c1^2 eta'^2 )
    time:      sqrt( int c2^2 t eta^2 + c1^2 eta'^2 )
    var:       sqrt( int c1^2 eta'^2 )      (the level term drops out)

    The level weight is the running cost's ``a``.  The rate is taken by
    finite differences unless an analytic one is given.
    """
    t = eta.grid.times
    # central differences in the interior, one-sided at the ends
    d_eta = rate if rate is not None else np.gradient(eta.values, t)
    a, _ = _level_weights(criterion, params, t)
    sq = a * eta.values**2 + params.impact**2 * d_eta**2
    return math.sqrt(max(trapezoid(sq, t), 0.0))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a pathwise-optimality audit."""

    criterion: str
    checked: int
    kept: int
    violations: list[tuple[int, float]]
    tolerance: float
    xi: float
    j_value: float
    # max_k |ell_k - b_k(T) (2 c1^2 r_T + S_T)|, a health report, not a gate
    first_variation_gap: float

    @property
    def ok(self) -> bool:
        return not self.violations


N_SINE_MODES = 16


def _perturbation_matrix(count: int, seed: int, scale: float):
    """Gaussian sine-mode coefficients (count, 16) and endpoint-bump draws.

    Per-perturbation sub-seeds keep the draw independent of evaluation order.
    """
    k = np.arange(1, N_SINE_MODES + 1)
    coeffs = np.empty((count, N_SINE_MODES))
    bump_draws = np.empty(count)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.Generator(np.random.PCG64(child))
        coeffs[i] = rng.standard_normal(N_SINE_MODES) * scale / k
        bump_draws[i] = rng.uniform(-1.2, 1.2)
    return coeffs, bump_draws


def _quadratic_form(criterion: str, params: MarketParams, realized: SampledPath,
                    plan: ExecutionPlan):
    """The trapezoid cost in the coefficients c of e = sum_k c_k b_k.

    The b_k are sin(k pi t/T), k = 1..16, and the ramp t/T (coefficient e_T).
    The cost is quadratic in (e, e') and the trapezoid rule linear, so up to
    rounding J(q + e) - J(q) = ell . c + c G c, and G is also the F-weight's
    Gram matrix, |e|_F^2 = c G c.  ``ell`` projects the first variation
    (S + 2 c1^2 r) e' + (2 a q + b S) e of the plan's own q, r and realized S.
    Returns ell, G and b_k(T).
    """
    t, s, horizon = realized.grid.times, realized.values, params.horizon
    k = np.arange(1, N_SINE_MODES + 1)[:, None]
    phase = k * (np.pi * t / horizon)
    basis = np.vstack([np.sin(phase), t / horizon])
    basis[:N_SINE_MODES, -1] = 0.0  # sin(k pi) exactly, not float dust
    dbasis = np.vstack([(k * np.pi / horizon) * np.cos(phase), np.full_like(t, 1.0 / horizon)])
    dt = np.diff(t)
    w = 0.5 * (np.append(dt, 0.0) + np.insert(dt, 0, 0.0))  # trapezoid weights
    c1sq = params.impact**2
    a, b = _level_weights(criterion, params, t)
    ell = (basis @ (w * (2.0 * a * plan.q.values + b * s))
           + dbasis @ (w * (s + 2.0 * c1sq * plan.r.values)))
    gram = (basis * (w * a)) @ basis.T + c1sq * (dbasis * w) @ dbasis.T
    return ell, gram, basis[:, -1]


def audit_good_inequality(criterion: str, params: MarketParams,
                          realized: SampledPath, plan: ExecutionPlan,
                          perturbations: int, seed: int,
                          scale: Optional[float] = None,
                          endpoint_bump: bool = True) -> AuditReport:
    """Probe the pathwise inequality J(q+e) >= J(q) inside the tubular set.

    Samples random perturbations e with e(0) = 0 built from sine modes; with
    ``endpoint_bump`` each perturbation also carries a t/T ramp whose size is
    drawn relative to its own tubular radius xi |e|_F^2, so the sample covers
    the interior and straddles the boundary of the neighbourhood.  Kept
    perturbations are those with |e_T| <= xi |e|_F^2 for the schedule's
    certificate xi; every kept one whose cost improves on the schedule by
    more than the quadrature tolerance 1e-9 (1 + |J(q)|) is a violation.

    Each perturbation is evaluated exactly through ``_quadratic_form``.
    """
    if not realized.grid.same_as(plan.grid):
        raise GridMismatchError("realized path and plan must share the grid")
    j0 = cost_J(criterion, params, realized, plan)
    tol = AUDIT_TOL_SCALE * (1.0 + abs(j0))
    if plan.certificate is None:
        raise DomainError("plan carries no certificate; audit needs xi")
    xi = plan.certificate.xi
    if scale is None:
        scale = 1e-3 * max(abs(params.initial_inventory), 1.0)

    ell, gram, end = _quadratic_form(criterion, params, realized, plan)
    sines, bump_draws = _perturbation_matrix(perturbations, seed, scale)
    f_sq = lambda c: np.sum((c @ gram) * c, axis=1)  # |e|_F^2 per row
    coef = np.hstack([sines, np.zeros((perturbations, 1))])
    if endpoint_bump:
        coef[:, -1] = bump_draws * ((xi if math.isfinite(xi) else 1.0) * f_sq(coef))

    w_sq = f_sq(coef)
    member = np.abs(coef @ end) <= (np.inf if math.isinf(xi) else xi * w_sq)
    delta_j = coef @ ell + w_sq
    bad = np.nonzero(member & (delta_j < -tol))[0]
    # an optimal plan's first variation is e_T (2 c1^2 r_T + S_T)
    boundary = 2.0 * params.impact**2 * plan.r.values[-1] + realized.values[-1]
    return AuditReport(
        criterion=criterion,
        checked=perturbations,
        kept=int(member.sum()),
        violations=[(int(i), float(-delta_j[i])) for i in bad],
        tolerance=tol,
        xi=xi,
        j_value=j0,
        first_variation_gap=float(np.max(np.abs(ell - end * boundary))),
    )


@dataclass(frozen=True)
class LiquidationStats:
    """Sample statistics of terminal liquidation errors q_T - xT."""

    mean_error: float
    stderr: float
    variance: float
    variance_se: float
    variance_bound: Optional[float] = None

    @property
    def within_bound(self) -> Optional[bool]:
        if self.variance_bound is None:
            return None
        return self.variance <= self.variance_bound + 2.0 * self.variance_se


def liquidation_stats(plans: Sequence[ExecutionPlan], x_target: float,
                      params: Optional[MarketParams] = None,
                      variance: Optional[SampledPath] = None) -> LiquidationStats:
    """Mean/variance of liquidation errors across Monte Carlo plans or blocks.

    Given market parameters and the model's variance path, also evaluates the
    dispersion bound  Var(q_T) <= (T / 4 c1^4) int cosh^2(c3 (T-t)) Var(S_t) dt
    for the quadratic criterion.
    """
    errors = np.concatenate([np.zeros(0), *(np.ravel(p.terminal) for p in plans)]) - x_target
    n = errors.size
    if n < 2:
        raise DomainError("need at least two paths for sample statistics")
    mean = float(errors.mean())
    stderr = float(errors.std(ddof=1) / math.sqrt(n))
    var = float(errors.var(ddof=1))
    centered = errors - errors.mean()
    m4 = float(np.mean(centered**4))
    var_se = math.sqrt(max(m4 - var**2, 0.0) / n)

    bound = None
    if params is not None and variance is not None:
        t = variance.grid.times
        c1, c3 = params.impact, params.risk_ratio
        w = np.cosh(c3 * (params.horizon - t)) ** 2
        bound = params.horizon / (4.0 * c1**4) * trapezoid(w * variance.values, t)
    return LiquidationStats(mean, stderr, var, var_se, bound)
