"""Pathwise cost functional, perturbation seminorms and optimality audits.

The running cost of a schedule against a realized price path is integrated
by the trapezoid rule.  Each criterion induces a Sobolev-style seminorm (the
F-weight, |e|_F^2 = int a e^2 + c1^2 e'^2 with the running cost's level
weight a) on trajectory perturbations; a competitor sits in the pathwise
tubular neighbourhood of a schedule when its terminal deviation is dominated
by xi times the squared F-weight of the deviation.  Inside that
neighbourhood the schedule's cost is provably no worse, which is what
``audit_good_inequality`` verifies numerically on randomly sampled
perturbations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pathcalc import SampledPath, require_shared_grid, trapezoid
from .strategies import CRITERIA, ExecutionPlan, MarketParams

__all__ = [
    "CRITERIA",
    "cost_J",
    "AuditReport",
    "audit_good_inequality",
]

# absolute tolerance absorbing quadrature noise in inequality audits
AUDIT_TOL_SCALE = 1e-9


def _level_weights(criterion: str, risk_aversion: float, t: np.ndarray):
    """Weights (a, b) of the running cost r S + c1^2 r^2 + a q^2 + b q S."""
    if criterion not in CRITERIA:
        raise DomainError(f"unknown criterion {criterion!r}")
    return CRITERIA[criterion](risk_aversion**2, t)


def cost_J(criterion: str, params: MarketParams, realized: SampledPath,
           plan: ExecutionPlan):
    """Trapezoid integral of the running cost F(t, S_t, q_t, r_t).

    One cost per path on a ``(paths, N)`` block (the plan may be 1-D).
    """
    t = require_shared_grid(realized, plan).times
    s, q, r = realized.values, plan.q.values, plan.r.values
    a, b = _level_weights(criterion, params.risk_aversion, t)
    f = r * s + params.impact**2 * r**2 + a * q**2
    return trapezoid(f + b * q * s if b else f, t)


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

    Coefficients and bumps come from two sub-streams of the seed, each drawn
    in one call, so the first n perturbations of a larger count are the
    n-perturbation draw.
    """
    k = np.arange(1, N_SINE_MODES + 1)
    sine_rng, bump_rng = (np.random.Generator(np.random.PCG64(child))
                          for child in np.random.SeedSequence(seed).spawn(2))
    coeffs = sine_rng.standard_normal((count, N_SINE_MODES)) * scale / k
    return coeffs, bump_rng.uniform(-1.2, 1.2, count)


def _read_only(*values):
    """``values`` as a tuple, each array among them made read-only."""
    for v in values:
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return values


@functools.lru_cache(maxsize=4)
def _sine_basis(horizon: float, times: bytes):
    """The b_k, their derivatives and the trapezoid weights on the grid ``times``,
    read-only and shared by every path and criterion (about 1.1 MB at 4097 points)."""
    t = np.frombuffer(times)
    k = np.arange(1, N_SINE_MODES + 1)[:, None]
    phase = k * (np.pi * t / horizon)
    basis = np.vstack([np.sin(phase), t / horizon])
    basis[:N_SINE_MODES, -1] = 0.0  # sin(k pi) exactly, not float dust
    dbasis = np.vstack([(k * np.pi / horizon) * np.cos(phase), np.full_like(t, 1.0 / horizon)])
    dt = np.diff(t)
    w = 0.5 * (np.append(dt, 0.0) + np.insert(dt, 0, 0.0))  # trapezoid weights
    return _read_only(basis, dbasis, w)


@functools.lru_cache(maxsize=12)  # the three criteria on each of 4 grids
def _gram(criterion: str, impact: float, risk_aversion: float, horizon: float, times: bytes):
    """Level weights (a, b) and the Gram matrix G of ``_quadratic_form``, read-only."""
    a, b = _level_weights(criterion, risk_aversion, np.frombuffer(times))
    basis, dbasis, w = _sine_basis(horizon, times)
    c1sq = impact**2
    gram = (basis * (w * a)) @ basis.T + c1sq * (dbasis * w) @ dbasis.T
    return _read_only(a, b, gram)


def _quadratic_form(criterion: str, params: MarketParams, realized: SampledPath,
                    plan: ExecutionPlan):
    """The trapezoid cost in the coefficients c of e = sum_k c_k b_k.

    The b_k are sin(k pi t/T), k = 1..16, and the ramp t/T (coefficient e_T).
    The cost is quadratic in (e, e') and the trapezoid rule linear, so up to
    rounding J(q + e) - J(q) = ell . c + c G c, and G is also the F-weight's
    Gram matrix, |e|_F^2 = c G c.  ``ell`` projects the first variation
    (S + 2 c1^2 r) e' + (2 a q + b S) e of the plan's own q, r and realized S.
    Returns ell, G and b_k(T).  Only ``ell`` depends on the path; the rest is
    computed once per (criterion, c1, c2, T, grid).
    """
    s, times = realized.values, realized.grid.times.tobytes()
    basis, dbasis, w = _sine_basis(params.horizon, times)
    a, b, gram = _gram(criterion, params.impact, params.risk_aversion, params.horizon, times)
    c1sq = params.impact**2
    ell = (basis @ (w * (2.0 * a * plan.q.values + b * s))
           + dbasis @ (w * (s + 2.0 * c1sq * plan.r.values)))
    return ell, gram, basis[:, -1]


def audit_good_inequality(criterion: str, params: MarketParams,
                          realized: SampledPath, plan: ExecutionPlan,
                          perturbations: int, seed: int,
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
    require_shared_grid(realized, plan)
    j0 = cost_J(criterion, params, realized, plan)
    tol = AUDIT_TOL_SCALE * (1.0 + abs(j0))
    xi = plan.xi
    if xi is None:
        raise DomainError("plan carries no certificate; audit needs xi")
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
