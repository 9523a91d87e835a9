"""Classical comparison schedules.

* ``static_optimal``            -- deterministic fuel-constrained optimum of a
                                   criterion, driven entirely by the forecast;
* ``aposteriori_optimal``       -- the pathwise fuel-constrained optimum of a
                                   criterion, computed with the full realized
                                   path (anticipative; benchmark only);
* ``terminal_penalty_optimal``  -- the classical expected-cost optimum with a
                                   quadratic penalty on outstanding terminal
                                   inventory, restricted to deterministic
                                   price drift;
* ``twap``                      -- the straight line.

The static and a-posteriori schedules are the two degenerations of a
criterion's adaptive closed form ``closed(params, realized, expected)``, such
as ``strategies.good_exec_quadratic_closed``: feed it the forecast as if
realized, or rebuild its terminal constant from the realized path.  The
terminal-penalty schedule is the quadratic criterion's, whatever is scored.
"""

from __future__ import annotations

import numpy as np

from .pathcalc import (SampledPath, TimeGrid, cumulative_trapezoid, cumulative_young,
                       require_shared_grid)
from .strategies import ExecutionPlan, MarketParams, _horizon_times, _plan

__all__ = [
    "static_optimal",
    "aposteriori_optimal",
    "terminal_penalty_optimal",
    "twap",
    "challenger_plans",
]


def static_optimal(params: MarketParams, expected: SampledPath, closed) -> ExecutionPlan:
    """Deterministic fuel-constrained optimum: ``closed`` fed the forecast as
    its realized path; q(T) = xT up to quadrature noise."""
    return closed(params, expected, expected)


def aposteriori_optimal(params: MarketParams, realized: SampledPath, closed) -> ExecutionPlan:
    """Pathwise fuel-constrained optimum: ``closed`` fed the realized path as
    its own forecast.

    Anticipative: the terminal constant is rebuilt from the whole realized
    trajectory, so this is a benchmark, never an implementable schedule.
    A ``(paths, N)`` block gives one plan per row, as the builders do.
    """
    return closed(params, realized, realized)


def _phi_scaled(params: MarketParams, u: np.ndarray):
    """phi(u)/c3 and phi'(u)/c3, finite for all c3 >= 0 (c3 -> 0 is the risk-neutral line)."""
    c3, c6 = params.risk_ratio, params.penalty_ratio
    if params.risk_neutral:
        return 1.0 + c6**2 * u, np.full_like(u, c6**2)
    ch, sh = np.cosh(c3 * u), np.sinh(c3 * u)
    return ch + (c6**2 / c3) * sh, c3 * sh + c6**2 * ch


def terminal_penalty_optimal(params: MarketParams, drift: SampledPath) -> ExecutionPlan:
    """Expected-cost optimum with quadratic terminal penalty, deterministic drift.

    q_t = Phi(0,t) x0 + int_0^t Phi(s,t) v(s) ds,  Phi(s,t) = phi(T-t)/phi(T-s),
    v(t) = (1/2c1^2) int_t^T Phi(t,r) dA_r  (A the deterministic drift path).
    Phi separates as phi(T-t) * 1/phi(T-s), so everything reduces to running
    integrals.  Under zero drift the schedule is static with
    q_T = c3 x0 / (c3 cosh(c3 T) + c6^2 sinh(c3 T)): the penalty always
    leaves inventory on the table unless c5 -> infinity.
    """
    t = _horizon_times(params, drift.grid)
    T = params.horizon
    c1 = params.impact
    x0 = params.initial_inventory
    half_impact = 2.0 * c1**2

    phi_rev, dphi_rev = _phi_scaled(params, T - t)  # phi(T-t)/c3, phi'(T-t)/c3
    # v(t) = [G(T) - G(t)] / (2 c1^2 phi(T-t)) with G a left-point Stieltjes
    # cumulative of phi(T-r) against the drift increments
    g = cumulative_young(phi_rev, drift.values)
    v = (g[-1] - g) / (half_impact * phi_rev)

    # q = phi(T-t) * [ x0/phi(T) + int_0^t v/phi(T-s) ds ]
    core = x0 / phi_rev[0] + cumulative_trapezoid(v / phi_rev, t)
    q = phi_rev * core
    r = -dphi_rev * core + v

    return _plan(params, drift.grid, q, r, None)


def twap(params: MarketParams, grid: TimeGrid) -> ExecutionPlan:
    """Straight line from x0 to xT at constant rate."""
    t = _horizon_times(params, grid)
    T = params.horizon
    x0, x_t = params.initial_inventory, params.target_inventory
    q = x0 + (t / T) * (x_t - x0)
    r = np.full_like(t, (x_t - x0) / T)
    return _plan(params, grid, q, r, None)


# ---------------------------------------------------------------------------
# challenger family for the reduction-to-static property (test fixtures)
# ---------------------------------------------------------------------------

def challenger_plans(params: MarketParams, realized: SampledPath,
                     expected: SampledPath, feedback: float) -> dict[str, ExecutionPlan]:
    """Five adapted, fuel-constrained competitors of the static optimum, by name.

    TWAP, a front-loaded and a back-loaded deterministic schedule, and two
    price-reactive schedules with linear feedback on S_t - E[S_t] re-pinned
    by a bridge factor (1 - t/T), with opposite feedback signs.  All are
    adapted and end exactly at the target, so the static optimum must beat
    them in expectation whenever the price drift is deterministic.
    """
    grid = require_shared_grid(realized, expected)
    t = _horizon_times(params, grid)
    T = params.horizon
    x0, x_t = params.initial_inventory, params.target_inventory
    span = x0 - x_t
    plans = {"twap": twap(params, grid)}

    frac = t / T
    q_front = x_t + span * (1.0 - frac) ** 2
    r_front = -2.0 * span / T * (1.0 - frac)
    plans["front-loaded"] = _plan(params, grid, q_front, r_front, None)

    q_back = x_t + span * (1.0 - frac**2)
    r_back = -2.0 * span * frac / T
    plans["back-loaded"] = _plan(params, grid, q_back, r_back, None)

    gap = realized.values - expected.values
    z = cumulative_trapezoid(gap, t)
    for sign, name in ((+1.0, "reactive-pos"), (-1.0, "reactive-neg")):
        g = sign * feedback
        q_react = x_t + span * (1.0 - frac) - g * (1.0 - frac) * z
        r_react = -span / T + g * z / T - g * (1.0 - frac) * gap
        plans[name] = _plan(params, grid, q_react, r_react, None)
    return plans
