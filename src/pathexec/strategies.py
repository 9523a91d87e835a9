"""Adaptive liquidation schedules that are pathwise-optimal inside tubular
neighbourhoods of competitors, for three risk criteria:

* ``quadratic``  --  running cost  r S + c1^2 r^2 + c2^2 q^2
* ``time``       --  running cost  r S + c1^2 r^2 + c2^2 t q^2
* ``var``        --  running cost  r S + c1^2 r^2 + c2^2 q S   (value-at-risk style)

``CRITERIA`` holds each criterion's level weights (a, b) of the running cost
r S + c1^2 r^2 + a q^2 + b q S.  Each criterion comes in two equivalent
constructions: a closed-form trajectory driven by cumulative integrals of the
realized price, and an explicit-Euler initial-value stepper for the
criterion's Euler-Lagrange equations

    dq = r dt,      dr = (a q + b S/2) dt / c1^2 - dS / (2 c1^2),

where the price increment enters exactly per step (jumps are never
smoothed).  The stepper starts from its closed form's rate at t = 0.  Both
constructions read the realized path only up to the current time; the future
enters solely through the deterministic forecast t -> E[S_t], so every
schedule is implementable in real time.  The terminal inventory is
random but unbiased: E[q_T] equals the liquidation target.

Every builder is batch-native: a ``(paths, N)`` block of realized paths gives
one plan with a row (and an xi) per path, equal to the 1-D builds; a 1-D
path is the one-path case, with float terminals and xi.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Optional

import numpy as np

from .airy import AiryPair
from .errors import DomainError
from .pathcalc import (SampledPath, TimeGrid, cumulative_trapezoid, cumulative_young,
                       require_shared_grid)

__all__ = [
    "CRITERIA",
    "MarketParams",
    "ExecutionPlan",
    "good_exec_quadratic_closed",
    "good_exec_quadratic_ivp",
    "good_exec_time_closed",
    "good_exec_time_ivp",
    "good_exec_var_closed",
    "good_exec_var_ivp",
]

# below this value of c3*T the hyperbolic ratios are replaced by their
# risk-neutral (c3 -> 0) limits to avoid 0/0
DEGENERATE_C3T = 1e-8

# criterion -> level weights (c2^2, t) -> (a, b) of the running cost
# r S + c1^2 r^2 + a q^2 + b q S.  Each entry is linear in c2^2, so at
# c3^2 = c2^2/c1^2 it gives the weights over c1^2.
CRITERIA = {
    "quadratic": lambda c2sq, t: (c2sq, 0.0),
    "time": lambda c2sq, t: (c2sq * t, 0.0),
    "var": lambda c2sq, t: (0.0, c2sq),
}


@dataclass(frozen=True)
class MarketParams:
    """Impact/risk/penalty coefficients and boundary data of a liquidation.

    ``impact`` multiplies the squared rate in the running cost (temporary
    market impact), ``risk_aversion`` the inventory penalty, and
    ``terminal_penalty`` the squared outstanding inventory at the horizon in
    the classical penalized problem.  Derived ratios: ``risk_ratio`` =
    risk_aversion/impact and ``penalty_ratio`` = terminal_penalty/impact.
    """

    impact: float
    risk_aversion: float
    initial_inventory: float
    horizon: float
    target_inventory: float = 0.0
    terminal_penalty: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise DomainError("market parameters must be finite")
        if self.impact <= 0.0:
            raise DomainError("impact coefficient must be > 0")
        half_impact = 2.0 * self.impact * self.impact  # ** raises OverflowError, * gives inf
        if not (0.0 < half_impact < math.inf and 1.0 / half_impact < math.inf):
            raise DomainError(f"impact {self.impact:g} is out of range: 2 c1^2 and "
                              "1/(2 c1^2) must be finite, nonzero doubles")
        if self.risk_aversion < 0.0 or self.terminal_penalty < 0.0:
            raise DomainError("risk aversion and terminal penalty must be >= 0")
        if self.horizon <= 0.0:
            raise DomainError("horizon must be > 0")

    @property
    def risk_ratio(self) -> float:
        return self.risk_aversion / self.impact

    @property
    def penalty_ratio(self) -> float:
        return self.terminal_penalty / self.impact

    @property
    def risk_neutral(self) -> bool:
        return self.risk_ratio * self.horizon < DEGENERATE_C3T


@dataclass(frozen=True)
class ExecutionPlan:
    """Paired inventory trajectory and execution rate on a common grid.

    ``xi`` is the optimality certificate: the radius 1/|2 c1^2 r_T + S_T| of
    the pathwise tubular neighbourhood on this realization, one per path on a
    block, and inf where the neighbourhood is unrestricted.  It is None for
    plans that certify nothing.
    """

    q: SampledPath
    r: SampledPath
    strategy_tag: str
    xi: Optional[float] = None

    def __post_init__(self):
        require_shared_grid(self.q, self.r)

    @property
    def grid(self) -> TimeGrid:
        return self.q.grid

    @property
    def terminal(self):
        return _scalar(self.q.values[..., -1])

    def max_rate_consistency_gap(self) -> float:
        """Sup gap between q and the running trapezoid integral of r."""
        rebuilt = self.q.values[..., :1] + cumulative_trapezoid(self.r.values, self.grid.times)
        return float(np.max(np.abs(rebuilt - self.q.values)))


def _scalar(x):
    """0-d results as Python floats; per-path results stay arrays."""
    return float(x) if np.ndim(x) == 0 else x


def _col(x) -> np.ndarray:
    """A per-path constant as a column broadcasting along the time axis."""
    return np.asarray(x)[..., None]


def _hyperbolic_convolutions(c3: float, t: np.ndarray, values: np.ndarray):
    """int_0^t cosh(c3 (t-u)) x_u du and int_0^t sinh(c3 (t-u)) x_u du.

    Both assemble from the running integrals P(t) = int e^{-c3 u} x_u du and
    M(t) = int e^{c3 u} x_u du without catastrophic cancellation:
    int_0^t cosh(c3 (t-u)) x_u du = (e^{c3 t} P + e^{-c3 t} M)/2.
    """
    ep, em = np.exp(c3 * t), np.exp(-c3 * t)
    p = cumulative_trapezoid(em * values, t)
    m = cumulative_trapezoid(ep * values, t)
    conv_cosh = 0.5 * (ep * p + em * m)
    conv_sinh = 0.5 * (ep * p - em * m)
    return conv_cosh, conv_sinh


def _xi_from_terminal(c1: float, r_terminal, s_terminal):
    f_t = 2.0 * c1**2 * r_terminal + s_terminal
    with np.errstate(divide="ignore"):
        return _scalar(1.0 / np.abs(f_t))  # inf where f_t == 0


def _horizon_times(params: MarketParams, grid: TimeGrid) -> np.ndarray:
    """The grid's times; DomainError unless the grid ends at the market horizon."""
    T = params.horizon
    if abs(grid.horizon - T) > 1e-12 * max(1.0, T):
        raise DomainError("grid horizon must match the market horizon")
    return grid.times


def _plan(params: MarketParams, grid: TimeGrid, q: np.ndarray, r: np.ndarray,
          strategy_tag: str, s_terminal) -> ExecutionPlan:
    """A plan starting at x0; ``s_terminal=None`` builds it without an xi."""
    q = np.array(q, dtype=float)
    q[..., 0] = params.initial_inventory
    return ExecutionPlan(
        q=SampledPath(grid, q),
        r=SampledPath(grid, np.asarray(r, dtype=float)),
        strategy_tag=strategy_tag,
        xi=None if s_terminal is None else _xi_from_terminal(params.impact, r[..., -1], s_terminal),
    )


# ---------------------------------------------------------------------------
# quadratic inventory cost
# ---------------------------------------------------------------------------

def quadratic_trajectory(params: MarketParams, realized: SampledPath,
                         expected: SampledPath) -> tuple[np.ndarray, np.ndarray]:
    """Inventory and rate arrays of the quadratic-criterion schedule.

    q_t = (1-a(t)) x0 + xT sinh(c3 t)/sinh(c3 T) - conv_cosh(S)(t)/(2 c1^2) + K sinh(c3 t)
    with a(t) = 1 - sinh(c3 (T-t))/sinh(c3 T).  It solves q'' = c3^2 q - S'/(2 c1^2),
    the Euler-Lagrange equation of the running cost's c2^2 q^2, and the constant
    K is built from the forecast so that E[q_T] = xT.  The rate is the exact
    time derivative.
    Without risk aversion the schedule is the value-at-risk one at c2 = 0.
    """
    require_shared_grid(realized, expected)
    if params.risk_neutral:
        return var_trajectory(replace(params, risk_aversion=0.0), realized, expected)

    t = _horizon_times(params, realized.grid)
    T = params.horizon
    c1, c3 = params.impact, params.risk_ratio
    x0, x_t = params.initial_inventory, params.target_inventory
    s = realized.values
    half_impact = 2.0 * c1**2
    conv_cosh, conv_sinh = _hyperbolic_convolutions(c3, t, s)
    sinh_t_full = math.sinh(c3 * T)
    conv_cosh_e = (conv_cosh if expected is realized
                   else _hyperbolic_convolutions(c3, t, expected.values)[0])
    # K from the forecast, plus the target's xT sinh(c3 t)/sinh(c3 T)
    k = _col(conv_cosh_e[..., -1]) / (half_impact * sinh_t_full) + x_t / sinh_t_full
    alpha = 1.0 - np.sinh(c3 * (T - t)) / sinh_t_full
    q = x0 - alpha * x0 - conv_cosh / half_impact + k * np.sinh(c3 * t)
    r = (
        c3 * np.cosh(c3 * (T - t)) / sinh_t_full * -x0
        - (s + c3 * conv_sinh) / half_impact
        + k * c3 * np.cosh(c3 * t)
    )
    return q, r


def good_exec_quadratic_closed(params: MarketParams, realized: SampledPath,
                               expected: SampledPath) -> ExecutionPlan:
    """Closed-form quadratic-criterion schedule reacting to the realized path."""
    q, r = quadratic_trajectory(params, realized, expected)
    return _plan(params, realized.grid, q, r, "good-quadratic-closed", realized.values[..., -1])


def _euler_ivp(t: np.ndarray, s: np.ndarray, r0, x0: float, c1: float,
               a, b) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler for dq = r dt, dr = (a q + b S/2) dt - dS/(2 c1^2).

    ``a`` and ``b`` are a criterion's level weights over c1^2, scalars or one
    per time; they, not the criterion's name, pick the kernel.  When the drift
    reads q, a loop over time steps every path (row) of ``s`` at once; the
    time rows are split into lists and a, dt into floats once, before the
    loop.  With a == 0, r accumulates [r0, (b_0/2 S_0) dt_0, -dS_0/(2 c1^2),
    ...] and q accumulates [x0, r_0 dt_0, ...]; a sequential accumulate adds
    in the loop's order, so the bytes are the loop's.
    """
    dt = np.diff(t)
    a, b = (np.broadcast_to(w, t.shape)[:-1] for w in (a, b))  # at each step's start
    if not np.any(a):
        steps = np.empty(s.shape[:-1] + (2 * t.size - 1,))
        steps[..., 0] = r0
        steps[..., 1::2] = (0.5 * b) * s[..., :-1] * dt
        steps[..., 2::2] = -(np.diff(s) / (2.0 * c1**2))
        r = np.add.accumulate(steps, axis=-1, out=steps)[..., ::2].copy()
        q = np.empty(s.shape)
        q[..., 0] = x0
        np.multiply(r[..., :-1], dt, out=q[..., 1:])
        return np.add.accumulate(q, axis=-1, out=q), r
    if np.any(b):
        raise DomainError("the Euler stepper takes a q^2 or a q S weight, not both")
    s_time = s.reshape(-1, s.shape[-1]).T  # a 1-D path is the one-path block
    q = np.empty(s_time.shape)
    r = np.empty(s_time.shape)
    q[0], r[0] = x0, r0
    jump = list(np.diff(s_time, axis=0) / (2.0 * c1**2))
    q_rows, r_rows = list(q), list(r)
    for i, (a_i, dt_i) in enumerate(zip(a.tolist(), dt.tolist())):
        np.add(q_rows[i], r_rows[i] * dt_i, out=q_rows[i + 1])
        np.subtract(r_rows[i] + (a_i * q_rows[i]) * dt_i, jump[i], out=r_rows[i + 1])
    return q.T.reshape(s.shape), r.T.reshape(s.shape)


def _euler_plan(params: MarketParams, realized: SampledPath, expected: SampledPath,
                trajectory, criterion: str) -> ExecutionPlan:
    """The ``good-{criterion}-ivp`` plan stepped from x0 and the closed form's r(0).

    The stepper's weights are ``CRITERIA[criterion]`` at c3^2 = c2^2/c1^2.
    The forecast-fed closed form gives r(0) for S_0 = E_0; every criterion's
    r(0) moves by -(S_0 - E_0)/(2 c1^2) with the realized start.
    """
    require_shared_grid(realized, expected)
    t = realized.grid.times
    s0_gap = realized.values[..., 0] - expected.values[..., 0]
    r0 = trajectory(params, expected, expected)[1][..., 0] - s0_gap / (2.0 * params.impact**2)
    q, r = _euler_ivp(t, realized.values, r0, params.initial_inventory, params.impact,
                      *CRITERIA[criterion](params.risk_ratio**2, t))
    return _plan(params, realized.grid, q, r, f"good-{criterion}-ivp", realized.values[..., -1])


def good_exec_quadratic_ivp(params: MarketParams, realized: SampledPath,
                            expected: SampledPath) -> ExecutionPlan:
    """Euler-stepped quadratic schedule."""
    return _euler_plan(params, realized, expected, quadratic_trajectory, "quadratic")


# ---------------------------------------------------------------------------
# linearly time-weighted inventory cost (Airy machinery)
# ---------------------------------------------------------------------------

def _airy_basis(params: MarketParams, t: np.ndarray, airy: AiryPair):
    """alpha, beta = Ai, Bi at c3^(2/3) t, with their t-derivatives."""
    scale = params.risk_ratio ** (2.0 / 3.0)
    z = scale * t
    a, da = airy.ai(z), scale * airy.dai(z)
    b, db = airy.bi(z), scale * airy.dbi(z)
    return a, da, b, db


def _time_response(params: MarketParams, t: np.ndarray, a: np.ndarray,
                   driver: np.ndarray, start):
    """phi(t) = (1/2c1^2) int_0^t a^-2(s) [int_0^s a(u) dX_u] ds and its pieces.

    X jumps from ``start`` to driver[0] at t = 0, which adds a(0) (driver[0] - start)
    to the inner integral.
    """
    half_impact = 2.0 * params.impact**2
    inner = cumulative_young(a, driver) + a[0] * (driver[..., :1] - start)
    dphi = inner / (a**2 * half_impact)
    phi = cumulative_trapezoid(dphi, t)
    return phi, dphi


def time_trajectory(params: MarketParams, realized: SampledPath,
                    expected: SampledPath, airy: AiryPair) -> tuple[np.ndarray, np.ndarray]:
    """Inventory and rate arrays of the time-weighted schedule.

    q_t = cA a(t) + cB b(t) - a(t) phi(t) with a, b the rescaled Airy pair;
    phi integrates the realized path from the forecast's start E_0, while the
    boundary constants use the forecast value of phi(T), so that q0 = x0 and
    E[q_T] = xT.  Without risk aversion the criterion is the quadratic one.
    """
    if params.risk_neutral:
        return quadratic_trajectory(params, realized, expected)
    t = _horizon_times(params, require_shared_grid(realized, expected))
    a, da, b, db = _airy_basis(params, t, airy)
    e0 = expected.values[..., :1]
    phi, dphi = _time_response(params, t, a, realized.values, e0)
    ephi, _ = _time_response(params, t, a, expected.values, e0)
    # boundary rows: q(0) = x0 and E[q(T)] = xT
    det = a[0] * b[-1] - a[-1] * b[0]
    rhs0 = params.initial_inventory
    rhs1 = params.target_inventory + a[-1] * ephi[-1]
    c_a = (rhs0 * b[-1] - rhs1 * b[0]) / det
    c_b = (rhs1 * a[0] - rhs0 * a[-1]) / det
    q = c_a * a + c_b * b - a * phi
    r = c_a * da + c_b * db - da * phi - a * dphi
    return q, r


def good_exec_time_closed(params: MarketParams, realized: SampledPath,
                          expected: SampledPath, airy: AiryPair) -> ExecutionPlan:
    """Closed-form schedule for the time-weighted criterion."""
    q, r = time_trajectory(params, realized, expected, airy)
    return _plan(params, realized.grid, q, r, "good-time-closed", realized.values[..., -1])


def good_exec_time_ivp(params: MarketParams, realized: SampledPath,
                       expected: SampledPath, airy: AiryPair) -> ExecutionPlan:
    """Euler-stepped time-weighted schedule."""
    return _euler_plan(params, realized, expected,
                       lambda p, s, e: time_trajectory(p, s, e, airy), "time")


# ---------------------------------------------------------------------------
# value-at-risk inspired criterion
# ---------------------------------------------------------------------------

def var_trajectory(params: MarketParams, realized: SampledPath,
                   expected: SampledPath) -> tuple[np.ndarray, np.ndarray]:
    """q_t = (1-t/T) x0 + (t/T) xT - (1/2c1^2) int_0^t (S_s - c2^2 int_0^s S_u du) ds + K t."""
    t = _horizon_times(params, require_shared_grid(realized, expected))
    T = params.horizon
    c1, c2 = params.impact, params.risk_aversion
    x0, x_t = params.initial_inventory, params.target_inventory
    half_impact = 2.0 * c1**2

    def nested(values: np.ndarray) -> np.ndarray:
        inner = cumulative_trapezoid(values, t)
        return cumulative_trapezoid(values - c2**2 * inner, t), inner

    outer_s, inner_s = nested(realized.values)
    outer_e, _ = nested(expected.values)
    k = _col(outer_e[..., -1]) / (half_impact * T)
    q = x0 + (t / T) * (x_t - x0) - outer_s / half_impact + k * t
    r = (x_t - x0) / T - (realized.values - c2**2 * inner_s) / half_impact + k
    return q, r


def good_exec_var_closed(params: MarketParams, realized: SampledPath,
                         expected: SampledPath) -> ExecutionPlan:
    """Closed-form schedule under the value-at-risk style criterion."""
    q, r = var_trajectory(params, realized, expected)
    return _plan(params, realized.grid, q, r, "good-var-closed", realized.values[..., -1])


def good_exec_var_ivp(params: MarketParams, realized: SampledPath,
                      expected: SampledPath) -> ExecutionPlan:
    """Euler-stepped schedule under the value-at-risk style criterion."""
    return _euler_plan(params, realized, expected, var_trajectory, "var")
