"""What the three criteria share: the Euler steppers' start, the grid check and
an unbiased terminal inventory when the forecast is the exact E[S_t].

Each ``good_exec_*_ivp`` starts from its own closed form's rate at t = 0,
shifted by -(S_0 - E_0)/(2 c1^2) when the realized path starts off the
forecast.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pathexec import (
    ArithmeticBrownian,
    BrownianBridge,
    DomainError,
    GridMismatchError,
    MarketParams,
    OuJumpDiffusion,
    SampledPath,
    TimeGrid,
    airy_pair,
    aposteriori_optimal,
    audit_good_inequality,
    challenger_plans,
    cost_J,
    good_exec_quadratic_closed,
    good_exec_quadratic_ivp,
    good_exec_time_closed,
    good_exec_time_ivp,
    good_exec_var_closed,
    good_exec_var_ivp,
    static_optimal,
    terminal_penalty_optimal,
    twap,
    two_point_marks,
)
from pathexec.pricemodels import expected_path, sample_path
from pathexec.strategies import ExecutionPlan, _euler_ivp

FIG2 = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0, horizon=1.0)
GRID = TimeGrid.uniform(1.0, 512)
AIRY = airy_pair(FIG2.risk_ratio ** (2.0 / 3.0) * FIG2.horizon, tol=1e-9)
PAIRS = {
    "quadratic": (good_exec_quadratic_closed, good_exec_quadratic_ivp, ()),
    "time": (good_exec_time_closed, good_exec_time_ivp, (AIRY,)),
    "var": (good_exec_var_closed, good_exec_var_ivp, ()),
}
MODELS = {
    "abm": ArithmeticBrownian(s0=100.0, sigma=5.0),
    "bridge": BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0),
}


@pytest.mark.parametrize("criterion", sorted(PAIRS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_ivp_starts_at_the_closed_form_rate(model, criterion):
    m = MODELS[model]
    expected = expected_path(m, GRID)
    realized = sample_path(m, GRID, np.arange(16))
    closed, ivp, extra = PAIRS[criterion]
    assert np.all(realized.values[:, 0] == expected.values[0])
    want = closed(FIG2, realized, expected, *extra).r.values[:, 0]
    got = ivp(FIG2, realized, expected, *extra).r.values[:, 0]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("c3T", [0.85, 20.0, 50.0, 100.0, 300.0])
def test_quadratic_ivp_start_at_high_urgency(c3T):
    params = MarketParams(impact=1.0, risk_aversion=c3T, initial_inventory=1_000.0, horizon=1.0)
    flat = SampledPath.constant(GRID, 100.0)
    r0 = good_exec_quadratic_ivp(params, flat, flat).r.values[0]
    assert r0 == good_exec_quadratic_closed(params, flat, flat).r.values[0]
    # the analytic value is -c3 x0 coth(c3 T); the gap is the forecast's quadrature
    assert r0 == pytest.approx(-c3T * 1_000.0 / math.tanh(c3T), rel=1e-5)


@pytest.mark.parametrize("criterion", sorted(PAIRS))
def test_shifted_start_moves_every_initial_rate(criterion):
    m = MODELS["abm"]
    expected = expected_path(m, GRID)
    base = sample_path(m, GRID, np.arange(4))
    delta = 3.5
    shifted = SampledPath(GRID, base.values + delta)
    closed, ivp, extra = PAIRS[criterion]
    r0_base = ivp(FIG2, base, expected, *extra).r.values[:, 0]
    r0_shifted = ivp(FIG2, shifted, expected, *extra).r.values[:, 0]
    assert r0_shifted - r0_base == pytest.approx(
        np.full(4, -delta / (2.0 * FIG2.impact**2)), abs=1e-9)
    # every closed form reads the start S_0 - E_0 the way its stepper does
    r0_closed = closed(FIG2, shifted, expected, *extra).r.values[:, 0]
    assert r0_closed == pytest.approx(r0_shifted, abs=1e-9)


def _indexed_euler_loop(t, s, r0, x0, c1, drift):
    """Reference stepper that indexes 2-D time-major arrays at each step."""
    s_time = s.T
    q = np.empty(s_time.shape)
    r = np.empty(s_time.shape)
    q[0], r[0] = x0, r0
    jump = np.diff(s_time, axis=0) / (2.0 * c1**2)
    dt = np.diff(t)
    for i in range(t.size - 1):
        q[i + 1] = q[i] + r[i] * dt[i]
        r[i + 1] = r[i] + drift(t[i], q[i], s_time[i]) * dt[i] - jump[i]
    return q.T, r.T


LOOPED_DRIFTS = {
    "quadratic": lambda tt, qq, ss: FIG2.risk_ratio**2 * qq,
    "time": lambda tt, qq, ss: FIG2.risk_ratio**2 * tt * qq,
}


@pytest.mark.parametrize("criterion", sorted(LOOPED_DRIFTS))
def test_ivp_equals_the_indexed_euler_loop(criterion):
    # no inventory keeps q and r near 0, where a step's sums taken in another
    # order round differently
    params = replace(FIG2, initial_inventory=0.0)
    m = MODELS["abm"]
    realized = sample_path(m, GRID, np.arange(40))
    _, ivp, extra = PAIRS[criterion]
    plan = ivp(params, realized, expected_path(m, GRID), *extra)
    q, r = _indexed_euler_loop(GRID.times, realized.values, plan.r.values[:, 0],
                               params.initial_inventory, params.impact,
                               LOOPED_DRIFTS[criterion])
    assert plan.q.values.tobytes() == q.tobytes()
    assert plan.r.values.tobytes() == r.tobytes()


def test_euler_stepper_refuses_weights_on_both_q_terms():
    # no criterion weights both q^2 and q S; the stepper has no kernel for it
    flat = SampledPath.constant(GRID, 100.0)
    with pytest.raises(DomainError, match="not both"):
        _euler_ivp(GRID.times, flat.values, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_every_grid_check_raises_grid_mismatch():
    expected = expected_path(MODELS["abm"], GRID)
    other = SampledPath.constant(TimeGrid.uniform(1.0, 7), 100.0)
    plan = good_exec_quadratic_closed(FIG2, expected, expected)
    calls = [
        lambda: ExecutionPlan(q=plan.q, r=other, strategy_tag="x"),
        lambda: terminal_penalty_optimal(FIG2, expected, other),
        lambda: challenger_plans(FIG2, expected, other, 1.0),
        lambda: cost_J("quadratic", FIG2, other, plan),
        lambda: audit_good_inequality("quadratic", FIG2, other, plan, perturbations=4, seed=1),
        lambda: good_exec_time_closed(FIG2, expected, other, AIRY),
        lambda: good_exec_var_closed(FIG2, expected, other),
    ]
    calls += [lambda ivp=ivp, extra=extra: ivp(FIG2, expected, other, *extra)
              for _, ivp, extra in PAIRS.values()]
    for call in calls:
        with pytest.raises(GridMismatchError):
            call()


def test_every_builder_rejects_a_grid_off_the_market_horizon():
    # params horizon 1 on a horizon-2 grid: a DomainError, never a plausible number
    grid = TimeGrid.uniform(2.0, 64)
    path = SampledPath.constant(grid, 100.0)
    calls = [
        lambda: static_optimal(FIG2, path),
        lambda: aposteriori_optimal(FIG2, path),
        lambda: terminal_penalty_optimal(FIG2, path, path),
        lambda: twap(FIG2, grid),
        lambda: challenger_plans(FIG2, path, path, 1.0),
    ]
    calls += [lambda build=build, extra=extra: build(FIG2, path, path, *extra)
              for closed, ivp, extra in PAIRS.values() for build in (closed, ivp)]
    for call in calls:
        with pytest.raises(DomainError, match="horizon"):
            call()


@pytest.mark.parametrize("criterion", sorted(PAIRS))
def test_terminal_inventory_unbiased_on_the_jump_model(criterion):
    # E[q_T] = x_T needs the true E[S_t]; with exp(m) as the forecast this
    # heavy-jump model gives z ~ -16 for every criterion at this seed
    model = OuJumpDiffusion(m=lambda t: np.full_like(np.asarray(t, dtype=float), math.log(100.0)),
                            alpha=5.0, sigma=0.2, lam=50.0, mark_sampler=two_point_marks(0.05))
    expected = expected_path(model, GRID)
    seeds = np.random.SeedSequence(2019).generate_state(10_000, np.uint64)
    build, _, extra = PAIRS[criterion]
    q_t = np.concatenate([build(FIG2, sample_path(model, GRID, block), expected, *extra).terminal
                          for block in np.split(seeds, 4)])
    stderr = q_t.std(ddof=1) / math.sqrt(q_t.size)
    assert abs(q_t.mean() - FIG2.target_inventory) <= 3.0 * stderr


@pytest.mark.parametrize("x_target", [500.0, -300.0])
@pytest.mark.parametrize("criterion", sorted(PAIRS))
def test_schedules_to_a_nonzero_target_are_optimal_and_unbiased(criterion, x_target):
    # every criterion prices the inventory q itself, not q - xT, so the target
    # enters the schedules only through the boundary condition E[q_T] = xT
    params = replace(FIG2, initial_inventory=1_000.0, target_inventory=x_target)
    m = MODELS["abm"]
    closed, ivp, extra = PAIRS[criterion]
    fine = TimeGrid.uniform(1.0, 4096)
    fine_expected = expected_path(m, fine)
    realized = sample_path(m, fine, 11)
    plan = closed(params, realized, fine_expected, *extra)
    report = audit_good_inequality(criterion, params, realized, plan, perturbations=1_000, seed=5)
    assert report.kept > 0 and not report.violations
    assert report.first_variation_gap < 1e-2
    # criterion 1's Brownian bound on the closed-vs-Euler gap
    stepped = ivp(params, realized, fine_expected, *extra)
    assert np.max(np.abs(stepped.q.values - plan.q.values)) <= 1e-2 * params.initial_inventory

    expected = expected_path(m, GRID)
    seeds = np.random.SeedSequence(7).generate_state(4_000, np.uint64)
    q_t = np.concatenate([closed(params, sample_path(m, GRID, block), expected, *extra).terminal
                          for block in np.split(seeds, 4)])
    stderr = q_t.std(ddof=1) / math.sqrt(q_t.size)
    assert abs(q_t.mean() - x_target) <= 3.0 * stderr
