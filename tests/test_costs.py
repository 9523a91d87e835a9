import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathexec import (
    ArithmeticBrownian,
    DomainError,
    MarketParams,
    SampledPath,
    TimeGrid,
    aposteriori_optimal,
    audit_good_inequality,
    cost_J,
    good_exec_quadratic_closed,
    good_exec_time_closed,
    good_exec_var_closed,
    airy_pair,
    liquidation_stats,
    pathwise_f_weight,
    twap,
)
from pathexec.costs import _quadratic_form
from pathexec.pricemodels import expected_path, sample_path, variance_path
from pathexec.strategies import Certificate, ExecutionPlan
from dataclasses import replace

PARAMS = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=1_000.0, horizon=1.0)


def test_cost_zero_plan_is_free(grid, brownian_path):
    zero = SampledPath.constant(grid, 0.0)
    plan = ExecutionPlan(q=zero, r=zero, strategy_tag="null", criterion_tag="quadratic")
    for crit in ("quadratic", "time", "var"):
        assert cost_J(crit, PARAMS, brownian_path, plan) == 0.0


def test_cost_twap_zero_price_analytic(grid):
    zero_price = SampledPath.constant(grid, 0.0)
    plan = twap(PARAMS, grid)
    c1, c2, x0 = PARAMS.impact, PARAMS.risk_aversion, 1_000.0
    expected = c1**2 * x0**2 / 1.0 + c2**2 * x0**2 / 3.0
    assert cost_J("quadratic", PARAMS, zero_price, plan) == pytest.approx(expected, rel=1e-6)


def test_cost_quadratic_equals_var_when_risk_neutral(grid, brownian_path):
    p0 = MarketParams(impact=1.35, risk_aversion=0.0,
                      initial_inventory=1_000.0, horizon=1.0)
    plan = twap(p0, grid)
    a = cost_J("quadratic", p0, brownian_path, plan)
    b = cost_J("var", p0, brownian_path, plan)
    assert a == b


def test_cost_unknown_criterion(grid, brownian_path):
    plan = twap(PARAMS, grid)
    with pytest.raises(DomainError):
        cost_J("entropy", PARAMS, brownian_path, plan)


def test_f_weight_examples(grid):
    zero = SampledPath.constant(grid, 0.0)
    assert pathwise_f_weight("quadratic", PARAMS, zero) == 0.0
    lin = SampledPath.from_function(grid, lambda t: t)
    c1, c2 = PARAMS.impact, PARAMS.risk_aversion
    assert pathwise_f_weight("quadratic", PARAMS, lin) == pytest.approx(
        math.sqrt(c2**2 / 3.0 + c1**2), rel=1e-4)
    # var criterion only sees the derivative
    sin_path = SampledPath.from_function(grid, np.sin)
    shifted = SampledPath(grid, sin_path.values + 123.0)
    assert pathwise_f_weight("var", PARAMS, sin_path) == pytest.approx(
        pathwise_f_weight("var", PARAMS, shifted), rel=1e-12)
    # time criterion weights the level by sqrt(t)
    got = pathwise_f_weight("time", PARAMS, lin)
    assert got == pytest.approx(math.sqrt(c2**2 / 4.0 + c1**2), rel=1e-4)


@given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_f_weight_triangle_inequality(seed, scale):
    g = TimeGrid.uniform(1.0, 128)
    rng = np.random.default_rng(seed)
    a = SampledPath(g, scale * rng.standard_normal(len(g)))
    b = SampledPath(g, scale * rng.standard_normal(len(g)))
    ab = SampledPath(g, a.values + b.values)
    for crit in ("quadratic", "time", "var"):
        wa = pathwise_f_weight(crit, PARAMS, a)
        wb = pathwise_f_weight(crit, PARAMS, b)
        wab = pathwise_f_weight(crit, PARAMS, ab)
        assert wab <= wa + wb + 1e-9 * (1.0 + wa + wb)


def test_f_weight_triangle_inequality_bulk():
    g = TimeGrid.uniform(1.0, 128)
    rng = np.random.default_rng(123)
    for _ in range(1000):
        a = SampledPath(g, rng.standard_normal(len(g)))
        b = SampledPath(g, rng.standard_normal(len(g)))
        ab = SampledPath(g, a.values + b.values)
        wa = pathwise_f_weight("quadratic", PARAMS, a)
        wb = pathwise_f_weight("quadratic", PARAMS, b)
        assert pathwise_f_weight("quadratic", PARAMS, ab) <= wa + wb + 1e-9 * (1.0 + wa + wb)


def test_cost_decomposition_reconciles_with_f_weight(grid):
    # with S = 0 the quadratic cost of a plan is exactly its squared F-weight
    zero_price = SampledPath.constant(grid, 0.0)
    q = SampledPath.from_function(grid, lambda t: 1_000.0 * (1.0 - t) ** 2)
    r = SampledPath.from_function(grid, lambda t: -2_000.0 * (1.0 - t))
    plan = ExecutionPlan(q=q, r=r, strategy_tag="x", criterion_tag="quadratic")
    j = cost_J("quadratic", PARAMS, zero_price, plan)
    w = pathwise_f_weight("quadratic", PARAMS, q, rate=r.values)
    assert j == pytest.approx(w**2, rel=1e-10)


@pytest.mark.parametrize("criterion", ["quadratic", "time", "var"])
def test_audit_zero_violations(criterion, grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    if criterion == "quadratic":
        plan = good_exec_quadratic_closed(PARAMS, brownian_path, e)
    elif criterion == "var":
        plan = good_exec_var_closed(PARAMS, brownian_path, e)
    else:
        airy = airy_pair(PARAMS.risk_ratio ** (2.0 / 3.0), 1e-9)
        plan = good_exec_time_closed(PARAMS, brownian_path, e, airy)
    report = audit_good_inequality(criterion, PARAMS, brownian_path, plan,
                                   perturbations=400, seed=11)
    assert report.ok
    assert 0 < report.kept <= report.checked
    assert report.tolerance == pytest.approx(1e-9 * (1.0 + abs(report.j_value)))


def test_audit_compact_support_always_clean(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    plan = good_exec_quadratic_closed(PARAMS, brownian_path, e)
    report = audit_good_inequality("quadratic", PARAMS, brownian_path, plan,
                                   perturbations=300, seed=5, endpoint_bump=False)
    assert report.kept == report.checked  # e_T = 0 is always a member
    assert report.ok


def test_audit_determinism(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    plan = good_exec_quadratic_closed(PARAMS, brownian_path, e)
    a = audit_good_inequality("quadratic", PARAMS, brownian_path, plan, 100, seed=42)
    b = audit_good_inequality("quadratic", PARAMS, brownian_path, plan, 100, seed=42)
    assert a == b


def test_audit_flags_a_non_optimal_plan(grid, brownian_path):
    # TWAP with a forged certificate is not pathwise optimal: the audit sees it
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    good = good_exec_quadratic_closed(PARAMS, brownian_path, e)
    fake = replace(twap(PARAMS, grid), certificate=good.certificate)
    report = audit_good_inequality("quadratic", PARAMS, brownian_path, fake,
                                   perturbations=300, seed=1)
    assert not report.ok


def _dense_basis(t, horizon):
    # the 16 sine modes and the t/T ramp on the grid, with their derivatives
    k = np.arange(1, 17)
    basis = np.vstack([np.sin(np.outer(k, np.pi * t / horizon)), t / horizon])
    basis[:16, -1] = 0.0
    dbasis = np.vstack([(k[:, None] * np.pi / horizon) * np.cos(np.outer(k, np.pi * t / horizon)),
                        np.full_like(t, 1.0 / horizon)])
    return basis, dbasis


def _perturbed(plan, e, de):
    return ExecutionPlan(q=SampledPath(plan.grid, plan.q.values + e),
                         r=SampledPath(plan.grid, plan.r.values + de),
                         strategy_tag="pert", criterion_tag=plan.criterion_tag)


def _dense_audit(criterion, params, realized, plan, perturbations, seed):
    """Reference audit: every perturbation is built on the grid and costed by cost_J."""
    t, c1, c2 = realized.grid.times, params.impact, params.risk_aversion
    level = {"quadratic": c2**2, "time": c2**2 * t, "var": 0.0}[criterion]
    weight_sq = lambda e, de: np.trapezoid(level * e**2 + c1**2 * de**2, t, axis=1)
    basis, dbasis = _dense_basis(t, params.horizon)
    scale = 1e-3 * max(abs(params.initial_inventory), 1.0)
    k = np.arange(1, 17)
    coeffs = np.empty((perturbations, 16))
    bump_draws = np.empty(perturbations)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(perturbations)):
        rng = np.random.Generator(np.random.PCG64(child))
        coeffs[i] = rng.standard_normal(16) * scale / k
        bump_draws[i] = rng.uniform(-1.2, 1.2)
    e, de = coeffs @ basis[:16], coeffs @ dbasis[:16]
    xi = plan.certificate.xi
    bumps = bump_draws * (xi if math.isfinite(xi) else 1.0) * weight_sq(e, de)
    e, de = e + np.outer(bumps, basis[16]), de + np.outer(bumps, dbasis[16])
    member = np.abs(e[:, -1]) <= (np.inf if math.isinf(xi) else xi * weight_sq(e, de))
    j0 = cost_J(criterion, params, realized, plan)
    tol = 1e-9 * (1.0 + abs(j0))
    j_pert = np.array([cost_J(criterion, params, realized, _perturbed(plan, e[i], de[i]))
                       for i in range(perturbations)])
    bad = np.nonzero(member & (j_pert < j0 - tol))[0]
    return int(member.sum()), [(int(i), float(j0 - j_pert[i])) for i in bad], tol


def _good_plan(criterion, params, realized):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), realized.grid)
    if criterion == "quadratic":
        return good_exec_quadratic_closed(params, realized, e)
    if criterion == "var":
        return good_exec_var_closed(params, realized, e)
    airy = airy_pair(params.risk_ratio ** (2.0 / 3.0), 1e-9)
    return good_exec_time_closed(params, realized, e, airy)


@pytest.mark.parametrize("forged", [False, True, "xi=0", "xi=inf"])
@pytest.mark.parametrize("criterion", ["quadratic", "time", "var"])
def test_audit_matches_dense_reference(criterion, forged, grid, brownian_path):
    realized = brownian_path
    plan = _good_plan(criterion, PARAMS, realized)
    if forged:  # a non-optimal plan, so that the violation lists are not empty
        cert = {"xi=0": Certificate(xi=0.0), "xi=inf": Certificate(xi=math.inf)}
        plan = replace(twap(PARAMS, grid), certificate=cert.get(forged, plan.certificate))
    report = audit_good_inequality(criterion, PARAMS, realized, plan,
                                   perturbations=300, seed=17)
    kept, violations, tol = _dense_audit(criterion, PARAMS, realized, plan, 300, seed=17)
    assert report.kept == kept
    assert [i for i, _ in report.violations] == [i for i, _ in violations]
    assert bool(violations) == bool(forged)
    if forged in ("xi=0", "xi=inf"):
        # xi = 0 scales every endpoint bump to 0, so each e_T is exactly 0 and
        # on the boundary 0 <= 0; xi = inf leaves the neighbourhood unrestricted
        assert kept == 300
    for (_, got), (_, want) in zip(report.violations, violations):
        assert got == pytest.approx(want, abs=tol)


def _check_cost_identity(criterion, params, realized, plan, coef):
    basis, dbasis = _dense_basis(realized.grid.times, params.horizon)
    ell, gram, end = _quadratic_form(criterion, params, realized, plan)
    np.testing.assert_array_equal(end, basis[:, -1])
    j0 = cost_J(criterion, params, realized, plan)
    for c in coef:
        e, de = c @ basis, c @ dbasis
        want = cost_J(criterion, params, realized, _perturbed(plan, e, de)) - j0
        assert ell @ c + c @ gram @ c == pytest.approx(want, abs=1e-9 * (1.0 + abs(j0)))
        w = pathwise_f_weight(criterion, params, SampledPath(realized.grid, e), rate=de)
        assert c @ gram @ c == pytest.approx(w**2, rel=1e-9)


@pytest.mark.parametrize("criterion", ["quadratic", "time", "var"])
def test_quadratic_form_matches_cost_J(criterion, brownian_path):
    plan = _good_plan(criterion, PARAMS, brownian_path)
    coef = np.random.default_rng(8).standard_normal((5, 17))
    coef[1:] *= [[1e-3], [1.0], [30.0], [1e3]]  # from audit-sized to x0-sized
    _check_cost_identity(criterion, PARAMS, brownian_path, plan, coef)


@given(c1=st.floats(0.05, 5.0), c2=st.floats(0.0, 5.0),
       x0=st.floats(-1e4, 1e4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_quadratic_form_identity_property(c1, c2, x0, seed):
    params = MarketParams(impact=c1, risk_aversion=c2, initial_inventory=x0, horizon=1.0)
    realized = sample_path(ArithmeticBrownian(100.0, 5.0), TimeGrid.uniform(1.0, 128), seed)
    # the identity holds for any plan, optimal or not
    plan = good_exec_quadratic_closed(params, realized,
                                      expected_path(ArithmeticBrownian(100.0, 5.0), realized.grid))
    coef = np.random.default_rng(seed).standard_normal((3, 17)) * max(abs(x0), 1.0) * 1e-2
    for criterion in ("quadratic", "time", "var"):
        _check_cost_identity(criterion, params, realized, plan, coef)


def test_first_variation_gap_shrinks_under_refinement():
    fine = TimeGrid.uniform(1.0, 4096)
    path = sample_path(ArithmeticBrownian(100.0, 5.0), fine, seed=3)
    gaps = []
    for n in (512, 4096):
        realized = SampledPath(fine.restrict(n), path.values[:: 4096 // n])
        plan = _good_plan("quadratic", PARAMS, realized)
        report = audit_good_inequality("quadratic", PARAMS, realized, plan,
                                       perturbations=1, seed=0)
        gaps.append(report.first_variation_gap)
    # second order in the mesh: 64x per 8x refinement, asserted at 16x
    assert 0.0 < gaps[1] < gaps[0] / 16.0


def test_own_terminal_pinned_solution_coincides(grid, brownian_path):
    e = expected_path(ArithmeticBrownian(100.0, 5.0), grid)
    good = good_exec_quadratic_closed(PARAMS, brownian_path, e)
    pinned = aposteriori_optimal(replace(PARAMS, target_inventory=good.terminal),
                                 brownian_path)
    assert np.max(np.abs(good.q.values - pinned.q.values)) <= 1e-4 * 1_000.0


def test_liquidation_stats(grid):
    model = ArithmeticBrownian(100.0, 5.0)
    e = expected_path(model, grid)
    g_small = TimeGrid.uniform(1.0, 128)
    e_small = expected_path(model, g_small)
    seeds = np.random.SeedSequence(4).generate_state(2000, np.uint64)
    plan = good_exec_quadratic_closed(PARAMS, sample_path(model, g_small, seeds), e_small)
    stats = liquidation_stats([plan], 0.0, params=PARAMS,
                              variance=variance_path(model, g_small))
    assert abs(stats.mean_error) <= 3.0 * stats.stderr
    assert stats.within_bound
    # fuel-constrained plans have exactly zero error statistics
    tw = twap(PARAMS, g_small)
    exact = liquidation_stats([tw, tw, tw], 0.0)
    assert exact.mean_error == 0.0 and exact.variance == 0.0
    with pytest.raises(DomainError):
        liquidation_stats([tw], 0.0)
