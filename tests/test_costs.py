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
    twap,
)
from pathexec.costs import CRITERIA, _gram, _perturbation_matrix, _quadratic_form, _sine_basis
from pathexec.pathcalc import trapezoid
from pathexec.pricemodels import expected_path, sample_path
from pathexec.strategies import ExecutionPlan
from dataclasses import replace

PARAMS = MarketParams(impact=1.35, risk_aversion=1.15,
                      initial_inventory=1_000.0, horizon=1.0)


def pathwise_f_weight(criterion, params, eta, rate=None):
    """Reference F-weight of a perturbation, the oracle for the audit's Gram matrix.

    quadratic: sqrt( int c2^2 eta^2 + c1^2 eta'^2 )
    time:      sqrt( int c2^2 t eta^2 + c1^2 eta'^2 )
    var:       sqrt( int c1^2 eta'^2 )      (the level term drops out)

    The level weight is the running cost's ``a``.  The rate is taken by
    finite differences unless an analytic one is given.
    """
    t = eta.grid.times
    # central differences in the interior, one-sided at the ends
    d_eta = rate if rate is not None else np.gradient(eta.values, t)
    a, _ = CRITERIA[criterion](params.risk_aversion**2, t)
    sq = a * eta.values**2 + params.impact**2 * d_eta**2
    return math.sqrt(max(trapezoid(sq, t), 0.0))


def test_cost_zero_plan_is_free(grid, brownian_path):
    zero = SampledPath.constant(grid, 0.0)
    plan = ExecutionPlan(q=zero, r=zero)
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
    plan = ExecutionPlan(q=q, r=r)
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
    fake = replace(twap(PARAMS, grid), xi=good.xi)
    report = audit_good_inequality("quadratic", PARAMS, brownian_path, fake,
                                   perturbations=300, seed=1)
    assert not report.ok


def test_audit_needs_a_plan_with_xi(grid, brownian_path):
    # TWAP certifies nothing, so there is no neighbourhood to audit
    with pytest.raises(DomainError, match="audit needs xi"):
        audit_good_inequality("quadratic", PARAMS, brownian_path, twap(PARAMS, grid),
                              perturbations=10, seed=1)


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
                         r=SampledPath(plan.grid, plan.r.values + de))


def _dense_audit(criterion, params, realized, plan, perturbations, seed):
    """Reference audit: every perturbation is built on the grid and costed by cost_J."""
    t, c1, c2 = realized.grid.times, params.impact, params.risk_aversion
    level = {"quadratic": c2**2, "time": c2**2 * t, "var": 0.0}[criterion]
    weight_sq = lambda e, de: np.trapezoid(level * e**2 + c1**2 * de**2, t, axis=1)
    basis, dbasis = _dense_basis(t, params.horizon)
    scale = 1e-3 * max(abs(params.initial_inventory), 1.0)
    k = np.arange(1, 17)
    # two sub-streams of the seed: all sine coefficients, then all bumps
    sine_seq, bump_seq = np.random.SeedSequence(seed).spawn(2)
    coeffs = np.random.Generator(np.random.PCG64(sine_seq)).standard_normal((perturbations, 16))
    coeffs = coeffs * scale / k
    bump_draws = np.random.Generator(np.random.PCG64(bump_seq)).uniform(-1.2, 1.2, perturbations)
    e, de = coeffs @ basis[:16], coeffs @ dbasis[:16]
    xi = plan.xi
    bumps = bump_draws * (xi if math.isfinite(xi) else 1.0) * weight_sq(e, de)
    e, de = e + np.outer(bumps, basis[16]), de + np.outer(bumps, dbasis[16])
    member = np.abs(e[:, -1]) <= (np.inf if math.isinf(xi) else xi * weight_sq(e, de))
    j0 = cost_J(criterion, params, realized, plan)
    tol = 1e-9 * (1.0 + abs(j0))
    j_pert = np.array([cost_J(criterion, params, realized, _perturbed(plan, e[i], de[i]))
                       for i in range(perturbations)])
    bad = np.nonzero(member & (j_pert < j0 - tol))[0]
    return int(member.sum()), [(int(i), float(j0 - j_pert[i])) for i in bad], tol


@pytest.mark.parametrize("n", [1, 17, 300])
def test_perturbation_draw_is_a_prefix_of_a_larger_draw(n):
    coeffs, bumps = _perturbation_matrix(1_000, seed=17, scale=2.5)
    head_coeffs, head_bumps = _perturbation_matrix(n, seed=17, scale=2.5)
    assert coeffs.shape == (1_000, 16) and bumps.shape == (1_000,)
    assert np.array_equal(coeffs[:n], head_coeffs)
    assert np.array_equal(bumps[:n], head_bumps)


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
        xi = {"xi=0": 0.0, "xi=inf": math.inf}.get(forged, plan.xi)
        plan = replace(twap(PARAMS, grid), xi=xi)
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


def _uncached_quadratic_form(criterion, params, realized, plan):
    # _quadratic_form from scratch, expression for expression, with no cache
    t, s, horizon = realized.grid.times, realized.values, params.horizon
    k = np.arange(1, 17)[:, None]
    phase = k * (np.pi * t / horizon)
    basis = np.vstack([np.sin(phase), t / horizon])
    basis[:16, -1] = 0.0
    dbasis = np.vstack([(k * np.pi / horizon) * np.cos(phase), np.full_like(t, 1.0 / horizon)])
    dt = np.diff(t)
    w = 0.5 * (np.append(dt, 0.0) + np.insert(dt, 0, 0.0))
    c1sq, c2sq = params.impact**2, params.risk_aversion**2
    a, b = {"quadratic": (c2sq, 0.0), "time": (c2sq * t, 0.0), "var": (0.0, c2sq)}[criterion]
    ell = (basis @ (w * (2.0 * a * plan.q.values + b * s))
           + dbasis @ (w * (s + 2.0 * c1sq * plan.r.values)))
    gram = (basis * (w * a)) @ basis.T + c1sq * (dbasis * w) @ dbasis.T
    return ell, gram, basis[:, -1]


def test_cached_quadratic_form_matches_an_uncached_one():
    # each variant differs from PARAMS in one key component of the caches (the
    # horizon by one ulp, which a plan on a [0, 1] grid accepts), so a key
    # that dropped it would hand one call the entry of another
    variants = [PARAMS, replace(PARAMS, impact=1.2), replace(PARAMS, risk_aversion=0.9),
                replace(PARAMS, horizon=float(np.nextafter(1.0, 2.0)))]
    grids = [TimeGrid.uniform(1.0, 4096), TimeGrid(np.linspace(0.0, 1.0, 1025) ** 2)]
    paths = [sample_path(ArithmeticBrownian(100.0, 5.0), g, seed=6) for g in grids]
    for _ in range(2):
        for params in variants:
            for realized in paths:
                plan = _good_plan("quadratic", params, realized)
                for criterion in ("quadratic", "time", "var"):
                    got = _quadratic_form(criterion, params, realized, plan)
                    want = _uncached_quadratic_form(criterion, params, realized, plan)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_cached_pieces_are_read_only_and_errors_are_not_cached(grid, brownian_path):
    plan = _good_plan("time", PARAMS, brownian_path)
    _, gram, end = _quadratic_form("time", PARAMS, brownian_path, plan)
    times = grid.times.tobytes()
    level, _, same_gram = _gram("time", PARAMS.impact, PARAMS.risk_aversion, PARAMS.horizon,
                                times)
    assert same_gram is gram
    cached = [gram, end, level, *_sine_basis(PARAMS.horizon, times)]
    for array in cached:
        with pytest.raises(ValueError):
            array[..., 0] = 1.0
    for _ in range(2):
        with pytest.raises(DomainError):
            audit_good_inequality("nope", PARAMS, brownian_path, plan, 10, seed=0)
        with pytest.raises(DomainError):
            _quadratic_form("nope", PARAMS, brownian_path, plan)


def test_audits_on_one_grid_build_the_sine_basis_once():
    grid = TimeGrid.uniform(1.0, 512)
    _sine_basis.cache_clear()
    _gram.cache_clear()
    for seed in range(10):
        realized = sample_path(ArithmeticBrownian(100.0, 5.0), grid, seed)
        criterion = ("quadratic", "time", "var")[seed % 3]
        plan = _good_plan(criterion, PARAMS, realized)
        audit_good_inequality(criterion, PARAMS, realized, plan, 100, seed=seed)
    assert _sine_basis.cache_info().misses == 1
    assert _gram.cache_info().misses == 3  # one per criterion


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
                                 brownian_path, good_exec_quadratic_closed)
    assert np.max(np.abs(good.q.values - pinned.q.values)) <= 1e-4 * 1_000.0
