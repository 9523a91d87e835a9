"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from pathexec import (
    ArithmeticBrownian,
    BrownianBridge,
    MarketParams,
    MidPriceSeries,
    OuJumpDiffusion,
    SampledPath,
    TimeGrid,
    airy_pair,
    aposteriori_optimal,
    audit_good_inequality,
    calibrate_ou_jump,
    challenger_plans,
    cost_J,
    detect_jumps,
    good_exec_quadratic_closed,
    good_exec_quadratic_ivp,
    good_exec_time_closed,
    good_exec_time_ivp,
    good_exec_var_closed,
    good_exec_var_ivp,
    resample,
    static_optimal,
    stieltjes_integral,
    terminal_penalty_optimal,
    two_point_marks,
    young_integral,
)
from pathexec.harness import ScenarioConfig, emit_plotdata, run_scenario
from pathexec.pricemodels import expected_path, sample_path, variance_path

FIG2 = MarketParams(impact=1.35, risk_aversion=1.15,
                    initial_inventory=10_000.0, horizon=1.0)
FIG3 = MarketParams(impact=0.05855, risk_aversion=0.07341,
                    initial_inventory=1_000.0, horizon=1.0)


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:>2} {name:<58} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {name}"


@pytest.fixture(scope="module")
def airy():
    return airy_pair(FIG2.risk_ratio ** (2.0 / 3.0) * FIG2.horizon, tol=1e-9)


@pytest.fixture(scope="module")
def mc_terminals(airy):
    """10^4 arithmetic-bm paths, terminal inventories of all three schedules."""
    grid = TimeGrid.uniform(1.0, 256)
    model = ArithmeticBrownian(s0=100.0, sigma=5.0)
    expected = expected_path(model, grid)
    seeds = np.random.SeedSequence(20_24).generate_state(10_000, np.uint64)
    start = time.time()
    realized = sample_path(model, grid, seeds)
    out = {"quadratic": good_exec_quadratic_closed(FIG2, realized, expected).terminal,
           "time": good_exec_time_closed(FIG2, realized, expected, airy).terminal,
           "var": good_exec_var_closed(FIG2, realized, expected).terminal}
    elapsed = time.time() - start
    return out, elapsed, grid, model


def _closed_ivp_gaps(builders, realized_fine, expected_fine, kind):
    gaps = []
    for k in (10, 11, 12, 13, 14):
        g = realized_fine.grid.restrict(2**k)
        s = resample(realized_fine, g, kind)
        e = resample(expected_fine, g, "linear")
        closed, ivp = builders
        gaps.append(float(np.max(np.abs(
            closed(FIG2, s, e).q.values - ivp(FIG2, s, e).q.values))))
    order = math.log2(gaps[0] / gaps[-1]) / 4.0
    return gaps, order


def test_criterion_1_closed_vs_ivp_agreement(airy):
    fine = TimeGrid.uniform(1.0, 2**14)
    brownian = sample_path(ArithmeticBrownian(s0=100.0, sigma=10.0), fine, 12_345)
    lipschitz = SampledPath.from_function(
        fine, lambda t: 100.0 + 10.0 * np.sin(2.0 * np.pi * t))
    flat = SampledPath.constant(fine, 100.0)

    builders = {
        "quadratic": (good_exec_quadratic_closed, good_exec_quadratic_ivp),
        "time": (lambda p, s, e: good_exec_time_closed(p, s, e, airy),
                 lambda p, s, e: good_exec_time_ivp(p, s, e, airy)),
        "var": (good_exec_var_closed, good_exec_var_ivp),
    }
    x0 = FIG2.initial_inventory
    ok = True
    for name, pair in builders.items():
        start = time.time()
        gaps_b, order_b = _closed_ivp_gaps(pair, brownian, flat, "previous")
        per_path = (time.time() - start) / 10.0
        gaps_l, order_l = _closed_ivp_gaps(pair, lipschitz, flat, "linear")
        ok_crit = (
            gaps_b[-1] <= 1e-2 * x0
            and order_b + 1e-6 >= 0.4
            and gaps_l[-1] <= 1e-4 * x0
            and order_l + 1e-6 >= 1.0
            and per_path <= 5.0
        )
        print(f"    [{name}] brownian sup {gaps_b[-1]:.3e} (order {order_b:.2f}), "
              f"lipschitz sup {gaps_l[-1]:.3e} (order {order_l:.2f}), "
              f"{per_path:.2f}s/path")
        ok = ok and ok_crit
    verdict(1, "closed-form vs Euler stepper agreement and order", ok)


def test_criterion_2_unbiasedness(mc_terminals):
    terminals, elapsed, _, _ = mc_terminals
    ok = elapsed <= 60.0
    for name, q_t in terminals.items():
        stderr = q_t.std(ddof=1) / math.sqrt(q_t.size)
        z = abs(q_t.mean()) / stderr
        print(f"    [{name}] mean qT {q_t.mean():+.4f}, stderr {stderr:.4f}, |z| {z:.2f}")
        ok = ok and abs(q_t.mean()) <= 3.0 * stderr
    print(f"    10^4 paths x 3 criteria in {elapsed:.1f}s")
    verdict(2, "terminal inventory unbiased across 10^4 paths", ok)


def test_criterion_3_variance_bound(mc_terminals):
    terminals, _, grid, model = mc_terminals
    q_t = terminals["quadratic"]
    var = q_t.var(ddof=1)
    centered = q_t - q_t.mean()
    var_se = math.sqrt(max(np.mean(centered**4) - var**2, 0.0) / q_t.size)
    t = grid.times
    c1, c3 = FIG2.impact, FIG2.risk_ratio
    var_s = variance_path(model, grid).values
    bound = FIG2.horizon / (4.0 * c1**4) * np.trapezoid(
        np.cosh(c3 * (FIG2.horizon - t)) ** 2 * var_s, t)
    print(f"    Var(qT) {var:.4f} <= bound {bound:.4f} + 2se {2 * var_se:.4f}")
    verdict(3, "terminal variance respects the dispersion bound", var <= bound + 2.0 * var_se)


def test_criterion_4_pathwise_inequality_audit():
    grid = TimeGrid.uniform(1.0, 2**12)
    params = MarketParams(impact=1.35, risk_aversion=1.15,
                          initial_inventory=1_000.0, horizon=1.0)
    model = ArithmeticBrownian(s0=100.0, sigma=5.0)
    expected = expected_path(model, grid)
    seeds = np.random.SeedSequence(4_44).generate_state(100, np.uint64)
    total_kept = total_violations = 0
    for i, s in enumerate(seeds):
        realized = sample_path(model, grid, int(s))
        plan = good_exec_quadratic_closed(params, realized, expected)
        report = audit_good_inequality("quadratic", params, realized, plan,
                                       perturbations=1_000, seed=1_000 + i)
        total_kept += report.kept
        total_violations += len(report.violations)
    print(f"    kept {total_kept} tubular perturbations over 100 paths, "
          f"{total_violations} violations")
    verdict(4, "zero tubular-cost violations beyond 1e-9(1+|J|)",
            total_violations == 0 and total_kept > 0)


def test_criterion_5_degeneration_identities(grid):
    model = ArithmeticBrownian(s0=100.0, sigma=5.0)
    expected = expected_path(model, grid)
    realized = sample_path(model, grid, 3_14)
    x0 = FIG2.initial_inventory

    static = static_optimal(FIG2, expected)
    good_on_forecast = good_exec_quadratic_closed(FIG2, expected, expected)
    gap_static = np.max(np.abs(static.q.values - good_on_forecast.q.values))

    apost = aposteriori_optimal(FIG2, realized)
    good_realized_k = good_exec_quadratic_closed(FIG2, realized, realized)
    gap_apost = np.max(np.abs(apost.q.values - good_realized_k.q.values))

    neutral = MarketParams(impact=1.35, risk_aversion=0.0,
                           initial_inventory=10_000.0, horizon=1.0)
    gap_var = np.max(np.abs(
        good_exec_quadratic_closed(neutral, realized, expected).q.values
        - good_exec_var_closed(neutral, realized, expected).q.values))

    print(f"    forecast-fed == static: {gap_static:.2e}; realized-K == "
          f"a-posteriori: {gap_apost:.2e}; c2=0 quad == var: {gap_var:.2e}")
    tol = 1e-10  # absolute, in inventory units
    verdict(5, "degeneration identities at 1e-10",
            gap_static <= tol and gap_apost <= tol and gap_var <= tol)


def test_criterion_6_terminal_penalty_baseline(grid):
    expected = SampledPath.constant(grid, 100.0)
    drift = SampledPath.constant(grid, 0.0)
    x0 = FIG2.initial_inventory
    p_pen = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=x0,
                         horizon=1.0, terminal_penalty=0.7 * 1.35)
    plan = terminal_penalty_optimal(p_pen, expected, drift)
    c3, c6 = p_pen.risk_ratio, p_pen.penalty_ratio
    q_t_formula = c3 * x0 / (c3 * math.cosh(c3) + c6**2 * math.sinh(c3))
    gap_terminal = abs(plan.terminal - q_t_formula)

    p_big = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=x0,
                         horizon=1.0, terminal_penalty=1e6 * 1.35)
    plan_big = terminal_penalty_optimal(p_big, expected, drift)
    sinh_profile = x0 * np.sinh(c3 * (1.0 - grid.times)) / math.sinh(c3)
    gap_limit = np.max(np.abs(plan_big.q.values - sinh_profile))

    print(f"    qT formula gap {gap_terminal:.2e}; c6=1e6 vs sinh profile "
          f"{gap_limit:.2e}")
    verdict(6, "terminal-penalty terminal value and fuel-constrained limit",
            gap_terminal <= 1e-10 and gap_limit <= 1e-4 * x0)


def test_criterion_7_reduction_to_static():
    grid = TimeGrid.uniform(1.0, 128)
    params = MarketParams(impact=1.35, risk_aversion=1.15,
                          initial_inventory=1_000.0, horizon=1.0)
    model = ArithmeticBrownian(s0=100.0, sigma=2.0)
    expected = expected_path(model, grid)
    static = static_optimal(params, expected)
    seeds = np.random.SeedSequence(7_77).generate_state(10_000, np.uint64)
    realized = sample_path(model, grid, seeds)
    j_static = cost_J("quadratic", params, realized, static)
    excess = {ch.strategy_tag: cost_J("quadratic", params, realized, ch) - j_static
              for ch in challenger_plans(params, realized, expected, feedback=5.0)}
    ok = True
    for tag, d in excess.items():
        se = d.std(ddof=1) / math.sqrt(d.size)
        print(f"    {tag:<14} mean excess {d.mean():>12.2f} (2se {2 * se:.2f})")
        ok = ok and d.mean() >= -2.0 * se
    verdict(7, "static optimum undominated by adapted challengers", ok)


def test_criterion_8_young_calculus_suite():
    fine = TimeGrid.uniform(1.0, 2**16)
    ok = True

    # smooth-case analytic oracles at N=2^16
    lin = SampledPath.from_function(fine, lambda t: t)
    sq = SampledPath.from_function(fine, lambda t: t**2)
    young_err = abs(young_integral(lin, lin, 0.0, 1.0) - 0.5)
    stielt_err = abs(stieltjes_integral(lin, sq, 0.0, 1.0) - 2.0 / 3.0)
    ok = ok and young_err <= 1e-4 and stielt_err <= 1e-4

    # residual decay rates under dyadic refinement
    rates = {}
    for label, path_fine, kind in (
        ("brownian", sample_path(ArithmeticBrownian(100.0, 1.0), fine, 2_024), "previous"),
        ("lipschitz", SampledPath.from_function(fine, lambda t: np.cos(3 * t)), "linear"),
    ):
        residuals = []
        for k in (10, 12, 14):
            g = fine.restrict(2**k)
            s = resample(path_fine, g, kind)
            eta = SampledPath.from_function(g, np.sin)
            lhs = young_integral(eta, s, 0.0, 1.0) + stieltjes_integral(s, eta, 0.0, 1.0)
            boundary = eta.values[-1] * s.values[-1] - eta.values[0] * s.values[0]
            residuals.append(abs(lhs - boundary))
        rates[label] = math.log2(residuals[0] / residuals[-1]) / 4.0
    print(f"    smooth errors {young_err:.1e}/{stielt_err:.1e}; ibp orders "
          f"brownian {rates['brownian']:.2f}, lipschitz {rates['lipschitz']:.2f}")
    ok = ok and rates["brownian"] + 1e-6 >= 0.5 and rates["lipschitz"] + 1e-6 >= 1.0
    verdict(8, "young-calculus residual rates and smooth oracles", ok)


def test_criterion_9_airy_suite(airy):
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    bi0 = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 / 3.0)
    ok = abs(float(airy.ai(0.0)) - ai0) <= 1e-9
    ok = ok and abs(float(airy.bi(0.0)) - bi0) <= 1e-9
    xs = np.random.default_rng(9).uniform(0.0, airy.x_max, size=50)
    res = airy.ode_residual(xs)
    ok = ok and np.all(res <= 1e-8 * (1.0 + np.abs(airy.bi(xs))))
    w = airy.wronskian(np.linspace(0.0, airy.x_max, 64))
    wr_dev = float(np.max(np.abs(w - 1.0 / math.pi)))
    ok = ok and wr_dev <= 1e-8
    print(f"    Ai(0) err {abs(float(airy.ai(0.0)) - ai0):.1e}, max residual "
          f"{float(np.max(res)):.1e}, wronskian dev {wr_dev:.1e}")
    verdict(9, "airy pair matches series anchors, ode and wronskian", ok)


def test_criterion_10_calibration_round_trip():
    model = OuJumpDiffusion(
        m=lambda t: np.full_like(np.asarray(t, dtype=float), math.log(100.0)),
        alpha=5.0, sigma=0.02, lam=10.0, mark_sampler=two_point_marks(0.01))
    grid = TimeGrid.uniform(50.0, 100_000)
    s = sample_path(model, grid, seed=20_26)
    fit = calibrate_ou_jump(MidPriceSeries(grid.times, s.values), window=50.0, k=4.0)
    rel = {
        "alpha": abs(fit.ou.alpha - 5.0) / 5.0,
        "sigma": abs(fit.ou.sigma - 0.02) / 0.02,
        "lambda": abs(fit.jumps.intensity - 10.0) / 10.0,
    }
    ok = all(v <= 0.15 for v in rel.values())

    # recall of injected marks at k = 3 on a pure OU background
    clean = OuJumpDiffusion(
        m=lambda t: np.full_like(np.asarray(t, dtype=float), math.log(100.0)),
        alpha=5.0, sigma=0.02, lam=0.0)
    base = np.log(sample_path(clean, grid, seed=5).values) - math.log(100.0)
    rng = np.random.default_rng(6)
    idx = rng.choice(np.arange(1, len(grid)), size=500, replace=False)
    steps = np.zeros_like(base)
    steps[idx] = 0.01 * rng.choice([-1.0, 1.0], size=500)
    det = detect_jumps(SampledPath(grid, base + np.cumsum(steps)),
                       alpha=5.0, sigma=0.02, k=3.0)
    hit = set(np.round(det.times, 12).tolist())
    recall = float(np.mean([float(t) in hit for t in np.round(grid.times[idx], 12)]))
    ok = ok and recall >= 0.95
    print(f"    rel errors alpha {rel['alpha']:.3f}, sigma {rel['sigma']:.3f}, "
          f"lambda {rel['lambda']:.3f}; recall {recall:.3f}")
    verdict(10, "jump-diffusion parameters recovered within 15%", ok)


def test_criterion_11_bond_scenario_pipeline(tmp_path):
    model = BrownianBridge(s0=103.893, face_value=100.0, sigma=1.1642, maturity=1.0)
    config = ScenarioConfig(
        model=model, params=FIG3, criterion="quadratic", grid_steps=512,
        paths=100, seed=33,
        strategy_tags=("good-quadratic-closed", "static", "aposteriori"),
        dump_trajectories=True,
    )
    artifact = run_scenario(config)
    files_a = emit_plotdata(artifact, str(tmp_path / "a"))
    files_b = emit_plotdata(run_scenario(config), str(tmp_path / "b"))
    byte_stable = all(
        open(fa, "rb").read() == open(fb, "rb").read()
        for fa, fb in zip(files_a, files_b)
    )

    # when the price runs above its expected trend the adaptive schedule
    # sells faster than the static one (rate gap sign check)
    majority = 0
    for tb in artifact.trajectories:
        price_gap = tb.price - tb.expected
        static_rate = np.gradient(tb.q_static, tb.times)
        mask = np.abs(price_gap) > 1e-9
        agree = np.mean(
            np.sign(static_rate[mask] - tb.rate_good[mask]) == np.sign(price_gap[mask]))
        majority += agree > 0.5
    print(f"    deterministic rerun byte-stable: {byte_stable}; "
          f"steeper-when-above majority on {majority}/100 paths")
    verdict(11, "bond-liquidation pipeline runs and reacts correctly",
            byte_stable and majority > 50 and len(files_a) == 101)
