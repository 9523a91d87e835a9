"""The path-batched engine equals the one-path API, bit for bit.

``run_scenario`` evaluates strategies on blocks of paths with a leading path
axis.  The reference below is the per-path loop over the public 1-D builders
and ``cost_J``, aggregated the way a list of per-path floats is.

The block and the one-path API share their arithmetic, so the Euler
steppers' rows are also checked against an independent loop in Python
floats.  Each check runs at the desk's x0 = 10^4 on 64 steps, and again at
x0 = 0 with a small nonzero target on 60 steps.  At x0 = 10^4 the rate stays
in one binade, where a reordered sum rounds the same, and a step of 1/64
scales exactly; from x0 = 0 the rate crosses zero, and with steps of 1/60 a
reordered sum or product shows.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pathexec import (
    ConfigError,
    DomainError,
    MarketParams,
    SampledPath,
    TimeGrid,
    airy_pair,
    aposteriori_optimal,
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
)
from pathexec import harness
from pathexec.costs import CRITERIA
from pathexec.harness import ALL_STRATEGIES, GOOD_STRATEGIES, ScenarioConfig, run_scenario
from pathexec.pricemodels import ArithmeticBrownian, expected_path, sample_path

PARAMS = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0, horizon=1.0)
MODEL = ArithmeticBrownian(s0=100.0, sigma=5.0)
GRID = TimeGrid.uniform(1.0, 64)
ZERO_START = replace(PARAMS, initial_inventory=0.0, target_inventory=3.0)
ZERO_START_GRID = TimeGrid.uniform(1.0, 60)
# x0, x_T and the grid leave the urgency, and so the Airy basis, unchanged
AIRY = airy_pair(PARAMS.risk_ratio ** (2.0 / 3.0) * PARAMS.horizon, tol=1e-9)


def _expected(s):
    return expected_path(MODEL, s.grid)


BUILDERS = {
    "good-quadratic-closed": lambda p, s: good_exec_quadratic_closed(p, s, _expected(s)),
    "good-quadratic-ivp": lambda p, s: good_exec_quadratic_ivp(p, s, _expected(s)),
    "good-time-closed": lambda p, s: good_exec_time_closed(p, s, _expected(s), AIRY),
    "good-time-ivp": lambda p, s: good_exec_time_ivp(p, s, _expected(s), AIRY),
    "good-var-closed": lambda p, s: good_exec_var_closed(p, s, _expected(s)),
    "good-var-ivp": lambda p, s: good_exec_var_ivp(p, s, _expected(s)),
    "static": lambda p, s: static_optimal(p, _expected(s)),
    "aposteriori": lambda p, s: aposteriori_optimal(p, s),
    "terminal-penalty": lambda p, s: terminal_penalty_optimal(p, _expected(s), _expected(s)),
    "twap": lambda p, s: twap(p, s.grid),
}
BLOCK_TAGS = [t for t in BUILDERS if t in GOOD_STRATEGIES + ("aposteriori",)]
# dr = drift(t, q, S) dt - dS/(2 c1^2), each drift as its stepper writes it
IVP_DRIFTS = {
    "good-quadratic-ivp": lambda p, t, q, s: p.risk_ratio**2 * q,
    "good-time-ivp": lambda p, t, q, s: p.risk_ratio**2 * t * q,
    "good-var-ivp": lambda p, t, q, s: 0.5 * p.risk_ratio**2 * s,
}


def _euler_loop(tag, params, path, r0):
    """One path stepped in Python floats: q += r dt; r = (r + drift dt) - dS/(2 c1^2)."""
    t, s = path.grid.times.tolist(), path.values.tolist()
    q, r = [params.initial_inventory], [r0]
    for i in range(len(t) - 1):
        dt = t[i + 1] - t[i]
        q.append(q[i] + r[i] * dt)
        r.append(r[i] + IVP_DRIFTS[tag](params, t[i], q[i], s[i]) * dt
                 - (s[i + 1] - s[i]) / (2.0 * params.impact**2))
    return np.array(q), np.array(r)


def at_both_starts(cases):
    """Each case with PARAMS on GRID under its own id, then with ZERO_START."""
    return ([pytest.param(*c.values, PARAMS, GRID, id=c.id) for c in cases]
            + [pytest.param(*c.values, ZERO_START, ZERO_START_GRID, id=f"{c.id}-x0-0")
               for c in cases])


def _reference(config):
    """The per-path loop: 1-D builders, one cost_J per (path, strategy)."""
    params, grid = config.params, config.grid()
    seeds = np.random.SeedSequence(config.seed).generate_state(config.paths, np.uint64)
    cost = {tag: [] for tag in config.strategy_tags}
    term = {tag: [] for tag in config.strategy_tags}
    xi = {tag: [] for tag in config.strategy_tags}
    panels = []
    for seed in seeds:
        realized = sample_path(MODEL, grid, int(seed))
        plans = {tag: build(params, realized) for tag, build in BUILDERS.items()}
        for tag in config.strategy_tags:
            j = cost_J(config.criterion, params, realized, plans[tag])
            assert isinstance(j, float) and isinstance(plans[tag].terminal, float)
            cost[tag].append(j)
            term[tag].append(plans[tag].terminal - params.target_inventory)
            xi[tag].append(plans[tag].xi)
        good = plans[f"good-{config.criterion}-closed"]
        panels.append(dict(times=grid.times, price=realized.values,
                           expected=_expected(realized).values,
                           q_static=plans["static"].q.values, q_good=good.q.values,
                           q_aposteriori=plans["aposteriori"].q.values,
                           rate_good=good.r.values))
    stats = []
    for tag in config.strategy_tags:
        c, e = np.array(cost[tag]), np.array(term[tag])
        xi_q = None
        finite = np.array([x for x in xi[tag] if x is not None and math.isfinite(x)])
        if tag in GOOD_STRATEGIES and finite.size:
            assert all(isinstance(x, float) for x in xi[tag])
            xi_q = {f"q{int(100 * p)}": float(np.quantile(finite, p)) for p in (0.1, 0.5, 0.9)}
        stats.append(harness.StrategyStats(
            tag=tag, mean_cost=float(c.mean()),
            cost_stderr=float(c.std(ddof=1) / math.sqrt(c.size)),
            mean_terminal_error=float(e.mean()),
            terminal_stderr=float(e.std(ddof=1) / math.sqrt(e.size)),
            xi_quantiles=xi_q))
    return stats, panels


@pytest.mark.parametrize("criterion, block_paths, params, grid", at_both_starts(
    [pytest.param(c, 64, id=f"{c}-64") for c in CRITERIA] + [pytest.param("time", 7, id="time-7")]
    + [pytest.param("quadratic", None, id="quadratic-budget")]))
def test_run_scenario_equals_per_path_loop(criterion, block_paths, params, grid, monkeypatch):
    # the default budget holds all 130 paths of grid 64 in one block; a budget
    # of block_paths rows makes blocks of that many paths and an uneven last one
    if block_paths is not None:
        monkeypatch.setattr(harness, "BLOCK_ELEMENTS", block_paths * grid.times.size)
    config = ScenarioConfig(model=MODEL, params=params, criterion=criterion,
                            grid_steps=grid.times.size - 1, paths=130, seed=4242,
                            strategy_tags=ALL_STRATEGIES, dump_trajectories=True)
    artifact = run_scenario(config)
    stats, panels = _reference(config)
    assert artifact.stats == stats
    assert len(artifact.trajectories) == len(panels) == 130
    for bundle, panel in zip(artifact.trajectories, panels):
        for name, values in panel.items():
            assert np.array_equal(getattr(bundle, name), values), name


def test_repeated_tag_is_a_config_error():
    # summary.json keys its rows by tag, so a repeated tag would print a row it cannot hold
    config = ScenarioConfig(model=MODEL, params=PARAMS, grid_steps=GRID.times.size - 1,
                            paths=3, seed=5, strategy_tags=("static", "twap", "static"))
    with pytest.raises(ConfigError, match="^strategy tag 'static' is listed twice$"):
        run_scenario(config)


def _block(paths=5, grid=GRID):
    seeds = np.random.SeedSequence(77).generate_state(paths, np.uint64)
    return sample_path(MODEL, grid, seeds)


@pytest.mark.parametrize("tag, params, grid",
                         at_both_starts([pytest.param(t, id=t) for t in BLOCK_TAGS]))
def test_builders_on_a_block_equal_row_by_row(tag, params, grid):
    block = _block(grid=grid)
    plan = BUILDERS[tag](params, block)
    assert plan.q.values.shape == plan.r.values.shape == block.values.shape
    for i, row in enumerate(block.values):
        path = SampledPath(grid, row)
        single = BUILDERS[tag](params, path)
        assert np.array_equal(plan.q.values[i], single.q.values)
        assert np.array_equal(plan.r.values[i], single.r.values)
        assert plan.terminal[i] == single.terminal
        assert plan.xi[i] == single.xi
        assert isinstance(single.terminal, float) and isinstance(single.xi, float)
        if tag in IVP_DRIFTS:
            q, r = _euler_loop(tag, params, path, float(single.r.values[0]))
            assert single.q.values.tobytes() == q.tobytes()
            assert single.r.values.tobytes() == r.tobytes()


@pytest.mark.parametrize("criterion, params, grid",
                         at_both_starts([pytest.param(c, id=c) for c in CRITERIA]))
def test_cost_on_a_block_equals_row_by_row(criterion, params, grid):
    block = _block(grid=grid)
    expected = _expected(block)
    rows = [SampledPath(grid, row) for row in block.values]
    adaptive = good_exec_quadratic_closed(params, block, expected)
    fixed = static_optimal(params, expected)
    for plan, per_row in ((adaptive, [good_exec_quadratic_closed(params, r, expected)
                                      for r in rows]),
                          (fixed, [fixed] * len(rows))):
        costs = cost_J(criterion, params, block, plan)
        singles = [cost_J(criterion, params, r, p) for r, p in zip(rows, per_row)]
        assert all(isinstance(j, float) for j in singles)
        assert costs.shape == (len(rows),) and costs.tolist() == singles


@pytest.mark.parametrize("tag", BLOCK_TAGS)
def test_one_bad_path_fails_the_whole_block(tag):
    values = _block().values.copy()
    # finite, but its increments and running integrals overflow
    values[2] = 1.7e308
    values[2, :GRID.times.size // 2:2] = -1.7e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="finite"):
        BUILDERS[tag](PARAMS, SampledPath(GRID, values))


def test_block_paths_must_be_finite():
    values = _block().values.copy()
    values[3, 10] = np.nan
    with pytest.raises(DomainError, match="path values must be finite"):
        SampledPath(GRID, values)
    with pytest.raises(DomainError, match="equal length"):
        SampledPath(GRID, values[:, :-1])
