"""The path-batched engine equals the one-path API, bit for bit.

``run_scenario`` evaluates strategies on blocks of paths with a leading path
axis.  The reference below is the per-path loop over the public 1-D builders
and ``cost_J``, aggregated the way a list of per-path floats is.
"""

import math

import numpy as np
import pytest

from pathexec import (
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
EXPECTED = expected_path(MODEL, GRID)
AIRY = airy_pair(PARAMS.risk_ratio ** (2.0 / 3.0) * PARAMS.horizon, tol=1e-9)

BUILDERS = {
    "good-quadratic-closed": lambda s: good_exec_quadratic_closed(PARAMS, s, EXPECTED),
    "good-quadratic-ivp": lambda s: good_exec_quadratic_ivp(PARAMS, s, EXPECTED),
    "good-time-closed": lambda s: good_exec_time_closed(PARAMS, s, EXPECTED, AIRY),
    "good-time-ivp": lambda s: good_exec_time_ivp(PARAMS, s, EXPECTED, AIRY),
    "good-var-closed": lambda s: good_exec_var_closed(PARAMS, s, EXPECTED),
    "good-var-ivp": lambda s: good_exec_var_ivp(PARAMS, s, EXPECTED),
    "static": lambda s: static_optimal(PARAMS, EXPECTED),
    "aposteriori": lambda s: aposteriori_optimal(PARAMS, s),
    "terminal-penalty": lambda s: terminal_penalty_optimal(
        PARAMS, EXPECTED, SampledPath.constant(GRID, 0.0)),
    "twap": lambda s: twap(PARAMS, GRID),
}


def _reference(config):
    """The per-path loop: 1-D builders, one cost_J per (path, strategy)."""
    seeds = np.random.SeedSequence(config.seed).generate_state(config.paths, np.uint64)
    cost = {tag: [] for tag in config.strategy_tags}
    term = {tag: [] for tag in config.strategy_tags}
    xi = {tag: [] for tag in config.strategy_tags}
    panels = []
    for seed in seeds:
        realized = sample_path(MODEL, GRID, int(seed))
        plans = {tag: build(realized) for tag, build in BUILDERS.items()}
        for tag in config.strategy_tags:
            j = cost_J(config.criterion, PARAMS, realized, plans[tag])
            assert isinstance(j, float) and isinstance(plans[tag].terminal, float)
            cost[tag].append(j)
            term[tag].append(plans[tag].terminal - PARAMS.target_inventory)
            xi[tag].append(plans[tag].certificate.xi if plans[tag].certificate else None)
        good = plans[f"good-{config.criterion}-closed"]
        panels.append(dict(times=GRID.times, price=realized.values, expected=EXPECTED.values,
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


@pytest.mark.parametrize("criterion, block_paths",
                         [(c, harness.BLOCK_PATHS) for c in CRITERIA] + [("time", 7)])
def test_run_scenario_equals_per_path_loop(criterion, block_paths, monkeypatch):
    monkeypatch.setattr(harness, "BLOCK_PATHS", block_paths)
    config = ScenarioConfig(model=MODEL, params=PARAMS, criterion=criterion,
                            grid_steps=GRID.times.size - 1, paths=130, seed=4242,
                            strategy_tags=ALL_STRATEGIES, dump_trajectories=True)
    artifact = run_scenario(config)
    stats, panels = _reference(config)
    assert artifact.stats == stats
    assert len(artifact.trajectories) == len(panels) == 130
    for bundle, panel in zip(artifact.trajectories, panels):
        for name, values in panel.items():
            assert np.array_equal(getattr(bundle, name), values), name


def test_repeated_tag_is_evaluated_once():
    config = ScenarioConfig(model=MODEL, params=PARAMS, grid_steps=GRID.times.size - 1,
                            paths=3, seed=5, strategy_tags=("static", "twap", "static"))
    stats = run_scenario(config).stats
    assert [s.tag for s in stats] == ["static", "twap", "static"]
    single = run_scenario(ScenarioConfig(model=MODEL, params=PARAMS,
                                         grid_steps=GRID.times.size - 1, paths=3, seed=5,
                                         strategy_tags=("static",))).stats
    assert stats[0] == stats[2] == single[0]


def _block(paths=5):
    seeds = np.random.SeedSequence(77).generate_state(paths, np.uint64)
    return sample_path(MODEL, GRID, seeds)


@pytest.mark.parametrize("tag", [t for t in BUILDERS if t in GOOD_STRATEGIES + ("aposteriori",)])
def test_builders_on_a_block_equal_row_by_row(tag):
    block = _block()
    plan = BUILDERS[tag](block)
    assert plan.q.values.shape == plan.r.values.shape == block.values.shape
    for i, row in enumerate(block.values):
        single = BUILDERS[tag](SampledPath(GRID, row))
        assert np.array_equal(plan.q.values[i], single.q.values)
        assert np.array_equal(plan.r.values[i], single.r.values)
        assert plan.terminal[i] == single.terminal
        assert plan.certificate.xi[i] == single.certificate.xi
        assert isinstance(single.terminal, float) and isinstance(single.certificate.xi, float)


@pytest.mark.parametrize("criterion", CRITERIA)
def test_cost_on_a_block_equals_row_by_row(criterion):
    block = _block()
    rows = [SampledPath(GRID, row) for row in block.values]
    adaptive = good_exec_quadratic_closed(PARAMS, block, EXPECTED)
    fixed = static_optimal(PARAMS, EXPECTED)
    for plan, per_row in ((adaptive, [good_exec_quadratic_closed(PARAMS, r, EXPECTED)
                                      for r in rows]),
                          (fixed, [fixed] * len(rows))):
        costs = cost_J(criterion, PARAMS, block, plan)
        singles = [cost_J(criterion, PARAMS, r, p) for r, p in zip(rows, per_row)]
        assert all(isinstance(j, float) for j in singles)
        assert costs.shape == (len(rows),) and costs.tolist() == singles


@pytest.mark.parametrize("tag", [t for t in BUILDERS if t in GOOD_STRATEGIES + ("aposteriori",)])
def test_one_bad_path_fails_the_whole_block(tag):
    values = _block().values.copy()
    # finite, but its increments and running integrals overflow
    values[2] = 1.7e308
    values[2, :GRID.times.size // 2:2] = -1.7e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="finite"):
        BUILDERS[tag](SampledPath(GRID, values))


def test_block_paths_must_be_finite():
    values = _block().values.copy()
    values[3, 10] = np.nan
    with pytest.raises(DomainError, match="path values must be finite"):
        SampledPath(GRID, values)
    with pytest.raises(DomainError, match="equal length"):
        SampledPath(GRID, values[:, :-1])
