import json
import os
import re
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathexec import (ConfigError, CsvParseError, DomainError, MarketParams, TimeGrid, airy_pair,
                      costs, good_exec_quadratic_closed, good_exec_time_closed,
                      good_exec_time_ivp, harness, pricemodels, static_optimal, strategies)
from pathexec.harness import (
    TRAJECTORY_COLUMNS,
    ScenarioConfig,
    TrajectoryBundle,
    emit_plotdata,
    ingest_csv,
    load_config,
    run_scenario,
)
from pathexec.pricemodels import ArithmeticBrownian, BrownianBridge, DeterministicPrice


def basic_config(**overrides):
    defaults = dict(
        model=ArithmeticBrownian(s0=100.0, sigma=2.0),
        params=MarketParams(impact=1.35, risk_aversion=1.15,
                            initial_inventory=1_000.0, horizon=1.0),
        criterion="quadratic",
        grid_steps=128,
        paths=16,
        seed=7,
        strategy_tags=("good-quadratic-closed", "static", "twap"),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _stats(artifact):
    """An artifact's stats by tag."""
    return {s.tag: s for s in artifact.stats}


def test_run_scenario_deterministic():
    a = run_scenario(basic_config())
    b = run_scenario(basic_config())
    for sa, sb in zip(a.stats, b.stats):
        assert sa == sb


def test_single_path_deterministic_model():
    config = basic_config(
        model=DeterministicPrice(fn=lambda t: 100.0 + 0 * np.asarray(t)),
        paths=1, strategy_tags=("good-quadratic-closed", "static"))
    a = run_scenario(config)
    b = run_scenario(config)
    assert _stats(a)["static"].mean_cost == _stats(b)["static"].mean_cost
    # constant price == forecast: the adaptive schedule IS the static one
    assert _stats(a)["good-quadratic-closed"].mean_cost == pytest.approx(
        _stats(a)["static"].mean_cost, rel=1e-12)


def test_common_random_numbers_toggling_strategy():
    full = run_scenario(basic_config(
        strategy_tags=("good-quadratic-closed", "static", "twap", "aposteriori")))
    trimmed = run_scenario(basic_config(strategy_tags=("good-quadratic-closed",)))
    assert _stats(full)["good-quadratic-closed"] == _stats(trimmed)["good-quadratic-closed"]


def test_run_scenario_all_strategy_tags():
    config = basic_config(
        paths=4,
        strategy_tags=(
            "good-quadratic-closed", "good-quadratic-ivp", "good-time-closed",
            "good-time-ivp", "good-var-closed", "good-var-ivp", "static",
            "aposteriori", "terminal-penalty", "twap"),
    )
    artifact = run_scenario(config)
    assert {s.tag for s in artifact.stats} == set(config.strategy_tags)
    good = _stats(artifact)["good-quadratic-closed"]
    assert good.xi_quantiles is not None and good.xi_quantiles["q10"] > 0


@pytest.mark.parametrize("name", [f"good_exec_{criterion}_{kind}" for criterion in costs.CRITERIA
                                  for kind in ("closed", "ivp")])
def test_run_scenario_looks_good_exec_up_on_strategies_module(monkeypatch, name):
    # a benchmark tracer wraps these module attributes in place; it must see every call
    real, calls = getattr(strategies, name), []
    monkeypatch.setattr(strategies, name, lambda *args: calls.append(1) or real(*args))
    tag = "good-" + name.removeprefix("good_exec_").replace("_", "-")
    run_scenario(basic_config(strategy_tags=(tag,), paths=3))
    assert calls == [1]  # one block of three paths


def test_run_scenario_samples_each_block_in_one_call(monkeypatch):
    # a benchmark tracer wraps pricemodels.sample_path in place; one call per block
    real, blocks = pricemodels.sample_path, []
    monkeypatch.setattr(pricemodels, "sample_path",
                        lambda model, grid, seeds: blocks.append(len(seeds))
                        or real(model, grid, seeds))
    config = basic_config(strategy_tags=("twap",))
    block = harness.BLOCK_ELEMENTS // config.grid().times.size
    run_scenario(replace(config, paths=2 * block + 3))
    assert blocks == [block, block, 3]


def test_run_scenario_memory_stays_under_the_64_path_peak():
    # the mc-strategies benchmark scenario; 9 MiB sits just above the 8.8 MiB
    # peak of 64-path blocks that held every plan until the block was scored,
    # and blocks sized from the element budget must not cost more
    config = ScenarioConfig(model=ArithmeticBrownian(s0=100.0, sigma=5.0),
                            params=MarketParams(impact=1.35, risk_aversion=1.15,
                                                initial_inventory=10_000.0, horizon=1.0),
                            grid_steps=512, paths=500, seed=1,
                            strategy_tags=harness.ALL_STRATEGIES)
    run_scenario(replace(config, paths=1))  # lazy imports and first-call caches
    tracemalloc.start()
    try:
        run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


def test_evaluate_block_returns_every_plan_unless_told_which_to_keep():
    config = basic_config()
    grid, params = config.grid(), config.params
    realized = pricemodels.sample_path(config.model, grid, 3)
    expected = pricemodels.expected_path(config.model, grid)
    tags = ("static", "good-quadratic-closed", "aposteriori", "twap")  # backtest's
    plans, rows = harness.evaluate_block("quadratic", params, realized, expected, tags)
    assert list(plans) == list(rows) == list(tags)  # backtest emits every plan
    kept, kept_rows = harness.evaluate_block("quadratic", params, realized, expected, tags,
                                             keep=("static",))
    assert list(kept) == ["static"] and list(kept_rows) == list(tags)
    for tag in tags:
        cost, terminal_error, _ = rows[tag]
        assert cost == costs.cost_J("quadratic", params, realized, plans[tag])
        assert terminal_error == plans[tag].terminal - params.target_inventory
        assert np.array_equal(kept_rows[tag], rows[tag], equal_nan=True)


def test_closed_vs_ivp_inside_harness():
    config = basic_config(
        paths=1, grid_steps=2**12,
        strategy_tags=("good-quadratic-closed", "good-quadratic-ivp"))
    artifact = run_scenario(config)
    a = _stats(artifact)["good-quadratic-closed"].mean_terminal_error
    b = _stats(artifact)["good-quadratic-ivp"].mean_terminal_error
    assert abs(a - b) <= 1e-2 * 1_000.0


def test_time_criterion_dump_builds_airy_panel(tmp_path):
    config = basic_config(criterion="time", paths=2, dump_trajectories=True,
                          strategy_tags=("good-time-closed", "static"))
    artifact = run_scenario(config)
    assert len(artifact.trajectories) == 2
    # the good panel column comes from the time-criterion closed schedule
    tb = artifact.trajectories[0]
    assert tb.q_good[0] == config.params.initial_inventory


def test_exponential_martingale_unbiased_inside_harness():
    from pathexec.pricemodels import ExponentialMartingale

    config = basic_config(model=ExponentialMartingale(s0=100.0, sigma=0.3),
                          paths=400, strategy_tags=("good-quadratic-closed",))
    stats = _stats(run_scenario(config))["good-quadratic-closed"]
    assert abs(stats.mean_terminal_error) <= 4.0 * stats.terminal_stderr


def test_validation_errors():
    # a config is validated once, when it is built, and cannot change after
    with pytest.raises(ConfigError, match="^path count must be >= 1$"):
        basic_config(paths=0)
    with pytest.raises(ConfigError):
        basic_config(criterion="bogus")
    with pytest.raises(ConfigError):
        basic_config(strategy_tags=("momentum",))
    with pytest.raises(FrozenInstanceError):
        basic_config().paths = 0


def test_time_tags_build_their_own_airy_pair():
    # every tag builds from (params, realized, expected) alone
    config = basic_config(criterion="time")
    grid, params = config.grid(), config.params
    realized = pricemodels.sample_path(config.model, grid, np.arange(3, dtype=np.uint64))
    expected = pricemodels.expected_path(config.model, grid)
    tags = ("good-time-closed", "good-time-ivp")
    plans, _ = harness.evaluate_block("time", params, realized, expected, tags)
    airy = airy_pair(params.risk_ratio ** (2.0 / 3.0) * params.horizon)
    for tag, build in zip(tags, (good_exec_time_closed, good_exec_time_ivp)):
        plan = build(params, realized, expected, airy)
        assert plans[tag].q.values.tobytes() == plan.q.values.tobytes()
        assert plans[tag].r.values.tobytes() == plan.r.values.tobytes()
        assert plans[tag].xi.tobytes() == plan.xi.tobytes()


@pytest.mark.parametrize("criterion", costs.CRITERIA)
def test_baselines_are_the_criterion_closed_form_on_one_path(criterion):
    # static: the closed form on (forecast, forecast); aposteriori: on (realized, realized)
    config = basic_config(criterion=criterion)
    grid, params, good = config.grid(), config.params, f"good-{criterion}-closed"
    realized = pricemodels.sample_path(config.model, grid, np.arange(3, dtype=np.uint64))
    expected = pricemodels.expected_path(config.model, grid)
    plans, _ = harness.evaluate_block(criterion, params, realized, expected,
                                      ("static", "aposteriori"))
    for tag, path in (("static", expected), ("aposteriori", realized)):
        own, _ = harness.evaluate_block(criterion, params, path, path, (good,))
        assert plans[tag].q.values.tobytes() == own[good].q.values.tobytes()
        assert plans[tag].r.values.tobytes() == own[good].r.values.tobytes()
        assert np.array_equal(plans[tag].xi, own[good].xi)


def test_terminal_penalty_tag_drifts_with_the_forecast():
    # a huge penalty pins q_T to xT; with the forecast as its drift the plan is
    # then the static optimum, within criterion 6's bound of 1e-4 x0
    params = MarketParams(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0,
                          horizon=1.0, terminal_penalty=1e6 * 1.35)
    grid = TimeGrid.uniform(1.0, 512)
    model = BrownianBridge(s0=100.0, face_value=200.0, sigma=1.0, maturity=1.0)
    e = pricemodels.expected_path(model, grid)
    # the classical quadratic-with-penalty baseline, whatever the criterion
    plan = harness.STRATEGIES["terminal-penalty"]("time", params, e, e)
    static = static_optimal(params, e, good_exec_quadratic_closed)
    assert np.max(np.abs(plan.q.values - static.q.values)) <= 1e-4 * params.initial_inventory


def test_emit_plotdata_and_byte_stability(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    config = basic_config(paths=3, dump_trajectories=True,
                          strategy_tags=("good-quadratic-closed", "static"))
    files1 = emit_plotdata(run_scenario(config), str(out1))
    files2 = emit_plotdata(run_scenario(config), str(out2))
    assert len(files1) == 3 + 1
    for f1, f2 in zip(files1, files2):
        assert open(f1, "rb").read() == open(f2, "rb").read()
    header = open(files1[0]).readline().strip()
    assert header == "t,price,expected_price,q_static,q_good,q_aposteriori,rate_good"
    rows = open(files1[0]).read().strip().splitlines()
    assert len(rows) == 1 + 128 + 1  # header + grid points
    summary = json.load(open(files1[-1]))
    assert summary["paths"] == 3
    assert "good-quadratic-closed" in summary["strategies"]


def _reference_trajectory_csv(tb: TrajectoryBundle) -> str:
    """Row-by-row writer of a trajectory file: the oracle for emit_plotdata."""
    rows = (",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*tb))
    return ",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(rows)


def test_emit_plotdata_matches_row_writer(tmp_path):
    config = basic_config(criterion="time", paths=3, dump_trajectories=True,
                          strategy_tags=("good-time-closed", "static"))
    artifact = run_scenario(config)
    edge = np.array([-0.0, 5e-324, 1e-5, 1e16, 1e308, 0.1, -1.0 / 3.0])
    artifact.trajectories.append(TrajectoryBundle(
        t=np.arange(7.0), price=edge, expected_price=-edge, q_static=edge[::-1],
        q_good=np.nextafter(edge, np.inf), q_aposteriori=edge * 0.5, rate_good=-edge[::-1]))
    files = emit_plotdata(artifact, str(tmp_path / "out"))
    assert len(files) == len(artifact.trajectories) + 1
    for tb, name in zip(artifact.trajectories, files):
        with open(name, newline="") as fh:
            assert fh.read() == _reference_trajectory_csv(tb)
    with open(files[-2]) as fh:
        price = [row.split(",")[1] for row in fh.read().splitlines()[1:]]
    assert price == ["-0", "4.9406564584124654e-324", "1.0000000000000001e-05",
                     "10000000000000000", "1e+308", "0.10000000000000001",
                     "-0.33333333333333331"]


def test_panels_share_their_forecast_side_columns():
    # a dumped panel holds views: the columns that read only the forecast are one
    # array for every path, never a copy per path
    trajs = run_scenario(basic_config(paths=3, dump_trajectories=True)).trajectories
    assert len(trajs) == 3
    for name in ("t", "expected_price", "q_static"):
        assert np.shares_memory(getattr(trajs[0], name), getattr(trajs[1], name)), name
        assert np.shares_memory(getattr(trajs[0], name), getattr(trajs[2], name)), name


def test_emit_plotdata_empty_artifact(tmp_path):
    config = basic_config(paths=2, dump_trajectories=False)
    files = emit_plotdata(run_scenario(config), str(tmp_path / "out"))
    assert len(files) == 1  # only the summary
    summary = json.load(open(files[0]))
    assert summary["trajectory_files"] == 0


def test_ingest_time_price(tmp_path):
    f = tmp_path / "px.csv"
    f.write_text("time,price\n0,100\n1,101\n")
    series = ingest_csv(str(f))
    assert series.prices.tolist() == [100.0, 101.0]
    f.write_text("0,100\n1,101\n")  # header optional
    assert ingest_csv(str(f)).timestamps.tolist() == [0.0, 1.0]


def test_ingest_duplicate_timestamps_last_wins(tmp_path):
    f = tmp_path / "dup.csv"
    f.write_text("0,100\n1,101\n1,102\n2,103\n")
    series = ingest_csv(str(f))
    assert series.prices.tolist() == [100.0, 102.0, 103.0]


def test_ingest_rejects_bad_rows(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,100\n1,-5\n")
    with pytest.raises(CsvParseError) as exc:
        ingest_csv(str(f))
    assert exc.value.line == 2
    f.write_text("0,100\n0.5\n")
    with pytest.raises(CsvParseError):
        ingest_csv(str(f))
    f.write_text("1,100\n0,101\n")
    with pytest.raises(CsvParseError):
        ingest_csv(str(f))
    f.write_text("")
    with pytest.raises(CsvParseError):
        ingest_csv(str(f))


# name -> (file bytes, whether the bulk parse reads it without the scanner)
VALID_TIME_PRICE = {
    "header": (b"time,price\n0,100\n0.5,101.25\n1,99.5\n", True),
    "no-header": (b"0,100\n1,101\n2,1e-3\n", True),
    "empty-lines": (b"\n0,100\n\n\n1,101\n\n2,102\n", True),
    "crlf": (b"time,price\r\n0,100\r\n1,101\r\n", True),
    "extra-columns": (b"t,p,volume\n0,100,5\n1,101,6,x\n", True),
    "duplicates": (b"-0.0,100\n0.0,101\n1,102\n1,103\n1,104\n2,105\n2,106\n", True),
    "padded-fields": (b" 0 , 100 \n1,\t101\n", True),
    "whitespace-only-line": (b"0,100\n   \n1,101\n", False),
    "underscore-digits": (b"0,1_00\n1,101\n", False),
}


@pytest.mark.parametrize("name", VALID_TIME_PRICE)
def test_ingest_bulk_parse_matches_line_scanner(tmp_path, name):
    content, bulk = VALID_TIME_PRICE[name]
    f = tmp_path / "px.csv"
    f.write_bytes(content)
    want = harness._scan_time_price(str(f))
    with mock.patch.object(harness, "_scan_time_price", return_value=want) as scan:
        got = ingest_csv(str(f))
    assert scan.called != bulk
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert got.prices.tobytes() == want.prices.tobytes()
    assert got.timestamps.flags.c_contiguous and got.prices.flags.c_contiguous


def test_ingest_reads_a_compressed_suffix_as_plain_text(tmp_path):
    content = b"time,price\n0,100\n0.5,101.25\n1,99.5\n"
    plain, gz = tmp_path / "prices.csv", tmp_path / "prices.csv.gz"
    plain.write_bytes(content)
    gz.write_bytes(content)
    want, got = ingest_csv(str(plain)), ingest_csv(str(gz))
    assert got.timestamps.tobytes() == want.timestamps.tobytes()
    assert got.prices.tobytes() == want.prices.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content, line", [
    pytest.param("0,100\n1,-5\n", 2, id="non-positive"),
    pytest.param("0,100\n1,0\n", 2, id="zero-price"),
    pytest.param("0,100\n0.5\n", 2, id="short-row"),
    pytest.param("1,100\n0,101\n", 2, id="decreasing"),
    pytest.param("0,100\n1,nan\n", 2, id="nan"),
    pytest.param("0,100\n1,inf\n2,101\n", 2, id="inf"),
    pytest.param("time,price\n0,100\n1,abc\n", 3, id="non-numeric"),
    pytest.param("0,100\n\n1,abc\n", 3, id="after-blank-line"),
    pytest.param("0,100\n\n\n2,-1\n", 4, id="negative-after-blank-lines"),
    pytest.param("0,100\n   \n1,abc\n", 3, id="after-whitespace-line"),
    pytest.param("\ntime,price\n0,100\n", 2, id="header-not-on-line-1"),
    pytest.param("5\n0,100\n1,101\n", 1, id="short-line-1"),
    pytest.param("", None, id="empty"),
    pytest.param("time,price\n", None, id="header-only"),
    pytest.param("\n\n", None, id="blank-only"),
    pytest.param("0,100\n0,101\n", None, id="one-timestamp"),
    # the first bad line wins, whatever rule it breaks
    pytest.param("1,100\n0,101\nabc,1\n", 2, id="decreasing-before-non-numeric"),
    pytest.param("0,100\n1,-5\n2\n", 2, id="non-positive-before-short-row"),
    pytest.param(b"time,pr\xffice\n0,100\n1,101\n", 1, id="non-utf8-header"),
    pytest.param(b"0,100\n1,10\xff1\n2,102\n", 2, id="non-utf8-row"),
    pytest.param(b"0,100\n1,101,\xff\n2,102\n", 2, id="non-utf8-ignored-field"),
    pytest.param(b"0,100\n1,nan\n2,\xff\n", 2, id="nan-before-non-utf8"),
    # lobster message/orderbook pairs
    pytest.param(("1,1\n2,1\n", "1000100,10,1000000,12\n-1000200,10,-1000100,12\n"), 2,
                 id="lobster-non-positive-mid"),
    pytest.param(("2,1\n1,1\n", "1000100,10,1000000,12\n1000200,10,1000100,12\n"), 2,
                 id="lobster-decreasing"),
    pytest.param(("1,1\n2,1\n", "1000100,10,1000000,12\nnan,10,1000100,12\n"), 2,
                 id="lobster-nan-mid"),
    pytest.param(("1,1\n2,1\nx,1\n", "1000100,10,1000000,12\n1,10,-5,12\n1,1,1,1\n"), 2,
                 id="lobster-non-positive-before-non-numeric"),
    pytest.param((b"1,1\n2\xff,1\n", b"1000100,10,1000000,12\n1000200,10,1000100,12\n"), 2,
                 id="lobster-non-utf8-message"),
    pytest.param(("1,1\n1,1\n", "1000100,10,1000000,12\n" * 2), None,
                 id="lobster-one-timestamp"),
    pytest.param(("1,1\n2,1\n3,1\n", "1000100,10,1000000,12\n" * 2), 3,
                 id="lobster-message-longer"),
    pytest.param(("1,1\n2,1\n", "1000100,10,1000000,12\n" * 3), 3,
                 id="lobster-orderbook-longer"),
    pytest.param(("1,1\n0,1\n3,1\n", "1000100,10,1000000,12\n" * 2), 2,
                 id="lobster-decreasing-before-unpaired"),
])
def test_ingest_errors_keep_their_line(tmp_path, content, line):
    encode = lambda text: text if isinstance(text, bytes) else text.encode()
    if isinstance(content, tuple):  # a lobster message/orderbook pair
        f, fmt = tmp_path / "X_message_1.csv", "lobster-mid"
        (tmp_path / "X_orderbook_1.csv").write_bytes(encode(content[1]))
        content = content[0]
    else:
        f, fmt = tmp_path / "bad.csv", "time-price"
    f.write_bytes(encode(content))
    with pytest.raises(CsvParseError) as exc:
        ingest_csv(str(f), fmt)
    assert exc.value.line == line


_positive_doubles = st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(_positive_doubles, min_size=2, max_size=40), st.sampled_from(["%r", "%.6g"]))
def test_ingest_parses_doubles_like_float(prices, style):
    text = "".join(f"{i},{style % p}\n" for i, p in enumerate(prices))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "px.csv")
        with open(path, "w") as fh:
            fh.write(text)
        with mock.patch.object(harness, "_scan_time_price", side_effect=AssertionError):
            series = ingest_csv(path)
    want = np.array([float(style % p) for p in prices])
    assert series.prices.tobytes() == want.tobytes()


def test_ingest_error_messages_keep_their_values(tmp_path):
    f = tmp_path / "bad.csv"
    for content, message in [
            (b"0,1\n1,2\n2,3\n4,4\n5,5\n6,6\n3.5,7\n", "line 7: timestamp 3.5 decreases"),
            (b"0,100\n1,-5\n", "line 2: non-positive price -5.0"),
            (b"0,100\n1,inf\n", "line 2: non-finite value"),
            (b"0,100\n1,abc\n", "line 2: non-numeric row '1,abc'"),
            (b"t,p\xfe\n0,100\n", "line 1: byte 0xfe is not UTF-8"),
            (b"", "empty file")]:
        f.write_bytes(content)
        with pytest.raises(CsvParseError, match=rf"^{re.escape(message)}$"):
            ingest_csv(str(f))


def test_ingest_lobster_pair(tmp_path):
    msg = tmp_path / "INTC_message_10.csv"
    book = tmp_path / "INTC_orderbook_10.csv"
    msg.write_text("34200.1,1,1,100,5000,1\n34200.2,1,2,100,5000,-1\n")
    book.write_text("1000100,10,1000000,12\n1000200,10,1000100,12\n")
    series = ingest_csv(str(msg), fmt="lobster-mid")
    assert series.prices[0] == pytest.approx(0.5 * (1000100 + 1000000) * 1e-4)
    assert series.timestamps[0] == pytest.approx(34200.1)
    book.write_text("1000100,10,1000000,12\n")
    with pytest.raises(CsvParseError,
                       match="^line 2: message and orderbook files differ in length$"):
        ingest_csv(str(msg), fmt="lobster-mid")


def test_load_config_roundtrip(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        """
# bond liquidation scenario
model = brownian-bridge
model.s0 = 103.893
model.sigma = 1.1642
model.face_value = 100.0
model.maturity = 1.0
params.impact = 0.05855
params.risk_aversion = 0.07341
params.initial_inventory = 1000
params.horizon = 1.0
criterion = quadratic
grid = 256
paths = 10
seed = 31
strategies = good-quadratic-closed, static, aposteriori
dump_trajectories = true
"""
    )
    config = load_config(str(cfg))
    assert isinstance(config.model, BrownianBridge)
    assert config.model.sigma == 1.1642
    assert config.params.impact == 0.05855
    assert config.strategy_tags == ("good-quadratic-closed", "static", "aposteriori")
    assert config.dump_trajectories
    artifact = run_scenario(config)
    assert artifact.config.paths == 10
    assert len(artifact.trajectories) == 10


def test_load_config_ou_jump_model(tmp_path):
    from pathexec.pricemodels import OuJumpDiffusion

    cfg = tmp_path / "jump.cfg"
    cfg.write_text(
        "model = ou-jump-diffusion\n"
        "model.s0 = 120.0\n"
        "model.alpha = 4.0\n"
        "model.sigma = 0.03\n"
        "model.lambda = 8.0\n"
        "model.jump_size = 0.02\n"
        "params.impact = 1.0\n"
        "params.initial_inventory = 100\n"
        "paths = 2\n"
        "strategies = good-quadratic-closed\n"
    )
    config = load_config(str(cfg))
    assert isinstance(config.model, OuJumpDiffusion)
    assert np.exp(config.model.m(np.zeros(1))[0]) == pytest.approx(120.0)
    artifact = run_scenario(config)
    assert artifact.config.paths == 2


def test_load_config_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = warp-drive\n")
    with pytest.raises(ConfigError, match="^unknown model kind 'warp-drive'$"):
        load_config(str(cfg))
    cfg.write_text("grid = not-a-number\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg))
    cfg.write_text("no equals sign here\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg))


def test_readme_example_is_an_accepted_scenario(tmp_path):
    # the documented keys are the accepted ones
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example)
    config = load_config(str(cfg))
    assert isinstance(config.model, BrownianBridge)
    assert config.params.terminal_penalty == 0.0
    assert (config.grid_steps, config.paths, config.seed) == (512, 100, 33)
    assert config.out_dir == "./out" and config.dump_trajectories


def test_left_out_keys_keep_the_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing set\n")
    assert load_config(str(cfg)) == ScenarioConfig(
        model=ArithmeticBrownian(s0=100.0, sigma=1.0),
        params=MarketParams(impact=1.0, risk_aversion=0.0, initial_inventory=1.0, horizon=1.0))
    # the bridge matures at the horizon unless model.maturity is given
    cfg.write_text("model = brownian-bridge\nparams.horizon = 2\n")
    assert load_config(str(cfg)).model == BrownianBridge(s0=100.0, face_value=100.0,
                                                         sigma=1.0, maturity=2.0)


@pytest.mark.parametrize("c3", [300.0, 528.0])
def test_cost_overflow_at_high_urgency_is_a_domain_error(c3):
    # inside the Airy basis' range, but the costs' squares pass the largest double
    config = basic_config(
        criterion="time", strategy_tags=("good-time-closed",),
        params=MarketParams(impact=1.35, risk_aversion=1.35 * c3,
                            initial_inventory=1_000.0, horizon=1.0))
    with pytest.raises(DomainError, match=rf"c3\*T = {c3:g}\b"):
        run_scenario(config)
