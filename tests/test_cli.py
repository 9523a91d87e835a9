import argparse
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import pathexec
from pathexec.cli import _build_parser, main
from pathexec.errors import ConfigError
from pathexec.harness import MODELS, load_config


CONFIG = """
model = arithmetic-bm
model.s0 = 100.0
model.sigma = 2.0
params.impact = 1.35
params.risk_aversion = 1.15
params.initial_inventory = 1000
params.horizon = 1.0
criterion = quadratic
grid = 128
paths = 4
seed = 3
strategies = good-quadratic-closed, static, twap
"""
# the keys of CONFIG that backtest reads: it fits no price model and replays one history
BACKTEST_CONFIG = "".join(line + "\n" for line in CONFIG.splitlines()
                          if line.startswith(("params.", "criterion", "grid")))


@pytest.fixture
def config_file(tmp_path):
    f = tmp_path / "scenario.cfg"
    f.write_text(CONFIG)
    return str(f)


@pytest.fixture
def backtest_file(tmp_path):
    f = tmp_path / "backtest.cfg"
    f.write_text(BACKTEST_CONFIG)
    return str(f)


def test_simulate_writes_plotdata(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--config", config_file, "--out", str(out)])
    assert code == 0
    files = sorted(os.listdir(out))
    assert "summary.json" in files
    assert sum(f.startswith("trajectory_") for f in files) == 4
    assert "good-quadratic-closed" in capsys.readouterr().out


def test_montecarlo_aggregates_only(config_file, tmp_path):
    out = tmp_path / "mc"
    code = main(["montecarlo", "--config", config_file, "--out", str(out),
                 "--paths", "32", "--seed", "9"])
    assert code == 0
    summary = json.load(open(out / "summary.json"))
    assert summary["paths"] == 32 and summary["seed"] == 9
    assert summary["trajectory_files"] == 0


def test_options_set_the_scenario_keys_of_their_name(config_file, tmp_path):
    # --paths 32 --seed 9 is the file with paths = 32 and seed = 9
    assert main(["montecarlo", "--config", config_file, "--out", str(tmp_path / "flags"),
                 "--paths", "32", "--seed", "9"]) == 0
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(CONFIG.replace("paths = 4", "paths = 32").replace("seed = 3", "seed = 9"))
    assert main(["montecarlo", "--config", str(keyed), "--out", str(tmp_path / "keys")]) == 0
    assert ((tmp_path / "flags" / "summary.json").read_bytes()
            == (tmp_path / "keys" / "summary.json").read_bytes())


@pytest.mark.parametrize("line, key", [
    ("params.risk_aversoin = 1.15", "params.risk_aversoin"),
    ("model.face_value = 100", "model.face_value"),  # a brownian-bridge key
])
def test_unknown_key_exit_code(tmp_path, capsys, line, key):
    bad = tmp_path / "typo.cfg"
    bad.write_text(CONFIG.replace("params.risk_aversion = 1.15", line))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ou_jump_level_has_one_key(tmp_path, capsys):
    # the OU factor starts at 0, so s0 is the reversion level; no second key sets it
    bad = tmp_path / "level.cfg"
    bad.write_text(CONFIG.replace("model = arithmetic-bm", "model = ou-jump-diffusion")
                   .replace("model.sigma = 2.0", "model.target_price = 50"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: unknown key 'model.target_price' "
                                       "for model kind 'ou-jump-diffusion'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, text, message", [
    ("paths", "7x", "invalid literal for int() with base 10: '7x'"),
    ("params.impact", "abc", "could not convert string to float: 'abc'"),
    ("model.sigma", "x", "could not convert string to float: 'x'"),
], ids=["paths", "params.impact", "model.sigma"])
def test_unparsable_value_names_its_key(tmp_path, capsys, key, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = {text}\n")
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: bad scenario value: {key} = {text!r}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_repeated_key_exit_code(tmp_path, capsys):
    bad = tmp_path / "twice.cfg"
    bad.write_text(CONFIG + "seed = 4\n")
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: key 'seed' is given on lines 12 and 14\n"
    assert not (tmp_path / "out").exists()


def test_compare_prints_table(config_file, tmp_path, capsys):
    code = main(["compare", "--config", config_file, "--out", str(tmp_path / "cmp")])
    assert code == 0
    text = capsys.readouterr().out
    for tag in ("static", "twap", "good-quadratic-closed"):
        assert tag in text


def test_validation_exit_code(config_file, tmp_path, capsys):
    assert main(["simulate", "--config", config_file, "--grid", "1",
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", config_file, "--seed", "-4",
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = nonsense\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "unknown model kind 'nonsense'" in capsys.readouterr().err


def test_non_finite_params_exit_code(tmp_path):
    bad = tmp_path / "nan.cfg"
    bad.write_text(CONFIG.replace("params.impact = 1.35", "params.impact = nan"))
    with pytest.raises(ConfigError, match="finite"):
        load_config(str(bad))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_non_finite_model_parameter_exit_code(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text(CONFIG.replace("model.sigma = 2.0", "model.sigma = nan"))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "model.sigma must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, key, value", [
    ("ou-jump-diffusion", "model.s0", "nan"),
    ("ou-jump-diffusion", "model.s0", "inf"),
    ("ou-jump-diffusion", "model.jump_size", "nan"),
    ("deterministic", "model.s0", "nan"),
])
def test_non_finite_model_level_exit_code(tmp_path, capsys, model, key, value):
    # the level becomes a callable, so it is checked when the config is read
    bad = tmp_path / "nan.cfg"
    bad.write_text(CONFIG.replace("model = arithmetic-bm", f"model = {model}")
                   .replace("model.s0 = 100.0", f"{key} = {value}"))
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(str(bad))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, line, message", [
    ("ou-jump-diffusion", "model.s0 = -5", "model.s0 must be > 0 for ou-jump-diffusion, got -5"),
    ("ou-jump-diffusion", "model.s0 = 0", "model.s0 must be > 0 for ou-jump-diffusion, got 0"),
    ("arithmetic-bm", "params.impact = nan", "params.impact must be finite, got nan"),
], ids=["ou-jump-s0-negative", "ou-jump-s0-zero", "impact-nan"])
def test_bad_model_value_names_its_key(tmp_path, capsys, model, line, message):
    # the jump level becomes a log and a market parameter a MarketParams field: both are
    # checked while the config key is still known
    key = line.split(" = ")[0]
    bad = tmp_path / "bad.cfg"
    bad.write_text(re.sub(f"^{re.escape(key)} = .*$", line,
                          CONFIG.replace("arithmetic-bm", model), flags=re.MULTILINE))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, line, message", [
    ("arithmetic-bm", "model.sigma = -1",
     "bad model parameters: ArithmeticBrownian.sigma must be >= 0, got -1.0"),
    ("ou-jump-diffusion", "model.alpha = 0",
     "bad model parameters: OuJumpDiffusion.alpha must be > 0, got 0.0"),
    ("ou-jump-diffusion", "model.jump_size = -0.1",
     "bad model parameters: TwoPointMarks.size must be >= 0, got -0.1"),
    ("brownian-bridge", "model.face_value = -3",
     "bad model parameters: BrownianBridge.face_value must be > 0, got -3.0"),
    ("arithmetic-bm", "params.impact = -1", "MarketParams.impact must be > 0, got -1.0"),
    ("arithmetic-bm", "params.horizon = 0", "MarketParams.horizon must be > 0, got 0.0"),
    ("arithmetic-bm", "params.risk_aversion = -2",
     "MarketParams.risk_aversion must be >= 0, got -2.0"),
], ids=["model.sigma", "model.alpha", "model.jump_size", "model.face_value", "params.impact",
        "params.horizon", "params.risk_aversion"])
def test_out_of_domain_value_names_its_record_field_and_value(tmp_path, capsys, model, line,
                                                              message):
    key = line.split(" = ")[0]
    text = CONFIG.replace("arithmetic-bm", model)
    bad = tmp_path / "bad.cfg"
    bad.write_text(re.sub(f"^{re.escape(key)} = .*$", line, text, flags=re.MULTILINE)
                   if f"\n{key} = " in text else text + line + "\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("impact", ["1e-170", "1e200"])
def test_impact_out_of_double_range_exit_code(tmp_path, capsys, impact):
    # 1e-170 squares to zero, so 1/(2 c1^2) is inf; 1e200 squares past the largest double
    bad = tmp_path / "impact.cfg"
    bad.write_text(CONFIG.replace("params.impact = 1.35", f"params.impact = {impact}")
                   .replace("params.risk_aversion = 1.15", "params.risk_aversion = 0"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"impact {float(impact):g} is out of range" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_strategy_tag_exit_code(tmp_path, capsys):
    bad = tmp_path / "twice.cfg"
    bad.write_text(CONFIG.replace("good-quadratic-closed, static, twap", "static, twap, static"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: strategy tag 'static' is listed twice\n"


@pytest.mark.parametrize("impact, factor", [("1e-100", "5e+199"), ("1e-150", "5e+299")])
def test_cost_overflow_at_tiny_impact_names_the_rate_factor(tmp_path, capsys, impact, factor):
    # inside MarketParams' range, but S/(2 c1^2) passes the largest double when squared
    bad = tmp_path / "impact.cfg"
    bad.write_text(CONFIG.replace("params.impact = 1.35", f"params.impact = {impact}")
                   .replace("params.risk_aversion = 1.15", "params.risk_aversion = 0"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.endswith(f", 1/(2 c1^2) = {factor}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_urgency_past_airy_range_exit_code(tmp_path, capsys):
    # c3 = risk_aversion / impact = 600 at T = 1: past the Airy basis' range
    bad = tmp_path / "urgent.cfg"
    bad.write_text(CONFIG.replace("criterion = quadratic", "criterion = time")
                   .replace("params.risk_aversion = 1.15", "params.risk_aversion = 810")
                   .replace("good-quadratic-closed", "good-time-closed"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "x_max = c3^(2/3)*T" in capsys.readouterr().err


@pytest.mark.parametrize("c3", [300.0, 528.0])
def test_cost_overflow_at_high_urgency_exit_code(tmp_path, capsys, c3):
    # inside the Airy basis' range, but the costs' squares pass the largest double
    bad = tmp_path / "urgent.cfg"
    bad.write_text(CONFIG.replace("criterion = quadratic", "criterion = time")
                   .replace("params.risk_aversion = 1.15", f"params.risk_aversion = {1.35 * c3!r}")
                   .replace("good-quadratic-closed, static, twap", "good-time-closed"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert f"c3*T = {c3:g}" in capsys.readouterr().err


def test_static_of_the_var_criterion_runs_at_a_long_horizon(tmp_path, capsys):
    # c3*T = 596.25 is an urgency that only the quadratic schedule's sinh(c3 T) reads
    cfg = tmp_path / "var.cfg"
    cfg.write_text(CONFIG.replace("criterion = quadratic", "criterion = var")
                   .replace("model.sigma = 2.0", "model.sigma = 5.0")
                   .replace("params.impact = 1.35", "params.impact = 0.04")
                   .replace("params.risk_aversion = 1.15", "params.risk_aversion = 0.45")
                   .replace("params.horizon = 1.0", "params.horizon = 53")
                   .replace("grid = 128", "grid = 512").replace("paths = 4", "paths = 64")
                   .replace("good-quadratic-closed, static, twap",
                            "good-var-closed, good-var-ivp, static, twap"))
    assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "\nstatic " in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jump_model_moment_overflow_exit_code(tmp_path, capsys):
    # lam (cosh 2 - 1) T ~ 2.8e3: the forecast E[S_t] passes the largest double
    bad = tmp_path / "jumpy.cfg"
    bad.write_text(CONFIG.replace("model = arithmetic-bm", "model = ou-jump-diffusion")
                   .replace("model.sigma = 2.0", "model.lambda = 1000\nmodel.jump_size = 2"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "E[S_t] of OuJumpDiffusion overflows a double" in capsys.readouterr().err


def test_forecast_overflow_names_the_forecast(tmp_path, capsys):
    # lam (cosh 2 - 1) T ~ 552: E[S_t] is a finite double, but the costs it feeds
    # overflow at an urgency c3*T of only 0.85
    bad = tmp_path / "jumpy.cfg"
    bad.write_text(CONFIG.replace("model = arithmetic-bm", "model = ou-jump-diffusion")
                   .replace("model.sigma = 2.0", "model.lambda = 200\nmodel.jump_size = 2"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "c3*T = 0.851852, forecast max |E[S_t]| = " in err
    assert float(err.rsplit("= ", 1)[1]) > 1e200


def test_jump_intensity_beyond_the_poisson_range_exit_code(tmp_path, capsys):
    # zero marks keep the forecast finite, and lambda*T = 1e19 is past numpy's Poisson
    # range; intensities from about 1e8 up to it are not probed, since every path would
    # allocate lambda*T event times
    bad = tmp_path / "dense.cfg"
    bad.write_text(CONFIG.replace("model = arithmetic-bm", "model = ou-jump-diffusion")
                   .replace("model.s0", "model.lambda = 1e19\nmodel.jump_size = 0\nmodel.s0"))
    assert main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "model.lambda = 1e+19 gives a mean jump count lambda*T = 1e+19" in err
    assert not (tmp_path / "out").exists()


def _history_csv(path):
    """A 2001-row random-walk price history on [0, 1]."""
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 1.0, 2_001)
    prices = 100.0 + np.cumsum(0.02 * rng.standard_normal(t.size))
    path.write_text("\n".join(f"{ti},{pi}" for ti, pi in zip(t, prices)) + "\n")
    return str(path)


def _backtest_at_urgency(tmp_path, criterion: str, risk_aversion: str) -> int:
    """Exit code of a backtest of ``_history_csv`` at T = 1 and c1 = 1.35."""
    bad = tmp_path / "urgent.cfg"
    bad.write_text(BACKTEST_CONFIG.replace("criterion = quadratic", f"criterion = {criterion}")
                   .replace("params.risk_aversion = 1.15",
                            f"params.risk_aversion = {risk_aversion}"))
    csv = _history_csv(tmp_path / "hist.csv")
    return main(["backtest", csv, "--config", str(bad), "--out", str(tmp_path / "bt")])


def test_backtest_overflow_at_high_urgency_exit_code(tmp_path, capsys):
    # c3*T = 1000/1.35: the time criterion's static schedule is past the Airy basis' range
    assert _backtest_at_urgency(tmp_path, "time", "1000") == 2
    assert capsys.readouterr().err == (
        "error: x_max = c3^(2/3)*T = 81.8674 is past the supported urgency range "
        "(x_max <= 65.398): 1/Ai(x_max)^2 overflows\n")


def test_backtest_cost_overflow_names_the_forecast(tmp_path, capsys):
    # c3*T = 528: the quadratic schedules pass the largest double
    assert _backtest_at_urgency(tmp_path, "quadratic", repr(1.35 * 528.0)) == 2
    assert capsys.readouterr().err == ("error: cost overflows a double at urgency c3*T = 528, "
                                       "forecast max |E[S_t]| = 100.154\n")


@pytest.mark.parametrize("option", [["--paths", "7"], ["--seed", "5"], ["--dump-trajectories"]],
                         ids=["paths", "seed", "dump-trajectories"])
def test_backtest_refuses_the_monte_carlo_options(backtest_file, tmp_path, capsys, option):
    # backtest replays its four schedules on the one history: it reads no path
    # count, seed or dump switch, so their options are usage errors
    csv = _history_csv(tmp_path / "hist.csv")
    out = tmp_path / "bt"
    with pytest.raises(SystemExit) as stop:
        main(["backtest", csv, "--config", backtest_file, "--out", str(out), *option])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["model = ou-jump-diffusion", "model.s0 = 100", "paths = 7",
                                  "seed = 5", "strategies = twap", "dump_trajectories = false"])
def test_backtest_refuses_the_monte_carlo_keys(tmp_path, capsys, line):
    # the file keys of the options above, and the price model's, are errors too
    cfg = tmp_path / "mc-keys.cfg"
    cfg.write_text(BACKTEST_CONFIG + line + "\n")
    out = tmp_path / "bt"
    csv = _history_csv(tmp_path / "hist.csv")
    assert main(["backtest", csv, "--config", str(cfg), "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"error: key {key!r} is not read by backtest\n"
    assert not out.exists()


def _options(verb: str) -> set[str]:
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices[verb]._actions for o in a.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("verb, options", [
    *((verb, "--config --seed --paths --grid --out --dump-trajectories")
      for verb in ("simulate", "montecarlo", "compare")),
    ("backtest", "--config --grid --out --format --window"),
    ("calibrate", "--format --window --threshold"),
])
def test_each_verb_has_the_options_of_the_keys_it_reads(verb, options):
    assert _options(verb) == set(options.split())


@pytest.mark.parametrize("value, trajectories", [
    ("1", 4), ("TRUE", 4), ("Yes", 4), ("0", 0), ("false", 0), ("NO", 0)])
def test_dump_trajectories_values(tmp_path, value, trajectories):
    cfg = tmp_path / "dump.cfg"
    cfg.write_text(CONFIG + f"dump_trajectories = {value}\n")
    assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert json.load(open(tmp_path / "out" / "summary.json"))["trajectory_files"] == trajectories


@pytest.mark.parametrize("value", ["on", "ture", ""])
def test_mistyped_dump_trajectories_exit_code(tmp_path, capsys, value):
    # a typo no longer runs with dumping off
    cfg = tmp_path / "dump.cfg"
    cfg.write_text(CONFIG + f"dump_trajectories = {value}\n")
    assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: bad scenario value: dump_trajectories = "
                                       f"{value!r}: not 1/true/yes or 0/false/no\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["time-price", "lobster-mid"])
def test_non_utf8_input_exit_code(tmp_path, capsys, fmt):
    msg = tmp_path / "X_message_1.csv"
    msg.write_bytes(b"0,100\n1,101\n2,1\xff02\n")
    (tmp_path / "X_orderbook_1.csv").write_text("1000100,10,1000000,12\n" * 3)
    assert main(["calibrate", str(msg), "--format", fmt]) == 2
    assert capsys.readouterr().err == "error: line 3: byte 0xff is not UTF-8\n"


def test_io_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 3


def test_calibrate_verb(tmp_path, capsys):
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 50.0, 50_001)
    dt = t[1] - t[0]
    decay = math.exp(-5.0 * dt)
    std = 0.02 * math.sqrt((1 - decay**2) / 10.0)
    y = np.empty(t.size)
    y[0] = 0.0
    for i in range(t.size - 1):
        y[i + 1] = y[i] * decay + std * rng.standard_normal()
    f = tmp_path / "mid.csv"
    lines = "\n".join(f"{ti},{100.0 * math.exp(yi)}" for ti, yi in zip(t, y))
    f.write_text(lines + "\n")
    code = main(["calibrate", str(f), "--window", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "lambda" in out


@pytest.mark.parametrize("option, value", [
    ("--window", "nan"), ("--threshold", "nan"), ("--threshold", "inf")])
def test_calibrate_non_finite_option_exit_code(tmp_path, capsys, option, value):
    f = tmp_path / "mid.csv"
    t = np.linspace(0.0, 1.0, 200)
    f.write_text("\n".join(f"{ti},{100.0 + math.sin(40.0 * ti)}" for ti in t) + "\n")
    assert main(["calibrate", str(f), option, value]) == 2
    assert "must be a finite number > 0" in capsys.readouterr().err


def test_backtest_verb(backtest_file, tmp_path, capsys):
    f = _history_csv(tmp_path / "hist.csv")
    out = tmp_path / "bt"
    code = main(["backtest", f, "--config", backtest_file, "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "aposteriori" in text
    assert (out / "trajectory_0000.csv").exists()
    # golden output: what the per-plan implementation printed and wrote for this CSV
    assert text == (
        f"backtest of {f}: 2001 rows, horizon 1.0\n"
        "static         cost=2.14387e+06 terminal=-3.55271e-15\n"
        "good           cost=2.14387e+06 terminal=2.34182e-05\n"
        "aposteriori    cost=2.14387e+06 terminal=-3.55271e-15\n"
        "twap           cost=2.16385e+06 terminal=0\n"
        f"wrote 2 files to {out}\n")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(out))}
    assert digests == {
        "summary.json": "99d2e068241c50ba0f4230ad2fbe2e8350c8759db3af02bbbda140eb91ddfdc8",
        "trajectory_0000.csv":
            "74849eb674f75847802cb43eff390711acfeb53596d66a855e7d1a8812de32c4",
    }


def test_backtest_replays_the_criterion_baselines(tmp_path, capsys):
    # under the time criterion, static is that criterion's optimum on the forecast
    cfg = tmp_path / "time.cfg"
    cfg.write_text(BACKTEST_CONFIG.replace("criterion = quadratic", "criterion = time"))
    f = _history_csv(tmp_path / "hist.csv")
    assert main(["backtest", f, "--config", str(cfg), "--out", str(tmp_path / "bt")]) == 0
    cost = {line.split()[0]: float(line.split()[1].removeprefix("cost="))
            for line in capsys.readouterr().out.splitlines() if " cost=" in line}
    assert list(cost) == ["static", "good", "aposteriori", "twap"]
    assert cost["twap"] >= cost["static"]


@pytest.mark.parametrize("prices", [
    100.0 + 0.02 * np.arange(50.0),  # too short for the jump-diffusion calibration
    np.full(2_001, 100.0),           # flat, so its OU residual is degenerate
], ids=["50-rows", "flat"])
def test_backtest_needs_only_the_moving_average_target(backtest_file, tmp_path, prices):
    f = tmp_path / "hist.csv"
    t = np.linspace(0.0, 1.0, prices.size)
    f.write_text("\n".join(f"{ti},{pi}" for ti, pi in zip(t, prices)) + "\n")
    assert main(["backtest", str(f), "--config", backtest_file, "--out", str(tmp_path / "bt")]) == 0


NO_TIME_TAGS = ("good-quadratic-closed, good-quadratic-ivp, good-var-closed, good-var-ivp, "
                "static, aposteriori, terminal-penalty, twap")


def _scipy_loaded_by(code: str, *args: str) -> list[str]:
    """Run code in a fresh interpreter; the scipy modules it left in sys.modules."""
    src = os.path.dirname(os.path.dirname(pathexec.__file__))
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.'))))")
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_and_load_config_leave_scipy_unloaded(config_file):
    # each scipy submodule is imported where it is first used
    code = "import sys, pathexec, pathexec.cli\npathexec.harness.load_config(sys.argv[1])"
    assert _scipy_loaded_by(code, config_file) == []


@functools.cache
def _scipy_special_modules() -> frozenset[str]:
    return frozenset(_scipy_loaded_by("import scipy.special"))


def _config_for(kind: str) -> str:
    """CONFIG on the given model kind, keeping only the model keys that kind reads."""
    keys = MODELS[kind][0]
    return "".join(f"model = {kind}\n" if line.startswith("model =") else line
                   for line in CONFIG.splitlines(keepends=True)
                   if not line.startswith("model.") or line[6:].split()[0] in keys)


TAG_CASES = [(NO_TIME_TAGS, False, "quadratic-var-baselines"),
             (NO_TIME_TAGS + ", good-time-closed", True, "with-good-time")]


@pytest.mark.parametrize("kind, tags, loaded", [
    # CONFIG's own model keeps the bare id
    pytest.param(kind, tags, loaded, id=name if kind == "arithmetic-bm" else f"{kind}-{name}")
    for kind in MODELS for tags, loaded, name in TAG_CASES])
def test_montecarlo_imports_scipy_special_only_for_the_time_criterion(tmp_path, kind, tags,
                                                                      loaded):
    # no price model needs scipy to sample; only the time criterion's Airy basis does
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(_config_for(kind).replace("good-quadratic-closed, static, twap", tags))
    code = ("import sys\nfrom pathexec.cli import main\n"
            "if main(['montecarlo', '--config', sys.argv[1], '--out', sys.argv[2]]) != 0:\n"
            "    sys.exit('montecarlo exited nonzero')")
    modules = _scipy_loaded_by(code, str(cfg), str(tmp_path / "mc"))
    if loaded:
        assert "scipy.special" in modules
        assert set(modules) <= _scipy_special_modules()
    else:
        assert modules == []
