import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pathexec
from pathexec.cli import main
from pathexec.errors import ConfigError
from pathexec.harness import load_config


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


@pytest.fixture
def config_file(tmp_path):
    f = tmp_path / "scenario.cfg"
    f.write_text(CONFIG)
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
    assert "ArithmeticBrownian.sigma must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, key, value", [
    ("ou-jump-diffusion", "model.target_price", "nan"),
    ("ou-jump-diffusion", "model.s0", "nan"),
    ("ou-jump-diffusion", "model.target_price", "inf"),
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


def _history_csv(path):
    """A 2001-row random-walk price history on [0, 1]."""
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 1.0, 2_001)
    prices = 100.0 + np.cumsum(0.02 * rng.standard_normal(t.size))
    path.write_text("\n".join(f"{ti},{pi}" for ti, pi in zip(t, prices)) + "\n")
    return str(path)


def test_backtest_overflow_at_high_urgency_exit_code(tmp_path, capsys):
    # c3*T = 1000/1.35: the replayed schedules pass the largest double
    bad = tmp_path / "urgent.cfg"
    bad.write_text(CONFIG.replace("criterion = quadratic", "criterion = time")
                   .replace("params.risk_aversion = 1.15", "params.risk_aversion = 1000"))
    csv = _history_csv(tmp_path / "hist.csv")
    assert main(["backtest", csv, "--config", str(bad), "--out", str(tmp_path / "bt")]) == 2
    assert capsys.readouterr().err == "error: cost overflows a double at urgency c3*T = 740.741\n"


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


def test_backtest_verb(config_file, tmp_path, capsys):
    f = _history_csv(tmp_path / "hist.csv")
    out = tmp_path / "bt"
    code = main(["backtest", f, "--config", config_file, "--out", str(out)])
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
        "summary.json": "6a9d6b490fe73934bed19ab2e53875e1336b550802070bc988ab025f29d14c90",
        "trajectory_0000.csv":
            "74849eb674f75847802cb43eff390711acfeb53596d66a855e7d1a8812de32c4",
    }


@pytest.mark.parametrize("prices", [
    100.0 + 0.02 * np.arange(50.0),  # too short for the jump-diffusion calibration
    np.full(2_001, 100.0),           # flat, so its OU residual is degenerate
], ids=["50-rows", "flat"])
def test_backtest_needs_only_the_moving_average_target(config_file, tmp_path, prices):
    f = tmp_path / "hist.csv"
    t = np.linspace(0.0, 1.0, prices.size)
    f.write_text("\n".join(f"{ti},{pi}" for ti, pi in zip(t, prices)) + "\n")
    assert main(["backtest", str(f), "--config", config_file, "--out", str(tmp_path / "bt")]) == 0


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


@pytest.mark.parametrize("tags, loaded", [
    (NO_TIME_TAGS, False),
    (NO_TIME_TAGS + ", good-time-closed", True),
], ids=["quadratic-var-baselines", "with-good-time"])
def test_montecarlo_imports_scipy_special_only_for_the_time_criterion(tmp_path, tags, loaded):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CONFIG.replace("good-quadratic-closed, static, twap", tags))
    code = ("import sys\nfrom pathexec.cli import main\n"
            "if main(['montecarlo', '--config', sys.argv[1], '--out', sys.argv[2]]) != 0:\n"
            "    sys.exit('montecarlo exited nonzero')")
    modules = _scipy_loaded_by(code, str(cfg), str(tmp_path / "mc"))
    assert ("scipy.special" in modules) == loaded
    if not loaded:
        assert modules == []
