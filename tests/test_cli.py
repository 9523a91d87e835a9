import hashlib
import json
import math
import os

import numpy as np
import pytest

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


def test_validation_exit_code(config_file, tmp_path):
    assert main(["simulate", "--config", config_file, "--grid", "1",
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--config", config_file, "--seed", "-4",
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = nonsense\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2


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


def test_backtest_verb(config_file, tmp_path, capsys):
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 1.0, 2_001)
    prices = 100.0 + np.cumsum(0.02 * rng.standard_normal(t.size))
    f = tmp_path / "hist.csv"
    f.write_text("\n".join(f"{ti},{pi}" for ti, pi in zip(t, prices)) + "\n")
    out = tmp_path / "bt"
    code = main(["backtest", str(f), "--config", config_file, "--out", str(out)])
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
