"""The benchmark's three workloads and the functions its tracer wraps.

Each workload has an untimed ``prepare`` that writes its input files, a
``load`` that is the program's cold set-up (import plus scenario load, timed
in a fresh interpreter by ``setup_probe.py``), and a ``run`` that processes
one unit: a fixed number of price paths, so unit wall times compare across
runs.  ``check`` verifies a unit's outputs with bounds copied from the
acceptance gates and returns the bytes that enter the per-seed digest.

Workload code calls the library through module attributes
(``harness.ingest_csv``, never a name imported into this module), so a
traced unit sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from pathexec import (  # noqa: E402
    airy,
    baselines,
    calibration,
    cli,
    costs,
    harness,
    pathcalc,
    pricemodels,
    strategies,
)
from tracer import Target  # noqa: E402

# Fig. 2 desk parameters: impact c1, risk aversion c2, inventory x0, horizon T
DESK = dict(impact=1.35, risk_aversion=1.15, initial_inventory=10_000.0, horizon=1.0)


class Tally:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def ops(self, n: int, ok: bool, what: str) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            print(f"FAILED ({n} ops): {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, ok, what)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    return True


class McStrategies:
    """``pathexec montecarlo`` in-process: arithmetic BM, grid 512, all ten strategies.

    Many short paths, so per-path Python overhead dominates: the workload of a
    path-batched engine and of the Airy basis.
    """

    name = "mc-strategies"
    paths = 500

    def prepare(self, workdir: Path) -> None:
        (workdir / "mc.cfg").write_text(
            "model = arithmetic-bm\n"
            "model.s0 = 100\n"
            "model.sigma = 5\n"
            f"params.impact = {DESK['impact']}\n"
            f"params.risk_aversion = {DESK['risk_aversion']}\n"
            f"params.initial_inventory = {DESK['initial_inventory']}\n"
            f"params.horizon = {DESK['horizon']}\n"
            "criterion = quadratic\n"
            "grid = 512\n"
            f"paths = {self.paths}\n"
            f"strategies = {', '.join(harness.ALL_STRATEGIES)}\n"
        )

    def load(self, workdir: Path):
        cfg = workdir / "mc.cfg"
        return SimpleNamespace(cfg=str(cfg), out=workdir / "mc-out",
                               config=harness.load_config(str(cfg)))

    def run(self, state, seed: int) -> int:
        argv = ["montecarlo", "--config", state.cfg, "--seed", str(seed),
                "--out", str(state.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, state, code: int, seed: int, first: bool, tally: Tally) -> bytes:
        raw = (state.out / "summary.json").read_bytes() if code == 0 else b""
        summary = json.loads(raw) if raw else {}
        tally.ops(self.paths, code == 0 and summary.get("seed") == seed,
                  f"montecarlo exit code {code} for seed {seed}")
        if not summary:
            return b""
        tally.check(_all_finite(summary), "non-finite number in summary.json")
        stats = summary["strategies"]
        x0 = state.config.params.initial_inventory
        for crit in costs.CRITERIA:
            closed = stats[f"good-{crit}-closed"]
            ivp = stats[f"good-{crit}-ivp"]
            # criterion 1's Brownian bound on the closed-vs-Euler gap
            gap = abs(ivp["mean_terminal_error"] - closed["mean_terminal_error"])
            tally.check(gap <= 1e-2 * x0, f"{crit}: ivp vs closed terminal gap {gap}")
            # criterion 2 is a 3-sigma test; it runs once per run, on the unit
            # whose inputs depend on the seed alone, so that its false-alarm
            # rate does not grow with the number of units a run completes
            if first:
                err, se = closed["mean_terminal_error"], closed["terminal_stderr"]
                tally.check(abs(err) <= 3.0 * se,
                            f"{crit}-closed: mean q_T - xT {err} beyond 3 stderr {se}")
        return raw


class AuditCertify:
    """Per path: sample on grid 4096, three closed forms, three 1000-perturbation audits.

    Acceptance criterion 4 widened to all three criteria; the audit takes
    nearly all the time and memory.
    """

    name = "audit-certify"
    paths = 1
    perturbations = 1_000

    def prepare(self, workdir: Path) -> None:
        pass

    def load(self, workdir: Path):
        params = strategies.MarketParams(impact=1.35, risk_aversion=1.15,
                                         initial_inventory=1_000.0, horizon=1.0)
        model = pricemodels.ArithmeticBrownian(s0=100.0, sigma=5.0)
        grid = pathcalc.TimeGrid.uniform(1.0, 4096)
        pair = airy.airy_pair(params.risk_ratio ** (2.0 / 3.0) * params.horizon, tol=1e-9)
        return SimpleNamespace(params=params, model=model, grid=grid, airy=pair,
                               expected=pricemodels.expected_path(model, grid))

    def run(self, state, seed: int):
        p, expected = state.params, state.expected
        realized = pricemodels.sample_path(state.model, state.grid, seed)
        plans = {
            "quadratic": strategies.good_exec_quadratic_closed(p, realized, expected),
            "time": strategies.good_exec_time_closed(p, realized, expected, state.airy),
            "var": strategies.good_exec_var_closed(p, realized, expected),
        }
        return [costs.audit_good_inequality(crit, p, realized, plans[crit],
                                            perturbations=self.perturbations,
                                            seed=3 * seed + k)
                for k, crit in enumerate(costs.CRITERIA)]

    def check(self, state, reports, seed: int, first: bool, tally: Tally) -> bytes:
        parts = []
        for r in reports:
            finite = all(math.isfinite(v) for v in (r.j_value, r.tolerance, r.xi))
            tally.ops(1, finite and r.kept > 0 and not r.violations,
                      f"audit {r.criterion} seed {seed}: kept {r.kept}, "
                      f"{len(r.violations)} violations, J {r.j_value}, xi {r.xi}")
            parts.append(f"{r.criterion} {r.kept} {r.violations!r}\n")
        return "".join(parts).encode()


class CalibrateSimulate:
    """CSV ingest, jump-diffusion calibration, then simulation from the fitted model.

    The series is acceptance criterion 10's: its model, span, window and
    generator seed, at 10^6 rows.  Calibration accuracy at this span varies
    with the data seed (see README), so the series stays on the gate's seed
    and ``--seed`` drives the simulated paths.
    """

    name = "calibrate-simulate"
    paths = 50
    rows = 1_000_000
    span = 50.0
    data_seed = 20_26
    truth = {"alpha": 5.0, "sigma": 0.02, "lambda": 10.0}

    def _model(self, level: float, alpha: float, sigma: float, lam: float, mark: float):
        return pricemodels.OuJumpDiffusion(
            m=lambda t: np.full_like(np.asarray(t, dtype=float), level),
            alpha=alpha, sigma=sigma, lam=lam,
            mark_sampler=pricemodels.two_point_marks(mark))

    def prepare(self, workdir: Path) -> None:
        model = self._model(math.log(100.0), self.truth["alpha"], self.truth["sigma"],
                            self.truth["lambda"], 0.01)
        grid = pathcalc.TimeGrid.uniform(self.span, self.rows - 1)
        prices = pricemodels.sample_path(model, grid, self.data_seed).values
        chunk = 100_000
        with open(workdir / "prices.csv", "w") as fh:
            fh.write("time,price\n")
            for lo in range(0, self.rows, chunk):
                rows = zip(grid.times[lo:lo + chunk].tolist(),
                           prices[lo:lo + chunk].tolist())
                fh.write("".join(f"{t!r},{p!r}\n" for t, p in rows))

    def load(self, workdir: Path):
        return SimpleNamespace(csv=str(workdir / "prices.csv"), out=workdir / "cs-out",
                               params=strategies.MarketParams(**DESK))

    def run(self, state, seed: int):
        series = harness.ingest_csv(state.csv)
        fit = calibration.calibrate_ou_jump(series, window=series.span, k=4.0)
        model = self._model(float(np.mean(fit.target.values)), fit.ou.alpha, fit.ou.sigma,
                            fit.jumps.intensity, fit.jumps.mark_size)
        config = harness.ScenarioConfig(
            model=model, params=state.params, criterion="time", grid_steps=2048,
            paths=self.paths, seed=seed,
            strategy_tags=("good-time-closed", "static", "aposteriori"),
            out_dir=str(state.out), dump_trajectories=True)
        variance = pricemodels.variance_path(model, config.grid())
        artifact = harness.run_scenario(config)
        files = harness.emit_plotdata(artifact, str(state.out))
        return fit, variance, files

    def check(self, state, result, seed: int, first: bool, tally: Tally) -> bytes:
        fit, variance, files = result
        tally.ops(self.paths, True, "")
        found = {"alpha": fit.ou.alpha, "sigma": fit.ou.sigma, "lambda": fit.jumps.intensity}
        rel = {k: abs(found[k] - v) / v for k, v in self.truth.items()}
        # criterion 10's bound
        tally.check(all(e <= 0.15 for e in rel.values()), f"calibration errors {rel}")
        summary_path = state.out / "summary.json"
        summary = json.loads(summary_path.read_bytes())
        tally.check(_all_finite(summary) and _all_finite(found)
                    and bool(np.all(np.isfinite(variance.values))),
                    "non-finite number in summary, fit or variance path")
        on_disk = sorted(os.listdir(state.out))
        tally.check(len(files) == self.paths + 1 and len(on_disk) == self.paths + 1,
                    f"{len(files)} files returned, {len(on_disk)} on disk")
        x0 = state.params.initial_inventory
        trajectories = [f for f in sorted(files) if f != str(summary_path)]
        q_good_col = harness.TRAJECTORY_COLUMNS.index("q_good")
        starts = []
        for name in trajectories:
            with open(name) as fh:
                fh.readline()
                starts.append(float(fh.readline().split(",")[q_good_col]))
        tally.check(all(q == x0 for q in starts), "q_good[0] != x0 in a trajectory")
        if not first:
            return b""
        parts = [repr(sorted(found.items())).encode(), variance.values.tobytes()]
        parts += [Path(f).read_bytes() for f in sorted(files)]
        return b"".join(parts)


WORKLOADS = {w.name: w for w in (McStrategies(), AuditCertify(), CalibrateSimulate())}


def trace_targets() -> list[Target]:
    """The public functions whose spans make up the per-layer metrics.

    The ``pathcalc`` primitives are left out on purpose: they run thousands
    of times per path, so wrapping them would distort the run, and their time
    shows in their callers' self time.
    """
    targets = [Target(f"pricemodels.{fn}", pricemodels, fn)
               for fn in ("sample_path", "variance_path")]
    targets += [Target(f"strategies.good_exec_{crit}_{kind}", strategies,
                       f"good_exec_{crit}_{kind}")
                for crit in costs.CRITERIA for kind in ("closed", "ivp")]
    targets.append(Target("airy.airy_pair", airy, "airy_pair"))
    targets += [Target("airy.eval", airy.AiryPair, m, lambda a, r: {"points": np.size(r)})
                for m in ("ai", "dai", "bi", "dbi")]
    targets.append(Target("baselines.aposteriori_optimal", baselines, "aposteriori_optimal"))
    targets += [Target("baselines.fixed_plans", baselines, fn)
                for fn in ("static_optimal", "terminal_penalty_optimal", "twap")]
    targets.append(Target("costs.cost_J", costs, "cost_J"))
    targets.append(Target("costs.audit_good_inequality", costs, "audit_good_inequality",
                          lambda a, r: {"perturbations": r.checked, "kept": r.kept}))
    targets += [Target(f"calibration.{fn}", calibration, fn)
                for fn in ("calibrate_ou_jump", "extract_target", "fit_ou", "detect_jumps")]
    targets.append(Target("harness.ingest_csv", harness, "ingest_csv",
                          lambda a, r: {"rows": r.prices.size,
                                        "bytes": os.path.getsize(a[0])}))
    targets.append(Target("harness.emit_plotdata", harness, "emit_plotdata",
                          lambda a, r: {"files": len(r),
                                        "bytes": sum(os.path.getsize(f) for f in r)}))
    targets.append(Target("harness.run_scenario", harness, "run_scenario"))
    targets.append(Target("cli.main", cli, "main"))
    return targets
