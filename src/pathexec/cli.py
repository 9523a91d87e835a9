"""Command-line front end.

Verbs: simulate, montecarlo, compare, backtest <csv>, calibrate <csv>.
Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .calibration import calibrate_ou_jump, extract_target
from .errors import PathexecError
from .harness import (CSV_FORMATS, SCENARIO_KEYS, VERB_KEYS, RunArtifact, ScenarioConfig,
                      _parse_kv, _switch, config_from_keys, emit_plotdata, evaluate_block,
                      ingest_csv, run_scenario, trajectory_bundles)
from .pathcalc import SampledPath, TimeGrid, resample

EXIT_OK, EXIT_VALIDATION, EXIT_IO = 0, 2, 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pathexec",
                                 description="pathwise-optimal trade execution toolkit")
    sub = ap.add_subparsers(dest="verb", required=True)
    csv = argparse.ArgumentParser(add_help=False)  # the arguments of the csv verbs
    csv.add_argument("csv", help="price series file")
    csv.add_argument("--format", choices=CSV_FORMATS, default="time-price")
    csv.add_argument("--window", type=float, help="moving-average window (default: span / 10)")

    for verb, blurb, command, parents in (
            ("simulate", "run a scenario and emit trajectory plot data", _cmd_scenario, []),
            ("montecarlo", "run a scenario for aggregates only", _cmd_scenario, []),
            ("compare", "print a strategy comparison table", _cmd_scenario, []),
            ("backtest", "replay strategies on a historical csv", _cmd_backtest, [csv])):
        p = sub.add_parser(verb, parents=parents, help=blurb)
        p.add_argument("--config", required=True, help="scenario config file")
        # each key the verb reads may have an option setting it over the file's value
        for key, (_, parse, option) in SCENARIO_KEYS.items():
            if option and key in VERB_KEYS[verb]:
                flag = {"action": "store_const", "const": "true"} if parse is _switch else {}
                p.add_argument(f"--{key.replace('_', '-')}", help=f"set the key {key}: {option}",
                               **flag)
        p.set_defaults(command=command)
        if verb == "simulate":
            p.set_defaults(dump_trajectories="true")

    p = sub.add_parser("calibrate", parents=[csv], help="fit the jump-diffusion model to a csv")
    p.add_argument("--threshold", type=float, default=4.0,
                   help="jump threshold in transition standard deviations")
    p.set_defaults(command=_cmd_calibrate)
    return ap


def _scenario(args) -> ScenarioConfig:
    keys = _parse_kv(args.config)
    keys.update((key, value) for key, value in vars(args).items()
                if key in SCENARIO_KEYS and value is not None)
    return config_from_keys(keys, args.verb)


def _print_stats(artifact) -> None:
    print(f"paths={artifact.config.paths} criterion={artifact.config.criterion} "
          f"seed={artifact.config.seed}")
    header = f"{'strategy':<24} {'mean cost':>16} {'stderr':>12} {'mean q_T err':>14} {'stderr':>12}"
    print(header)
    for s in artifact.stats:
        print(f"{s.tag:<24} {s.mean_cost:>16.6g} {s.cost_stderr:>12.3g} "
              f"{s.mean_terminal_error:>14.6g} {s.terminal_stderr:>12.3g}")
        if s.xi_quantiles:
            q = s.xi_quantiles
            print(f"{'':<24}  xi quantiles: q10={q['q10']:.4g} "
                  f"q50={q['q50']:.4g} q90={q['q90']:.4g}")


def _cmd_scenario(args) -> int:
    artifact = run_scenario(_scenario(args))
    _print_stats(artifact)
    files = emit_plotdata(artifact, artifact.config.out_dir)
    print(f"wrote {len(files)} files to {artifact.config.out_dir}")
    return EXIT_OK


def _cmd_backtest(args) -> int:
    series = ingest_csv(args.csv, args.format)
    config = _scenario(args)
    # window in the series' own time units
    window = args.window if args.window is not None else series.span / 10.0

    # historical path becomes the realized trajectory on a uniform grid over
    # the normalized horizon; the forecast is the moving-average target
    grid = config.grid()
    scale = config.params.horizon / series.span
    history = SampledPath(TimeGrid((series.timestamps - series.timestamps[0]) * scale),
                          series.prices)
    realized = resample(history, grid, "previous")
    target = resample(extract_target(series, window), TimeGrid(grid.times / scale), "linear")
    expected = SampledPath(grid, np.exp(target.values))

    # printed label -> replayed strategy, all of the scenario's criterion
    tags = {"static": "static", "good": f"good-{config.criterion}-closed",
            "aposteriori": "aposteriori", "twap": "twap"}
    plans, rows = evaluate_block(config.criterion, config.params, realized, expected,
                                 tags.values())
    print(f"backtest of {args.csv}: {series.prices.size} rows, horizon "
          f"{config.params.horizon}")
    for label, tag in tags.items():
        print(f"{label:<14} cost={rows[tag][0]:.6g} terminal={plans[tag].terminal:.6g}")
    bundles = trajectory_bundles(realized, expected, plans, tags["good"])
    files = emit_plotdata(RunArtifact(config, [], bundles), config.out_dir)
    print(f"wrote {len(files)} files to {config.out_dir}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    series = ingest_csv(args.csv, args.format)
    window = args.window if args.window is not None else series.span / 10.0
    fit = calibrate_ou_jump(series, window, k=args.threshold)
    print(f"calibrated {args.csv}: {series.prices.size} rows, span {series.span:.6g}")
    print(f"reversion speed alpha = {fit.ou.alpha:.6g}"
          + (" (boundary)" if fit.ou.boundary else ""))
    print(f"ou volatility  sigma  = {fit.ou.sigma:.6g}")
    print(f"jump intensity lambda = {fit.jumps.intensity:.6g} ({fit.jumps.count} jumps)")
    print(f"mark size (two-point) = {fit.jumps.mark_size:.6g}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.command(args)
    except PathexecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
