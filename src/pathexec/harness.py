"""Scenario configuration, Monte Carlo engine, CSV ingestion and plot data.

A scenario bundles a price model, market parameters, a criterion, a grid, a
strategy list and a seed.  ``run_scenario`` samples the paths once (one
sub-seed per path) and evaluates every requested strategy on the same
realizations -- common random numbers -- so that adding or removing a
strategy never perturbs the others' results.  Aggregation is an ordered
reduction: outputs are byte-stable across reruns.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import baselines, calibration, costs, pricemodels, strategies
from .airy import AiryPair, airy_pair
from .errors import ConfigError, CsvParseError, DomainError
from .pathcalc import SampledPath, TimeGrid
from .strategies import ExecutionPlan, MarketParams

__all__ = [
    "ScenarioConfig",
    "RunArtifact",
    "StrategyStats",
    "run_scenario",
    "evaluate_block",
    "trajectory_bundles",
    "ingest_csv",
    "emit_plotdata",
    "load_config",
    "GOOD_STRATEGIES",
    "ALL_STRATEGIES",
]

# float64 elements of one (paths, N) array of a block: a block holds
# max(1, BLOCK_ELEMENTS // N) paths (255 at grid 512, 63 at grid 2048).  Every
# formula acts row by row, so results do not depend on it; it bounds the
# memory of a block, whose plans are built, scored and dropped one at a time.
BLOCK_ELEMENTS = 2**17


# tag -> build(params, realized, expected, airy).  Functions are looked up on
# their modules at call time, so one wrapped in place sees every call.
STRATEGIES = {
    "good-quadratic-closed": lambda p, s, e, a: strategies.good_exec_quadratic_closed(p, s, e),
    "good-quadratic-ivp": lambda p, s, e, a: strategies.good_exec_quadratic_ivp(p, s, e),
    "good-time-closed": lambda p, s, e, a: strategies.good_exec_time_closed(p, s, e, a),
    "good-time-ivp": lambda p, s, e, a: strategies.good_exec_time_ivp(p, s, e, a),
    "good-var-closed": lambda p, s, e, a: strategies.good_exec_var_closed(p, s, e),
    "good-var-ivp": lambda p, s, e, a: strategies.good_exec_var_ivp(p, s, e),
    "static": lambda p, s, e, a: baselines.static_optimal(p, e),
    "aposteriori": lambda p, s, e, a: baselines.aposteriori_optimal(p, s),
    "terminal-penalty": lambda p, s, e, a: baselines.terminal_penalty_optimal(p, e, e),
    "twap": lambda p, s, e, a: baselines.twap(p, e.grid),
}
ALL_STRATEGIES = tuple(STRATEGIES)
GOOD_STRATEGIES = tuple(tag for tag in STRATEGIES if tag.startswith("good-"))

@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one experiment."""

    model: pricemodels.PriceModel
    params: MarketParams
    criterion: str = "quadratic"
    grid_steps: int = 512
    paths: int = 1
    seed: int = 0
    strategy_tags: tuple[str, ...] = ("good-quadratic-closed", "static")
    out_dir: str = "."
    dump_trajectories: bool = False

    def validate(self) -> None:
        if self.paths < 1:
            raise ConfigError("path count must be >= 1")
        if self.grid_steps < 2:
            raise ConfigError("grid resolution must be >= 2")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        if self.criterion not in costs.CRITERIA:
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        for i, tag in enumerate(self.strategy_tags):
            if tag not in ALL_STRATEGIES:
                raise ConfigError(f"unknown strategy tag {tag!r}")
            if tag in self.strategy_tags[:i]:
                raise ConfigError(f"strategy tag {tag!r} is listed twice")

    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.params.horizon, self.grid_steps)


@dataclass(frozen=True)
class StrategyStats:
    """Cost and liquidation aggregates of one strategy across paths."""

    tag: str
    mean_cost: float
    cost_stderr: float
    mean_terminal_error: float
    terminal_stderr: float
    xi_quantiles: Optional[dict[str, float]] = None


@dataclass
class TrajectoryBundle:
    """Per-path panel series kept only when trajectory dumping is on."""

    times: np.ndarray
    price: np.ndarray
    expected: np.ndarray
    q_static: np.ndarray
    q_good: np.ndarray
    q_aposteriori: np.ndarray
    rate_good: np.ndarray


@dataclass
class RunArtifact:
    """Results of a scenario run: aggregates plus optional trajectories."""

    config: ScenarioConfig
    stats: list[StrategyStats]
    path_count: int
    trajectories: list[TrajectoryBundle] = field(default_factory=list)

    def stats_for(self, tag: str) -> StrategyStats:
        for s in self.stats:
            if s.tag == tag:
                return s
        raise KeyError(tag)


def evaluate_block(criterion: str, params: MarketParams, realized: SampledPath,
                   expected: SampledPath, tags, airy: Optional[AiryPair] = None, keep=None):
    """Build, score and drop each tagged plan in turn on a block of realized paths.

    ``realized`` holds one path per row; a 1-D path is the one-path block.
    A plan that reads only the forecast is 1-D and broadcasts over the rows.
    Returns (tag -> plan, for the tags in ``keep`` or all tags when it is None;
    tag -> (per-path cost, terminal error, xi)), with xi NaN off the good tags.
    """
    plans, rows = {}, {}
    for tag in tags:
        plan = STRATEGIES[tag](params, realized, expected, airy)
        rows[tag] = (costs.cost_J(criterion, params, realized, plan),
                     plan.terminal - params.target_inventory,
                     plan.xi if tag in GOOD_STRATEGIES else np.nan)
        if keep is None or tag in keep:
            plans[tag] = plan
        del plan  # not alive while the next tag builds
    return plans, rows


def trajectory_bundles(realized: SampledPath, expected: SampledPath,
                       plans: dict[str, ExecutionPlan], good_tag: str) -> list[TrajectoryBundle]:
    """One panel per realized path: price, forecast, and the static, good and
    a-posteriori schedules of an ``evaluate_block`` result."""
    good, apost = plans[good_tag], plans["aposteriori"]
    rows = (np.atleast_2d(v) for v in (realized.values, good.q.values, apost.q.values,
                                       good.r.values))
    return [TrajectoryBundle(times=realized.grid.times, price=price, expected=expected.values,
                             q_static=plans["static"].q.values, q_good=q_good,
                             q_aposteriori=q_apost, rate_good=rate_good)
            for price, q_good, q_apost, rate_good in zip(*rows)]


@contextlib.contextmanager
def _overflow_is_domain_error(params: MarketParams, expected: Optional[SampledPath] = None):
    """Plans, costs and their aggregates grow like e^(c3 t), so at high urgency
    they pass the largest double: stop with a DomainError naming c3*T instead
    of warning and going on with inf.  They also scale with the forecast, which
    a jump model can put far above the prices, so the error names the largest
    |E[S_t]| of the ``expected`` path when there is one."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        forecast = ("" if expected is None
                    else f", forecast max |E[S_t]| = {np.max(np.abs(expected.values)):.6g}")
        raise DomainError(f"cost overflows a double at urgency c3*T = "
                          f"{params.risk_ratio * params.horizon:.6g}{forecast}") from exc


def run_scenario(config: ScenarioConfig) -> RunArtifact:
    """Sample paths and evaluate every listed strategy with common random numbers.

    Each block of max(1, BLOCK_ELEMENTS // N) paths, one seed each, is
    sampled in one call; its plans are built, scored and dropped one at a
    time.  Only per-path scalars and the dumped panels' plans outlive their
    tag, and the block is released before the next one is sampled.
    """
    config.validate()
    grid = config.grid()
    params = config.params
    expected = pricemodels.expected_path(config.model, grid)
    dump_tag = f"good-{config.criterion}-closed"
    panel_tags = (dump_tag, "static", "aposteriori") if config.dump_trajectories else ()
    tags = tuple(dict.fromkeys(config.strategy_tags + panel_tags))

    airy = None
    if any(tag.startswith("good-time") for tag in tags):
        x_max = max(params.risk_ratio ** (2.0 / 3.0) * params.horizon, 1e-6)
        airy = airy_pair(x_max, tol=1e-9)

    seeds = np.random.SeedSequence(config.seed).generate_state(config.paths, np.uint64)
    block = max(1, BLOCK_ELEMENTS // grid.times.size)
    # per tag and block: cost, terminal error and xi (NaN off the good tags)
    rows: dict[str, list] = {tag: [] for tag in config.strategy_tags}
    bundles: list[TrajectoryBundle] = []
    for lo in range(0, config.paths, block):
        realized = pricemodels.sample_path(config.model, grid, seeds[lo:lo + block])
        with _overflow_is_domain_error(params, expected):
            plans, block_rows = evaluate_block(config.criterion, params, realized, expected,
                                               tags, airy, keep=panel_tags)
        for tag, tag_rows in rows.items():
            tag_rows.append(np.broadcast_arrays(*block_rows[tag]))
        if config.dump_trajectories:
            bundles += trajectory_bundles(realized, expected, plans, dump_tag)
        del realized, plans  # released before the next block is sampled

    stats = []
    for tag in config.strategy_tags:
        c, e, xi = (np.concatenate(column) for column in zip(*rows[tag]))
        n = c.size
        spread = math.sqrt(n) if n > 1 else 1.0
        finite = xi[np.isfinite(xi)]
        xi_q = ({f"q{p}": float(np.quantile(finite, p / 100)) for p in (10, 50, 90)}
                if finite.size else None)
        with _overflow_is_domain_error(params, expected):
            stats.append(StrategyStats(
                tag=tag,
                mean_cost=float(c.mean()),
                cost_stderr=float(c.std(ddof=1) / spread) if n > 1 else 0.0,
                mean_terminal_error=float(e.mean()),
                terminal_stderr=float(e.std(ddof=1) / spread) if n > 1 else 0.0,
                xi_quantiles=xi_q,
            ))
    return RunArtifact(config=config, stats=stats, path_count=config.paths,
                       trajectories=bundles)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _series(t, p, lines, stop=None) -> calibration.MidPriceSeries:
    """The ingest rules, for the rows of either format reduced to arrays.

    Values are finite, prices > 0 and times never decrease; the first row
    that breaks a rule raises with its line (if ``lines`` are given), else
    ``stop``, the error of a line after these rows.  A run of equal times
    keeps its first time and its last price; two distinct times must remain.
    """
    t, p = np.asarray(t, dtype=float), np.asarray(p, dtype=float)
    ok = np.isfinite(t) & np.isfinite(p) & (p > 0)
    ok[1:] &= t[1:] >= t[:-1]
    if not ok.all():
        i = int(np.argmin(ok))
        message = ("non-finite value" if not np.isfinite([t[i], p[i]]).all()
                   else f"non-positive price {p[i]}" if p[i] <= 0
                   else f"timestamp {t[i]} decreases")
        raise CsvParseError(message, line=None if lines is None else int(lines[i]))
    del ok  # held across the copies below, it raised peak RSS by 8 MB at 10^6 rows
    if stop is not None:
        raise stop
    new = t[1:] != t[:-1]
    if not new.any():
        raise CsvParseError("need at least two distinct timestamps" if t.size else "empty file")
    return calibration.MidPriceSeries(t[np.append(True, new)], p[np.append(new, True)])


def _read_rows(rows) -> calibration.MidPriceSeries:
    """``_series`` of a reader's (time, price, line) rows, up to its first error."""
    kept, stop = [], None
    try:
        for row in rows:
            kept.append(row)
    except CsvParseError as exc:
        stop = exc
    return _series(*np.array(kept, dtype=float).reshape(-1, 3).T, stop)


def _numbered_lines(path: str):
    """(number, line) of a UTF-8 text file; a byte that is not UTF-8 raises."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if bad := re.search("[\udc80-\udcff]", line):  # surrogate-escaped bytes
                raise CsvParseError(f"byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8", lineno)
            yield lineno, line


def _time_price_rows(path: str):
    for lineno, raw in _numbered_lines(path):
        line, parts = raw.strip(), raw.split(",")
        if not line:
            continue
        if len(parts) < 2:
            raise CsvParseError("expected 'time,price'", line=lineno)
        try:
            t, p = float(parts[0]), float(parts[1])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise CsvParseError(f"non-numeric row {line!r}", line=lineno) from None
        yield t, p, lineno


def _scan_time_price(path: str) -> calibration.MidPriceSeries:
    """Line-by-line reader: the definition of the ``time,price`` format."""
    return _read_rows(_time_price_rows(path))


# np.loadtxt opens a path through numpy's DataSource, which decompresses these
# suffixes; the scanner reads such files as plain text, so they go to it
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _parse_time_price(path: str) -> calibration.MidPriceSeries:
    """Parse with numpy's C reader; any file it or the rules reject is
    handed to ``_scan_time_price``, which raises the exact error (with its
    line) or accepts what only Python's ``float`` reads."""
    if os.path.splitext(path)[1] in _DECOMPRESSED_SUFFIXES:
        return _scan_time_price(path)
    try:  # a UnicodeDecodeError is a ValueError
        # the lines before the scanner's first row are blank or the header
        first = next(_time_price_rows(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # no data rows
            data = np.loadtxt(path, delimiter=",", usecols=(0, 1), comments=None,
                              ndmin=2, skiprows=first[2] - 1, encoding="utf-8")
        return _series(data[:, 0], data[:, 1], None)
    except (ValueError, UserWarning, CsvParseError, StopIteration):
        return _scan_time_price(path)


LOBSTER_PRICE_SCALE = 1e-4  # LOBSTER order book prices come in 1e-4 currency units


def _lobster_rows(message_path: str, book_path: str):
    for message, book in itertools.zip_longest(_numbered_lines(message_path),
                                               _numbered_lines(book_path)):
        if message is None or book is None:
            raise CsvParseError("message and orderbook files differ in length",
                                line=(message or book)[0])
        (lineno, mrow), (_, brow) = message, book
        bparts = brow.split(",")
        if len(bparts) < 3:
            raise CsvParseError("orderbook row needs ask,asksize,bid,...", line=lineno)
        try:
            t, ask, bid = float(mrow.split(",")[0]), float(bparts[0]), float(bparts[2])
        except ValueError:
            raise CsvParseError("non-numeric lobster row", line=lineno) from None
        yield t, 0.5 * (ask + bid) * LOBSTER_PRICE_SCALE, lineno


def _parse_lobster(message_path: str) -> calibration.MidPriceSeries:
    book_path = message_path.replace("message", "orderbook")
    if book_path == message_path or not os.path.exists(book_path):
        raise CsvParseError("lobster-mid needs a *message*.csv with a matching *orderbook*.csv")
    return _read_rows(_lobster_rows(message_path, book_path))


def ingest_csv(path: str, fmt: str = "time-price") -> calibration.MidPriceSeries:
    """Read a mid-price series from disk.

    ``time-price``: two columns ``time,price`` (header optional).
    ``lobster-mid``: an order-book message/orderbook file pair reduced to the
    mid price.  Both follow the rules of ``_series``; a byte that is not
    UTF-8 is a ``CsvParseError``.
    """
    if fmt == "time-price":
        return _parse_time_price(path)
    if fmt == "lobster-mid":
        return _parse_lobster(path)
    raise DomainError(f"unknown csv format {fmt!r}")


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = ("t", "price", "expected_price", "q_static", "q_good",
                      "q_aposteriori", "rate_good")
_ROW_FORMAT = ",".join(["%.17g"] * len(TRAJECTORY_COLUMNS)) + "\n"


def emit_plotdata(artifact: RunArtifact, out: str) -> list[str]:
    """Write one CSV per dumped trajectory plus a JSON aggregate summary.

    Column order is fixed and floats are rendered with 17 significant
    digits, so reruns with the same seed are byte-identical.
    """
    os.makedirs(out, exist_ok=True)
    written: list[str] = []
    for i, tb in enumerate(artifact.trajectories):
        fname = os.path.join(out, f"trajectory_{i:04d}.csv")
        values = np.column_stack((tb.times, tb.price, tb.expected, tb.q_static, tb.q_good,
                                  tb.q_aposteriori, tb.rate_good))
        # '%.17g' % x renders a float exactly as format(x, '.17g') does
        with open(fname, "w") as fh:
            fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
            fh.write(_ROW_FORMAT * len(values) % tuple(values.ravel().tolist()))
        written.append(fname)

    summary = {
        "criterion": artifact.config.criterion,
        "paths": artifact.path_count,
        "seed": artifact.config.seed,
        "grid_steps": artifact.config.grid_steps,
        "trajectory_files": len(artifact.trajectories),
        "strategies": {
            s.tag: {
                "mean_cost": s.mean_cost,
                "cost_stderr": s.cost_stderr,
                "mean_terminal_error": s.mean_terminal_error,
                "terminal_stderr": s.terminal_stderr,
                **({"xi_quantiles": s.xi_quantiles} if s.xi_quantiles else {}),
            }
            for s in artifact.stats
        },
    }
    spath = os.path.join(out, "summary.json")
    with open(spath, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(spath)
    return written


# ---------------------------------------------------------------------------
# flat key-value configuration files
# ---------------------------------------------------------------------------

def _parse_kv(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _build_model(kv: dict[str, str]) -> pricemodels.PriceModel:
    kind = kv.get("model", "arithmetic-bm")
    get = lambda key, dflt=None: kv.get(f"model.{key}", dflt)

    def finite(key: str, default: str = "100.0") -> float:
        # a level hides in a callable and a mark size in the mark law: name the config key
        value = float(get(key, default))
        if not math.isfinite(value):
            raise ConfigError(f"model.{key} must be finite, got {value}")
        return value

    try:
        if kind == "arithmetic-bm":
            return pricemodels.ArithmeticBrownian(
                s0=float(get("s0", "100.0")), sigma=float(get("sigma", "1.0")))
        if kind == "exponential-martingale":
            return pricemodels.ExponentialMartingale(
                s0=float(get("s0", "100.0")), sigma=float(get("sigma", "0.2")))
        if kind == "brownian-bridge":
            return pricemodels.BrownianBridge(
                s0=float(get("s0", "100.0")),
                face_value=float(get("face_value", "100.0")),
                sigma=float(get("sigma", "1.0")),
                maturity=float(get("maturity", kv.get("params.horizon", "1.0"))),
            )
        if kind == "ou-jump-diffusion":
            log_level = math.log(finite("target_price" if "model.target_price" in kv else "s0"))
            return pricemodels.OuJumpDiffusion(
                m=lambda t, lv=log_level: np.full_like(np.asarray(t, dtype=float), lv),
                alpha=float(get("alpha", "5.0")),
                sigma=float(get("sigma", "0.02")),
                lam=float(get("lambda", "0.0")),
                mark_sampler=pricemodels.two_point_marks(finite("jump_size", "0.01")),
            )
        if kind == "deterministic":
            return pricemodels.DeterministicPrice(
                fn=lambda t, lv=finite("s0"): np.full_like(np.asarray(t, dtype=float), lv))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad model parameters: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def load_config(path: str) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario file (schema in the README)."""
    kv = _parse_kv(path)
    try:
        params = MarketParams(
            impact=float(kv.get("params.impact", "1.0")),
            risk_aversion=float(kv.get("params.risk_aversion", "0.0")),
            initial_inventory=float(kv.get("params.initial_inventory", "1.0")),
            horizon=float(kv.get("params.horizon", "1.0")),
            target_inventory=float(kv.get("params.target_inventory", "0.0")),
            terminal_penalty=float(kv.get("params.terminal_penalty", "0.0")),
        )
        strategy_tags = tuple(
            s.strip() for s in kv.get("strategies", "good-quadratic-closed,static").split(",")
            if s.strip()
        )
        config = ScenarioConfig(
            model=_build_model(kv),
            params=params,
            criterion=kv.get("criterion", "quadratic"),
            grid_steps=int(kv.get("grid", "512")),
            paths=int(kv.get("paths", "1")),
            seed=int(kv.get("seed", "0")),
            strategy_tags=strategy_tags,
            out_dir=kv.get("out", "."),
            dump_trajectories=kv.get("dump_trajectories", "false").lower()
            in ("1", "true", "yes"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad scenario value: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config
