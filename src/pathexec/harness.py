"""Scenario configuration, Monte Carlo engine, CSV ingestion and plot data.

A scenario bundles a price model, market parameters, a criterion, a grid, a
strategy list and a seed.  ``run_scenario`` samples the paths once (one
sub-seed per path) and evaluates every requested strategy on the same
realizations -- common random numbers -- so that adding or removing a
strategy never perturbs the others' results.  Aggregation is an ordered
reduction: outputs are byte-stable across reruns.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import asdict, dataclass, field
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


def _airy_for(params: MarketParams) -> AiryPair:
    """The time criterion's Airy pair on [0, c3^(2/3) T]."""
    return airy_pair(max(params.risk_ratio ** (2.0 / 3.0) * params.horizon, 1e-6))


# criterion -> its closed form build(params, realized, expected), and tag ->
# build(criterion, params, realized, expected): the static and a-posteriori
# baselines are the scenario criterion's closed form.  Functions are looked up
# on their modules at call time, so one wrapped in place sees every call.
CLOSED_FORMS = {
    "quadratic": lambda p, s, e: strategies.good_exec_quadratic_closed(p, s, e),
    "time": lambda p, s, e: strategies.good_exec_time_closed(p, s, e, _airy_for(p)),
    "var": lambda p, s, e: strategies.good_exec_var_closed(p, s, e),
}
STRATEGIES = {
    "good-quadratic-closed": lambda c, p, s, e: CLOSED_FORMS["quadratic"](p, s, e),
    "good-quadratic-ivp": lambda c, p, s, e: strategies.good_exec_quadratic_ivp(p, s, e),
    "good-time-closed": lambda c, p, s, e: CLOSED_FORMS["time"](p, s, e),
    "good-time-ivp": lambda c, p, s, e: strategies.good_exec_time_ivp(p, s, e, _airy_for(p)),
    "good-var-closed": lambda c, p, s, e: CLOSED_FORMS["var"](p, s, e),
    "good-var-ivp": lambda c, p, s, e: strategies.good_exec_var_ivp(p, s, e),
    "static": lambda c, p, s, e: baselines.static_optimal(p, e, CLOSED_FORMS[c]),
    "aposteriori": lambda c, p, s, e: baselines.aposteriori_optimal(p, s, CLOSED_FORMS[c]),
    "terminal-penalty": lambda c, p, s, e: baselines.terminal_penalty_optimal(p, e),
    "twap": lambda c, p, s, e: baselines.twap(p, e.grid),
}
ALL_STRATEGIES = tuple(STRATEGIES)
GOOD_STRATEGIES = tuple(tag for tag in STRATEGIES if tag.startswith("good-"))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment, validated at construction."""

    model: pricemodels.PriceModel
    params: MarketParams
    criterion: str = "quadratic"
    grid_steps: int = 512
    paths: int = 1
    seed: int = 0
    strategy_tags: tuple[str, ...] = ("good-quadratic-closed", "static")
    out_dir: str = "."
    dump_trajectories: bool = False

    def __post_init__(self):
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


# one dumped path's panel, kept only when trajectory dumping is on: a field per
# column of its trajectory CSV, in the file's column order
TRAJECTORY_COLUMNS = ("t", "price", "expected_price", "q_static", "q_good",
                      "q_aposteriori", "rate_good")
TrajectoryBundle = collections.namedtuple("TrajectoryBundle", TRAJECTORY_COLUMNS)


@dataclass
class RunArtifact:
    """Results of a scenario run: aggregates plus optional trajectories."""

    config: ScenarioConfig
    stats: list[StrategyStats]
    trajectories: list[TrajectoryBundle] = field(default_factory=list)


def evaluate_block(criterion: str, params: MarketParams, realized: SampledPath,
                   expected: SampledPath, tags, keep=None):
    """Build, score and drop each tagged plan in turn on a block of realized paths.

    ``realized`` holds one path per row; a 1-D path is the one-path block.
    A plan that reads only the forecast is 1-D and broadcasts over the rows.
    Returns (tag -> plan, for the tags in ``keep`` or all tags when it is None;
    tag -> (per-path cost, terminal error, xi)), with xi NaN off the good tags.
    A double overflow is a DomainError (``_overflow_is_domain_error``).
    """
    plans, rows = {}, {}
    with _overflow_is_domain_error(params, expected):
        for tag in tags:
            plan = STRATEGIES[tag](criterion, params, realized, expected)
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
    a-posteriori schedules of an ``evaluate_block`` result.  A panel holds views:
    the forecast-side columns are one array for every path of the block."""
    good = plans[good_tag]
    columns = (realized.grid.times, realized.values, expected.values, plans["static"].q.values,
               good.q.values, plans["aposteriori"].q.values, good.r.values)
    return [TrajectoryBundle(*row)
            for row in zip(*np.broadcast_arrays(*map(np.atleast_2d, columns)))]


@contextlib.contextmanager
def _overflow_is_domain_error(params: MarketParams, expected: SampledPath):
    """Plans, costs and their aggregates grow like e^(c3 t), so at high urgency
    they pass the largest double: stop with a DomainError naming c3*T instead
    of warning and going on with inf.  They also scale with the forecast, which
    a jump model can put far above the prices, so the error names the largest
    |E[S_t]| of the ``expected`` path, and the rate's factor 1/(2 c1^2) when a
    small impact puts it above 1."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        forecast = np.max(np.abs(expected.values))
        factor = 0.5 / (params.impact * params.impact)
        rate = f", 1/(2 c1^2) = {factor:.6g}" if factor > 1.0 else ""
        raise DomainError(f"cost overflows a double at urgency c3*T = "
                          f"{params.risk_ratio * params.horizon:.6g}, "
                          f"forecast max |E[S_t]| = {forecast:.6g}{rate}") from exc


def run_scenario(config: ScenarioConfig) -> RunArtifact:
    """Sample paths and evaluate every listed strategy with common random numbers.

    Each block of max(1, BLOCK_ELEMENTS // N) paths, one seed each, is
    sampled in one call; its plans are built, scored and dropped one at a
    time.  Only per-path scalars and the dumped panels' plans outlive their
    tag, and the block is released before the next one is sampled.
    """
    grid = config.grid()
    params = config.params
    expected = pricemodels.expected_path(config.model, grid)
    dump_tag = f"good-{config.criterion}-closed"
    panel_tags = (dump_tag, "static", "aposteriori") if config.dump_trajectories else ()
    tags = tuple(dict.fromkeys(config.strategy_tags + panel_tags))

    seeds = np.random.SeedSequence(config.seed).generate_state(config.paths, np.uint64)
    block = max(1, BLOCK_ELEMENTS // grid.times.size)
    # per tag and block: cost, terminal error and xi (NaN off the good tags)
    rows: dict[str, list] = {tag: [] for tag in config.strategy_tags}
    bundles: list[TrajectoryBundle] = []
    for lo in range(0, config.paths, block):
        realized = pricemodels.sample_path(config.model, grid, seeds[lo:lo + block])
        plans, block_rows = evaluate_block(config.criterion, params, realized, expected, tags,
                                           keep=panel_tags)
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
    return RunArtifact(config=config, stats=stats, trajectories=bundles)


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


# --format name -> parser of a path
CSV_FORMATS = {"time-price": _parse_time_price, "lobster-mid": _parse_lobster}


def ingest_csv(path: str, fmt: str = "time-price") -> calibration.MidPriceSeries:
    """Read a mid-price series from disk.

    ``time-price``: two columns ``time,price`` (header optional).
    ``lobster-mid``: an order-book message/orderbook file pair reduced to the
    mid price.  Both follow the rules of ``_series``; a byte that is not
    UTF-8 is a ``CsvParseError``.
    """
    if fmt not in CSV_FORMATS:
        raise DomainError(f"unknown csv format {fmt!r}")
    return CSV_FORMATS[fmt](path)


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

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
        values = np.column_stack(tb)
        # '%.17g' % x renders a float exactly as format(x, '.17g') does
        with open(fname, "w") as fh:
            fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
            fh.write(_ROW_FORMAT * len(values) % tuple(values.ravel().tolist()))
        written.append(fname)

    summary = {
        "criterion": artifact.config.criterion,
        "paths": artifact.config.paths,
        "seed": artifact.config.seed,
        "grid_steps": artifact.config.grid_steps,
        "trajectory_files": len(artifact.trajectories),
        # each tag's StrategyStats fields, less the tag and xi_quantiles when None
        "strategies": {s.tag: {key: value for key, value in asdict(s).items()
                               if key != "tag" and value is not None}
                       for s in artifact.stats},
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
    """The ``key = value`` lines of a file; a key given twice raises."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ConfigError(f"{path}: key {key!r} is given on lines "
                                  f"{first_line[key]} and {lineno}")
            first_line[key], out[key] = lineno, val
    return out


def _constant(level: float):
    return lambda t: np.full_like(np.asarray(t, dtype=float), level)


def _ou_jump(v: dict[str, float], params: MarketParams) -> pricemodels.OuJumpDiffusion:
    # the OU factor starts at 0, so s0 is both S_0 and the reversion level, a log-price
    if v["s0"] <= 0:
        raise ConfigError(f"model.s0 must be > 0 for ou-jump-diffusion, got {v['s0']:g}")
    return pricemodels.OuJumpDiffusion(
        m=_constant(math.log(v["s0"])), alpha=v["alpha"], sigma=v["sigma"],
        lam=v["lambda"], mark_sampler=pricemodels.two_point_marks(v["jump_size"]))


def _switch(text: str) -> bool:
    """dump_trajectories: 1, true or yes, or 0, false or no, in any case."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("not 1/true/yes or 0/false/no")
    return text.lower() in ("1", "true", "yes")


# The scenario schema.  model kind -> (model.<key> -> default, build(values,
# params)); a key whose default is None reaches the build only when given.
MODELS = {
    "arithmetic-bm": ({"s0": 100.0, "sigma": 1.0},
                      lambda v, p: pricemodels.ArithmeticBrownian(**v)),
    "exponential-martingale": ({"s0": 100.0, "sigma": 0.2},
                               lambda v, p: pricemodels.ExponentialMartingale(**v)),
    "brownian-bridge": ({"s0": 100.0, "face_value": 100.0, "sigma": 1.0, "maturity": None},
                        lambda v, p: pricemodels.BrownianBridge(**{"maturity": p.horizon, **v})),
    "ou-jump-diffusion": ({"s0": 100.0, "alpha": 5.0, "sigma": 0.02, "lambda": 0.0,
                           "jump_size": 0.01}, _ou_jump),
    "deterministic": ({"s0": 100.0},
                      lambda v, p: pricemodels.DeterministicPrice(fn=_constant(v["s0"]))),
}
# params.<field of MarketParams> -> default
PARAMS = {"impact": 1.0, "risk_aversion": 0.0, "initial_inventory": 1.0, "horizon": 1.0,
          "target_inventory": 0.0, "terminal_penalty": 0.0}
# key -> (ScenarioConfig field, parser, help of the CLI option that sets the key,
# None when it has none); a key left out keeps the field's default
SCENARIO_KEYS = {
    "criterion": ("criterion", str, None),
    "grid": ("grid_steps", int, "grid steps"),
    "paths": ("paths", int, "path count"),
    "seed": ("seed", int, "root seed"),
    "strategies": ("strategy_tags",
                   lambda text: tuple(s.strip() for s in text.split(",") if s.strip()), None),
    "out": ("out_dir", str, "output directory"),
    "dump_trajectories": ("dump_trajectories", _switch, "write per-path trajectory CSVs"),
}
# verb -> the keys it reads, model.* and params.* standing for those of MODELS and
# PARAMS.  backtest fits no price model and replays fixed schedules on one history.
VERB_KEYS = {**dict.fromkeys(("simulate", "montecarlo", "compare"),
                             ("model", "model.*", "params.*", *SCENARIO_KEYS)),
             "backtest": ("params.*", "criterion", "grid", "out")}


def config_from_keys(kv: dict[str, str], verb: str) -> ScenarioConfig:
    """The validated scenario of a ``key = value`` mapping for ``verb``: a key only other
    verbs read raises, a text its key's parser refuses or a non-finite ``params.*`` or
    ``model.*`` value raises, then an unknown key raises."""
    for key in kv:
        group = re.sub(r"\..*", ".*", key)  # model.s0 -> model.*
        if group not in VERB_KEYS[verb] and any(group in keys for keys in VERB_KEYS.values()):
            raise ConfigError(f"key {key!r} is not read by {verb}")
    kind = kv.get("model", "arithmetic-bm")
    if kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    model_defaults, build = MODELS[kind]
    parsers = {"model": str, **{f"params.{key}": float for key in PARAMS},
               **{f"model.{key}": float for key in model_defaults},
               **{key: parse for key, (_, parse, _) in SCENARIO_KEYS.items()}}
    values = {}
    for key, text in kv.items():
        try:
            values[key] = parsers.get(key, str)(text)  # an unknown key raises below
        except ValueError as exc:
            raise ConfigError(f"bad scenario value: {key} = {text!r}: {exc}") from exc
        # a level, a mark size or a MarketParams field cannot name its config key later
        if parsers.get(key) is float and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {text}")
    try:
        params = MarketParams(**{key: values.get(f"params.{key}", default)
                                 for key, default in PARAMS.items()})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        model = build({key: values.get(f"model.{key}", default)
                       for key, default in model_defaults.items()
                       if default is not None or f"model.{key}" in values}, params)
    except DomainError as exc:
        raise ConfigError(f"bad model parameters: {exc}") from exc
    for key in kv:
        if key not in parsers:
            where = f" for model kind {kind!r}" if key.startswith("model.") else ""
            raise ConfigError(f"unknown key {key!r}{where}")
    return ScenarioConfig(model=model, params=params,
                          **{name: values[key] for key, (name, _, _) in SCENARIO_KEYS.items()
                             if key in values})


def load_config(path: str) -> ScenarioConfig:
    """Parse a flat ``key = value`` Monte Carlo scenario file (schema in the README)."""
    return config_from_keys(_parse_kv(path), "montecarlo")
