"""Run one pathexec benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mc-strategies --seed 1 --seconds 20 --trace 0

Workloads: mc-strategies, audit-certify, calibrate-simulate (README.md says
why each exists).  ``--trace 0`` measures the end-to-end metrics listed in
BENCHMARK.json with tracing off; ``--trace 1`` is a separate traced run that
reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

The load is a closed loop: this one process runs units (fixed path counts)
back to back, with BLAS pinned to one thread.  Work files live in
.perfbench/ in the checkout and are removed at exit; a record of the run
(host, digest, unit times, spans of the first traced unit) is written to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_UNITS = 5          # the warm-up unit, then at least two traced and two untraced
UNIT_LIMIT_S = 120.0   # start no unit past this, so a slow program still exits in time
SETUP_PROBES = 5       # cold starts per run; the median is setup_s


def unit_seed(seed: int, unit: int) -> int:
    """Input seed of one unit: unit 0 depends on the run seed alone."""
    return seed * 100_000 + unit


def setup_times(workload: str, workdir: Path) -> list[float]:
    """Cold-start seconds of SETUP_PROBES fresh interpreters, after one warm-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times[1:]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def host_record() -> dict:
    """Versions, CPUs, BLAS threads and a fixed numpy yardstick (sort of 10^6 doubles)."""
    import numpy as np
    import scipy

    data = np.random.default_rng(0).standard_normal(1_000_000)
    ref = []
    for _ in range(7):
        start = time.perf_counter()
        np.sort(data)
        ref.append(time.perf_counter() - start)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "commit": commit(),
        "numpy_sort_1e6_ms": 1e3 * statistics.median(ref),
        "loadavg_1m": os.getloadavg()[0],
    }


def measure(workload, state, seed: int, seconds: float, tracer, tally) -> SimpleNamespace:
    """Run units until ``seconds`` have passed and MIN_UNITS are done.

    Unit 0 is the warm-up: lazy imports and first-touch allocations land in
    it, so it is checked and its outputs make the per-seed digest, but it is
    not timed.  With a tracer, odd units are traced and even ones are not,
    so both see the same machine conditions.
    """
    untraced, traced, digest, first_spans = [], [], hashlib.sha256(), None
    start = time.perf_counter()
    unit = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (unit >= MIN_UNITS or elapsed >= UNIT_LIMIT_S):
            break
        use_trace = tracer is not None and unit % 2 == 1
        s = unit_seed(seed, unit)
        gc.collect()
        try:
            with tracer.active() if use_trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = workload.run(state, s)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            tally.ops(workload.paths, False, f"unit {unit} (seed {s}) raised")
        else:
            if unit > 0:
                (traced if use_trace else untraced).append(wall)
            part = workload.check(state, result, s, unit == 0, tally)
            if unit == 0:
                digest.update(part)
        if use_trace and first_spans is None:
            first_spans = len(tracer.spans)
        unit += 1
    return SimpleNamespace(untraced=untraced, traced=traced, units=unit,
                           seconds=time.perf_counter() - start,
                           digest=digest.hexdigest(), first_spans=first_spans or 0)


def end_to_end(workload, run, setup: list[float]) -> dict:
    run_s = statistics.median(run.untraced)
    return {
        "paths_per_s": workload.paths / run_s,
        "run_s": run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, run) -> dict:
    """Per traced unit: self time and calls of each layer, counters, audit tail."""
    import numpy as np

    n = len(run.traced)
    summary = tracer.summary()
    out = {}
    for name, row in summary.items():
        out[f"{name}.self_s"] = row["self_s"] / n
        out[f"{name}.calls"] = row["calls"] / n
    for name, counter in tracer.counts.items():
        for key, value in counter.items():
            out[f"{name}.{key}"] = value / n
    audit = tracer.counts.get("costs.audit_good_inequality")
    if audit:
        ms = 1e3 * np.array(summary["costs.audit_good_inequality"]["durations"])
        out["costs.audit.p50_ms"] = float(np.percentile(ms, 50))
        out["costs.audit.p90_ms"] = float(np.percentile(ms, 90))
        out["costs.audit.perturbations"] = audit["perturbations"] / n
        out["costs.audit.kept_ratio"] = audit["kept"] / audit["perturbations"]
    out["trace.overhead_frac"] = statistics.mean(run.traced) / statistics.mean(run.untraced) - 1.0
    out["trace.unattributed_s"] = (sum(run.traced) - tracer.root_time()) / n
    out["trace.run_s"] = statistics.mean(run.traced)
    return out


def select(specs: list[dict], values: dict, layer_names: set) -> dict:
    """The metrics BENCHMARK.json lists, with their units.

    A layer the workload never calls reads 0; a listed name that no layer or
    computation produces is an error.
    """
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values and name.rsplit(".", 1)[0] not in layer_names:
            raise KeyError(f"metric {name} is not measured by this benchmark")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "pathexec" / "__init__.py").is_file():
        print(f"error: no pathexec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is imported, here and in the probes
        os.environ[var] = "1"

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = workloads.trace_targets()
    tracer = Tracer(targets) if args.trace else None
    tally = workloads.Tally()

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.prepare(workdir)
        setup = [] if args.trace else setup_times(args.workload, workdir)
        state = workload.load(workdir)
        host = host_record()
        run = measure(workload, state, args.seed, args.seconds, tracer, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.untraced or (args.trace and not run.traced):
        print("error: no unit completed", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(tracer, run)
        metrics = select(spec["per_layer"], values,
                         {t.name for t in targets} | {"costs.audit", "trace"})
    else:
        values = end_to_end(workload, run, setup)
        metrics = select(spec["end_to_end"], values, set())

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "digest": run.digest, "units": run.units,
        "paths_per_unit": workload.paths, "unit_s": run.untraced,
        "traced_unit_s": run.traced, "setup_s": setup, "metrics": values,
        "attempted": tally.attempted, "failed": tally.failed,
    }
    if tracer is not None:
        spans = tracer.spans[:run.first_spans]
        t0 = spans[0][1] if spans else 0.0
        record["first_traced_unit_spans"] = [
            (name, start - t0, end - t0, parent) for name, start, end, parent in spans]
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {args.workload} seed {args.seed}: {run.units} units of {workload.paths} "
          f"paths in {run.seconds:.1f} s ({len(run.traced)} traced); "
          f"digest {run.digest}")
    print(f"# host {json.dumps(host)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
