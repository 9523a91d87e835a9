import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one unit of each fast workload through the library surface the benchmark
# calls: builder signatures, airy_pair(..., tol=), AiryPair.ai/dai/bi/dbi and
# the order of costs.CRITERIA
SMOKE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from run import unit_seed

out = {}
for name in ("mc-strategies", "audit-certify"):
    workload, tally = workloads.WORKLOADS[name], workloads.Tally()
    with tempfile.TemporaryDirectory() as tmp:
        workload.prepare(Path(tmp))
        state = workload.load(Path(tmp))
        seed = unit_seed(1, 0)
        result = workload.run(state, seed)
        workload.check(state, result, seed, True, tally)
    out[name] = [tally.attempted, tally.failed]
print(json.dumps(out))
"""


def test_benchmark_tracer_selftest():
    # the tracer wraps module attributes of pathexec; its self-tests fail when
    # the package stops calling through them or stops re-exporting them
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_benchmark_workloads_run_one_unit_cleanly():
    done = subprocess.run([sys.executable, "-c", SMOKE, str(ROOT / "perfbench")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    for name, (attempted, failed) in counts.items():
        assert attempted > 0 and failed == 0, (name, done.stderr)
