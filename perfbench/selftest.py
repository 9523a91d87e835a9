"""Self-tests of the benchmark's tracer.

    python3 perfbench/selftest.py

Plain unittest, named so that the repository's pytest run does not collect
it: these tests check the benchmark, not pathexec.
"""

import sys
import tempfile
import types
import unittest
from pathlib import Path

import workloads  # puts the pathexec sources on sys.path
import pathexec
from pathexec import airy, cli, harness
from tracer import ROOT, Tracer, Target, package_modules, self_times


def snapshot() -> dict:
    """Every attribute of every loaded pathexec module, plus the AiryPair methods."""
    out = {(m.__name__, attr): value
           for m in package_modules() for attr, value in vars(m).items()}
    out.update({("AiryPair", attr): value for attr, value in vars(airy.AiryPair).items()})
    return out


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_spans(self):
        spans = [("outer", 0.0, 10.0, ROOT),
                 ("inner", 2.0, 5.0, 0),
                 ("leaf", 3.0, 4.0, 1),
                 ("inner", 6.0, 7.0, 0),
                 ("other", 11.0, 12.0, ROOT)]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0, 1.0])

    def test_nested_call_through_wrappers(self):
        fake = types.ModuleType("pathexec.selftest_fake")
        exec("import time\n"
             "def inner():\n"
             "    time.sleep(0.01)\n"
             "def outer():\n"
             "    time.sleep(0.02)\n"
             "    inner()\n"
             "    inner()\n", fake.__dict__)
        sys.modules[fake.__name__] = fake
        try:
            tracer = Tracer([Target("fake.outer", fake, "outer"),
                             Target("fake.inner", fake, "inner")])
            with tracer.active():
                fake.outer()
        finally:
            del sys.modules[fake.__name__]
        self.assertEqual([(name, parent) for name, _, _, parent in tracer.spans],
                         [("fake.outer", ROOT), ("fake.inner", 0), ("fake.inner", 0)])
        summary = tracer.summary()
        outer, inner = summary["fake.outer"], summary["fake.inner"]
        self.assertEqual((outer["calls"], inner["calls"]), (1, 2))
        self.assertAlmostEqual(outer["self_s"] + inner["self_s"], outer["durations"][0],
                               places=12)
        self.assertAlmostEqual(tracer.root_time(), outer["durations"][0], places=12)
        self.assertGreaterEqual(outer["self_s"], 0.02)
        self.assertLess(outer["self_s"], 0.02 + 0.05)
        self.assertGreaterEqual(inner["self_s"], 0.02)


class BindingTest(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer(workloads.trace_targets())

    def test_search_finds_reexported_names(self):
        originals = (airy.airy_pair, harness.run_scenario, airy.AiryPair.ai)
        with self.tracer.active():
            self.assertIsNot(harness.airy_pair, originals[0])
            self.assertIs(harness.airy_pair, airy.airy_pair)
            self.assertIs(pathexec.airy_pair, airy.airy_pair)
            self.assertIsNot(cli.run_scenario, originals[1])
            self.assertIs(cli.run_scenario, harness.run_scenario)
            self.assertIsNot(airy.AiryPair.ai, originals[2])
        self.assertIs(harness.airy_pair, originals[0])
        self.assertIs(cli.run_scenario, originals[1])
        self.assertIs(airy.AiryPair.ai, originals[2])

    def test_bindings_restored_after_traced_run(self):
        before = snapshot()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "tiny.cfg"
            cfg.write_text("grid = 64\npaths = 3\ncriterion = time\n"
                           "params.risk_aversion = 1.15\n"
                           f"strategies = {', '.join(harness.ALL_STRATEGIES)}\n")
            with self.tracer.active():
                code = cli.main(["montecarlo", "--config", str(cfg), "--out", tmp])
        self.assertEqual(code, 0)
        names = {name for name, _, _, _ in self.tracer.spans}
        self.assertTrue({"cli.main", "harness.run_scenario", "airy.airy_pair",
                         "airy.eval", "costs.cost_J"} <= names)
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key, value in before.items() if after[key] is not value]
        self.assertEqual(changed, [])

    def test_bindings_restored_when_unit_raises(self):
        before = snapshot()
        with self.assertRaises(RuntimeError):
            with self.tracer.active():
                raise RuntimeError("unit failed")
        after = snapshot()
        self.assertEqual([k for k, v in before.items() if after[k] is not v], [])


if __name__ == "__main__":
    unittest.main()
