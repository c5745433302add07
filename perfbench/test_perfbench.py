"""Self-tests of the benchmark, at tiny sizes.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS, import_privagg  # noqa: E402

TINY = {
    "deploy-large": {"n": 30},
    "rounds-sparse": {"n": 20, "p": 0.1, "rounds": 5},
    "analyze": {"n": 12, "rounds": 4, "mc_trials": 500},
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def measure(name: str, seed: int, trace: bool, prepare=None) -> dict:
    """One operation of the tiny workload on a fresh import of privagg."""
    mods = import_privagg()
    if prepare is not None:
        prepare(mods)
    return run.measure(tiny(name), seed=seed, seconds=0, trace=trace, mods=mods)


class BenchmarkTest(unittest.TestCase):
    def test_workloads_are_the_declared_ones(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in run.SPEC["workloads"]))

    def test_every_metric_appears_with_its_unit(self):
        for name in WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = measure(name, seed=3, trace=trace)["result"]
                    self.assertTrue(result["correct"])
                    self.assertEqual((result["attempted"], result["failed"]), (1, 0))
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in run.SPEC[section]})
                    if not trace:
                        for k, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_injected_wrong_sum_is_counted_as_failed(self):
        def corrupt(mods):
            unmask = mods.protocol.unmask
            mods.protocol.unmask = lambda final, r, m: (unmask(final, r, m) + 1) % m

        out = measure("rounds-sparse", seed=3, trace=False, prepare=corrupt)
        self.assertFalse(out["result"]["correct"])
        self.assertEqual(out["result"]["failed"], out["result"]["attempted"])
        self.assertEqual(out["details"]["failed_frac"], 1.0)
        self.assertIn("truth", out["details"]["failures"][0]["violations"][0])

    def test_statistics_repeat_for_a_seed(self):
        first = measure("rounds-sparse", seed=5, trace=False)
        again = measure("rounds-sparse", seed=5, trace=True)
        self.assertTrue(again["result"]["correct"])
        self.assertEqual(first["details"]["stats"], again["details"]["stats"])

    def test_traced_run_puts_the_originals_back(self):
        mods = import_privagg()
        before = (mods.simnet.generate_topology, mods.protocol.RoundRunner.run)
        run.measure(tiny("rounds-sparse"), seed=7, seconds=0, trace=True, mods=mods)
        self.assertEqual((mods.simnet.generate_topology, mods.protocol.RoundRunner.run), before)



if __name__ == "__main__":
    unittest.main()
