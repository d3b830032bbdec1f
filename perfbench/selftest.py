"""Self-test of the benchmark harness at smoke size.

    python3 perfbench/selftest.py

Runs the same command and checks as the benchmark on tiny inputs (about a
minute in all), so the harness cannot rot unnoticed.  The file name matches
no pytest pattern, so the repository's test suite does not collect it.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "0", "--seconds", "1",
         "--size", "smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


class SmokeRun(unittest.TestCase):
    def result(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], proc.stdout)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        return out

    def test_end_to_end_metrics_on_every_workload(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                out = self.result(bench("--workload", workload["name"], "--trace", "0"))
                self.assertEqual(list(out["metrics"]), names)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(out["metrics"][m["name"]]["value"], 0, m["name"])
                    self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])

    def test_traced_run_reports_every_layer(self):
        proc = bench("--workload", "gradlog", "--trace", "1")
        out = self.result(proc)
        self.assertEqual(list(out["metrics"]), [m["name"] for m in SPEC["per_layer"]])
        for m in SPEC["per_layer"]:
            self.assertTrue(math.isfinite(out["metrics"][m["name"]]["value"]), m["name"])
        for name in ("gradlog.load_gradlog.mb_per_s", "trace.wall_s", "cli.import_s"):
            self.assertGreater(out["metrics"][name]["value"], 0, name)
        self.assertIn("layers' self_s over the traced run", proc.stdout)

    def test_refuses_to_run_without_the_program(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(HERE, root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "trajectory", "--trace", "0", root=root)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip())


class Pieces(unittest.TestCase):
    def test_reference_tolerance_is_relative_1e9(self):
        import workloads

        for got, ok in ((1.0 + 1e-10, True), (1.0 + 1e-8, False)):
            checks = workloads.Checks()
            checks.against({"x": got, "n": 3}, {"x": 1.0, "n": 3})
            self.assertEqual([item[1] for item in checks.items], [ok, True])

    def test_scaled_integrates_the_host_speed(self):
        from hostspeed import REF_S, SpeedLog

        # The kernel takes REF_S until t = 5 s and twice that from then on.
        log = SpeedLog([(i * 0.05, REF_S * (2 if i >= 100 else 1)) for i in range(200)])
        self.assertAlmostEqual(log.scaled([(1.0, 2.0)]), 1.0)
        self.assertAlmostEqual(log.scaled([(6.0, 8.0)]), 1.0)
        self.assertAlmostEqual(log.scaled([(1.0, 2.0), (6.0, 8.0)]), 2.0)
        self.assertAlmostEqual(log.scaled([(-5.0, 0.5)]), 5.5)

    def test_parse_importtime_counts_top_scipy_modules_once(self):
        from run import parse_importtime

        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy",
            "import time:        50 |         50 |         scipy",
            "import time:       250 |        300 |       scipy.special",
            "import time:        40 |        440 |     passklab.bandit",
            "import time:        10 |        450 |   passklab",
            "import time:        20 |        470 | passklab.cli",
        ])
        self.assertEqual(parse_importtime(text), (470e-6, 300e-6))


if __name__ == "__main__":
    unittest.main()
