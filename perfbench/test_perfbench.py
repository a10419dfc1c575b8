"""Self-checks of the benchmark (standard library only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root.  They take about a minute: every workload
is traced twice in full.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS, _op_counts, child_env  # noqa: E402


def _worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


class ScratchData(unittest.TestCase):
    """A private copy of the frozen inputs under perfbench/out/."""

    def setUp(self) -> None:
        (HERE / "out").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="test-", dir=HERE / "out"))
        shutil.copytree(HERE / "data", self.tmp / "data")
        self.data_arg = os.path.relpath(self.tmp / "data", ROOT)

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp)


class TestBenchmarkFile(unittest.TestCase):
    def test_metric_tables_match(self) -> None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]],
            [tuple(m) for m in END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [tuple(m) for m in PER_LAYER],
        )
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)


class TestCounts(ScratchData):
    def test_two_traced_runs_count_the_same(self) -> None:
        # Two repetitions of a run, so two different item orders: the cache
        # misses are the distinct keys, whichever item meets them first.
        spans = str(self.tmp / "spans.json")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [
                    _worker("--workload", workload, "--seed", "3", "--rep", rep, "--trace-out", spans)
                    for rep in ("0", "1")
                ]
                self.assertEqual(runs[0]["failed"], [])
                self.assertEqual(
                    _op_counts(runs[0]["aggregates"]), _op_counts(runs[1]["aggregates"])
                )


class TestFailures(ScratchData):
    def test_corrupted_expected_output_is_a_failed_item(self) -> None:
        expected_path = self.tmp / "data" / "cli-docs" / "expected.json"
        expected = json.loads(expected_path.read_text("utf-8"))
        expected["outputs"]["x2-validate"] = "corrupted\n"
        expected_path.write_text(json.dumps(expected), "utf-8")
        proc = _bench(
            "--workload", "cli-docs", "--seed", "1", "--seconds", "1", "--trace", "0",
            "--data", self.data_arg,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        *_, prov_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        provenance = json.loads(prov_line)["provenance"]
        reps = provenance["reps_untraced"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 9 * reps)
        self.assertEqual(result["failed"], reps)
        self.assertAlmostEqual(provenance["failed_ratio"], 1 / 9)
        self.assertEqual({f["id"] for f in provenance["failures"]}, {"x2-validate"})

    def test_changed_input_is_refused_before_timing(self) -> None:
        inputs = self.tmp / "data" / "chern-oracle" / "inputs.json"
        inputs.write_text(inputs.read_text("utf-8").replace('"seed":', '"seed": '), "utf-8")
        proc = _bench(
            "--workload", "chern-oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
            "--data", self.data_arg,
        )
        self.assertEqual(proc.returncode, 3)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
