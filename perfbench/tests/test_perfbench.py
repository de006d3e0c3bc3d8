"""Self-tests of the benchmark: the correctness gate, trace coverage and
repeatable counts.

    python3 -m pytest perfbench/tests -q      (from the repository root)

The traced tests run every workload twice with tracing, which takes a few
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from workloads import WORKLOADS, check_report, operations  # noqa: E402

PER_LAYER_UNITS = run.metric_units("per_layer")

# counter -> workloads it must be nonzero on; every other workload bypasses
# the layer and must read zero.  A wrapper that misses a ``from ... import``
# binding reads zero where it should not.
STRESSED = {
    "matcat.then.calls": {"functor-sweep", "carrier-search"},
    "matcat.functor_evals": {"functor-sweep", "carrier-search"},
    "autfunctors.law_checks": {"functor-sweep"},
    "semirings.ops": {"functor-sweep", "carrier-search"},
    "matcat.invertible_morphisms.candidates": {"functor-sweep",
                                               "carrier-search"},
    "matcat.invert.calls": {"functor-sweep", "carrier-search"},
    "autfunctors.inner_witness.calls": {"carrier-search"},
    "semirings.automorphism_groups.candidates": {"functor-sweep",
                                                 "carrier-search"},
    "ibn.pair_space": {"carrier-search"},
    "lie.multiply.calls": {"pbw"},
    "lie.normal_form_word.calls": {"pbw"},
    "lie.coeff_ops": {"pbw"},
    "harness.report_bytes": {"functor-sweep", "carrier-search", "pbw"},
}

# metrics that count work and so must repeat exactly at one seed
EXACT_UNITS = ("count", "bytes")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def traced_metrics(workload, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in line["metrics"].items()}


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: (traced_metrics(w, 3), traced_metrics(w, 3))
                    for w in sorted(WORKLOADS)}

    def test_every_per_layer_metric_is_emitted(self):
        for workload, (first, _) in self.runs.items():
            self.assertEqual(sorted(first), sorted(PER_LAYER_UNITS), workload)

    def test_counts_repeat_exactly_at_one_seed(self):
        for workload, (first, second) in self.runs.items():
            for name, unit in PER_LAYER_UNITS.items():
                if unit in EXACT_UNITS:
                    self.assertEqual(first[name], second[name],
                                     f"{workload} {name}")

    def test_stressing_counters_cover_their_workloads_only(self):
        for name, stressed in STRESSED.items():
            for workload, (first, _) in self.runs.items():
                if workload in stressed:
                    self.assertGreater(first[name], 0, f"{workload} {name}")
                else:
                    self.assertEqual(first[name], 0, f"{workload} {name}")

    def test_overhead_is_reported(self):
        for workload, (first, _) in self.runs.items():
            self.assertGreater(first["trace.overhead"], 1.0, workload)


class Gate(unittest.TestCase):
    def _op(self, workload, op_id):
        return next(op for op in operations(workload, 0, "out")
                    if op["id"] == op_id)

    def test_seed_independent_values_are_checked(self):
        op = self._op("carrier-search", "autgroups gf:9")
        report = {"verdict": "pass", "records": [{
            "name": "orders", "status": "pass",
            "witness": json.dumps({"aut": 2, "inn": 1, "out": 2})}]}
        self.assertEqual(check_report(op, json.dumps(report)), [])
        report["records"][0]["witness"] = json.dumps(
            {"aut": 2, "inn": 2, "out": 1})
        self.assertEqual(len(check_report(op, json.dumps(report))), 1)

    def test_a_failing_verdict_is_caught(self):
        op = self._op("carrier-search", "autgroups gf:9")
        report = {"verdict": "fail", "records": [{
            "name": "orders", "status": "fail",
            "witness": json.dumps({"aut": 2, "inn": 1, "out": 2})}]}
        self.assertEqual(len(check_report(op, json.dumps(report))), 1)

    def test_extra_records_are_not_failures(self):
        op = self._op("carrier-search", "outgroup gf:9")
        report = {"verdict": "pass", "records": [
            {"name": "class-count-matches-out", "status": "pass",
             "witness": json.dumps({"class_count": 2, "out_order": 2})},
            {"name": "a-record-added-later", "status": "pass"}]}
        self.assertEqual(check_report(op, json.dumps(report)), [])

    def test_class_count_must_match_out_order(self):
        op = self._op("carrier-search", "outgroup gf:9")
        report = {"verdict": "pass", "records": [
            {"name": "class-count-matches-out", "status": "pass",
             "witness": json.dumps({"class_count": 1, "out_order": 2})}]}
        self.assertEqual(len(check_report(op, json.dumps(report))), 1)

    def test_unreadable_report_fails(self):
        op = self._op("pbw", "lie units sl2:zmod:5 --degree-cap 5")
        self.assertTrue(check_report(op, "Traceback ..."))

    def test_library_call_results(self):
        op = self._op("carrier-search", "free_iso_witness boolean 2 3 no-shortcut")
        self.assertEqual(check_report(op, "null"), [])
        self.assertTrue(check_report(op, "[[0]]"))


class RunGate(unittest.TestCase):
    """A failed operation makes a run incorrect; a known defect is reported
    on its own and counts neither as attempted nor as failed."""

    def _run(self, *ops):
        def given_ops(workload, seed, data_dir):
            return [dict(op, argv=op["argv"] + ["--seed", str(seed)])
                    for op in ops]

        original = run.operations
        run.operations = given_ops
        try:
            return run.run_workload(ROOT, "carrier-search", 1, 0, 0)
        finally:
            run.operations = original

    def _autgroups_gf9(self, **changes):
        op = next(op for op in operations("carrier-search", 0, "out")
                  if op["id"] == "autgroups gf:9")
        op["argv"] = op["argv"][:-2]  # without --seed
        return dict(op, **changes)

    def _correct_failed(self, *ops):
        line, _ = self._run(*ops)
        return line["correct"], line["failed"]

    def test_a_correct_operation_passes(self):
        self.assertEqual(self._correct_failed(self._autgroups_gf9()), (True, 0))

    def test_a_wrong_value_makes_the_run_incorrect(self):
        op = self._autgroups_gf9(expect={
            "verdict": "pass", "orders": {"aut": 2, "inn": 2, "out": 1}})
        self.assertEqual(self._correct_failed(op), (False, 1))

    def test_a_wrong_exit_code_makes_the_run_incorrect(self):
        op = self._autgroups_gf9(exit=2)
        self.assertEqual(self._correct_failed(op), (False, 1))

    def test_a_known_failure_is_reported_apart(self):
        line, record = self._run(
            self._autgroups_gf9(),
            self._autgroups_gf9(exit=2, known_failure="test"))
        self.assertEqual((line["correct"], line["failed"]), (True, 0))
        self.assertEqual(line["attempted"], run.SETUP_SAMPLES + 1)
        [defect] = record["known_defects"]
        self.assertTrue(defect["reproduces"])


class Checkout(unittest.TestCase):
    def test_fails_without_the_program(self):
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "pbw", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
