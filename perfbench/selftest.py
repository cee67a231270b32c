"""Self-test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

Shows that a corrupted reference is counted as a failure, that the runner
prints exactly the metrics BENCHMARK.json names and that every name is
well formed, and that tracing changes no output while the traced counts
repeat exactly and agree with the counts read off the outputs.
"""

import copy
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checkout

checkout.use_checkout_source()

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 11


def build(name: str, tmp: str, refs=None):
    return workloads.build(name, SEED, 1, Path(tmp), refs or workloads.load_refs())


def summaries(workload) -> dict:
    return {job.id: job.summary(job.run()) for job in workload.passes[0]}


def traced_pass(workload) -> tuple:
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        out = summaries(workload)
    finally:
        tracer.restore()
    return out, tracer.counts


class CorruptedReference(unittest.TestCase):
    def test_corrupted_reference_is_a_failed_job(self):
        refs = copy.deepcopy(workloads.load_refs())
        refs["invariants"]["eval:diag:toric:3"]["all_zero"] = False
        refs["invariants"]["classify:4"]["tally"] = {"InBothWithWitness": 20}
        with tempfile.TemporaryDirectory(dir=checkout.TMP) as tmp:
            outcomes = run.Outcomes()
            run.run_pass(build("invariants", tmp, refs), 0, outcomes)
        self.assertEqual(len(outcomes.failures), 2, outcomes.failures)
        self.assertTrue(outcomes.failures[0].startswith("eval:diag:toric:3: all_zero"))
        self.assertEqual(outcomes.attempted, len(workloads.invariants_jobs(None)))

    def test_mcmc_p_value_outside_tolerance_fails(self):
        ref = workloads.load_refs()["mcmc"]["mcmc:common:3"]
        got = {"p_value": ref["p_exact"], "stderr": 0.01, "statistic": ref["statistic"],
               "samples": ref["samples"]}
        self.assertIsNone(workloads.mismatch("mcmc", got, ref))
        for shift in (0.2, -0.2):
            far = dict(got, p_value=ref["p_exact"] + shift)
            self.assertIsNotNone(workloads.mismatch("mcmc", far, ref))

    def test_cli_record_against_reference(self):
        with tempfile.TemporaryDirectory(dir=checkout.TMP) as tmp:
            workload = build("toric", tmp)
        cmd = workload.cli[0]
        gens = workload.refs[cmd.ref_id]["generators"]
        good = {"generators": gens, "ideal_equal": True, "verdict": "EQUAL"}
        self.assertIsNone(workloads.check_cli(cmd, good, workload.refs))
        for bad in (dict(good, verdict="NOT EQUAL"), dict(good, generators=gens[1:])):
            self.assertIsNotNone(workloads.check_cli(cmd, bad, workload.refs))


class MetricNames(unittest.TestCase):
    def test_runner_prints_the_declared_metrics(self):
        spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
        declared = {0: [m["name"] for m in spec["end_to_end"]],
                    1: [m["name"] for m in spec["per_layer"]]}
        for names in declared.values():
            for name in names:
                self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(declared[1], [name for name, _ in layers.METRICS])
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(checkout.BENCH / "run.py"), "--workload", "invariants",
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=checkout.ROOT, timeout=300,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(sorted(result["metrics"]), sorted(declared[trace]))


class TracedCounts(unittest.TestCase):
    def test_tracing_changes_no_output_and_counts_repeat(self):
        for name in ("mcmc", "fibers", "toric", "invariants"):
            with self.subTest(workload=name), tempfile.TemporaryDirectory(dir=checkout.TMP) as tmp:
                workload = build(name, tmp)
                untraced = summaries(workload)
                traced, counts = traced_pass(workload)
                again, counts_again = traced_pass(workload)
                self.assertEqual(untraced, traced)
                self.assertEqual(traced, again)
                self.assertEqual(counts, counts_again)
                self.check_against_outputs(name, untraced, counts)

    def check_against_outputs(self, name, outputs, counts):
        def total(prefix, key):
            return sum(s[key] for job_id, s in outputs.items() if job_id.startswith(prefix))

        if name == "mcmc":
            self.assertEqual(counts["walk_emitted"], total("", "samples"))
        elif name == "fibers":
            self.assertEqual(counts["fiber_tables"], total("enumerate", "samples"))
            self.assertEqual(counts["sweep_tables_seen"], total("sweep", "tables_seen"))
            self.assertEqual(counts["sweep_fibers"], total("sweep", "fibers"))
        elif name == "toric":
            self.assertGreater(counts["order_key_calls"], 0)
            self.assertGreaterEqual(counts["basis_size"], sum(
                len(s["generators"]) for s in outputs.values()))
        else:
            self.assertGreaterEqual(counts["evaluations"], total("eval", "evaluations"))


def main() -> int:
    checkout.TMP.mkdir(exist_ok=True)
    result = unittest.main(argv=[sys.argv[0], "-v"], exit=False).result
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
