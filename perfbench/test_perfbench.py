#!/usr/bin/env python3
"""The benchmark's own tests. Stdlib only; run from the checkout root:

    python3 perfbench/test_perfbench.py

They build perfbench through run.py (the first call compiles the library)
and then drive the binary with small query counts:

  * one seed gives an identical query stream, and bit-identical simulated
    metrics, CIM shares and DCSM row counts from two separate processes;
  * another seed gives another stream;
  * every metric name and unit printed, on every workload, matches
    BENCHMARK.json (end-to-end with --trace 0, per-layer with --trace 1);
  * the traced run's span file is a valid Chrome trace and every query's
    self times add up to its span (the run reports correct=true);
  * with only BENCHMARK.json and perfbench/ present the benchmark exits
    non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-test")
ALL_WORKLOADS = ["appendix_zipf", "hit_stream", "fanout_miss"]
# --seconds 0 runs one pass: one round per stream.
SMALL = ["--queries", "120", "--seconds", "0"]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(*args):
    done = subprocess.run([BINARY, *args], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric_lines(stdout):
    """(name, unit) of every 'metric' line of the human report."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("metric "):
            fields = line.split()
            out.append((fields[1], fields[3]))
    return out


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # run.py builds on first use; a tiny hit_stream run is the cheapest
        # way to get the binary in place.
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "hit_stream", "--queries", "20", "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise RuntimeError("perfbench build/run failed:\n" + done.stderr)
        os.makedirs(SCRATCH, exist_ok=True)

    def stream(self, workload, seed):
        done = run_binary("--workload", workload, "--seed", str(seed),
                          "--queries", "200", "--dump-stream")
        self.assertEqual(done.returncode, 0, done.stderr)
        return done.stdout

    def test_stream_is_a_function_of_the_seed(self):
        for workload in ALL_WORKLOADS:
            with self.subTest(workload=workload):
                first = self.stream(workload, 7)
                self.assertEqual(first, self.stream(workload, 7))
                self.assertNotEqual(first, self.stream(workload, 8))
                self.assertIn("1 Q ?- ", first)

    def test_simulated_metrics_repeat_bit_for_bit(self):
        sim = ["sim_tf_ms_mean", "sim_ta_ms_mean", "sim_ta_ms_p995",
               "remote_calls_per_query"]
        shares = ["cim.exact_hit_frac", "cim.invariant_hit_frac",
                  "cim.miss_frac", "cim.actual_calls_per_query",
                  "optimizer.cim_plan_frac", "engine.domain_calls_per_query",
                  "net.network_ms_per_query", "dcsm.rows_scanned_start",
                  "dcsm.rows_scanned", "dcsm.records"]
        for workload in ALL_WORKLOADS:
            for trace, names in (("0", sim), ("1", shares)):
                with self.subTest(workload=workload, trace=trace):
                    runs = [result_of(run_binary(
                        "--workload", workload, "--seed", "5", "--trace",
                        trace, *SMALL)) for _ in range(2)]
                    for name in names:
                        self.assertEqual(runs[0]["metrics"][name],
                                         runs[1]["metrics"][name], name)

    def test_printed_metrics_match_benchmark_json(self):
        spec = benchmark_spec()
        expected = {"0": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                    "1": [(m["name"], m["unit"]) for m in spec["per_layer"]]}
        for workload in ALL_WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    done = run_binary("--workload", workload, "--seed", "3",
                                      "--trace", trace, *SMALL)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(metric_lines(done.stdout),
                                     expected[trace])
                    self.assertEqual(
                        [(k, v["unit"]) for k, v in result["metrics"].items()],
                        expected[trace])

    def test_gated_workloads_exist(self):
        for w in benchmark_spec()["workloads"]:
            self.assertIn(w["name"], ALL_WORKLOADS)

    def test_span_file_is_a_valid_chrome_trace(self):
        done = run_binary("--workload", "appendix_zipf", "--seed", "4",
                          "--trace", "1", "--out", SCRATCH, *SMALL)
        self.assertEqual(done.returncode, 0, done.stderr)
        # correct=true includes the check that self times add up.
        self.assertTrue(result_of(done)["correct"])
        path = os.path.join(SCRATCH, "appendix_zipf-seed4-trace.spans.json")
        with open(path) as f:
            doc = json.load(f)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        for span in ("bench.request", "lang.parse", "mediator.query", "query",
                     "optimize", "bench.check"):
            self.assertIn(span, names)
        validator = os.path.join(ROOT, "tools", "validate_trace.py")
        if os.path.isfile(validator):
            check = subprocess.run([sys.executable, validator, path],
                                   capture_output=True, text=True,
                                   check=False)
            self.assertEqual(check.returncode, 0, check.stderr)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "appendix_zipf", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180,
            check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
