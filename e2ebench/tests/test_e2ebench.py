#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, on its reduced-size mode.

Run from the root of a checkout (about a minute, most of it the first
build):

    python3 e2ebench/tests/test_e2ebench.py
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("e2ebench", "run.py")
WORKLOADS = ("paper_sweep", "giant_list", "serve_mix")
SCRATCH = os.path.join(".bench_build", "tests")


def bench(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    """Runs the small mode; returns (exit code, last stdout line, stderr)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--small", *extra]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[-1] if lines else "", p.stderr


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricsMatchBenchmarkJson(unittest.TestCase):
    def check(self, trace, key):
        expected = [(m["name"], m["unit"]) for m in benchmark_json()[key]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, last, err = bench(workload, trace=trace)
                self.assertEqual(code, 0, err)
                result = json.loads(last)
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], err)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = [(k, v["unit"]) for k, v in result["metrics"].items()]
                self.assertEqual(got, expected)
                if not trace:
                    for name, v in result["metrics"].items():
                        self.assertGreater(v["value"], 0, name)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class TraceFile(unittest.TestCase):
    def test_self_times_add_up_to_traced_wall(self):
        code, last, err = bench("giant_list", seed=4, trace=1)
        self.assertEqual(code, 0, err)
        metrics = json.loads(last)["metrics"]
        path = os.path.join(ROOT, ".bench_build", "traces",
                            "giant_list-seed4.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(events)
        self.assertTrue(all(e["ph"] == "X" for e in events))
        child = [0.0] * len(events)
        for e in events:
            if e["args"]["parent"] >= 0:
                child[e["args"]["parent"]] += e["dur"]
        self_sum = sum(e["dur"] - c for e, c in zip(events, child))
        root = [e for e in events if e["args"]["parent"] < 0]
        self.assertEqual(len(root), 1)
        self.assertAlmostEqual(self_sum, root[0]["dur"], delta=1.0)
        self.assertAlmostEqual(metrics["trace.wall_s"]["value"],
                               root[0]["dur"] / 1e6, delta=1e-3)


class CorrectnessGate(unittest.TestCase):
    def corrupt(self, workload, graph_id):
        os.makedirs(os.path.join(ROOT, SCRATCH), exist_ok=True)
        src = os.path.join(ROOT, "e2ebench", "digests", workload + ".txt")
        dst = os.path.join(ROOT, SCRATCH, workload + "-corrupt.txt")
        with open(src) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if line.startswith(graph_id + " "):
                # Off by one in the first makespan of that graph.
                lines[i] = re.sub(r"=(\d+)", lambda m: "=%d" % (int(m.group(1)) + 1),
                                  line, count=1)
                break
        else:
            self.fail(graph_id + " not in " + src)
        with open(dst, "w") as f:
            f.write("\n".join(lines) + "\n")
        return dst

    def test_fires_on_corrupted_paper_digest(self):
        digest = self.corrupt("paper_sweep", "rgnos-p1-v50-c0.1")
        code, last, err = bench("paper_sweep", seed=1,
                                extra=["--digest", digest])
        self.assertEqual(code, 0, err)
        result = json.loads(last)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("differs from the digest", err)

    def test_fires_on_corrupted_giant_digest(self):
        digest = self.corrupt("giant_list", "fft8192-p2")
        code, last, err = bench("giant_list", seed=10,
                                extra=["--digest", digest])
        self.assertEqual(code, 0, err)
        result = json.loads(last)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_untouched_digest_passes(self):
        code, last, err = bench("giant_list", seed=10)
        self.assertEqual(code, 0, err)
        self.assertTrue(json.loads(last)["correct"], err)


class ServeHygiene(unittest.TestCase):
    def test_daemon_stops_cleanly_and_leaves_nothing(self):
        run_dir = os.path.join(ROOT, ".bench_build", "run")
        before = set(os.listdir(run_dir)) if os.path.isdir(run_dir) else set()
        code, last, err = bench("serve_mix", seed=7)
        self.assertEqual(code, 0, err)
        # Each daemon's shutdown is checked inside the run (exit 0, socket
        # gone, nothing but the journal left) and reported as a failure.
        self.assertTrue(json.loads(last)["correct"], err)
        after = set(os.listdir(run_dir)) if os.path.isdir(run_dir) else set()
        self.assertEqual(after - before, set())
        self.assertNotIn("fell behind", err)

    def test_load_shape_is_the_one_benchmark_json_records(self):
        code, _, err = bench("serve_mix", seed=8)
        self.assertEqual(code, 0, err)
        m = re.search(r"at (\d+)/s, \d+ closed on (\d+) connections, "
                      r"(\d+) workers", err)
        self.assertIsNotNone(m, err)
        rate, conns, workers = m.groups()
        why = {w["name"]: w["why"] for w in benchmark_json()["workloads"]}["serve_mix"]
        self.assertIn(rate + " req/s", why)
        self.assertIn(conns + " connections", why)
        self.assertIn("--workers=" + workers, why)
        self.assertLessEqual(int(conns), 2)
        self.assertLessEqual(int(workers), 2)


class KnownDefect(unittest.TestCase):
    # DscScheduler ignores SchedOptions::num_procs, so a DSC request on 4
    # processors gets a schedule on more, which the gate rejects. serve_mix
    # leaves bounded DSC out of its mix until that is fixed; this test asks
    # for it and checks that the gate still reports exactly that defect.
    def test_bounded_dsc_still_breaks_its_bound(self):
        code, last, err = bench("serve_mix", seed=7, extra=["--bounded-dsc"])
        self.assertEqual(code, 0, err)
        self.assertFalse(json.loads(last)["correct"],
                         "DSC now honours procs: put bounded DSC back into "
                         "serve_mix's mix (configs() in src/serve_mix.cpp) "
                         "and drop --bounded-dsc")
        failures = [l for l in err.splitlines() if l.startswith("FAILED:")]
        self.assertTrue(failures, err)
        for line in failures:
            self.assertIn("but only 4 allowed", line)


class BareDirectory(unittest.TestCase):
    def test_fails_without_a_result_when_sources_are_missing(self):
        bare = os.path.join(ROOT, SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "e2ebench"),
                        os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, last, _ = bench("giant_list", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(last, "")


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
