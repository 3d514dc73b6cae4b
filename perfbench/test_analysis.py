"""Self-test of the benchmark's metric math and output checks.

  python3 -m unittest discover -s perfbench -p 'test_*.py'

(run.py --self-test runs these and then the same checks on real harness
output.)
"""

import math
import unittest

import analysis


def op(kernel="bfs", dataset="pokec", policy="atmem", **overrides):
    record = {
        "op": 1, "kernel": kernel, "dataset": dataset, "policy": policy,
        "first_iter_sec": 1e-4, "measured_iter_sec": 5e-5,
        "fast_data_ratio": 0.5, "tlb_misses": 0, "checksum": 42,
        "migration": {"bytes": 4096, "ptes": 1, "huge_split": 0,
                      "ranges": 1, "sim_s": 1e-6},
        "profiled_iterations": 1 if policy.startswith("atmem") else 0,
        "reference_max_abs_diff": 0.0, "artifact_ok": -1,
        "accesses": 1000, "llc_hits": 800, "fast_misses": 50,
        "slow_misses": 150, "drained_misses": 0, "samples": 10,
        "misses_seen": 160, "skipped_chunks": 0, "tlb_hits": 0,
        "artifact_bytes": 0, "registered_bytes": 2_000_000,
        "epochs": [{"bytes": 4096, "ptes": 1, "huge_split": 0, "ranges": 1,
                    "sim_s": 1e-6}],
    }
    record.update(overrides)
    return record


def references(tolerance=None):
    return {("bfs", "pokec"): {"checksum": 42, "tolerance": tolerance}}


def expectations(*ops):
    return {analysis.op_key(o): analysis.output_vector(o) for o in ops}


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            analysis.median([])

    def test_high_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(analysis.high_percentile(list(range(10))))
        for n in (11, 20, 37, 100, 1000):
            values = list(range(n))
            p, value = analysis.high_percentile(values)
            beyond = sum(1 for v in values if v > value)
            self.assertGreaterEqual(beyond, 10, n)
            # One percentile higher would leave fewer than ten beyond.
            self.assertLess(n * (100 - (p + 1)), 100 * 10, n)
        self.assertEqual(analysis.high_percentile(list(range(100))), (90, 89))
        self.assertEqual(analysis.high_percentile(list(range(1000))),
                         (99, 989))

    def test_ratio_with_base(self):
        self.assertEqual(analysis.ratio(3, 4), 0.75)
        self.assertEqual(analysis.ratio(3, 0), 0.0)

    def test_timing_summary_states_sample_count(self):
        summary = analysis.timing_summary([1.0, 2.0, 3.0])
        self.assertEqual(summary["n"], 3)
        self.assertEqual(summary["median"], 2.0)
        self.assertIsNone(summary["high_percentile"])


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(name, parent, start, end, op_id=0, pass_index=1):
        return {"name": name, "parent": parent, "op": op_id,
                "pass": pass_index, "start_ns": start, "end_ns": end}

    def test_self_time_subtracts_child_coverage(self):
        spans = [self.span("pass", -1, 0, 100),
                 self.span("op", 0, 10, 90),
                 self.span("core.body", 1, 20, 50),
                 self.span("core.optimize", 1, 40, 70),  # overlaps body
                 self.span("graph.build", 0, 0, 10)]
        self.assertEqual(analysis.self_times(spans), [10, 30, 30, 30, 10])

    def test_covered_merges_intervals(self):
        self.assertEqual(analysis.covered([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(analysis.covered([]), 0)

    def test_per_layer_profiler_overhead_and_unattributed(self):
        ns = 1_000_000
        ops = [op(policy="all-slow", op=1, checksum=42),
               op(policy="atmem", op=2, checksum=42)]
        traced = {"pass": 1, "traced": True, "setup_s": 0.1, "wall_s": 1.1,
                  "edges": 1000, "ops": ops,
                  "shadows": [{"op": 3, "kernel": "bfs",
                               "dataset": "pokec"}]}
        untraced = {"pass": 0, "traced": False, "setup_s": 0.1,
                     "wall_s": 0.9, "ops": ops}
        spans = [self.span("pass", -1, 0, 200 * ns),
                 self.span("graph.build", 0, 0, 10 * ns),
                 self.span("op", 0, 10 * ns, 60 * ns, 1),
                 self.span("core.body", 2, 10 * ns, 50 * ns, 1),
                 self.span("op", 0, 60 * ns, 120 * ns, 2),
                 self.span("core.body", 4, 60 * ns, 110 * ns, 2),
                 self.span("core.optimize", 4, 110 * ns, 115 * ns, 2),
                 self.span("bench.shadow", 0, 120 * ns, 200 * ns, 3),
                 self.span("core.plain_body", 7, 120 * ns, 160 * ns, 3),
                 self.span("apps.untracked", 7, 160 * ns, 164 * ns, 3)]
        values = analysis.per_layer([untraced], [traced], spans,
                                    attempted=4, failed=1)
        self.assertAlmostEqual(values["profiler.overhead_ms"], 10.0)
        self.assertAlmostEqual(values["core.tracking_factor"], 10.0)
        self.assertAlmostEqual(values["core.body_ms"], 90.0)
        self.assertAlmostEqual(values["core.optimize_ms"], 5.0)
        # op self times of 10 + 5 ms over 120 ms of workload time.
        self.assertAlmostEqual(values["trace.unattributed_frac"], 15 / 120)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.2)
        self.assertEqual(values["fail_ratio"], 0.25)
        self.assertEqual(values["sim.accesses"], 2000)
        self.assertAlmostEqual(values["sim.llc_hit_ratio"], 0.8)
        shares = analysis.layer_shares(values)
        self.assertAlmostEqual(sum(shares.values()), 1.0)


class CheckTest(unittest.TestCase):
    def test_matching_pass_has_no_failures(self):
        ops = [op(policy=p) for p in ("all-slow", "atmem", "all-fast")]
        self.assertEqual(
            analysis.check_pass(ops, references(), expectations(*ops)), [])

    def test_planted_wrong_expectation_fails(self):
        ops = [op(policy=p) for p in ("all-slow", "atmem")]
        expected = expectations(*ops)
        key = analysis.op_key(ops[1])
        expected[key][1] = math.nextafter(expected[key][1], 1.0)  # one ulp
        failures = analysis.check_pass(ops, references(), expected)
        self.assertEqual(len(failures), 1)
        self.assertIn("measured_iter_sec", failures[0])

    def test_planted_wrong_checksum_fails(self):
        good = op(policy="all-slow")
        bad = op(policy="atmem", checksum=43)
        expected = expectations(good, op(policy="atmem"))
        failures = analysis.check_pass([good, bad], references(), expected)
        self.assertTrue(any(f.startswith("bfs/pokec/atmem:") and
                            "reference" in f for f in failures))

    def test_tolerance_reference(self):
        ops = [op(kernel="pr", reference_max_abs_diff=5e-7)]
        refs = {("pr", "pokec"): {"checksum": 0, "tolerance": 1e-6}}
        self.assertEqual(
            analysis.check_pass(ops, refs, expectations(*ops)), [])
        ops = [op(kernel="pr", reference_max_abs_diff=2e-6)]
        self.assertEqual(
            len(analysis.check_pass(ops, refs, expectations(*ops))), 1)

    def test_invalid_artifact_fails(self):
        ops = [op(artifact_ok=0, artifact_error="truncated")]
        failures = analysis.check_pass(ops, references(), expectations(*ops))
        self.assertEqual(len(failures), 1)
        self.assertIn("truncated", failures[0])

    def test_missing_expectation_fails(self):
        self.assertEqual(
            len(analysis.check_pass([op()], references(), {})), 1)


class EndToEndTest(unittest.TestCase):
    def test_end_to_end_values(self):
        passes = [{"wall_s": w, "setup_s": s, "ops": [op()]}
                  for w, s in ((1.0, 0.3), (2.0, 0.1), (4.0, 0.2))]
        values, details = analysis.end_to_end(passes, 50_000_000,
                                              attempted=10, failed=5)
        self.assertEqual(values["wall_s"], 2.0)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 50.0)
        self.assertEqual(values["accesses_per_s"], 500.0)
        self.assertEqual(values["ok_ratio"], 0.5)
        self.assertEqual(details["wall_s"]["n"], 3)


if __name__ == "__main__":
    unittest.main()
