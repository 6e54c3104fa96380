"""Unit tests for the benchmark's arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import metrics  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(xs, 0.5), 50)
        self.assertEqual(metrics.percentile(xs, 0.9), 90)
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([7]), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3] * 30, 0.9), 5)

    def test_tail_needs_ten_samples_beyond(self):
        # p90 of 100 samples leaves exactly 10 beyond it: allowed.
        self.assertEqual(metrics.percentile(range(100), 0.9), 89)
        # 99 samples leave 9 beyond the p90: refused.
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.percentile(range(99), 0.9)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.percentile(range(500), 0.99)
        self.assertEqual(metrics.percentile(range(1000), 0.99), 989)

    def test_median_of_few_is_allowed_but_empty_is_not(self):
        self.assertEqual(metrics.median([4.0, 2.0]), 2.0)
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.median([])


class Goodput(unittest.TestCase):
    def test_counts_only_passing(self):
        self.assertEqual(metrics.goodput(30, 2.0), 15.0)
        self.assertEqual(metrics.goodput(0, 2.0), 0.0)
        self.assertEqual(metrics.goodput(5, 0.0), 0.0)

    def _raw(self, sigs, phase="timed", host_ms=1000.0):
        return {"workload": "cold_mixed_fleet", "setup_s": [1.0],
                "peak_rss_mb": 1.0, "layers": {}, "spans": [],
                "ops": [{"phase": phase, "host_ms": host_ms, "model_ms": 1.0,
                         "extra": {}, "sigs": sigs}]}

    @staticmethod
    def _sig(**kw):
        s = {"pass": True, "empty": False, "error": False, "noisy": False,
             "algo": "ffast", "slo": "", "outcome": "", "recall": 1.0,
             "l1": 1e-12, "hits": 8,
             "dev_ms": 0.1, "lat_ms": 0.2, "job_ms": 0.3}
        s.update(kw)
        return s

    def test_hard_failures_spare_measured_outcomes(self):
        sigs = [self._sig(),
                # noisy miss: measured in pass_share, not a hard failure
                self._sig(noisy=True, **{"pass": False}, empty=True,
                          recall=0.0),
                # clean miss of the budget, still mostly right: measured
                self._sig(**{"pass": False}, recall=0.875),
                # shed request: measured
                self._sig(**{"pass": False}, outcome="shed", recall=0.0),
                # clean empty spectrum and a thrown call: hard failures
                self._sig(**{"pass": False}, empty=True, recall=0.0),
                self._sig(**{"pass": False}, error=True)]
        attempted, failed = metrics.hard_failures(self._raw(sigs))
        self.assertEqual((attempted, failed), (6, 2))

    def test_batch_workload_goodput(self):
        # 3 set-up ops and 13 timed ops of 8 signals; in every op the last
        # two signals are noisy misses. The first 10 after set-up join the
        # modeled sample.
        def op(phase, host_ms, model_ms):
            sigs = [self._sig(lat_ms=0.5 * (j + 1), job_ms=model_ms)
                    for j in range(6)]
            sigs += [self._sig(noisy=True, **{"pass": False}, empty=True,
                               recall=0.0, lat_ms=4.0, job_ms=model_ms)] * 2
            return {"phase": phase, "host_ms": host_ms, "model_ms": model_ms,
                    "extra": {}, "sigs": sigs}

        raw = self._raw([])
        raw["workload"] = "steady_2e18"
        raw["setup_s"] = [3.0, 1.0, 2.0]
        raw["ops"] = ([op("setup", 900.0, 4.0)] * 3
                      + [op("timed", 100.0 * (i + 1), 4.0)
                         for i in range(13)])
        m, counts = metrics.end_to_end(raw)
        self.assertEqual(counts["model_ops"], 13)
        self.assertEqual(m["setup_s"], 2.0)
        # 13 ops x 6 passing signals over 0.1 + 0.2 + ... + 1.3 = 9.1 s.
        self.assertAlmostEqual(m["host_sps"], 78 / 9.1)
        self.assertEqual(m["host_ms_p50"], 700.0)
        self.assertAlmostEqual(m["pass_share"], 0.75)
        # 13 modeled ops x 6 passing signals over 13 x 4 ms.
        self.assertAlmostEqual(m["model_sps"], 78 / 0.052)
        self.assertEqual(m["lat_p90_ms"], 4.0)
        self.assertEqual(m["tput_p90_ms"], 4.0)
        self.assertEqual(metrics.hard_failures(raw), (128, 0))

    def test_serve_slo_from_the_first_sweep(self):
        def pass_(mult, sweep, lat):
            sigs = [self._sig(slo="latency", outcome="completed", lat_ms=lat)
                    for _ in range(100)]
            sigs += [self._sig(slo="throughput", outcome="completed",
                               lat_ms=2 * lat) for _ in range(100)]
            if mult > 2:
                sigs += [self._sig(slo="latency", outcome="shed",
                                   **{"pass": False}, recall=0.0)] * 20
            return {"phase": "timed", "host_ms": 1000.0, "model_ms": 50.0,
                    "extra": {"mult": mult, "sweep": sweep,
                              "rate_rps": 1000.0 * mult},
                    "sigs": sigs}

        raw = self._raw([])
        raw["workload"] = "serve_cluster"
        raw["ops"] = [pass_(m, sw, 1.0 + m)
                      for sw in (0, 1) for m in (1.0, 2.0, 3.0)]
        m, _ = metrics.end_to_end(raw)
        self.assertEqual(m["lat_p50_ms"], 2.0)
        self.assertEqual(m["tput_p90_ms"], 4.0)
        # 3x sheds 20 of 120 latency requests: its p90 is a miss.
        self.assertEqual(m["slo_qps"], 2000.0)
        self.assertAlmostEqual(m["pass_share"], 1200 / 1240)
        self.assertAlmostEqual(m["host_sps"], 1200 / 6.0)


    def test_batch_slo_counts_passing_signals_within_the_limit(self):
        # Per op of 8 signals: completions 2, 4, ..., 16 ms, the 4 ms one a
        # miss of the check. Within 9 ms: 2, 6 and 8 ms.
        def op(phase):
            sigs = [self._sig(lat_ms=2.0 * (j + 1), job_ms=16.0)
                    for j in range(8)]
            sigs[1] = self._sig(**{"pass": False}, recall=0.5, lat_ms=4.0)
            return {"phase": phase, "host_ms": 100.0, "model_ms": 16.0,
                    "extra": {}, "sigs": sigs}

        raw = self._raw([])
        raw["ops"] = [op("setup")] + [op("timed") for _ in range(30)]
        m, counts = metrics.end_to_end(raw)
        self.assertEqual(counts["model_ops"], 22)
        self.assertAlmostEqual(m["slo_qps"], 3 / 0.016)
        self.assertAlmostEqual(m["model_sps"], 7 / 0.016)


class TracingOverhead(unittest.TestCase):
    def test_ratio_of_medians_of_the_paired_ops(self):
        def op(phase, host_ms):
            return {"phase": phase, "host_ms": host_ms, "model_ms": 1.0,
                    "extra": {}, "sigs": []}

        raw = {"ops": [op("timed", 50.0)] * 5
               + [op("overhead_untraced", 100.0), op("overhead_traced", 110.0),
                  op("overhead_traced", 132.0), op("overhead_untraced", 120.0),
                  op("overhead_untraced", 90.0), op("overhead_traced", 99.0)]}
        # Medians 110 (traced) and 100 (untraced); timed ops do not count.
        self.assertAlmostEqual(metrics.tracing_overhead(raw), 0.1)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [["op", 0.0, 10.0, -1, 0],
                 ["a", 1.0, 4.0, 0, 0],
                 ["b", 3.0, 6.0, 0, 0],   # overlaps a: covered once
                 ["c", 8.0, 12.0, 0, 0],  # runs past the parent: clipped
                 ["a.x", 1.5, 2.0, 1, 0]]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - (6.0 - 1.0) - (10.0 - 8.0))
        self.assertAlmostEqual(selfs[1], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[4], 0.5)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([["x", 2.0, 5.0, -1, 3]]), [3.0])


class SloSearch(unittest.TestCase):
    def test_highest_rate_meeting_limit(self):
        ok = [1.0] * 100
        slow = [1.0] * 80 + [20.0] * 20
        points = [(100.0, ok), (200.0, ok), (300.0, slow)]
        self.assertEqual(metrics.slo_search(points, 5.0), 200.0)

    def test_misses_count_against_the_limit(self):
        shed = [1.0] * 85 + [math.inf] * 15
        self.assertEqual(metrics.slo_search([(100.0, shed)], 5.0), 0.0)

    def test_scan_stops_at_first_miss(self):
        ok = [1.0] * 100
        bad = [9.0] * 100
        points = [(300.0, ok), (100.0, ok), (200.0, bad)]
        self.assertEqual(metrics.slo_search(points, 5.0), 100.0)

    def test_too_few_latency_samples_are_refused(self):
        with self.assertRaises(metrics.InsufficientSamples):
            metrics.slo_search([(100.0, [1.0] * 50)], 5.0)


if __name__ == "__main__":
    unittest.main()
