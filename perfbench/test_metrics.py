"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


def job(program, status="ok", seconds=1.0, start=0.0, end=1.0, chains=0,
        revalidate_failures=0, digest="0"):
    return {"program": program, "obfuscation": "none", "status": status,
            "seconds": seconds, "start": start, "end": end, "chains": chains,
            "revalidate_failures": revalidate_failures, "digest": digest,
            "pool_raw": 10}


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, n = metrics.tail([float(i) for i in range(1, 101)])
        # 100 samples: the 90th value has exactly ten samples above it.
        self.assertEqual((value, pct, n), (90.0, 90, 100))

    def test_order_does_not_matter(self):
        samples = [float(i) for i in range(39, 0, -1)]
        value, pct, n = metrics.tail(samples)
        self.assertEqual(n, 39)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertEqual(pct, 74)  # 29 of 39 at or below

    def test_eleven_samples_is_the_minimum(self):
        value, pct, n = metrics.tail([float(i) for i in range(11)])
        self.assertEqual((value, pct, n), (0.0, 9, 11))

    def test_too_few_samples_fall_back_to_p0(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (1.0, 0, 3))
        self.assertEqual(metrics.tail([]), (0.0, 0, 0))


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(metrics.self_time(0, 10, []), 10)

    def test_overlapping_children_count_once(self):
        # [1,4] and [3,6] cover [1,6]; [8,9] covers one more second.
        self.assertAlmostEqual(
            metrics.self_time(0, 10, [(1, 4), (3, 6), (8, 9)]), 4)

    def test_children_are_clipped_to_the_span(self):
        self.assertAlmostEqual(metrics.self_time(2, 6, [(0, 3), (5, 9)]), 2)

    def test_disjoint_children_outside_are_ignored(self):
        self.assertAlmostEqual(metrics.self_time(2, 6, [(7, 8), (0, 1)]), 4)

    def test_nested_children(self):
        self.assertAlmostEqual(metrics.self_time(0, 10, [(1, 9), (2, 3)]), 2)


class LaneUtilizationTest(unittest.TestCase):
    def test_full_and_partial(self):
        self.assertAlmostEqual(
            metrics.lane_utilization([2, 2, 2, 2], wall=2, lanes=4), 1.0)
        self.assertAlmostEqual(
            metrics.lane_utilization([4, 1, 1], wall=4, lanes=4), 0.375)

    def test_empty_wall(self):
        self.assertEqual(metrics.lane_utilization([], wall=0, lanes=4), 0.0)

    def test_analysis_wall_spans_first_start_to_last_end(self):
        jobs = [job("a", start=1, end=3), job("b", start=2, end=7)]
        self.assertEqual(metrics.analysis_wall(jobs), 6)


class RunAverageTest(unittest.TestCase):
    def test_concurrent_jobs_per_s_is_a_ratio_of_sums(self):
        passes = [{"jobs": [job("a", start=0, end=1), job("b", start=1,
                                                          end=2)]},
                  {"jobs": [job("a", start=0, end=3), job("b", start=3,
                                                          end=6)]}]
        # Four jobs over 2 + 6 seconds, not the median of 1.0 and 1/3.
        self.assertAlmostEqual(metrics.jobs_per_s(passes), 0.5)
        self.assertEqual(metrics.jobs_per_s([]), 0.0)

    def test_latency_is_averaged_per_job_before_the_median(self):
        passes = [{"jobs": [job("a", seconds=1), job("b", seconds=2),
                            job("c", seconds=10)]},
                  {"jobs": [job("a", seconds=3), job("b", seconds=4),
                            job("c", seconds=20)]}]
        samples = metrics.latencies(passes)
        self.assertEqual(metrics.p50_of_job_means(samples), 3.0)
        # Six jobs over 40 busy seconds.
        self.assertAlmostEqual(metrics.throughput(samples), 0.15)
        self.assertEqual(metrics.throughput([]), 0.0)


class RescaleTest(unittest.TestCase):
    def test_latency_follows_the_kernel_around_the_job(self):
        nominal = metrics.REF_NOMINAL_S
        passes = [{"jobs": [job("a", seconds=2.0), job("b", seconds=3.0)],
                   "reference_s": [2 * nominal, 2 * nominal, nominal]}]
        got = metrics.rescaled_latencies(passes)
        # a ran while the kernel took twice its nominal time: half of it
        # is the host's. b sat between 2x and 1x, a mean of 1.5x.
        self.assertEqual([k for k, _ in got],
                         [("a", "none"), ("b", "none")])
        self.assertAlmostEqual(got[0][1], 1.0)
        self.assertAlmostEqual(got[1][1], 2.0)

    def test_end_to_end_reports_both(self):
        nominal = metrics.REF_NOMINAL_S
        p = {"traced": 0, "lanes": 1,
             "jobs": [job("a", seconds=2.0), job("b", seconds=2.0)],
             "reference_s": [2 * nominal] * 3}
        # Set-up repetitions are rescaled by the kernel around their batch.
        doc = {"passes": [p], "lanes": 1, "setup_s": [0.1, 0.2, 0.4],
               "setup_reference_s": [nominal, 4 * nominal, 2 * nominal],
               "peak_rss_kb": 1024}
        e2e = metrics.end_to_end(doc)
        self.assertAlmostEqual(e2e["setup_raw_s"], 0.2)
        self.assertAlmostEqual(e2e["setup_s"], 0.1)
        self.assertAlmostEqual(e2e["jobs_per_s"], 0.5)
        self.assertAlmostEqual(e2e["job_p50_s"], 2.0)
        self.assertAlmostEqual(e2e["jobs_per_s_ref"], 1.0)
        self.assertAlmostEqual(e2e["job_p50_s_ref"], 1.0)

    def test_missing_reference_times_fail_the_check(self):
        p = {"traced": 0, "lanes": 1, "jobs": [], "reference_s": [0.1, 0.1]}
        self.assertEqual(metrics.check_outputs([p]),
                         ["pass 0: 2 reference times for 0 jobs"])


class FailureAccountingTest(unittest.TestCase):
    def test_degraded_jobs_and_bad_chains_fail(self):
        passes = [{"jobs": [
            job("a", chains=4),
            job("b", status="deadline", chains=1),
            job("c", status="budget"),
            job("d", chains=3, revalidate_failures=2),
        ]}]
        attempted, failed = metrics.failures(passes)
        # Four jobs plus eight chains attempted; two degraded jobs plus two
        # chains that failed re-validation.
        self.assertEqual((attempted, failed), (12, 4))
        doc = {"passes": [dict(p, traced=0, lanes=1, reference_s=[1.0] * 5)
                          for p in passes],
               "lanes": 1, "setup_s": [0.1], "setup_reference_s": [0.1],
               "peak_rss_kb": 1024}
        e2e = metrics.end_to_end(doc)
        self.assertAlmostEqual(e2e["failed_share"], 4 / 12)
        self.assertEqual(e2e["chains_found"], 6)

    def test_clean_run(self):
        self.assertEqual(metrics.failures([{"jobs": [job("a", chains=2)]}]),
                         (3, 0))


class DeterminismTest(unittest.TestCase):
    def test_counts_jobs_not_passes(self):
        passes = [
            {"jobs": [job("a", digest="1"), job("b", digest="2")]},
            {"jobs": [job("a", digest="1"), job("b", digest="3")]},
            {"jobs": [job("a", digest="1"), job("b", digest="4")]},
        ]
        self.assertEqual(metrics.digest_mismatches(passes), 1)


class CheckOutputsTest(unittest.TestCase):
    def census_job(self, **kw):
        j = dict(job("a"), extract_gadgets=10, subsume_input=10,
                 subsume_removed=4, pool_minimized=6, offsets_scanned=90,
                 offsets_skipped=10, code_bytes=100)
        j.update(kw)
        return j

    def test_reconciled_pass_is_clean(self):
        passes = [{"jobs": [self.census_job()], "trace_dropped": 0}]
        self.assertEqual(metrics.check_outputs(passes), [])

    def test_dropped_program_spans_fail(self):
        passes = [{"jobs": [self.census_job()]},
                  {"jobs": [self.census_job()], "trace_dropped": 3}]
        bad = metrics.check_outputs(passes)
        self.assertEqual(len(bad), 1)
        self.assertIn("pass 1: 3 program spans lost", bad[0])

    def test_unreconciled_pools_fail(self):
        passes = [{"jobs": [self.census_job(pool_minimized=7,
                                            offsets_skipped=9)]}]
        self.assertEqual(len(metrics.check_outputs(passes)), 2)


if __name__ == "__main__":
    unittest.main()
