#!/usr/bin/env python3
"""perf_pairs.summarize on canned tables (ctest: perf_pairs_summary)."""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_pairs import report, summarize  # noqa: E402

MONTH_S = {"name": "month_s", "better": "lower", "bound": 0.25}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


class ClaimRule(unittest.TestCase):
    def test_nine_of_ten_wins_beyond_the_spread_holds(self):
        change = [0.80] * 9 + [1.10]
        s = summarize(MONTH_S, PARENT, change)
        self.assertEqual((s["wins"], s["losses"], s["ties"]), (9, 1, 0))
        self.assertGreater(s["gap"], s["spread"])
        self.assertTrue(s["claim"])
        self.assertFalse(s["breach"])
        self.assertIn("claim holds", report(s))

    def test_eight_of_ten_wins_do_not(self):
        change = [0.80] * 8 + [1.10, 1.10]
        s = summarize(MONTH_S, PARENT, change)
        self.assertEqual(s["wins"], 8)
        self.assertFalse(s["claim"])
        self.assertIn("does not hold", report(s))

    def test_a_tie_counts_for_neither_side(self):
        change = [0.80] * 9 + [PARENT[9]]
        s = summarize(MONTH_S, PARENT, change)
        self.assertEqual((s["wins"], s["losses"], s["ties"]), (9, 0, 1))
        self.assertTrue(s["claim"])
        change = [0.80] * 8 + PARENT[8:]
        s = summarize(MONTH_S, PARENT, change)
        self.assertEqual((s["wins"], s["ties"]), (8, 2))
        self.assertFalse(s["claim"])

    def test_a_gap_inside_the_parent_spread_does_not_hold(self):
        change = [p - 0.005 for p in PARENT]
        s = summarize(MONTH_S, PARENT, change)
        self.assertEqual(s["wins"], 10)
        self.assertLess(s["gap"], s["spread"])
        self.assertFalse(s["claim"])

    def test_a_bound_breach_is_flagged(self):
        change = [p * 1.30 for p in PARENT]
        s = summarize(MONTH_S, PARENT, change)
        self.assertEqual(s["losses"], 10)
        self.assertTrue(s["breach"])
        self.assertIn("BOUND BREACHED", report(s))
        s = summarize(MONTH_S, PARENT, [p * 1.20 for p in PARENT])
        self.assertFalse(s["breach"])

    def test_higher_is_better_metrics_count_the_other_way(self):
        rate = {"name": "events_per_s", "better": "higher", "bound": 0.25}
        s = summarize(rate, PARENT, [p * 1.5 for p in PARENT])
        self.assertEqual(s["wins"], 10)
        self.assertTrue(s["claim"])


if __name__ == "__main__":
    unittest.main()
