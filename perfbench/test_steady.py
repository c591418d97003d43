#!/usr/bin/env python3
"""Tests of the spread rule in steady.py: python3 perfbench/test_steady.py"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import steady  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_interquartile_range_over_median(self):
        runs = [0.91, 0.87, 1.02, 0.95, 0.99, 0.93, 0.90, 1.10, 0.96, 0.94]
        # quartiles [0.9075, 0.945, 0.9975], median 0.945
        self.assertAlmostEqual(steady.spread(runs), (0.9975 - 0.9075) / 0.945)

    def test_exclusive_quartiles_of_ten_values(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(steady.spread(list(range(10, 0, -1))),
                               (8.25 - 2.75) / 5.5)

    def test_steady_values_have_no_spread(self):
        self.assertEqual(steady.spread([4.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
