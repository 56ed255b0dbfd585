"""The statistics behind ``make bench-ab`` (``benchmarks/ab.py``):
quartiles per side, pair wins with ties counting for neither side, and
the gain rule — at least nine tenths of the pairs won and a median
difference larger than the base's interquartile range."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_quartiles_inclusive():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert ab.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_clear_gain_on_a_higher_is_better_metric():
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    change = [b + 20.0 for b in base]
    row = ab.summarize(base, change, "higher")
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["base"][1] == 100.0 and row["change"][1] == 120.0
    assert row["gain"]


def test_lower_is_better_counts_the_other_way():
    base = [10.0, 11.0, 12.0, 10.0]
    change = [8.0, 9.0, 13.0, 10.0]   # win, win, loss, tie
    row = ab.summarize(base, change, "lower")
    assert row["wins"] == 2
    assert not row["gain"]
    assert ab.summarize(change, base, "higher")["wins"] == 2


def test_nine_of_ten_wins_is_enough_but_eight_is_not():
    base = [float(i) for i in range(10)]
    nine = [b + 100.0 for b in base[:9]] + [base[9] - 1.0]
    assert ab.summarize(base, nine, "higher")["gain"]
    eight = [b + 100.0 for b in base[:8]] + [base[8], base[9] - 1.0]
    assert not ab.summarize(base, eight, "higher")["gain"]


def test_a_median_shift_within_the_base_spread_is_no_gain():
    # Every pair won, but the medians differ by less than the base's
    # interquartile range.
    base = [100.0, 150.0, 200.0, 250.0, 300.0]
    change = [b + 10.0 for b in base]
    row = ab.summarize(base, change, "higher")
    assert row["wins"] == 5
    assert not row["gain"]


def test_rejects_unpaired_or_empty_runs():
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        ab.summarize([], [], "lower")
    with pytest.raises(ValueError):
        ab.summarize([1.0], [2.0], "faster")
