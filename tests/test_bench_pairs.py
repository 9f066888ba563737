import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [3.0, 2.9, 3.2, 2.8, 3.1, 3.0, 2.7, 3.3, 2.9, 3.0]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_a_lower_is_better_gain_wins_nine_of_ten_beyond_the_spread():
    change = [2.2, 2.1, 2.4, 2.0, 2.3, 2.2, 2.8, 2.5, 2.1, 2.2]
    got = bench_pairs.summarize(PARENT, change, "lower")
    assert got["parent"] == pytest.approx((2.9, 3.0, 3.075))
    assert got["change"] == pytest.approx((2.125, 2.2, 2.375))
    assert (got["wins"], got["losses"], got["pairs"]) == (9, 1, 10)
    assert got["gain"]


def test_ties_count_for_neither_side():
    change = [2.0] * 8 + PARENT[8:]
    got = bench_pairs.summarize(PARENT, change, "lower")
    assert (got["wins"], got["losses"]) == (8, 0)
    assert not got["gain"]                 # 8 of 10 wins


def test_a_gap_within_the_parents_spread_is_no_gain():
    # every pair won, by less than the parent's interquartile range (0.175)
    change = [v - 0.1 for v in PARENT]
    got = bench_pairs.summarize(PARENT, change, "lower")
    assert got["wins"] == 10 and not got["gain"]


def test_higher_is_better_reads_the_other_way():
    more = [v + 1.0 for v in PARENT]
    assert bench_pairs.summarize(PARENT, more, "higher")["gain"]
    assert not bench_pairs.summarize(PARENT, more, "lower")["gain"]
    assert bench_pairs.summarize(PARENT, more, "lower")["losses"] == 10


def test_summary_refuses_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError, match="same positive number"):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError, match="better"):
        bench_pairs.summarize([1.0], [1.0], "smaller")
