"""The per-metric summary that ``tools/ab.py`` writes for an A/B run."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

HIGHER = {"name": "m", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = dict(HIGHER, better="lower")


def runs(parent, change, failed=(0, 0)):
    """A/B runs of metric ``m``; each side fails ``failed`` of 100 operations."""
    return [
        {"parent": {"m": p, "failed": failed[0], "attempted": 100},
         "change": {"m": c, "failed": failed[1], "attempted": 100}}
        for p, c in zip(parent, change)
    ]


def test_pairs_won_follow_the_direction_and_ties_count_for_neither():
    pairs = runs([10, 10, 10, 10], [12, 10, 9, 13])
    assert ab.summary(HIGHER, pairs)["pairs_won"] == 2
    assert ab.summary(LOWER, pairs)["pairs_won"] == 1


def test_bound_is_read_from_the_parent_median():
    assert ab.summary(HIGHER, runs([100] * 3, [76] * 3))["within_bound"]
    assert not ab.summary(HIGHER, runs([100] * 3, [74] * 3))["within_bound"]
    assert ab.summary(LOWER, runs([100] * 3, [124] * 3))["within_bound"]
    assert not ab.summary(LOWER, runs([100] * 3, [126] * 3))["within_bound"]


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_spread():
    parent = list(range(100, 110))
    summary = ab.summary(HIGHER, runs(parent, [120] * 9 + [90]))
    assert (summary["pairs_won"], summary["ratio"]) == (9, 120 / 104.5)
    assert summary["gain"]
    assert not ab.summary(HIGHER, runs(parent, [120] * 8 + [90] * 2))["gain"]
    # wins every pair, but by less than the parent's interquartile range
    assert not ab.summary(HIGHER, runs(parent, [p + 1 for p in parent]))["gain"]


def test_gain_needs_ten_pairs():
    parent = list(range(100, 109))
    summary = ab.summary(HIGHER, runs(parent, [120] * 9))
    assert summary["pairs_won"] == 9 and not summary["gain"]


def test_gain_needs_no_larger_share_of_failed_operations():
    parent, change = list(range(100, 110)), [120] * 10
    assert ab.summary(HIGHER, runs(parent, change, failed=(1, 1)))["gain"]
    assert ab.summary(HIGHER, runs(parent, change, failed=(2, 1)))["gain"]
    assert not ab.summary(HIGHER, runs(parent, change, failed=(0, 1)))["gain"]


def test_verdict_names_each_metric_outside_its_bound_and_each_gain():
    parent = [100 + p for p in range(10)]
    metrics = {
        "words_per_s": ab.summary(HIGHER, runs(parent, [p * 1.4 for p in parent])),
        "setup_s": ab.summary(LOWER, runs(parent, [p * 1.29 for p in parent])),
        "latency_p50_ms": ab.summary(LOWER, runs(parent, parent)),
    }
    line = ab.verdict("orbit-closure", metrics)
    assert line == ("orbit-closure: outside bound: setup_s 1.290x (0 of 10 pairs won); "
                    "gain: words_per_s 1.400x (10 of 10 pairs won)")
    calm = {"latency_p50_ms": metrics["latency_p50_ms"]}
    assert ab.verdict("trace-replay", calm) == "trace-replay: every metric within its bound, no gain"
