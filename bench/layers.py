"""Layer sweep of the traced run: each module's public functions timed
alone, at several word lengths, with fitted growth exponents.

Runs inside a fresh worker process (see ``worker.py``).  Times are
medians of individually timed calls; the number of calls shrinks as
words grow so the sweep stays near half a minute.  ``canonical_key`` and
``bfs_orbit`` are always fed words this process has not seen, because
their cache only serves repeats.
"""

from __future__ import annotations

import math
import random
from statistics import median
from string import ascii_lowercase
from time import perf_counter

from surfword import (
    Trace,
    apply_step,
    bfs_orbit,
    classify_by_invariants,
    normalize,
    parse,
    replay,
)

import inputs

RULES = ("cancel", "transpose_discord", "fold_concord", "slide_block", "interleave_to_handle",
         "rotate", "invert", "glue_singles", "hive_hole", "hive_crosscap", "hive_handle")
WORD_SIZES = (16, 64, 256, 1024)
RULE_SIZES = (16, 512)
JSON_SIZES = (32, 128, 512)
NORMALIZE_SIZES = (16, 64, 256, 1024, 2048)
NORMALIZE_FAMILIES = ("random", "family_iii", "family_v", "nested_handles")
ORBIT_START = "a b c' b' a c"
ORBIT_REPEATS = 3

# calls per timing, by word length
_REPEATS = {16: 30, 32: 20, 64: 15, 128: 9, 256: 5, 512: 3, 1024: 2, 2048: 1}


def _repeats(n: int, factor: int = 1) -> int:
    return _REPEATS[n] * factor


def _median_call(calls) -> float:
    """Median seconds of the calls, each a ``(fn, args)`` pair."""
    samples = []
    for fn, args in calls:
        start = perf_counter()
        fn(*args)
        samples.append(perf_counter() - start)
    return median(samples)


def _growth(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log time against log length, over lengths
    of 64 and more, where fixed per-call costs no longer dominate."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n >= 64]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def _fresh(tokens, count: int) -> list[str]:
    used = {label for label, _ in tokens}
    names = (name for name in inputs.label_names() if name not in used)
    return [next(names) for _ in range(count)]


def _rule_site(rng: random.Random, rule: str, n: int) -> tuple[str, dict]:
    """A word of ``n`` letters and parameters at which ``rule`` applies."""
    inserted = {"cancel": 2, "transpose_discord": 2, "fold_concord": 2, "slide_block": 2,
                "interleave_to_handle": 4, "rotate": 0, "invert": 0, "glue_singles": 2,
                "hive_hole": 3, "hive_crosscap": 2, "hive_handle": 4}[rule]
    base = list(inputs.random_sized(rng, n - inserted))
    x, y = _fresh(base, 2)
    p, m = len(base) // 4, len(base) // 2
    if rule == "rotate":
        return inputs.render(tuple(base)), {"k": n // 3}
    if rule == "invert":
        return inputs.render(tuple(base)), {}
    if rule in ("transpose_discord", "fold_concord"):
        flip = rule == "transpose_discord"
        word = base[:p] + [(x, False)] + base[p:m] + [(x, flip)] + base[m:]
        params = {"label": x}
        if flip:
            params["split"] = p + 1 + (m - p) // 2
        return inputs.render(tuple(word)), params
    if rule == "interleave_to_handle":
        q = 3 * len(base) // 4
        word = base[:p] + [(x, False)] + base[p:m] + [(y, False)] + base[m:q] + [(x, True)] \
            + [(y, True)] + base[q:]
        return inputs.render(tuple(word)), {"a": x, "b": y}
    block = {
        "cancel": [(x, False), (x, True)],
        "slide_block": [(x, False), (x, False)],
        "glue_singles": [(x, False), (y, False)],
        "hive_hole": [(x, False), (y, False), (x, True)],
        "hive_crosscap": [(x, True), (x, True)],
        "hive_handle": [(x, False), (y, False), (x, True), (y, True)],
    }[rule]
    word = tuple(base[:p] + block + base[p:])
    if rule == "hive_hole":
        return inputs.render(word), {"label": x}
    if rule == "slide_block":
        return inputs.render(word), {"block_start": p, "dest": (p + n // 2) % n}
    return inputs.render(word), {"pos": p}


def sweep(seed: int) -> dict[str, float]:
    """Every metric of the sweep by name, in the units of BENCHMARK.json."""
    rng = random.Random(f"layers:{seed}")
    metrics: dict[str, float] = {}

    # words: parsing, rendering, the pairing table, the canonical key
    pairing_pts, key_pts = [], []
    for n in WORD_SIZES:
        text = inputs.render(inputs.random_sized(rng, n))
        word = parse(text)
        metrics[f"words.parse_us.{n}"] = 1e6 * _median_call([(parse, (text,))] * _repeats(n, 4))
        metrics[f"words.render_us.{n}"] = 1e6 * _median_call([(word.render, ())] * _repeats(n, 4))
        t = _median_call([(word.pairing, ())] * _repeats(n, 4))
        metrics[f"words.pairing_us.{n}"] = 1e6 * t
        pairing_pts.append((n, t))
        for flag, name in ((False, "canonical_key_us"), (True, "canonical_key_relabel_us")):
            fresh = [parse(inputs.render(inputs.random_sized(rng, n))) for _ in range(_repeats(n))]
            t = _median_call([(w.canonical_key, (flag,)) for w in fresh])
            metrics[f"words.{name}.{n}"] = 1e6 * t
            if not flag:
                key_pts.append((n, t))
    metrics["words.pairing_growth"] = _growth(pairing_pts)
    metrics["words.canonical_key_growth"] = _growth(key_pts)

    # rewrite: each rule at a valid site, and the trace's JSON round trip
    for rule in RULES:
        for n in RULE_SIZES:
            text, params = _rule_site(rng, rule, n)
            word = parse(text)
            t = _median_call([(apply_step, (word, rule, params))] * _repeats(n, 10))
            metrics[f"rewrite.rule_us.{rule}.{n}"] = 1e6 * t
    for n in JSON_SIZES:
        word = parse(inputs.render(inputs.random_sized(rng, n)))
        _, trace = normalize(word)
        text = trace.to_json()
        reps = _repeats(n)
        metrics[f"rewrite.to_json_ms.{n}"] = 1e3 * _median_call([(trace.to_json, ())] * reps)
        t = _median_call([(Trace.from_json, (text,))] * reps)
        metrics[f"rewrite.from_json_ms.{n}"] = 1e3 * t
        metrics[f"rewrite.replay_ms.{n}"] = 1e3 * _median_call([(replay, (word, trace))] * reps)

    # normalform: normalize on every family, and the oracle beside it
    for family in NORMALIZE_FAMILIES:
        pts = []
        for n in NORMALIZE_SIZES:
            size = inputs.family_size(family, n)
            words = [parse(inputs.render(inputs.family_word(rng, family, size)))
                     for _ in range(_repeats(n))]
            t = _median_call([(normalize, (w,)) for w in words])
            metrics[f"normalform.normalize_ms.{family}.{n}"] = 1e3 * t
            pts.append((len(words[0]), t))
        metrics[f"normalform.normalize_growth.{family}"] = _growth(pts)
    oracle_pts = []
    for n in NORMALIZE_SIZES:
        word = parse(inputs.render(inputs.random_sized(rng, n)))
        t = _median_call([(classify_by_invariants, (word,))] * _repeats(n, 4))
        metrics[f"invariants.oracle_ms.{n}"] = 1e3 * t
        oracle_pts.append((n, t))
    metrics["invariants.oracle_growth"] = _growth(oracle_pts)

    # invariants: one orbit search, relabelled afresh for every repeat
    start = inputs.tokenize(ORBIT_START)
    times, states = [], set()
    for _ in range(ORBIT_REPEATS):
        rename = dict(zip("abc", rng.sample(ascii_lowercase, 3)))
        word = parse(inputs.render(tuple((rename[label], inv) for label, inv in start)))
        t0 = perf_counter()
        orbit = bfs_orbit(word)
        times.append(perf_counter() - t0)
        states.add(len(orbit))
    (count,) = states
    t = median(times)
    metrics["invariants.bfs_orbit_ms"] = 1e3 * t
    metrics["invariants.bfs_orbit_states"] = count
    metrics["invariants.bfs_orbit_us_per_state"] = 1e6 * t / count
    return metrics
