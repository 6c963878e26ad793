"""Acceptance gate: one test per shipping criterion.

Each test states its criterion in the docstring and asserts both the
results and the target runtime.  The terminal summary hook in conftest
prints one PASS/FAIL line per criterion at the end of a run.
"""

import random
import time

from surfword import (
    NormalForm,
    Trace,
    apply_step,
    bfs_orbit,
    boundary_count,
    canonical_word,
    classify,
    classify_by_invariants,
    equivalent,
    euler_characteristic,
    family_iii,
    family_iv,
    family_v,
    normalize,
    parse,
    random_word,
    replay,
)

from conftest import REWRITE_RULES, applicable_instance, every_word_over_three_labels


def test_criterion_1_classical_identities():
    """Two crosscaps equal a Klein bottle word, and a crosscap plus a
    handle equals three crosscaps; all in under a second."""
    start = time.perf_counter()
    klein = NormalForm("nonorientable", 2, 0)
    assert classify(parse("a a b b")) == klein
    assert classify(parse("a b a' b")) == klein
    assert classify(parse("a a b c b' c'")) == NormalForm("nonorientable", 3, 0)
    assert equivalent(parse("a a b c b' c'"), parse("a a b b c c"))
    assert time.perf_counter() - start < 1.0


def test_criterion_2_word_families():
    """For n = 1..8: families iii and iv are nonorientable of genus n;
    family v is orientable of genus n // 2 (sphere for n = 1).  Each
    word classifies in under a second."""
    for n in range(1, 9):
        for family in (family_iii, family_iv):
            start = time.perf_counter()
            assert classify(family(n)) == NormalForm("nonorientable", n, 0)
            assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        expected = NormalForm("sphere", 0, 0) if n == 1 else NormalForm("orientable", n // 2, 0)
        assert classify(family_v(n)) == expected
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence():
    """Over 10,000 seeded random words with up to 10 pairs and up to 3
    singles, the normalizer's (kind, genus, boundary) agrees with the
    independent invariant classifier; under 30 seconds."""
    start = time.perf_counter()
    for seed in range(10_000):
        word = random_word(seed % 11, (seed * 7) % 4, seed)
        assert normalize(word)[0] == classify_by_invariants(word), word.render()
    assert time.perf_counter() - start < 30.0


def test_criterion_4_per_rule_conservation():
    """1,000 random applicable applications of each rewrite rule leave
    the Euler characteristic, the boundary count, and the presence of a
    concord pair unchanged."""
    for rule in REWRITE_RULES:
        rng = random.Random(f"conservation:{rule}")
        for _ in range(1_000):
            word, params = applicable_instance(rule, rng)
            rewritten = apply_step(word, rule, params)
            assert euler_characteristic(rewritten) == euler_characteristic(word)
            assert boundary_count(rewritten) == boundary_count(word)
            assert rewritten.pairing().has_concord() == word.pairing().has_concord()


def test_criterion_5_orbit_well_definedness():
    """Every valid word over at most 3 labels, enumerated exhaustively
    up to cyclic equality, has an orbit whose members all share one
    normalize result; under 60 seconds.

    A word inside an already verified, untruncated orbit is skipped:
    the orbit is closed under the rules, so the skipped word's orbit is
    a subset of it.
    """
    start = time.perf_counter()
    representatives = {}
    for word in every_word_over_three_labels():
        representatives.setdefault(word.canonical_key(), word)
    assert len(representatives) > 900

    covered = set()
    for key, word in sorted(representatives.items(), key=lambda item: -len(item[1])):
        if key in covered:
            continue
        orbit = bfs_orbit(word, max_length=6, max_states=50_000)
        assert not orbit.truncated
        forms = {normalize(member)[0] for member in orbit}
        assert len(forms) == 1, word.render()
        covered.update(member.canonical_key() for member in orbit)
    assert covered >= set(representatives)
    assert time.perf_counter() - start < 60.0


def test_criterion_6_trace_soundness():
    """For 1,000 random words, the normalize trace replays exactly,
    byte for byte through JSON, reproducing every recorded word."""
    for seed in range(1_000):
        word = random_word(seed % 9, (seed * 3) % 4, seed)
        form, trace = normalize(word)
        revived = Trace.from_json(trace.to_json())
        assert revived == trace
        final = replay(word, revived)
        assert final == (trace.final_word() if len(trace) else word)


def test_criterion_7_boundary_fixtures():
    """Disk, Möbius band, annulus, and torus-with-hole classify
    correctly by both routes."""
    fixtures = [
        ("x", NormalForm("sphere", 0, 1)),
        ("a x a", NormalForm("nonorientable", 1, 1)),
        ("a x a' y", NormalForm("sphere", 0, 2)),
        ("a b a' b' x", NormalForm("orientable", 1, 1)),
    ]
    for text, expected in fixtures:
        word = parse(text)
        assert classify(word) == expected, text
        assert classify_by_invariants(word) == expected, text


def test_criterion_8_round_trip():
    """normalize(canonical_word(f)) recovers f for every kind with
    genus up to 8 and boundary up to 3."""
    forms = [NormalForm("sphere", 0, b) for b in range(4)]
    forms += [
        NormalForm(kind, genus, b)
        for kind in ("orientable", "nonorientable")
        for genus in range(1, 9)
        for b in range(4)
    ]
    for form in forms:
        assert normalize(canonical_word(form))[0] == form, form
