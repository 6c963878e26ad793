"""The independent classification route: corner complex, boundary
tracing, families, random words, and orbits."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfword import (
    CONCORD,
    DISCORD,
    CornerComplex,
    InconsistentInvariants,
    NormalForm,
    NotApplicable,
    Orbit,
    bfs_orbit,
    block_at,
    boundary_count,
    cancel,
    classify,
    classify_by_invariants,
    corner_complex,
    euler_characteristic,
    family_iii,
    family_iv,
    family_v,
    fold_concord,
    interleave_to_handle,
    invariants_summary,
    orientable,
    parse,
    random_word,
    slide_block,
    transpose_discord,
)
import surfword.invariants
from surfword.invariants import _orbit_neighbors
from surfword.rewrite import _Coded

from conftest import every_word_over_three_labels, relabeled, words


class TestCornerComplex:
    def test_empty_word_is_a_sphere(self):
        assert corner_complex(parse("")) == CornerComplex(1, 0, 1)
        assert euler_characteristic(parse("")) == 2

    @pytest.mark.parametrize(
        "text, vertices, edges, chi",
        [
            ("a a", 1, 1, 1),
            ("a a'", 2, 1, 2),
            ("a b a' b'", 1, 2, 0),
            ("a a b b", 1, 2, 0),
            ("a b a b", 2, 2, 1),
            ("a b a' b", 1, 2, 0),
            ("x", 1, 1, 1),
            ("a x a", 1, 2, 0),
            ("a x a' y", 2, 3, 0),
            ("a b a' b' x", 1, 3, -1),
        ],
    )
    def test_cell_counts(self, text, vertices, edges, chi):
        complex_ = corner_complex(parse(text))
        assert complex_ == CornerComplex(vertices, edges, 1)
        assert complex_.chi == chi

    @given(words(), st.integers(-8, 8))
    def test_chi_is_a_cyclic_invariant(self, word, k):
        chi = euler_characteristic(word)
        assert euler_characteristic(word.rotate(k)) == chi
        assert euler_characteristic(word.invert()) == chi
        assert euler_characteristic(relabeled(word)) == chi


class TestBoundary:
    @pytest.mark.parametrize(
        "text, count",
        [
            ("", 0),
            ("a a", 0),
            ("a b a' b'", 0),
            ("x", 1),
            ("x'", 1),
            ("x y", 1),
            ("a x a", 1),
            ("a x a' y", 2),
            ("a b a' b' x", 1),
            ("a x a' y b z b'", 3),
        ],
    )
    def test_boundary_counts(self, text, count):
        assert boundary_count(parse(text)) == count

    @given(words(), st.integers(-8, 8))
    def test_boundary_count_is_a_cyclic_invariant(self, word, k):
        count = boundary_count(word)
        assert boundary_count(word.rotate(k)) == count
        assert boundary_count(word.invert()) == count
        assert boundary_count(relabeled(word)) == count

    @given(words())
    def test_words_without_singles_have_no_boundary(self, word):
        if all(len(word.pairing().positions(l)) == 2 for l in word.labels()):
            assert boundary_count(word) == 0


class TestOrientable:
    def test_examples(self):
        assert orientable(parse(""))
        assert orientable(parse("a b a' b'"))
        assert orientable(parse("x y"))
        assert not orientable(parse("a a"))
        assert not orientable(parse("a' x a' y"))


class TestClassifyByInvariants:
    @pytest.mark.parametrize(
        "text, kind, genus, boundary",
        [
            ("", "sphere", 0, 0),
            ("a a b b", "nonorientable", 2, 0),
            ("a b c a' b' c'", "orientable", 1, 0),
            ("a x a", "nonorientable", 1, 1),
        ],
    )
    def test_examples(self, text, kind, genus, boundary):
        assert classify_by_invariants(parse(text)) == NormalForm(kind, genus, boundary)

    @given(words())
    @settings(max_examples=300)
    def test_agrees_with_normalize(self, word):
        assert classify_by_invariants(word) == classify(word)

    def test_inconsistency_is_an_internal_error(self):
        assert issubclass(InconsistentInvariants, RuntimeError)

    def test_summary_schema(self):
        summary = invariants_summary(parse("a b a' b' x"))
        assert summary == {
            "chi": -1,
            "orientable": True,
            "boundary": 1,
            "vertices": 1,
            "edges": 3,
        }
        assert list(summary) == ["chi", "orientable", "boundary", "vertices", "edges"]


class TestFamilies:
    def test_shapes(self):
        assert family_iii(2) == parse("a1 a2 a2 a1")
        assert family_iv(2) == parse("a1 a2 a1' a2")
        assert family_v(4) == parse("a1 a2 a3 a4 a1' a2' a3' a4'")
        assert family_iii(1) == parse("a1 a1")
        assert family_iv(1) == parse("a1 a1")
        assert family_v(1) == parse("a1 a1'")

    def test_rejects_nonpositive_n(self):
        for family in (family_iii, family_iv, family_v):
            with pytest.raises(ValueError):
                family(0)

    def test_small_classifications(self):
        assert classify(family_iii(4)) == NormalForm("nonorientable", 4, 0)
        assert classify(family_iv(4)) == NormalForm("nonorientable", 4, 0)
        assert classify(family_v(1)) == NormalForm("sphere", 0, 0)
        assert classify(family_v(6)) == NormalForm("orientable", 3, 0)
        assert classify(family_v(7)) == NormalForm("orientable", 3, 0)


class TestRandomWord:
    def test_deterministic_in_the_seed(self):
        assert random_word(4, 2, 9) == random_word(4, 2, 9)
        assert random_word(3, 2, 42).render() == "e d b c a' c a b'"
        assert random_word(0, 0, 0) == parse("")

    def test_occurrence_profile(self):
        word = random_word(5, 3, 17)
        table = word.pairing()
        assert len(word) == 13
        assert sorted(len(table.positions(l)) for l in table.labels()) == [1, 1, 1, 2, 2, 2, 2, 2]
        for label in table.with_character("single"):
            (pos,) = table.positions(label)
            assert not word[pos].inverted

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            random_word(-1, 0, 0)


class TestOrbit:
    def test_of_the_empty_word(self):
        orbit = bfs_orbit(parse(""))
        assert len(orbit) == 1
        assert not orbit.truncated
        assert parse("") in orbit

    def test_cancellation_reaches_the_empty_word(self):
        assert parse("") in bfs_orbit(parse("a a'"), max_length=4, max_states=100)

    def test_fold_reaches_the_crosscap_form(self):
        orbit = bfs_orbit(parse("a b a b"), max_length=6, max_states=1000)
        assert parse("a a b' b") in orbit
        assert not orbit.truncated

    def test_members_are_distinct_cyclic_classes(self):
        orbit = bfs_orbit(parse("a b a b"))
        members = list(orbit)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                assert not first.cyclic_equal(second)

    def test_membership_of_a_non_word_is_false(self):
        orbit = bfs_orbit(parse("a b a' b'"))
        assert 5 not in orbit
        assert "a b a' b'" not in orbit
        assert parse("b' a' b a") in orbit

    def test_truncation_flag(self):
        orbit = bfs_orbit(parse("a b a b"), max_states=2)
        assert orbit.truncated
        assert len(orbit) == 2

    @given(words(max_pairs=2, max_singles=1))
    @settings(max_examples=40, deadline=None)
    def test_orbit_members_classify_alike(self, word):
        forms = {classify(member) for member in bfs_orbit(word, max_states=400)}
        assert len(forms) == 1


def test_orbit_is_an_orbit_of_words():
    orbit = bfs_orbit(parse("a a'"))
    assert isinstance(orbit, Orbit)
    for member in orbit:
        assert member == parse(member.render())


def _every_rotation_neighbors(word):
    """Reference neighbor enumeration: every rule tried from all 2n
    rotations of the word and of its inversion."""
    n = len(word)
    for base in (word, word.invert()):
        for k in range(n):
            spun = base.rotate(k)
            table = spun.pairing()
            for pos in range(n):
                try:
                    yield cancel(spun, pos)
                except NotApplicable:
                    pass
            discords = table.with_character(DISCORD)
            for label in table.with_character(CONCORD):
                yield fold_concord(spun, label)
            for label in discords:
                for split in range(n):
                    try:
                        yield transpose_discord(spun, label, split)
                    except NotApplicable:
                        pass
            for start in range(n):
                if block_at(spun, start) is not None:
                    for dest in range(n):
                        try:
                            yield slide_block(spun, start, dest)
                        except NotApplicable:
                            pass
            for a in discords:
                for b in discords:
                    if a != b:
                        try:
                            yield interleave_to_handle(spun, a, b)
                        except NotApplicable:
                            pass


def _assert_same_neighbors(word):
    expected = {w.canonical_key() for w in _every_rotation_neighbors(word)}
    coded = _Coded.encode(word)
    decoded = (_Coded(c, coded.names, coded.letters).decode() for c in _orbit_neighbors(coded))
    assert {w.canonical_key() for w in decoded} == expected


@given(words(max_pairs=3, max_singles=2))
@settings(max_examples=100, deadline=None)
def test_orbit_neighbors_match_every_rotation_reference(word):
    _assert_same_neighbors(word)


@pytest.mark.parametrize("text", ["a b a' b' x y z w", "a a b b x y z w", "a x b y a' z b' w"])
def test_orbit_neighbors_of_eight_letter_words_match_reference(text):
    _assert_same_neighbors(parse(text))


# sha256 over the sorted renders of each orbit's members, computed before
# the orbit search listed rule sites directly; the members are the words
# at which the search first reached each class.
ORBIT_DIGESTS = {
    "a b a' b' x y z w": "175ee5d7a70ee34e65b9c712c1b72cea21c7f27934566056be2a90862e15469c",
    "a a b b x y z w": "faefb0b7d0fb9a4f8291749ee034f93ea2234165bd60a3d53a222aac1e1cdcba",
    "a x b y a' z b' w": "5204f7ce58b58733784180b957a13637e439af6fa371901b097a7a65dbd3f0cc",
    "a b a b": "d9d22b55bf8e3c4932ad3ae25ee3657562bd783a5614ea774403d1fb7db5e729",
}


def _digest(orbit):
    renders = "\n".join(sorted(member.render() for member in orbit.words))
    return hashlib.sha256(renders.encode()).hexdigest()


@pytest.mark.parametrize("text", sorted(ORBIT_DIGESTS))
def test_orbit_members_are_pinned(text):
    orbit = bfs_orbit(parse(text))
    assert not orbit.truncated
    assert _digest(orbit) == ORBIT_DIGESTS[text]


# (cap, truncated, digest as above) of searches capped at 2, 10 and 50 states,
# computed before the orbit search ran on letter codes
CAPPED_DIGESTS = {
    "a b a b": [
        (2, True, "9d25584b3a12f3e1d3a7c379762d944871c4511b5b80346e0a365e918e260c1b"),
        (10, False, "d9d22b55bf8e3c4932ad3ae25ee3657562bd783a5614ea774403d1fb7db5e729"),
        (50, False, "d9d22b55bf8e3c4932ad3ae25ee3657562bd783a5614ea774403d1fb7db5e729"),
    ],
    "a b a' b' x y z w": [
        (2, True, "077debfa82d080229761a9bfcf524cd24169d9251938610936d369d60e3d47e2"),
        (10, True, "ee922ffb90429060c992031038d15cda9335eff7708268d71c126c6eea2ffead"),
        (50, True, "764c5c7b6778590664ed46c89ab2188621ccacc9056aec6b29247369958ec227"),
    ],
    "a a b b x y z w": [
        (2, True, "47df8dddd5a5fe2f9a20092a2ec9705cfb42d4002dc17b1f27211a7d35bcc579"),
        (10, True, "4641c62d330c551d038de0a7281cc7458d33372894caaf51cdbdceb03edb01e2"),
        (50, True, "14637ab97fb364b28763c3ddfda402b90ac97ee6d7f28f74b84b805d7ff29cb1"),
    ],
    "a x b y a' z b' w": [
        (2, True, "64cc5c02196a1810876ad832966f8401eabbee265db30a3f9b014446013f9c9c"),
        (10, True, "47801fad433126e141e935bac0c8fe2d952dc495dffb9d62acb1ae7711d38ac7"),
        (50, True, "18293ee1f6e74f4b4bfc889cd0df654236074402b684455ce06672ba58541356"),
    ],
}


@pytest.mark.parametrize(
    "text, cap, truncated, digest",
    [(text, *entry) for text, entries in sorted(CAPPED_DIGESTS.items()) for entry in entries],
)
def test_capped_orbit_members_are_pinned(text, cap, truncated, digest):
    orbit = bfs_orbit(parse(text), max_states=cap)
    assert (orbit.truncated, _digest(orbit)) == (truncated, digest)


def _reference_orbit_keys(word, max_length):
    """Keys of the closure of ``word``, searched breadth first over
    :func:`_every_rotation_neighbors` and keyed by ``canonical_key``."""
    seen = {word.canonical_key()}
    states = [word]
    for state in states:
        for neighbor in _every_rotation_neighbors(state):
            key = neighbor.canonical_key()
            if len(neighbor) <= max_length and key not in seen:
                seen.add(key)
                states.append(neighbor)
    return seen


@given(words(max_pairs=3, max_singles=2), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_bfs_orbit_matches_a_reference_search(word, max_length):
    orbit = bfs_orbit(word, max_length=max_length)
    assert not orbit.truncated
    expected = _reference_orbit_keys(word, max_length)
    assert {member.canonical_key() for member in orbit} == expected


def test_bfs_orbit_decodes_each_member_at_most_once():
    decode = _Coded.decode
    calls = []

    def counted(coded):
        calls.append(coded)
        return decode(coded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Coded, "decode", counted)
        orbit = bfs_orbit(parse("a a b b x y z w"))
    assert len(orbit.words) == 112
    assert len(calls) <= len(orbit.words)


@pytest.fixture(scope="module")
def class_words():
    """One word of each of the 949 criterion-5 classes."""
    return list({w.canonical_key(): w for w in every_word_over_three_labels()}.values())


@pytest.mark.parametrize("text", ["a b a b", "a a b b x y z w", "a x b y a' z b' w"])
def test_membership_agrees_with_cyclic_equality(text, class_words):
    orbit = bfs_orbit(parse(text))
    spun = [b.rotate(k) for m in orbit for b in (m, m.invert()) for k in range(len(m))]
    assert len(class_words) == 949
    for word in class_words + spun:
        assert (word in orbit) == any(m.cyclic_equal(word) for m in orbit), word.render()


_SITE_RULES = ("cancel", "transpose_discord", "fold_concord", "slide_block", "interleave_to_handle")


@given(words(max_pairs=4, max_singles=2))
@example(parse("a b a' b' x y z w"))
@example(parse("a a b b x y z w"))
@example(parse("a x b y a' z b' w"))
@settings(max_examples=100, deadline=None)
def test_orbit_neighbors_call_rules_only_where_they_apply(word):
    calls = []
    apply = surfword.invariants._apply

    def strict(coded, rule, params):
        calls.append(rule)
        try:
            apply(coded, rule, params)
        except NotApplicable as exc:
            raise AssertionError(f"{rule}({params}) on {word}: {exc}") from exc

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surfword.invariants, "_apply", strict)
        neighbors = list(_orbit_neighbors(_Coded.encode(word)))
    # every neighbor came through one of the five site rules
    assert set(calls) <= set(_SITE_RULES)
    assert len(calls) == len(neighbors)
