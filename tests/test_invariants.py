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
    Word,
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
from surfword.invariants import _orbit_neighbors, _tail_head, _UnionFind
from surfword.normalform import _partners
from surfword.rewrite import _apply, _block_size, _Coded, _inverse

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


def _reference_corner_complex(word):
    """The corner complex from a union-find over corners alone."""
    n = len(word)
    if n == 0:
        return CornerComplex(1, 0, 1)
    table = word.pairing()
    uf = _UnionFind(n)
    for label in table:
        positions = table.positions(label)
        if len(positions) == 2:
            p, q = positions
            p_tail, p_head = _tail_head(word, p)
            q_tail, q_head = _tail_head(word, q)
            uf.union(p_tail, q_tail)
            uf.union(p_head, q_head)
    return CornerComplex(uf.class_count(), len(table), 1)


def _reference_boundary_count(word):
    """Boundary components traced on a separate graph of edge ends: the
    two ends at every corner are linked, tail end to tail end and head
    end to head end across every gluing, and the two ends of each free
    edge; the cycles through a free edge are the boundary components."""
    n = len(word)
    if n == 0:
        return 0

    def end(i, head):
        # end index: 2i sits at corner i, 2i+1 at corner i+1
        return 2 * i + (head != word[i].inverted)

    uf = _UnionFind(2 * n)
    for i in range(n):
        uf.union(2 * ((i - 1) % n) + 1, 2 * i)
    table = word.pairing()
    free_ends = []
    for label in table:
        positions = table.positions(label)
        if len(positions) == 2:
            p, q = positions
            uf.union(end(p, False), end(q, False))
            uf.union(end(p, True), end(q, True))
        else:
            (i,) = positions
            uf.union(2 * i, 2 * i + 1)
            free_ends.append(2 * i)
    return len({uf.find(e) for e in free_ends})


def _assert_oracle_matches_references(word):
    complex_ = _reference_corner_complex(word)
    boundary = _reference_boundary_count(word)
    assert corner_complex(word) == complex_
    assert boundary_count(word) == boundary
    assert invariants_summary(word) == {
        "chi": complex_.chi,
        "orientable": orientable(word),
        "boundary": boundary,
        "vertices": complex_.vertices,
        "edges": complex_.edges,
    }


@given(st.one_of(words(), words(max_pairs=0, max_singles=10)))
@settings(max_examples=400)
def test_oracle_matches_the_two_union_find_reference(word):
    _assert_oracle_matches_references(word)


@pytest.mark.parametrize(
    "pairs, singles, seed", [(500, 50, 1), (700, 0, 2), (400, 250, 3), (0, 1000, 4)]
)
def test_oracle_matches_the_reference_on_long_words(pairs, singles, seed):
    _assert_oracle_matches_references(random_word(pairs, singles, seed))


@pytest.mark.parametrize("oracle", [classify_by_invariants, invariants_summary])
def test_oracle_reads_the_pairing_once(oracle, monkeypatch):
    calls = []
    pairing = Word.pairing

    def counted(word):
        calls.append(word)
        return pairing(word)

    monkeypatch.setattr(Word, "pairing", counted)
    oracle(parse("a b a' b' x c c y"))
    assert len(calls) == 1


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
    neighbors = _orbit_neighbors(coded.codes)
    decoded = (_Coded(c, coded.names, coded.letters).decode() for c in neighbors)
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


# the 14 criterion-5 classes whose orbits the orbit-closure benchmark searches
CLOSURE_CLASSES = [
    "a a b b c c", "a a c c' b b", "a a' b' c' b' c'", "a b b c a c", "a b c c' b' a'",
    "a b' b c' a c", "a b' c' b c' a'", "a c c a' b' b", "a a' b b c", "a b c a c",
    "a b' c a' c'", "a c c b b'", "a b a' c", "a c' c' b",
]
# one sha256 over the (start, cap, truncated, digest as above) lines of
# searches capped at 7 and 40 states of those classes and of 40 random
# words of 3 to 5 pairs, computed before the orbit search called the edits
# at its own sites; 93 of the 108 searches are truncated
CAPPED_SEARCHES_SHA256 = "cefab4905303fc98a269e11ecfc9bbfb7cf765cc877e6145ffd472bda133e937"


def test_capped_searches_are_pinned():
    starts = [parse(text) for text in CLOSURE_CLASSES]
    starts += [random_word(3 + seed % 3, seed % 2, seed) for seed in range(40)]
    lines = []
    for word in starts:
        for cap in (7, 40):
            orbit = bfs_orbit(word, max_states=cap)
            lines.append(f"{word.render()} {cap} {orbit.truncated} {_digest(orbit)}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CAPPED_SEARCHES_SHA256


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


def _reference_orbit_neighbors(forward, apply=_apply):
    """The orbit search's neighbors as it listed them when it sent each
    one through the checked rule, ``apply``: the same sites, in the same
    order, each named by the rule's parameters."""

    def neighbor(base, spin, rule, **params):
        coded = _Coded(base.codes[spin:] + base.codes[:spin], base.names, base.letters)
        apply(coded, rule, params)
        return coded.codes

    n = len(forward.codes)
    for base in (forward, _Coded(_inverse(forward.codes), forward.names, forward.letters)):
        codes, names = base.codes, base.names
        pairs = [(names[codes[i] >> 1], (i, j)) for i, j in enumerate(_partners(codes)) if i < j]
        discords = [(label, p) for label, p in pairs if codes[p[0]] != codes[p[1]]]
        for pos in range(n):
            if codes[pos] ^ codes[(pos + 1) % n] == 1:
                yield neighbor(base, 0, "cancel", pos=pos)
        for label, (up, down) in discords:
            if codes[up] & 1:
                up, down = down, up
            if up < down:
                splits = range(up + 1, down + 1)
            else:
                splits = [*range(down + 1), *range(up + 1, n)]
            for split in splits:
                yield neighbor(base, 0, "transpose_discord", label=label, split=split)
        for start in range(n):
            if size := _block_size(codes, start):
                for dest in range(n):
                    if (dest - start) % n >= size:
                        yield neighbor(base, 0, "slide_block", block_start=start, dest=dest)
        for label, positions in pairs:
            if codes[positions[0]] == codes[positions[1]]:
                for p in positions:
                    yield neighbor(base, p, "fold_concord", label=label)
        for a, (i, j) in discords:
            for p in (i, j):
                for b, (k1, k2) in discords:
                    if a != b and (i < k1 < j) != (i < k2 < j):
                        yield neighbor(base, p, "interleave_to_handle", a=a, b=b)


@given(words(max_pairs=4, max_singles=2))
@example(parse("a b a' b' x y z w"))
@example(parse("a a b b x y z w"))
@example(parse("a x b y a' z b' w"))
@settings(max_examples=100, deadline=None)
def test_orbit_neighbors_call_rules_only_where_they_apply(word):
    calls = []

    def strict(coded, rule, params):
        calls.append(rule)
        try:
            _apply(coded, rule, params)
        except NotApplicable as exc:
            raise AssertionError(f"{rule}({params}) on {word}: {exc}") from exc

    neighbors = list(_reference_orbit_neighbors(_Coded.encode(word), strict))
    # every neighbor came through one of the five site rules
    assert set(calls) <= set(_SITE_RULES)
    assert len(calls) == len(neighbors)


@given(words(max_pairs=4, max_singles=2))
@example(parse("a b a' b' x y z w"))
@example(parse("a a b b x y z w"))
@example(parse("a x b y a' z b' w"))
@settings(max_examples=200, deadline=None)
def test_orbit_neighbors_are_the_checked_rules_in_order(word):
    # a capped search admits the first new classes it meets, so the order counts
    coded = _Coded.encode(word)
    assert list(_orbit_neighbors(coded.codes)) == list(_reference_orbit_neighbors(coded))
