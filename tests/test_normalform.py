"""Normalization, normal forms, and the canonical word for each form."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfword.rewrite
from surfword import (
    NormalForm,
    SignedLetter,
    Trace,
    Word,
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

from surfword.normalform import _handle_site
from surfword.rewrite import _interleave, _remove

from conftest import words


class TestNormalForm:
    def test_chi(self):
        assert NormalForm("sphere", 0, 0).chi == 2
        assert NormalForm("sphere", 0, 1).chi == 1
        assert NormalForm("orientable", 2, 0).chi == -2
        assert NormalForm("orientable", 1, 1).chi == -1
        assert NormalForm("nonorientable", 2, 0).chi == 0
        assert NormalForm("nonorientable", 1, 2).chi == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalForm("torus", 1, 0)
        with pytest.raises(ValueError):
            NormalForm("sphere", 1, 0)
        with pytest.raises(ValueError):
            NormalForm("orientable", 0, 0)
        with pytest.raises(ValueError):
            NormalForm("nonorientable", 2, -1)

    def test_to_dict(self):
        assert NormalForm("nonorientable", 3, 1).to_dict() == {
            "kind": "nonorientable",
            "genus": 3,
            "boundary": 1,
            "chi": -2,
        }

    def test_describe(self):
        assert str(NormalForm("sphere", 0, 0)) == "sphere"
        assert str(NormalForm("sphere", 0, 1)) == "sphere with 1 boundary component"
        assert (
            str(NormalForm("orientable", 2, 3))
            == "orientable surface of genus 2 with 3 boundary components"
        )
        assert str(NormalForm("nonorientable", 1, 0)) == "nonorientable surface of genus 1"


class TestNormalize:
    def test_empty_word_is_the_sphere(self):
        form, trace = normalize(parse(""))
        assert form == NormalForm("sphere", 0, 0)
        assert len(trace) == 0

    def test_crosscap_extraction_trace(self):
        form, trace = normalize(parse("a b a' b"))
        assert form == NormalForm("nonorientable", 2, 0)
        assert [(s.rule, tuple(sorted(s.params.items()))) for s in trace] == [
            ("fold_concord", (("label", "b"),)),
            ("hive_crosscap", (("pos", 2),)),
            ("hive_crosscap", (("pos", 0),)),
        ]
        assert trace.final_word() == parse("")

    def test_handle_extraction_trace(self):
        form, trace = normalize(parse("a a b c b' c'"))
        assert form == NormalForm("nonorientable", 3, 0)
        assert [s.rule for s in trace] == ["hive_crosscap", "hive_handle"]

    def test_mixed_word(self):
        # one crosscap, one interleaved pair, one single: genus 1+2, one hole
        form, trace = normalize(parse("c a b a' c x b"))
        assert form == NormalForm("nonorientable", 3, 1)
        assert [s.rule for s in trace] == [
            "fold_concord",
            "hive_crosscap",
            "interleave_to_handle",
            "hive_handle",
        ]
        assert trace.final_word() == parse("x")

    def test_boundary_cleanup_trace(self):
        form, trace = normalize(parse("a x a' y"))
        assert form == NormalForm("sphere", 0, 2)
        assert [s.rule for s in trace] == ["hive_hole"]
        assert trace.final_word() == parse("y")

    def test_adjacent_singles_merge_into_one_hole(self):
        assert classify(parse("x y z")) == NormalForm("sphere", 0, 1)
        assert classify(parse("x y' z")) == NormalForm("sphere", 0, 1)

    def test_enclosing_nothing_cancels_without_a_hole(self):
        assert classify(parse("a a'")) == NormalForm("sphere", 0, 0)
        assert classify(parse("a b b' a'")) == NormalForm("sphere", 0, 0)

    def test_torus_and_klein_bottle(self):
        assert classify(parse("a b a' b'")) == NormalForm("orientable", 1, 0)
        assert classify(parse("a b a' b")) == NormalForm("nonorientable", 2, 0)
        assert classify(parse("a b a b")) == NormalForm("nonorientable", 1, 0)

    @given(words())
    def test_trace_chains_from_input_to_residual(self, word):
        form, trace = normalize(word)
        if len(trace):
            assert trace.initial_word() == word
        final = replay(word, trace)
        residual = trace.final_word() if len(trace) else word
        assert final == residual
        # the residual is empty or a lone single letter for the last hole
        assert len(residual) <= 1

    @given(words(), st.integers(-8, 8))
    def test_classification_is_a_cyclic_invariant(self, word, k):
        form = classify(word)
        assert classify(word.rotate(k)) == form
        assert classify(word.invert()) == form

    @given(words())
    def test_chi_formula_matches_the_oracle(self, word):
        assert classify(word).chi == euler_characteristic(word)

    @given(words())
    def test_trace_survives_json_round_trip(self, word):
        form, trace = normalize(word)
        assert replay(word, Trace.from_json(trace.to_json())) == replay(word, trace)


# sha256 over the JSON traces of the criterion-3 corpus (10,000 words)
# and the criterion-6 corpus (1,000 words), one trace per line.  They
# pin every rule and parameter that normalize chooses, so a faster
# normalizer must reproduce the same derivations.  They were computed
# with the Word-based normalizer that the list-based search replaced.
CRITERION_3_TRACES_SHA256 = "e46b59b262b7358c4f3fdb8d9442fb70eea3c5945304daec4eb89522288acacf"
CRITERION_6_TRACES_SHA256 = "bc68faeb3924d017d34f63f76027a1fe3c27ccdead9a18015df56365146f6e53"
# The same over the traces of LONG_WORDS below, most of whose steps are
# in the handle stage, which the corpora and the 840-letter trace barely
# reach.  Computed with the normalizer that read each handle site from a
# table of partner positions.
LONG_WORDS_TRACES_SHA256 = "7392b7cdd456541681d4a563da4264b802d66e8d411cc77c3d38b3ceb8d9a10c"


def _traces_sha256(words) -> str:
    digest = hashlib.sha256()
    for word in words:
        digest.update(normalize(word)[1].to_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestPinnedTraces:
    def test_criterion_3_corpus(self):
        words = (random_word(seed % 11, (seed * 7) % 4, seed) for seed in range(10_000))
        assert _traces_sha256(words) == CRITERION_3_TRACES_SHA256

    def test_criterion_6_corpus(self):
        words = (random_word(seed % 9, (seed * 3) % 4, seed) for seed in range(1_000))
        assert _traces_sha256(words) == CRITERION_6_TRACES_SHA256


def nested_handles(m: int) -> Word:
    """``p1 a1 b1 a1' b1' p2 ... pm am bm am' bm' x pm' ... p1'``: m
    handles nested in m pairs around one hole, 6m + 1 letters."""
    letters = []
    for i in range(1, m + 1):
        p, a, b = (SignedLetter(f"{name}{i}") for name in "pab")
        letters += [p, a, b, a.inverse(), b.inverse()]
    letters.append(SignedLetter("x"))
    letters += [SignedLetter(f"p{i}", True) for i in range(m, 0, -1)]
    return Word(tuple(letters))


def with_inverted_singles(word: Word) -> Word:
    """``word`` with every other single letter inverted."""
    labels = [letter.label for letter in word]
    singles = [k for k, label in enumerate(labels) if labels.count(label) == 1]
    flip = set(singles[1::2])
    return Word(tuple(l.inverse() if k in flip else l for k, l in enumerate(word)))


LONG_WORDS = [
    pytest.param(family(n), id=f"{family.__name__}({n})")
    for n in (100, 250)
    for family in (family_iii, family_iv, family_v)
] + [
    pytest.param(random_word(letters // 2 - 4, 8, letters), id=f"random({letters})")
    for letters in (300, 600)
] + [
    pytest.param(nested_handles(m), id=f"nested_handles({m})") for m in (50, 166)
] + [
    pytest.param(with_inverted_singles(random_word(280, 40, 7)), id="inverted_singles(600)")
]


class TestLongWords:
    @pytest.mark.parametrize("word", LONG_WORDS)
    def test_agrees_with_the_oracle_and_replays(self, word):
        form, trace = normalize(word)
        assert form == classify_by_invariants(word)
        assert replay(word, Trace.from_json(trace.to_json())) == trace.final_word()

    def test_classify_builds_no_intermediate_word(self, monkeypatch):
        decoded = []
        decode = surfword.rewrite._Coded.decode

        def counted(coded):
            decoded.append(len(coded.codes))
            return decode(coded)

        # the one function that turns letter codes into a Word
        monkeypatch.setattr(surfword.rewrite._Coded, "decode", counted)
        word = random_word(490, 20, 1000)
        assert len(word) == 1000
        assert classify(word) == classify_by_invariants(word)
        # only the residual word of at most one letter was built
        assert len(decoded) == 1 and decoded[0] <= 1
        form, trace = normalize(word)
        assert trace.initial_word() == word and len(trace) > 500
        # a trace is written from its codes: at most the final word is built
        for write in (trace.to_json, trace.describe):
            decoded.clear()
            write()
            assert len(decoded) <= 1

    def test_long_word_traces_are_pinned(self):
        assert _traces_sha256(p.values[0] for p in LONG_WORDS) == LONG_WORDS_TRACES_SHA256

    def test_long_trace_is_pinned(self):
        word = random_word(400, 40, 1)
        _, trace = normalize(word)
        assert (len(word), len(trace)) == (840, 829)
        digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
        assert digest == "45fb69f817c381118f27f75f71efd430cc0e33078f2888698b9046c5a98d1480"


def _reference_handle_site(cur):
    """The reference for ``_handle_site``: ``(a1, b1, a2, b2)`` or None,
    found from a table of the partner position of every letter."""
    first = {cur[k] >> 1: k for k in range(len(cur) - 1, -1, -1)}
    last = {code >> 1: k for k, code in enumerate(cur)}
    partner = [j if (j := last[code >> 1]) != k else first[code >> 1] for k, code in enumerate(cur)]
    stack = []
    closed = [False] * len(partner)
    a1 = None
    for k, p in enumerate(partner):
        if p > k:
            stack.append(k)
        elif p < k:
            while closed[stack[-1]]:
                stack.pop()
            if stack[-1] == p:
                stack.pop()
            else:
                closed[p] = True
                if a1 is None or p < a1:
                    a1 = p
    if a1 is None:
        return None
    a2 = partner[a1]
    before = min(partner[a1 + 1 : a2])
    b1 = before if before < a1 else next(k for k in range(a1 + 1, a2) if partner[k] > a2)
    return a1, b1, a2, partner[b1]


@st.composite
def discord_codes(draw):
    """Letter codes of a word with no concord pair: discord pairs, either
    occurrence first, and single letters of either flag; the codes and
    the single labels."""
    pairs, singles = draw(st.integers(0, 16)), draw(st.integers(0, 8))
    codes = [2 * i + flip for i in range(pairs) for flip in (0, 1)]
    codes += [2 * (pairs + i) + draw(st.booleans()) for i in range(singles)]
    return draw(st.permutations(codes)), set(range(pairs, pairs + singles))


@given(discord_codes())
@settings(max_examples=300, deadline=None)
def test_handle_site_matches_the_partner_table_search(word):
    codes, singles = word
    # every word the handle stage passes through on the way
    while (site := _handle_site(codes, singles)) == _reference_handle_site(codes):
        if site is None:
            return
        _interleave(codes, *site)
        _remove(codes, 0, 1, 2, 3)
    raise AssertionError((codes, site, _reference_handle_site(codes)))


class TestEquivalent:
    def test_identities(self):
        assert equivalent(parse("a a b b"), parse("a b a' b"))
        assert equivalent(parse("a a'"), parse(""))
        assert equivalent(parse("a b a' b'"), parse("c d c' d'"))

    def test_distinguishes_surfaces(self):
        assert not equivalent(parse("a a"), parse("a b a' b'"))
        assert not equivalent(parse("x"), parse(""))
        assert not equivalent(parse("a x a"), parse("a x a' y"))


class TestCanonicalWord:
    def test_shapes(self):
        assert canonical_word(NormalForm("sphere", 0, 0)) == parse("")
        assert canonical_word(NormalForm("sphere", 0, 1)) == parse("x1")
        assert canonical_word(NormalForm("nonorientable", 2, 1)) == parse("a1 a1 a2 a2 x1")
        assert canonical_word(NormalForm("orientable", 2, 0)) == parse(
            "a1 b1 a1' b1' a2 b2 a2' b2'"
        )
        assert canonical_word(NormalForm("sphere", 0, 3)) == parse("h1 x1 h1' h2 x2 h2' x3")

    def test_round_trip_spot_checks(self):
        for form in (
            NormalForm("sphere", 0, 2),
            NormalForm("orientable", 3, 1),
            NormalForm("nonorientable", 5, 3),
        ):
            assert normalize(canonical_word(form))[0] == form
