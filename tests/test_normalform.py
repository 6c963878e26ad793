"""Normalization, normal forms, and the canonical word for each form."""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
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
    label_sequence,
    normalize,
    parse,
    random_word,
    replay,
)

from surfword.invariants import _partners
from surfword.normalform import _crossing_site, _glue_site, _handle_site, _hole_site, _stages
from surfword.rewrite import _Coded, _fold, _glue, _interleave, _remove

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


def twice_nested_handles(m: int) -> Word:
    """``p1 q1 a1 b1 a1' b1' ... pm qm am bm am' bm' x qm' pm' ... q1'
    p1'``: m handles nested in two pairs each around one hole, 8m + 1
    letters.  The first pair crosses no other, and the second stays
    open to the end of the word."""
    letters = []
    for i in range(1, m + 1):
        p, q, a, b = (SignedLetter(f"{name}{i}") for name in "pqab")
        letters += [p, q, a, b, a.inverse(), b.inverse()]
    letters.append(SignedLetter("x"))
    for i in range(m, 0, -1):
        letters += [SignedLetter(f"q{i}", True), SignedLetter(f"p{i}", True)]
    return Word(tuple(letters))


def nested_holes(pairs: int, before: int, after: int, seed: int) -> Word:
    """``before`` single letters, then ``o ... o'`` framing ``pairs``
    discord pairs nested at random with a run of 0 to 2 single letters
    of either flag after each letter, then ``after`` single letters;
    deterministic in ``seed``."""
    rng = random.Random(seed)
    count = 0

    def run(size):
        nonlocal count
        count += size
        return [SignedLetter(f"x{count - k}", rng.random() < 0.5) for k in range(size)]

    letters = run(before) + [SignedLetter("o")]
    stack = []
    for k in range(pairs):
        while stack and rng.random() < 0.5:
            letters += [stack.pop().inverse()] + run(rng.randrange(3))
        stack.append(SignedLetter(f"p{k}", rng.random() < 0.5))
        letters += [stack[-1]] + run(rng.randrange(3))
    while stack:
        letters += [stack.pop().inverse()] + run(rng.randrange(3))
    return Word(tuple(letters + [SignedLetter("o", True)] + run(after)))


# Shapes that LONG_WORDS does not reach: handle stages whose first pair
# crosses no other while a second outer pair keeps the site search to
# the end of the word, and boundary stages that glue across the wrap,
# cancel the pair at n - 1 and 0, and hive holes across the wrap.
LONG_SHAPES = [
    pytest.param(twice_nested_handles(m), id=f"twice_nested_handles({m})") for m in (50, 125)
] + [
    pytest.param(nested_holes(100, b, a, 10 * b + a), id=f"nested_holes(100,{b},{a})")
    for b in range(3)
    for a in range(3)
]
# sha256 over the traces of LONG_SHAPES, computed with the normalizer
# that built a table of partner positions on every boundary step and ran
# each handle-stage stack scan to the end of the word.
LONG_SHAPES_TRACES_SHA256 = "fa71da0afb04a90e78e1af1e9867d1a2374c05b7df18b102bae72fe6dfdf6bb3"


def concord_singles(pairs: int, seed: int) -> Word:
    """``pairs`` concord pairs and ``2 * pairs // 3`` single letters, so
    that about one letter in four is single, each with a random flag,
    shuffled; deterministic in ``seed``."""
    rng = random.Random(seed)
    letters = []
    for k in range(pairs):
        letters += [SignedLetter(f"c{k}", rng.random() < 0.5)] * 2
    letters += [SignedLetter(f"x{k}", rng.random() < 0.5) for k in range(2 * pairs // 3)]
    rng.shuffle(letters)
    return Word(tuple(letters))


def wrapped_random(pairs: int, before: int, after: int, seed: int) -> Word:
    """``before`` single letters, then ``o w o`` with ``w`` ``pairs``
    pairs of independent flags and ``pairs // 8`` single letters,
    shuffled, then ``after`` single letters, every single of either flag;
    deterministic in ``seed``.  The first fold takes all of ``w``, and
    the rest of the word holds only single letters."""
    rng = random.Random(seed)
    singles = iter(SignedLetter(f"x{k}", rng.random() < 0.5) for k in range(pairs + before + after))
    inner = [SignedLetter(f"p{k // 2}", rng.random() < 0.5) for k in range(2 * pairs)]
    inner += [next(singles) for _ in range(pairs // 8)]
    rng.shuffle(inner)
    outer = SignedLetter("o", rng.random() < 0.5)
    letters = [next(singles) for _ in range(before)] + [outer] + inner + [outer]
    return Word(tuple(letters + [next(singles) for _ in range(after)]))


# Crosscap stages that LONG_WORDS barely reaches: many pairs that change
# character at each fold (family_iv), concord pairs among many single
# letters of either flag, and a first fold over most of the word whose
# rest holds only single letters.
CROSSCAP_SHAPES = [
    pytest.param(family_iv(n), id=f"family_iv({n})") for n in (150, 400)
] + [
    pytest.param(concord_singles(p, p), id=f"concord_singles({p})") for p in (120, 300)
] + [
    pytest.param(wrapped_random(200, b, a, 10 * b + a), id=f"wrapped_random(200,{b},{a})")
    for b, a in ((0, 3), (3, 0), (2, 2))
]
# sha256 over the traces of CROSSCAP_SHAPES, computed with the normalizer
# that built a code -> last position table on every crosscap step.
CROSSCAP_SHAPES_TRACES_SHA256 = "006635852c555ea4eee75fd7bc27b040bb3db680ab21bafec7deab2bc4f0511b"


class TestLongShapes:
    @pytest.mark.parametrize("word", LONG_SHAPES + CROSSCAP_SHAPES)
    def test_agrees_with_the_oracle_and_replays(self, word):
        form, trace = normalize(word)
        assert form == classify_by_invariants(word)
        assert replay(word, Trace.from_json(trace.to_json())) == trace.final_word()

    def test_long_shape_traces_are_pinned(self):
        assert _traces_sha256(p.values[0] for p in LONG_SHAPES) == LONG_SHAPES_TRACES_SHA256

    def test_crosscap_shape_traces_are_pinned(self):
        digest = _traces_sha256(p.values[0] for p in CROSSCAP_SHAPES)
        assert digest == CROSSCAP_SHAPES_TRACES_SHA256


# One word of about 4,096 letters from each shape the stages' searches
# are tuned for, where the pinned traces above stop near 1,000 letters.
WORDS_4096 = [
    random_word(1950, 195, 4096),
    family_iii(2048),
    family_iv(2048),
    family_v(2048),
    nested_handles(682),
    twice_nested_handles(512),
    nested_holes(1010, 3, 3, 36),  # singles of both flags before and after
    wrapped_random(1920, 7, 7, 77),
]
# sha256 over the JSON of the moves _stages returns for WORDS_4096, one
# line per word, computed at commit d149f49, where the handle stage built
# a set of the whole arc and the crosscap stage found a fold's second
# occurrence by a forward scan.  Hashing the moves, not the trace text,
# keeps this fast: one trace at this length writes tens of megabytes.
WORDS_4096_MOVES_SHA256 = "62e86538840027f681fecf52eb7499fb34e3226da9eb691fe574ae6246d2c3c3"


def test_moves_near_4096_letters_are_pinned():
    digest = hashlib.sha256()
    for word in WORDS_4096:
        coded = _Coded.encode(word)
        form, moves = _stages(coded)
        digest.update(json.dumps(moves).encode() + b"\n")
        assert form == classify_by_invariants(word)
        final = coded.decode()
        assert replay(word, Trace.from_moves(word, moves, final)) == final
    assert digest.hexdigest() == WORDS_4096_MOVES_SHA256


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
    occurrence first, and single letters of either flag, in a drawn order
    and wrapped in 0 to 3 nested outer pairs; the codes and the set of
    single letter codes."""
    pairs, singles = draw(st.integers(0, 16)), draw(st.integers(0, 8))
    outer = draw(st.integers(0, 3))
    codes = [2 * i + flip for i in range(pairs) for flip in (0, 1)]
    codes += [2 * (pairs + i) + draw(st.booleans()) for i in range(singles)]
    head = [2 * (pairs + singles + i) + draw(st.booleans()) for i in range(outer)]
    single = set(codes[2 * pairs :])
    codes = head + draw(st.permutations(codes)) + [code ^ 1 for code in reversed(head)]
    return codes, single


@given(discord_codes())
# o p1 p2 p3 q p3' p2' p1' q' o': the scan lowers a1 from p3 to p1, so it
# may stop only once no pair opened before a1 is open
@example(([0, 4, 6, 8, 2, 9, 7, 5, 3, 1], set()))
@settings(max_examples=300, deadline=None)
def test_handle_site_matches_the_partner_table_search(word):
    codes, single = word
    # every word the handle stage passes through on the way
    while (site := _handle_site(codes, single)) == _reference_handle_site(codes):
        if site is None:
            return
        _interleave(codes, *site)
        _remove(codes, 0, 1, 2, 3)
    raise AssertionError((codes, site, _reference_handle_site(codes)))


class _CountedReads(list):
    """Letter codes that count the reads of each position by index."""

    def __init__(self, codes):
        super().__init__(codes)
        self.reads = [0] * len(codes)

    def __getitem__(self, index):
        if isinstance(index, int):
            self.reads[index] += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_handle_site_scan_stops_once_no_pair_before_a1_is_open(m):
    # o p1 .. pm q pm' .. p1' q' o', then 0 or 2m + 3 single letters: the scan
    # lowers a1 to p1 at p1' and may stop there, as q, the one pair still
    # open, was opened after p1
    opens = [2 * i for i in range(m + 2)]
    word = opens + [code + 1 for code in opens[m:0:-1]] + [opens[-1] + 1, 1]
    for pad in (0, 2 * m + 3):
        singles = [2 * (m + 2 + k) for k in range(pad)]
        codes = _CountedReads(word + singles)
        assert _handle_site(codes, set(singles)) == (1, m + 1, 2 * m + 1, 2 * m + 2)
        # the first pair's check reads q' once on its arc when the rest is
        # longer, and not at all from the empty rest; the scan never reads it
        assert codes.reads[2 * m + 2] == (pad > 0)


# The pair a (codes 0 and 1) with an arc longer than the rest of the word,
# and single letters (codes 20, 23 and 25) in both.  Its straddlers, the
# pairs with one end in each, are read from the rest: none; p (codes 2 and
# 3); p and q (4 and 5), with q's end first in the rest, where the site is
# p's, the first in the arc.  With none, no arc position is read by index.
@pytest.mark.parametrize(
    "codes, site",
    [
        ([0, 2, 4, 25, 5, 3, 1, 20, 23], None),
        ([0, 2, 4, 25, 6, 7, 5, 1, 20, 3, 23], (0, 1, 7, 9)),
        ([0, 2, 4, 25, 6, 7, 1, 20, 5, 3, 23], (0, 1, 6, 9)),
    ],
    ids=["no straddler", "one straddler", "two straddlers"],
)
def test_crossing_site_reads_the_shorter_rest(codes, site):
    codes = _CountedReads(codes)
    a2 = codes.index(1)
    assert len(codes) < 2 * a2
    assert _crossing_site(codes, {20, 23, 25}, 0, a2) == site
    if site is None:
        assert not any(codes.reads[1:a2])


def _reference_crosscap_site(cur):
    """The reference for the crosscap stage's site: stored positions of
    the first code that occurs twice, found from a table of the last
    position of every code."""
    last = dict(zip(cur, range(len(cur))))
    if len(last) == len(cur):
        return None
    for i, code in enumerate(cur):
        if last[code] > i:
            return i, last[code]


@st.composite
def concord_codes(draw):
    """Letter codes of a word with many concord pairs: pairs of drawn
    character and flags and single letters of either flag, in a drawn
    order, wrapped with a drawn chance in one outer concord pair with 0
    to 3 single letters before and after it, so that the first fold runs
    over most of the word and the rest holds only single letters."""
    pairs, singles = draw(st.integers(1, 16)), draw(st.integers(0, 8))
    concord = draw(st.integers(0, pairs))
    codes = []
    for k in range(pairs):
        flag = draw(st.booleans())
        codes += [2 * k + flag, 2 * k + (flag if k < concord else not flag)]
    codes += [2 * (pairs + k) + draw(st.booleans()) for k in range(singles)]
    codes = draw(st.permutations(codes))
    if draw(st.booleans()):
        # up to three singles before and after, and the outer pair's code
        more = [2 * (pairs + singles + k) + draw(st.booleans()) for k in range(7)]
        before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        codes = more[:before] + [more[6]] + codes + [more[6]] + more[3 : 3 + after]
    return codes


@given(concord_codes())
# edge cases of the kept reverse-and-flip's slice arithmetic
@example([0, 0])  # a a
@example([1, 1])  # a' a'
@example([2, 4, 0, 6, 0])  # b c a d a: a site behind two singles
@example([0, 2, 4, 2, 6, 0])  # a b c b d a: a pair at 0 and n - 1, nothing outside it
@example([2, 0, 4, 6, 8, 2, 10, 4])  # b a c d e b f c: the toggle reads c from the rest
@example([0, 2, 2, 0])  # a b b a: folds to b' b', then leaves the empty word
# a fold whose rest is shorter than its run, with a straddler and a single
# letter on each side of the run: s p a q p' m m' r' q' a r t, with one
# such fold, and o s p ... r t o, with two, the second on inverted singles
@example([6, 2, 0, 12, 3, 10, 11, 5, 13, 0, 4, 8])
@example([14, 6, 2, 0, 12, 3, 10, 11, 5, 13, 0, 4, 8, 14])
# c' d' b' a' a' c e' b' and c d' b' c' a' a' e' b': after the swap, the
# next fold, of c, reads the reverse-and-flip of what was left of the run
@example([5, 7, 3, 1, 1, 4, 9, 3])
@example([4, 7, 3, 5, 1, 1, 9, 3])
@settings(max_examples=300, deadline=None)
def test_crosscap_stage_matches_the_table_search(codes):
    names = [name for name, _ in zip(label_sequence(), range(100))]
    # the crosscap stage with a table of last positions on every step,
    # then the later stages on the word it leaves
    cur, moves = codes[:], []
    while (site := _reference_crosscap_site(cur)) is not None:
        i, j = site
        if j > i + 1 or cur[i] & 1:
            moves.append(("fold_concord", {"label": names[cur[i] >> 1]}))
        moves.append(("hive_crosscap", {"pos": j - 1}))
        _fold(cur, i, j)
        _remove(cur, j - 1, j)
    reference = _Coded(cur, names[:], {})
    moves += _stages(reference)[1]
    coded = _Coded(codes, names[:], {})
    assert _stages(coded)[1] == moves
    assert coded.codes == reference.codes


def _reference_glue_site(partner):
    """The reference for ``_glue_site``, from a table of partner positions."""
    singles = [k for k, p in enumerate(partner) if k == p]
    for k, nxt in zip(singles, singles[1:]):
        if nxt == k + 1:
            return k
    if len(singles) >= 2 and singles[0] == 0 and singles[-1] == len(partner) - 1:
        return singles[-1]
    return None


def _reference_hole_site(partner):
    """The reference for ``_hole_site``, from a table of partner positions."""
    n = len(partner)
    for i, j in enumerate(partner):
        if j <= i:
            continue
        for first, second in ((i, j), (j, i)):
            arc = (second - first - 1) % n
            if arc == 0:
                return first, second, None
            middle = (first + 1) % n
            if arc == 1 and partner[middle] == middle:
                return first, second, middle
    raise AssertionError("non-interleaved pairs must nest")


@st.composite
def nested_codes(draw):
    """Letter codes of a word whose discord pairs nest, either occurrence
    first, with a run of 0 to 2 single letters of either flag before the
    first letter and after each, rotated by a drawn amount so that pairs
    and singles sit at both ends."""
    codes: list[int] = []
    stack: list[int] = []
    labels = iter(range(100))

    def run():
        codes.extend(2 * next(labels) + draw(st.booleans()) for _ in range(draw(st.integers(0, 2))))

    run()
    for _ in range(draw(st.integers(0, 12))):
        while stack and draw(st.booleans()):
            codes.append(stack.pop() ^ 1)
            run()
        stack.append(2 * next(labels) + draw(st.booleans()))
        codes.append(stack[-1])
        run()
    while stack:
        codes.append(stack.pop() ^ 1)
        run()
    k = draw(st.integers(0, max(len(codes) - 1, 0)))
    return codes[k:] + codes[:k]


@given(nested_codes())
@settings(max_examples=300, deadline=None)
def test_boundary_sites_match_the_partner_table_search(codes):
    names = [name for name, _ in zip(label_sequence(), range(100))]
    coded = _Coded(codes, names, {})
    single = {code for code in codes if code ^ 1 not in codes}
    # every word the boundary stage passes through on the way, with the
    # single codes that the stage keeps
    while True:
        partner = _partners(codes)
        assert single == {codes[k] for k, p in enumerate(partner) if k == p}
        pos = _glue_site(codes, single)
        assert pos == _reference_glue_site(partner), (codes, pos)
        if pos is not None:
            single -= {codes[pos], codes[(pos + 1) % len(codes)]}
            _glue(coded, pos)
            single.add(codes[min(pos, len(codes) - 1)])
            continue
        if len(codes) <= 1:
            return
        site = _hole_site(codes, single)
        assert site == _reference_hole_site(partner), (codes, site)
        first, second, middle = site
        if middle is None:
            _remove(codes, first, second)
        else:
            single.discard(codes[middle])
            _remove(codes, first, second, middle)


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
