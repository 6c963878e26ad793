"""Word grammar, cyclic semantics, and the pairing table."""

import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfword import (
    CONCORD,
    DISCORD,
    SINGLE,
    CornerComplex,
    MultiplicityError,
    NormalForm,
    Orbit,
    PairEntry,
    RewriteStep,
    SignedLetter,
    Word,
    WordSyntaxError,
    fresh_label,
    label_sequence,
    parse,
    random_word,
)

from surfword.words import _TOKENS_RE, _least_paired_rotation, _least_rotation, _tokenize

from conftest import every_word_over_three_labels, relabeled, words


class TestParse:
    def test_spaced_tokens(self):
        word = parse("a b a' b'")
        assert [l.token() for l in word] == ["a", "b", "a'", "b'"]

    def test_compact_form(self):
        assert parse("aba'b'") == parse("a b a' b'")

    def test_numbered_labels(self):
        word = parse("a1 a12 a1'")
        assert word.labels() == ("a1", "a12")
        assert word[2] == SignedLetter("a1", True)

    def test_empty_and_whitespace(self):
        assert parse("") == Word()
        assert parse("   ") == Word()
        assert len(parse("")) == 0

    def test_single_token_with_digits_is_not_compact(self):
        # "a1" must be one label, never the two letters a and 1
        assert len(parse("a1")) == 1

    def test_extra_whitespace_is_ignored(self):
        assert parse("  a   b' ") == parse("a b'")

    @pytest.mark.parametrize(
        "text",
        ["A", "a''", "1a", "a-", "a 'b", "'", "a1a", "ab1", "a_b", "aA"],
    )
    def test_rejects_bad_text(self, text):
        with pytest.raises(WordSyntaxError):
            parse(text)

    @pytest.mark.parametrize("text", ["a a a", "aaa", "a a' a", "b a b a b"])
    def test_rejects_more_than_two_occurrences(self, text):
        with pytest.raises(MultiplicityError):
            parse(text)

    def test_constructor_rejects_more_than_two_occurrences(self):
        letter = SignedLetter("a")
        with pytest.raises(MultiplicityError):
            Word((letter, letter.inverse(), letter))

    @pytest.mark.parametrize(
        "space", [ch for ch in map(chr, range(0x110000)) if ch.isspace()], ids=ord
    )
    def test_every_whitespace_character_separates_tokens(self, space):
        assert _tokenize("a" + space + "b'") == ["a", "b'"]
        assert _tokenize(space + "a" + space * 2 + "b'" + space) == ["a", "b'"]

    def test_the_spaced_word_pattern_separates_exactly_where_split_does(self):
        # _tokenize trusts _TOKENS_RE to fail on every text with a bad token
        separators = [ch for ch in map(chr, range(0x110000)) if _TOKENS_RE.fullmatch(f"a{ch}b")]
        assert separators == [ch for ch in map(chr, range(0x110000)) if ch.isspace()]

    @pytest.mark.parametrize("text", ["a b A c'", "a A b B", "A a b"])
    def test_the_first_bad_token_is_reported(self, text):
        with pytest.raises(WordSyntaxError, match=r"^bad token 'A'$"):
            parse(text)

    def test_every_label_used_more_than_twice_is_named_in_order(self):
        message = r"^labels occur more than twice: a, b$"
        with pytest.raises(MultiplicityError, match=message):
            parse("b b b a a' a c")
        b, a = SignedLetter("b"), SignedLetter("a")
        with pytest.raises(MultiplicityError, match=message):
            Word((b, b, b, a, a, a))

    def test_render_is_spaced(self):
        assert parse("aba'b'").render() == "a b a' b'"
        assert str(parse("")) == ""

    @given(words())
    def test_render_parse_round_trip(self, word):
        assert parse(word.render()) == word


class TestSignedLetter:
    def test_inverse_is_an_involution(self):
        letter = SignedLetter("a3")
        assert letter.inverse().inverse() == letter
        assert letter.inverse() == SignedLetter("a3", True)

    def test_token(self):
        assert SignedLetter("b", True).token() == "b'"
        assert str(SignedLetter("b")) == "b"

    @pytest.mark.parametrize("label", ["", "A", "a'", "1a", "a b"])
    def test_rejects_bad_labels(self, label):
        with pytest.raises(WordSyntaxError):
            SignedLetter(label)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SignedLetter("a").label = "b"


class TestCyclicStructure:
    def test_rotate(self):
        word = parse("a b c")
        assert word.rotate(1) == parse("b c a")
        assert word.rotate(3) == word
        assert word.rotate(-1) == parse("c a b")
        assert parse("").rotate(5) == parse("")

    def test_invert(self):
        assert parse("a b'").invert() == parse("b a'")

    @given(words(), st.integers(-10, 10))
    def test_rotation_composes(self, word, k):
        assert word.rotate(k).rotate(-k) == word

    @given(words())
    def test_invert_is_an_involution(self, word):
        assert word.invert().invert() == word

    @given(words(), st.integers(-10, 10))
    def test_rotations_and_inversions_are_cyclic_equal(self, word, k):
        assert word.cyclic_equal(word.rotate(k))
        assert word.cyclic_equal(word.invert())
        assert word.rotate(k).cyclic_equal(word.invert().rotate(-k))

    def test_cyclic_equal_distinguishes_words(self):
        assert not parse("a a").cyclic_equal(parse("a a'"))
        assert not parse("a b a b").cyclic_equal(parse("a b a' b'"))

    def test_cyclic_equal_up_to_relabel(self):
        assert not parse("a a").cyclic_equal(parse("b b"))
        assert parse("a a").cyclic_equal(parse("b b"), up_to_relabel=True)
        assert not parse("a a").cyclic_equal(parse("b b'"), up_to_relabel=True)

    @given(words())
    def test_relabeling_preserves_relabel_classes(self, word):
        assert word.cyclic_equal(relabeled(word), up_to_relabel=True)

    def test_indexing(self):
        word = parse("a b c'")
        assert word[0] == SignedLetter("a")
        assert word[-1] == SignedLetter("c", True)
        assert word[1:] == parse("b c'")
        assert isinstance(word[1:], Word)

    def test_words_are_immutable_values(self):
        word = parse("a b")
        with pytest.raises(AttributeError):
            word.letters = ()
        assert word == parse("a b")
        assert hash(word) == hash(parse("a b"))


def _reference_key(word, up_to_relabel=False):
    """The quadratic key: the least encoding over all 2n rotations of
    the word and of its inversion, relabelled by first occurrence."""
    best = None
    for base in (word.letters, word.invert().letters):
        for r in range(len(base)):
            rot = base[r:] + base[:r]
            if up_to_relabel:
                ids = {}
                enc = tuple((ids.setdefault(l.label, len(ids)), l.inverted) for l in rot)
            else:
                enc = tuple((l.label, l.inverted) for l in rot)
            if best is None or enc < best:
                best = enc
    return () if best is None else best


class TestCanonicalKey:
    @given(
        words(max_pairs=6, max_singles=2),
        words(max_pairs=6, max_singles=2),
        st.integers(-12, 12),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_key_equality_matches_the_reference(self, first, second, k, up_to_relabel):
        rotated_inversions = (second.invert().rotate(k), first.invert().rotate(k))
        for other in (second, *rotated_inversions, relabeled(first).rotate(k)):
            same = first.canonical_key(up_to_relabel) == other.canonical_key(up_to_relabel)
            expected = _reference_key(first, up_to_relabel) == _reference_key(other, up_to_relabel)
            assert same == expected, (first.render(), other.render())

    def test_class_counts_of_the_three_label_enumeration(self):
        every = list(every_word_over_three_labels())
        assert len({word.canonical_key() for word in every}) == 949
        assert len({word.canonical_key(up_to_relabel=True) for word in every}) == 187

    def test_long_word(self):
        word = random_word(990, 20, 5)
        assert len(word) == 2000
        assert word.canonical_key() == word.invert().rotate(777).canonical_key()
        assert word.canonical_key(True) == relabeled(word).rotate(-41).canonical_key(True)
        flipped = Word((word[0].inverse(),) + word.letters[1:])
        for up_to_relabel in (False, True):
            assert flipped.canonical_key(up_to_relabel) != word.canonical_key(up_to_relabel)


@st.composite
def paired_values(draw):
    """Int lists of 0 to 2,000 entries in which no value occurs more than
    twice, as letter codes ``2 * label + inverted`` are: all concord (each
    code twice), all discord (both codes of each label), with singles, or
    a run followed by itself, its last two entries swapped or not, so the
    two rotations at the least value share a long prefix or are equal."""
    kind = draw(st.sampled_from(["concord", "discord", "singles", "repeat"]))
    labels = draw(st.integers(0, 1000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "repeat":
        run = rng.sample(range(4 * labels), labels)
        tail = run[-2:][::-1] if draw(st.booleans()) else run[-2:]
        return run + run[:-2] + tail
    if kind == "concord":
        values = [code for label in range(labels) for code in [2 * label + rng.getrandbits(1)] * 2]
    elif kind == "discord":
        values = [code for label in range(labels) for code in (2 * label, 2 * label + 1)]
    else:
        values = []
        for label in range(labels):
            count = rng.choice((1, 2))
            values += [2 * label + rng.getrandbits(1) for _ in range(count)]
    rng.shuffle(values)
    return values


class TestLeastPairedRotation:
    @given(paired_values())
    @example([])
    @example([4])
    @example([0, 5, 0, 3])  # the second start of the least value wins
    @example((3, 0, 5, 0))  # the orbit search passes tuples
    @example([2, 0, 7, 0, 7])
    @settings(max_examples=200)
    def test_matches_the_two_pointer_scan(self, values):
        assert _least_paired_rotation(values) == _least_rotation(values)


def _reference_canonical_key(word):
    """``Word.canonical_key()`` as the two-pointer scan gives it: the
    lesser least rotation of the word's and its inversion's letters."""
    forward = [(letter.label, letter.inverted) for letter in word.letters]
    backward = [(label, not inv) for label, inv in reversed(forward)]
    return min(_least_rotation(forward), _least_rotation(backward))


@given(words(max_pairs=8, max_singles=3))
@example(Word())
@example(parse("a b a' b'"))
@settings(max_examples=300)
def test_canonical_key_matches_the_two_pointer_reference(word):
    assert word.canonical_key() == _reference_canonical_key(word)


def test_canonical_key_matches_the_two_pointer_reference_on_the_enumeration():
    for word in every_word_over_three_labels():
        assert word.canonical_key() == _reference_canonical_key(word), word.render()


class TestPairing:
    def test_characters(self):
        table = parse("a b a' b x").pairing()
        assert table.character("a") == DISCORD
        assert table.character("b") == CONCORD
        assert table.character("x") == SINGLE

    def test_inverted_pair_characters(self):
        # equal flags make a concord pair even when both are inverted
        assert parse("a' b a' b'").pairing().character("a") == CONCORD
        assert parse("a' b a b'").pairing().character("a") == DISCORD

    def test_positions_and_order(self):
        table = parse("c a b a' c").pairing()
        assert table.labels() == ("c", "a", "b")
        assert table.positions("a") == (1, 3)
        assert table.positions("b") == (2,)
        assert len(table) == 3
        assert "c" in table and "z" not in table

    def test_with_character_and_has_concord(self):
        table = parse("a b a' b x").pairing()
        assert table.with_character(DISCORD) == ("a",)
        assert table.with_character(SINGLE) == ("x",)
        assert table.has_concord()
        assert not parse("a b a' b'").pairing().has_concord()

    def test_interleaved(self):
        table = parse("a b a' b'").pairing()
        assert table.interleaved("a", "b")
        assert table.interleaved("b", "a")
        table = parse("a a' b b'").pairing()
        assert not table.interleaved("a", "b")
        table = parse("a x a' b b'").pairing()
        assert not table.interleaved("a", "x")
        assert not table.interleaved("a", "a")


class TestLabels:
    def test_label_sequence_prefix(self):
        import itertools

        head = list(itertools.islice(label_sequence(), 28))
        assert head[:4] == ["a", "b", "c", "d"]
        assert head[25] == "z"
        assert head[26:] == ["a1", "b1"]

    def test_fresh_label_skips_used(self):
        assert fresh_label(parse("a b a' b'")) == "c"
        assert fresh_label(parse("")) == "a"

    def test_labels_in_first_occurrence_order(self):
        assert parse("c a b a'").labels() == ("c", "a", "b")


# Each value class: keyword arguments for one value, and that value's repr.
VALUES = [
    (SignedLetter, {"label": "a1", "inverted": True}, "SignedLetter(label='a1', inverted=True)"),
    (
        PairEntry,
        {"label": "b", "positions": (1, 3), "character": DISCORD},
        "PairEntry(label='b', positions=(1, 3), character='discord')",
    ),
    (Word, {"letters": parse("a b a' b'").letters}, 'Word("a b a\' b\'")'),
    (
        RewriteStep,
        {"rule": "cancel", "params": {"pos": 0}, "before": parse("a a' b"), "after": parse("b")},
        "RewriteStep(rule='cancel', params={'pos': 0}, before=Word(\"a a' b\"), after=Word('b'))",
    ),
    (
        NormalForm,
        {"kind": "nonorientable", "genus": 2, "boundary": 1},
        "NormalForm(kind='nonorientable', genus=2, boundary=1)",
    ),
    (
        CornerComplex,
        {"vertices": 1, "edges": 2, "faces": 1},
        "CornerComplex(vertices=1, edges=2, faces=1)",
    ),
    (
        Orbit,
        {"words": frozenset([parse("a a")]), "truncated": False},
        "Orbit(words=frozenset({Word('a a')}), truncated=False)",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_are_immutable_picklable_values(cls, fields, text):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert cls.__match_args__ == tuple(fields)
    assert repr(value) == text
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is cls and other == value
    if cls is not RewriteStep:  # its params are a dict
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    if cls in (PairEntry, RewriteStep, CornerComplex, Orbit):  # constructors made from __slots__
        *given, last = fields
        with pytest.raises(TypeError) as raised:
            cls(*(fields[name] for name in given))
        wanted = f"missing 1 required positional argument: {last!r}"
        assert str(raised.value) == f"{cls.__name__}.__init__() {wanted}"
