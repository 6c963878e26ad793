"""Cyclic edge words of combinatorial surface polygons.

A compact surface can be presented as a polygon with labeled, directed
edges that are glued in pairs.  Reading the labels around the polygon
boundary yields an *edge word* in which every label appears exactly once
or exactly twice: twice for a glued pair of edges, once for a free edge
that remains on the surface boundary.  A trailing apostrophe marks an
edge traversed against its direction, so the torus is ``a b a' b'`` and
the projective plane is ``a a``.

Words are immutable values with cyclic reading semantics: rotating a
word, or inverting it (reading backwards with all directions flipped),
presents the same polygon.  Two occurrences of a paired label either
point the same way around the polygon (*concord*, equal inversion
flags) or opposite ways (*discord*).  Concord pairs are exactly what
makes a surface nonorientable.

Grammar accepted by :meth:`Word.parse`:

    WORD    := TOKEN (WS+ TOKEN)* | COMPACT | ""
    TOKEN   := NAME APOS?
    NAME    := [a-z][0-9]*
    COMPACT := (LETTER APOS?)+          with LETTER := [a-z]

The compact form (no whitespace at all, as in ``aba'b'``) is only
available while every label is a single character.  Rendering always
produces the whitespace separated form.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from string import ascii_lowercase
from typing import Iterable, Iterator

__all__ = [
    "CONCORD",
    "DISCORD",
    "SINGLE",
    "MultiplicityError",
    "PairEntry",
    "PairingTable",
    "SignedLetter",
    "Word",
    "WordSyntaxError",
    "fresh_label",
    "label_sequence",
    "parse",
]

SINGLE = "single"
CONCORD = "concord"
DISCORD = "discord"

_NAME_RE = re.compile(r"[a-z][0-9]*")
_TOKEN_RE = re.compile(r"[a-z][0-9]*'?")
_TOKENS_RE = re.compile(r"[a-z][0-9]*'?(?:\s+[a-z][0-9]*'?)*")
_COMPACT_RE = re.compile(r"(?:[a-z]'?)+")


class WordSyntaxError(ValueError):
    """Raised for text that does not conform to the word grammar."""


class MultiplicityError(ValueError):
    """Raised when some label occurs more than twice in a word."""


@dataclass(frozen=True, slots=True)
class SignedLetter:
    """An edge label together with a direction flag.

    ``inverted=True`` means the edge is traversed against its own
    direction and renders with a trailing apostrophe.

    >>> SignedLetter("a", True).token()
    "a'"
    """

    label: str
    inverted: bool = False

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.label):
            raise WordSyntaxError(f"bad edge label {self.label!r}")

    def inverse(self) -> "SignedLetter":
        return _checked_letter(self.label, not self.inverted)

    def token(self) -> str:
        return self.label + ("'" if self.inverted else "")

    def __str__(self) -> str:
        return self.token()


def _checked_letter(label: str, inverted: bool) -> SignedLetter:
    """A letter whose label already matched :data:`_NAME_RE`, made
    without matching it again."""
    letter = object.__new__(SignedLetter)
    object.__setattr__(letter, "label", label)
    object.__setattr__(letter, "inverted", inverted)
    return letter


def _checked_word(letters: tuple[SignedLetter, ...]) -> "Word":
    """A word made from a tuple in which no label occurs more than
    twice, without counting the labels again."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


@dataclass(frozen=True, slots=True)
class PairEntry:
    """Occurrence data for one label: positions and pairing character."""

    label: str
    positions: tuple[int, ...]
    character: str


class PairingTable:
    """Per-label occurrence data for a word, in first-occurrence order.

    ``character(label)`` is one of :data:`SINGLE`, :data:`CONCORD` or
    :data:`DISCORD`.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[str, PairEntry]):
        self._entries = dict(entries)

    def __getitem__(self, label: str) -> PairEntry:
        return self._entries[label]

    def __contains__(self, label: str) -> bool:
        return label in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairingTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        items = ", ".join(f"{e.label}: {e.character}@{e.positions}" for e in self.entries())
        return f"<PairingTable {items}>"

    def labels(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entries(self) -> tuple[PairEntry, ...]:
        return tuple(self._entries.values())

    def positions(self, label: str) -> tuple[int, ...]:
        return self._entries[label].positions

    def character(self, label: str) -> str:
        return self._entries[label].character

    def with_character(self, character: str) -> tuple[str, ...]:
        return tuple(label for label, e in self._entries.items() if e.character == character)

    def has_concord(self) -> bool:
        return any(e.character == CONCORD for e in self._entries.values())

    def interleaved(self, first: str, second: str) -> bool:
        """True when the two pairs alternate around the cycle.

        Non-pair labels never interleave.  Alternation is checked on
        stored positions, which is equivalent to the cyclic statement.
        """
        if first == second:
            return False
        a = self._entries[first]
        b = self._entries[second]
        if len(a.positions) != 2 or len(b.positions) != 2:
            return False
        i, j = a.positions
        k1, k2 = b.positions
        return (i < k1 < j) != (i < k2 < j)


def _check_multiplicity(labels: Iterable[str]) -> None:
    """Raise :class:`MultiplicityError`, naming them in sorted order, if
    some of ``labels`` occur more than twice."""
    counts = Counter(labels)
    if counts and max(counts.values()) > 2:
        bad = sorted(label for label, c in counts.items() if c > 2)
        raise MultiplicityError(f"labels occur more than twice: {', '.join(bad)}")


def _tokenize(text: str) -> list[str]:
    stripped = text.strip()
    if _TOKENS_RE.fullmatch(stripped):
        return stripped.split()
    if _COMPACT_RE.fullmatch(stripped):
        return _TOKEN_RE.findall(stripped)
    for token in stripped.split():  # report the first bad token
        if not _TOKEN_RE.fullmatch(token):
            raise WordSyntaxError(f"bad token {token!r}")
    return []  # no bad token: the text is blank, as ``\s`` is what ``split`` splits at


@dataclass(frozen=True, slots=True)
class Word:
    """An edge word: an immutable sequence of signed letters.

    Equality and hashing are elementwise on the stored sequence; use
    :meth:`cyclic_equal` for equality as cyclic words.

    >>> Word.parse("aba'b'").render()
    "a b a' b'"
    >>> len(Word.parse("a1 a1"))
    2
    >>> Word.parse("a b").cyclic_equal(Word.parse("b a"))
    True
    """

    letters: tuple[SignedLetter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        _check_multiplicity(map(attrgetter("label"), self.letters))

    @classmethod
    def parse(cls, text: str) -> "Word":
        tokens = _tokenize(text)
        # every token matched _TOKEN_RE, so its label matches _NAME_RE
        return cls(tuple(_checked_letter(t.rstrip("'"), t.endswith("'")) for t in tokens))

    def render(self) -> str:
        return " ".join([letter.label + "'" if letter.inverted else letter.label
                         for letter in self.letters])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Word({self.render()!r})"

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[SignedLetter]:
        return iter(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _checked_word(self.letters[index])
        return self.letters[index]

    def labels(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(letter.label for letter in self.letters))

    def rotate(self, k: int) -> "Word":
        """Cyclic left rotation by ``k`` positions.

        >>> str(Word.parse("a b a' b'").rotate(1))
        "b a' b' a"
        """
        if not self.letters:
            return self
        k %= len(self.letters)
        return _checked_word(self.letters[k:] + self.letters[:k])

    def invert(self) -> "Word":
        """Reverse the reading direction: reverse order, flip all flags.

        >>> str(Word.parse("a b").invert())
        "b' a'"
        """
        return _checked_word(tuple(letter.inverse() for letter in reversed(self.letters)))

    def pairing(self) -> PairingTable:
        positions: dict[str, list[int]] = {}
        for idx, letter in enumerate(self.letters):
            positions.setdefault(letter.label, []).append(idx)
        entries: dict[str, PairEntry] = {}
        for label, where in positions.items():
            if len(where) == 1:
                character = SINGLE
            elif self.letters[where[0]].inverted == self.letters[where[1]].inverted:
                character = CONCORD
            else:
                character = DISCORD
            entries[label] = PairEntry(label, tuple(where), character)
        return PairingTable(entries)

    def canonical_key(self, up_to_relabel: bool = False) -> tuple:
        """A key equal for two words iff they are cyclically equal, in
        time linear in the length.

        The key is the least rotation of the word or of its inverse,
        whichever is smaller, with each letter read as ``(label,
        inverted)``.  Up to relabelling, position ``k`` reads as ``(gap,
        inverted)`` instead, where ``gap`` is the forward cyclic distance
        from ``k`` to the other occurrence of its label, or 0 for a
        single letter; rotating the word rotates these gaps, and
        renaming labels leaves them alone.

        >>> word = Word.parse("a b' c a' c")
        >>> word.canonical_key() == word.invert().rotate(2).canonical_key()
        True
        >>> word.canonical_key() == Word.parse("x y' z x' z").canonical_key()
        False
        >>> word.canonical_key(True) == Word.parse("x y' z x' z").canonical_key(True)
        True
        """
        n = len(self.letters)
        if n == 0:
            return ()
        if up_to_relabel:
            first: dict[str, int] = {}
            gaps = [0] * n
            for k, letter in enumerate(self.letters):
                p = first.setdefault(letter.label, k)
                if p != k:
                    gaps[p], gaps[k] = k - p, n - k + p
            forward = [(g, letter.inverted) for g, letter in zip(gaps, self.letters)]
            backward = [((n - g) % n, not inv) for g, inv in reversed(forward)]
        else:
            forward = [(letter.label, letter.inverted) for letter in self.letters]
            backward = [(label, not inv) for label, inv in reversed(forward)]
        return min(_least_rotation(forward), _least_rotation(backward))

    def cyclic_equal(self, other: "Word", up_to_relabel: bool = False) -> bool:
        """Equality up to rotation and inversion, optionally up to a
        direction-preserving bijective relabeling.

        >>> Word.parse("a a").cyclic_equal(Word.parse("b b"))
        False
        >>> Word.parse("a a").cyclic_equal(Word.parse("b b"), up_to_relabel=True)
        True
        """
        if len(self) != len(other):
            return False
        return self.canonical_key(up_to_relabel) == other.canonical_key(up_to_relabel)


def _least_rotation(seq: list) -> tuple:
    """The least rotation of ``seq`` as a tuple, by the two-pointer scan.

    ``i`` and ``j`` are two candidate starts and ``k`` the length of
    their common prefix.  At the first difference the larger candidate
    is ruled out, and so is every start within ``k`` after it.  Every
    pass raises ``i + j + k``, so the scan makes fewer than
    ``3 * len(seq)`` passes.
    """
    n = len(seq)
    doubled = seq + seq
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return tuple(doubled[start : start + n])


def _parse_shared(text: str, letters: dict[str, SignedLetter]) -> Word:
    """``Word.parse(text)``, taking the letter of each token from
    ``letters`` and adding the tokens it has not seen yet, so that words
    parsed with one table share one letter per distinct token.  Text with
    a bad token, a compact word among them, goes to ``Word.parse``.
    """
    tokens = text.split()
    try:
        shared = tuple(map(letters.__getitem__, tokens))
    except KeyError:  # scan only when some token is new
        for token in set(tokens).difference(letters):
            if not _TOKEN_RE.fullmatch(token):
                return Word.parse(text)
            letters[token] = _checked_letter(token.rstrip("'"), token.endswith("'"))
        shared = tuple(map(letters.__getitem__, tokens))
    _check_multiplicity(map(attrgetter("label"), shared))
    return _checked_word(shared)


def parse(text: str) -> Word:
    """Parse ``text`` into a :class:`Word` (see module grammar)."""
    return Word.parse(text)


def label_sequence() -> Iterator[str]:
    """Yield ``a .. z, a1 .. z1, a2 ..``: the label naming sequence."""
    for suffix in itertools.count():
        tail = "" if suffix == 0 else str(suffix)
        for ch in ascii_lowercase:
            yield ch + tail


def fresh_label(word: Word) -> str:
    """First label from :func:`label_sequence` unused in ``word``."""
    used = {letter.label for letter in word}
    return next(name for name in label_sequence() if name not in used)
