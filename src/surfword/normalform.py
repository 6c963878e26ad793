"""Normalization of edge words and the classification normal form.

:func:`normalize` reduces a word in three stages, each a loop of
recorded rewrite steps:

* crosscap extraction: fold every concord pair to an adjacent block
  ``a a`` and hive it off, tallying crosscaps;
* handle extraction: collect every interleaved pair of discord pairs
  into a block ``a b a' b'`` and hive it off, tallying handles;
* boundary cleanup: merge runs of single letters, cancel pairs that
  enclose nothing, and hive off pairs that frame one single letter,
  tallying holes.  A final lone single letter counts one more hole.

A handle extracted alongside at least one crosscap is worth two
crosscaps, so ``p`` crosscaps and ``t`` handles give the nonorientable
genus ``p + 2t`` when ``p > 0``, the orientable genus ``t`` when
``p == 0 < t``, and the sphere otherwise.  Boundary components equal
the tallied holes.

The stages work on one coded word, not on :class:`Word` values: each
step finds a rule's site in one O(n) pass, applies that rule's own edit
from :mod:`surfword.rewrite` there (O(n) too), and records the rule.
The returned :class:`Trace` keeps those moves with the initial and final
words and builds the words between on demand, so :func:`classify` and
:func:`equivalent` never build them.  ``surfword batch`` runs the stages
on the codes it reads from each line and builds no word and no trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rewrite import Trace, _Coded, _fold, _glue, _interleave, _remove
from .words import SignedLetter, Word

__all__ = [
    "NormalForm",
    "canonical_word",
    "classify",
    "equivalent",
    "normalize",
]

_KINDS = ("sphere", "orientable", "nonorientable")


@dataclass(frozen=True, slots=True)
class NormalForm:
    """The classification of a compact surface.

    ``kind`` is ``"sphere"``, ``"orientable"`` or ``"nonorientable"``;
    ``genus`` is 0 for the sphere and at least 1 otherwise; ``boundary``
    counts boundary components.  Two words present the same surface
    exactly when their normal forms are equal.
    """

    kind: str
    genus: int
    boundary: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.boundary < 0:
            raise ValueError("boundary count cannot be negative")
        if self.kind == "sphere":
            if self.genus != 0:
                raise ValueError("a sphere has genus 0")
        elif self.genus < 1:
            raise ValueError(f"an {self.kind} surface has genus at least 1")

    @property
    def chi(self) -> int:
        """Euler characteristic of the surface."""
        if self.kind == "orientable":
            return 2 - 2 * self.genus - self.boundary
        if self.kind == "nonorientable":
            return 2 - self.genus - self.boundary
        return 2 - self.boundary

    def as_tuple(self) -> tuple[str, int, int]:
        return (self.kind, self.genus, self.boundary)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "genus": self.genus,
            "boundary": self.boundary,
            "chi": self.chi,
        }

    def describe(self) -> str:
        base = "sphere" if self.kind == "sphere" else f"{self.kind} surface of genus {self.genus}"
        if self.boundary == 1:
            return f"{base} with 1 boundary component"
        if self.boundary:
            return f"{base} with {self.boundary} boundary components"
        return base

    def __str__(self) -> str:
        return self.describe()


def _partners(cur: list[int]) -> list[int]:
    """For each position, the position of the other occurrence of its
    label; a single letter is its own partner."""
    first = {cur[k] >> 1: k for k in range(len(cur) - 1, -1, -1)}
    last = {code >> 1: k for k, code in enumerate(cur)}
    return [j if (j := last[code >> 1]) != k else first[code >> 1] for k, code in enumerate(cur)]


def _crosscap_site(cur: list[int]) -> tuple[int, int] | None:
    """Stored positions of the first code that occurs twice: a concord pair."""
    last = dict(zip(cur, range(len(cur))))
    if len(last) == len(cur):
        return None
    for i, code in enumerate(cur):
        if last[code] > i:
            return i, last[code]


def _handle_site(cur: list[int], singles: set[int]) -> tuple[int, int, int, int] | None:
    """Stored positions ``(a1, b1, a2, b2)``, in increasing order and in
    the argument order of ``_interleave``, of ``a``, the first pair by
    first occurrence that crosses another, and ``b``, the first pair
    that crosses ``a``, in a word with no concord pair and single labels
    ``singles``.  Scanning with a stack of labels, a pair closing below
    the top crosses every pair above it, and every crossing is seen at
    the close of the pair that opened first.  Singles and closed pairs
    left in the stack are popped when they reach the top."""
    first: dict[int, int] = {}
    stack: list[int] = []
    closed = set(singles)
    a1 = a2 = n = len(cur)
    for k, code in enumerate(cur):
        label = code >> 1
        opened = first.setdefault(label, k)
        if opened == k:
            stack.append(label)
        else:
            while stack[-1] in closed:
                stack.pop()
            if stack[-1] == label:
                stack.pop()
            else:
                closed.add(label)
                if opened < a1:
                    a1, a2 = opened, k
    if a1 == n:
        return None
    # b has one occurrence inside a and the other after a2: a pair that
    # opened before a1 and closed inside a would have set a smaller a1
    arc = set(cur[a1 + 1 : a2])
    for b1 in range(a1 + 1, a2):
        if cur[b1] ^ 1 not in arc and cur[b1] >> 1 not in singles:
            return a1, b1, a2, cur.index(cur[b1] ^ 1, a2 + 1)


def _glue_site(partner: list[int]) -> int | None:
    """First position holding a single letter followed cyclically by
    another single letter."""
    singles = [k for k, p in enumerate(partner) if k == p]
    for k, nxt in zip(singles, singles[1:]):
        if nxt == k + 1:
            return k
    if len(singles) >= 2 and singles[0] == 0 and singles[-1] == len(partner) - 1:
        return singles[-1]
    return None


def _hole_site(partner: list[int]) -> tuple[int, int, int | None]:
    """The first pair, in order of first occurrence, with a pair-free
    arc: its two positions ``(first, second)`` in arc order and the
    arc's one single letter, or None for an empty arc.

    In a word with no interleaved pairs the paired occurrences nest, so
    some pair encloses no other on one side.  After single letters have
    been merged, that arc holds at most one letter.
    """
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


def normalize(word: Word) -> tuple[NormalForm, Trace]:
    """Reduce ``word`` to its classification, with a replayable trace.

    Returns the :class:`NormalForm` and the :class:`Trace` of every
    rewrite applied, chained from ``word`` down to the residual word
    (empty, or one single letter standing for the last hole).
    """
    coded = _Coded.encode(word)
    form, moves = _stages(coded)
    return form, Trace.from_moves(word, moves, coded.decode())


def _stages(coded: _Coded) -> tuple[NormalForm, list[tuple[str, dict]]]:
    """The three stages of :func:`normalize` on ``coded``, which they
    edit down to the residual word: the normal form and the moves.

    Each step finds its site in one pass over the letter codes ``2 * id
    + inverted``: the crosscap stage looks for the first code that occurs
    twice; the handle stage, with no concord pair left, reads a pair's
    other occurrence as the inverse code and takes its single labels,
    which it never moves, once; the boundary stage reads a table of
    partner positions.  It applies the rule's own edit there, unchecked,
    and records ``(rule, params)``.  A ``fold_concord`` or
    ``interleave_to_handle`` that would return its input is not recorded.
    """
    codes, names = coded.codes, coded.names
    moves: list[tuple[str, dict]] = []

    crosscaps = 0
    while (site := _crosscap_site(codes)) is not None:
        i, j = site
        if j > i + 1 or codes[i] & 1:
            moves.append(("fold_concord", {"label": names[codes[i] >> 1]}))
        moves.append(("hive_crosscap", {"pos": j - 1}))
        _fold(codes, i, j)
        _remove(codes, j - 1, j)
        crosscaps += 1

    handles = 0
    present = set(codes)
    singles = {code >> 1 for code in present if code ^ 1 not in present}
    while (site := _handle_site(codes, singles)) is not None:
        a1, b1, a2, b2 = site
        if site != (0, 1, 2, 3):
            a, b = names[codes[a1] >> 1], names[codes[b1] >> 1]
            moves.append(("interleave_to_handle", {"a": a, "b": b}))
        moves.append(("hive_handle", {"pos": 0}))
        _interleave(codes, a1, b1, a2, b2)
        _remove(codes, 0, 1, 2, 3)
        handles += 1

    holes = 0
    while True:
        partner = _partners(codes)
        pos = _glue_site(partner)
        if pos is not None:
            moves.append(("glue_singles", {"pos": pos}))
            _glue(coded, pos)
            continue
        if len(codes) <= 1:
            # no pair is left, and merging left at most one single letter
            holes += len(codes)
            break
        first, second, middle = _hole_site(partner)
        if middle is None:
            moves.append(("cancel", {"pos": first}))
            _remove(codes, first, second)
        else:
            moves.append(("hive_hole", {"label": names[codes[first] >> 1]}))
            _remove(codes, first, second, middle)
            holes += 1

    if crosscaps:
        form = NormalForm("nonorientable", crosscaps + 2 * handles, holes)
    elif handles:
        form = NormalForm("orientable", handles, holes)
    else:
        form = NormalForm("sphere", 0, holes)
    return form, moves


def classify(word: Word) -> NormalForm:
    """The normal form of ``word``, discarding the trace."""
    return normalize(word)[0]


def equivalent(first: Word, second: Word) -> bool:
    """Whether two words present the same surface."""
    return classify(first) == classify(second)


def canonical_word(form: NormalForm) -> Word:
    """The standard word presenting ``form``.

    Crosscap blocks ``a1 a1 a2 a2 ...`` for a nonorientable surface,
    handle blocks ``a1 b1 a1' b1' ...`` for an orientable one, nothing
    for the sphere; then one framed hole ``hi xi hi'`` per boundary
    component except the last, which is a trailing single letter.
    Normalizing the result recovers ``form``.
    """
    letters: list[SignedLetter] = []
    if form.kind == "nonorientable":
        for i in range(1, form.genus + 1):
            cap = SignedLetter(f"a{i}")
            letters += [cap, cap]
    elif form.kind == "orientable":
        for i in range(1, form.genus + 1):
            x, y = SignedLetter(f"a{i}"), SignedLetter(f"b{i}")
            letters += [x, y, x.inverse(), y.inverse()]
    for i in range(1, form.boundary):
        frame = SignedLetter(f"h{i}")
        letters += [frame, SignedLetter(f"x{i}"), frame.inverse()]
    if form.boundary:
        letters.append(SignedLetter(f"x{form.boundary}"))
    return Word(tuple(letters))
