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

The stages work on one coded word, not on :class:`Word` values: each step
finds a rule's site with a search that stops as soon as the site is fixed,
applies that rule's own edit from :mod:`surfword.rewrite` there, and
records the rule.  Where it can, a step reads only the shorter side of
its edit and leaves moving the rest of the list to C.

* The crosscap stage keeps the concord labels and the word's
  reverse-and-flip, where it finds a fold's second occurrence from the end
  of the word.  A fold and its hive copy the shorter of the run and the
  rest: a shorter run between the two lists, or a shorter rest around
  ``ov(run)``, which the reverse-and-flip already holds, before the two
  lists swap.  The straddlers, the pairs with one end in the run, are
  read from that side and change character.
* The handle stage tries the first pair on the shorter of its arc and the
  rest, before a stack scan that stops when no earlier pair is open.
* The boundary stage finds a glue in one flag per position and stops its
  hole scan at the first pair-free arc, each from the start of the word.

On random words the crosscap stage stays quadratic: their straddlers
total about ``0.036 n**2``, and this order of moves touches each one.

The returned :class:`Trace` keeps those moves with the initial and final
words and builds the words between on demand, so :func:`classify` and
:func:`equivalent` never build them.  ``surfword batch`` runs the stages
on the codes it reads from each line and builds no word and no trace.
"""

from __future__ import annotations

from itertools import chain

from .rewrite import Trace, _Coded, _glue, _interleave, _inverse, _remove
from .words import SignedLetter, Word, _setfield, _Value

__all__ = [
    "NormalForm",
    "canonical_word",
    "classify",
    "equivalent",
    "normalize",
]

_KINDS = ("sphere", "orientable", "nonorientable")


class NormalForm(_Value):
    """The classification of a compact surface.

    ``kind`` is ``"sphere"``, ``"orientable"`` or ``"nonorientable"``;
    ``genus`` is 0 for the sphere and at least 1 otherwise; ``boundary``
    counts boundary components.  Two words present the same surface
    exactly when their normal forms are equal.
    """

    __match_args__ = __slots__ = ("kind", "genus", "boundary")

    def __init__(self, kind: str, genus: int, boundary: int) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if boundary < 0:
            raise ValueError("boundary count cannot be negative")
        if kind == "sphere":
            if genus != 0:
                raise ValueError("a sphere has genus 0")
        elif genus < 1:
            raise ValueError(f"an {kind} surface has genus at least 1")
        _setfield(self, "kind", kind)
        _setfield(self, "genus", genus)
        _setfield(self, "boundary", boundary)

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

    __str__ = describe


def _handle_site(cur: list[int], single: set[int]) -> tuple[int, int, int, int] | None:
    """Stored positions ``(a1, b1, a2, b2)``, in increasing order and in
    the argument order of ``_interleave``, of ``a``, the first pair by
    first occurrence that crosses another, and ``b``, the first pair
    that crosses ``a``, in a word with no concord pair and single letter
    codes ``single``.

    The first pair is tried first, by :func:`_crossing_site` on the
    shorter of its arc and the rest of the word.  When it crosses nothing,
    a scan with a stack of pair openers finds ``a``: a pair closing below
    the top crosses every pair above it, and every crossing is seen at the
    close of the pair that opened first.  Closed pairs left in the stack
    are popped when they reach the top.  Only the close of a pair opened
    before ``a1`` can lower ``a1``, so the scan stops once ``a1`` is known
    and no such pair is open; the first pair, nested with every other, is
    left out of the scan.  No step reads more than the scan and one pass
    over the first arc.
    """
    n = len(cur)
    i0 = next((k for k, code in enumerate(cur) if code not in single), n)
    if i0 == n:
        return None
    j0 = cur.index(cur[i0] ^ 1, i0 + 1)
    if site := _crossing_site(cur, single, i0, j0):
        return site
    first: dict[int, int] = {}
    stack: list[int] = []
    closed: set[int] = set()
    a1 = a2 = n
    for k in chain(range(i0 + 1, j0), range(j0 + 1, n)):
        code = cur[k]
        if code in single:
            continue
        opened = first.setdefault(code >> 1, k)
        if opened == k:
            stack.append(k)
            continue
        while stack[-1] in closed:
            stack.pop()
        if stack[-1] == opened:
            stack.pop()
        else:
            closed.add(opened)
            if opened < a1:
                # every pair below it in the stack is open: a crossed one
                # would have set a smaller a1
                a1, a2 = opened, k
        # the stack rises, so the open pairs opened before a1 (the first left
        # out) are its entries below a1: one look at its bottom says whether
        # any is left, where finding a1 in it at each fall of a1 would walk
        # them all again
        if a1 < n and (not stack or stack[0] >= a1):
            break
    if a1 == n:
        return None
    return _crossing_site(cur, single, a1, a2)


def _crossing_site(
    cur: list[int], single: set[int], a1: int, a2: int
) -> tuple[int, int, int, int] | None:
    """``(a1, b1, a2, b2)`` for ``b``, the first pair with one occurrence
    inside the pair ``a`` at ``a1 < a2`` and the other outside, or None.
    When no pair opened before ``a1`` crosses another, that other
    occurrence comes after ``a2``.

    When the rest of the word is shorter than the arc, ``b``'s code in
    the arc is the inverse of a code in the rest: the inverses of the
    rest are intersected in C with the arc, which is read by index only
    when that finds a hit, up to the first.  A single letter needs no
    test there, as its inverse occurs nowhere.  Otherwise ``b`` is the
    first arc code whose inverse is not in the set of the arc's codes.
    """
    if len(cur) < 2 * (a2 - a1):
        rest = {code ^ 1 for code in chain(cur[a2 + 1 :], cur[:a1])}
        hits = rest.intersection(cur[a1 + 1 : a2])
        if not hits:
            return None
        b1 = next(k for k in range(a1 + 1, a2) if cur[k] in hits)
        return a1, b1, a2, cur.index(cur[b1] ^ 1, a2 + 1)
    arc = set(cur[a1 + 1 : a2])
    for b1 in range(a1 + 1, a2):
        if cur[b1] ^ 1 not in arc and cur[b1] not in single:
            return a1, b1, a2, cur.index(cur[b1] ^ 1, a2 + 1)
    return None


def _glue_site(cur: list[int], single: set[int]) -> int | None:
    """First position holding a single letter followed cyclically by
    another single letter, read from one flag per position; ``single``
    holds the codes of the single letters."""
    flags = bytes([code in single for code in cur])
    pos = flags.find(b"\1\1")
    if pos >= 0:
        return pos
    if len(flags) >= 2 and flags[0] and flags[-1]:
        return len(flags) - 1
    return None


def _hole_site(cur: list[int], single: set[int]) -> tuple[int, int, int | None]:
    """The first pair, in order of first occurrence, with a pair-free
    arc: its two positions ``(first, second)`` in arc order and the
    arc's one single letter, or None for an empty arc.

    In a word with no interleaved pairs the paired occurrences nest, so
    some pair encloses no other on one side.  After single letters have
    been merged, that arc holds at most one letter.  As every pair is
    discord, the partner of position ``i`` is the code ``cur[i] ^ 1``:
    the scan stops at the first ``i`` where it sits at ``i + 1``, at
    ``i + 2`` around a single, or, for ``i`` 0 or 1, across the wrap,
    trying the inner arc before the wrap arc.
    """
    n = len(cur)
    for i, code in enumerate(cur):
        other = code ^ 1
        if i + 1 < n and cur[i + 1] == other:
            return i, i + 1, None
        if i + 2 < n and cur[i + 2] == other and cur[i + 1] in single:
            return i, i + 2, i + 1
        if i < 2:
            if i == 0 and cur[-1] == other:
                return n - 1, 0, None
            if cur[i - 2] == other and cur[i - 1] in single:
                return (i - 2) % n, i, (i - 1) % n
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

    Each step finds its site in the letter codes ``2 * id + inverted``, stops
    once it is fixed, applies the rule's own edit there, unchecked, and
    records ``(rule, params)``, but not a ``fold_concord`` or
    ``interleave_to_handle`` that would return its input.  The crosscap stage
    keeps the concord labels and the word's reverse-and-flip, takes the
    first letter with one and reads its partner from the end, as the first
    inverse code in the reverse-and-flip.  When the run is the shorter
    side, the fold and its hive copy it between the two lists; otherwise
    the rest is written around ``ov(run)`` in the reverse-and-flip, which
    becomes the codes, and the codes' ends become its reverse-and-flip.
    The labels seen once on that side, less the singles, toggle in the
    concord set.  ``coded.codes`` is the caller's list at the end.  The
    handle stage, with no concord pair left, reads a pair's other
    occurrence as the inverse code and tries the first pair, on the
    shorter of its arc and the rest, before a stack scan that stops when
    no earlier pair is open.  The boundary stage keeps the set of single
    codes, finds a glue in one flag per position and stops its hole scan
    at the first pair-free arc.
    """
    codes, names = coded.codes, coded.names
    moves: list[tuple[str, dict]] = []

    # a concord pair's code occurs twice, a single letter's label once
    seen: set[int] = set()
    concord = {code >> 1 for code in codes if code in seen or seen.add(code)}
    once = {code >> 1 for code in seen if code ^ 1 not in seen} - concord
    crosscaps = 0
    flipped = _inverse(codes)  # flipped[k] == codes[-1 - k] ^ 1 through the stage
    while concord:
        for i, code in enumerate(codes):
            if code >> 1 in concord:
                break
        n = len(codes)
        j = n - 1 - flipped.index(code ^ 1)  # the later of the code's two
        if j > i + 1 or code & 1:
            moves.append(("fold_concord", {"label": names[code >> 1]}))
        moves.append(("hive_crosscap", {"pos": j - 1}))
        concord.remove(code >> 1)
        if 2 * (j - i - 1) < n:  # fold_concord, then hive_crosscap, on the run
            side = codes[i + 1 : j]
            codes[i : j + 1] = flipped[n - j : n - 1 - i]
            flipped[n - 1 - j : n - i] = side  # the reverse-and-flip of ov(run)
        else:  # flipped holds ov(run): give it the rest, and codes its reverse-and-flip
            head, tail = codes[:i], codes[j + 1 :]
            codes[j:] = flipped[n - i :]
            codes[: i + 1] = flipped[: n - 1 - j]
            flipped[n - 1 - i :] = tail
            flipped[: n - j] = head
            codes, flipped = flipped, codes
            side = head + tail
        # a straddler, with one end in the shorter side, changes character
        for other in side:
            if (label := other >> 1) in concord:
                concord.remove(label)
            elif label not in once:
                concord.add(label)
        crosscaps += 1
    if codes is not coded.codes:  # an odd number of swaps
        coded.codes[:] = codes
        codes = coded.codes

    handles = 0
    single = {code for code in codes if code >> 1 in once}
    while (site := _handle_site(codes, single)) is not None:
        a1, b1, a2, b2 = site
        if site != (0, 1, 2, 3):
            a, b = names[codes[a1] >> 1], names[codes[b1] >> 1]
            moves.append(("interleave_to_handle", {"a": a, "b": b}))
        moves.append(("hive_handle", {"pos": 0}))
        _interleave(codes, a1, b1, a2, b2)
        del codes[:4]
        handles += 1

    # no pair becomes single: a glue swaps its two codes for the new one,
    # and a hole drops its middle
    holes = 0
    while True:
        pos = _glue_site(codes, single)
        if pos is not None:
            moves.append(("glue_singles", {"pos": pos}))
            single -= {codes[pos], codes[(pos + 1) % len(codes)]}
            _glue(coded, pos)
            single.add(codes[min(pos, len(codes) - 1)])
            continue
        if len(codes) <= 1:
            # no pair is left, and merging left at most one single letter
            holes += len(codes)
            break
        first, second, middle = _hole_site(codes, single)
        if middle is None:
            moves.append(("cancel", {"pos": first}))
            _remove(codes, first, second)
        else:
            moves.append(("hive_hole", {"label": names[codes[first] >> 1]}))
            single.discard(codes[middle])
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
