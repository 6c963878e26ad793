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
"""

from __future__ import annotations

from dataclasses import dataclass

from .rewrite import RewriteStep, Trace, _cyclic_between, apply_step
from .words import CONCORD, DISCORD, SINGLE, PairingTable, SignedLetter, Word

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
        if self.kind == "sphere":
            base = "sphere"
        else:
            base = f"{self.kind} surface of genus {self.genus}"
        if self.boundary == 1:
            return f"{base} with 1 boundary component"
        if self.boundary:
            return f"{base} with {self.boundary} boundary components"
        return base

    def __str__(self) -> str:
        return self.describe()


def _first_concord(table: PairingTable) -> str | None:
    for label in table:
        if table.character(label) == CONCORD:
            return label
    return None


def _first_interleaved(table: PairingTable) -> tuple[str, str] | None:
    discords = [l for l in table if table.character(l) == DISCORD]
    for a in discords:
        for b in discords:
            if b != a and table.interleaved(a, b):
                return a, b
    return None


def _adjacent_singles(word: Word, table: PairingTable) -> int | None:
    n = len(word)
    if n < 2:
        return None
    for pos in range(n):
        if (
            table.character(word[pos].label) == SINGLE
            and table.character(word[(pos + 1) % n].label) == SINGLE
        ):
            return pos
    return None


def _innermost_pair(word: Word, table: PairingTable, paired: list[str]) -> tuple[str, int, int]:
    """Find a pair with a pair-free arc; return (label, arc start, arc length).

    In a word with no interleaved pairs the paired occurrences nest, so
    some pair encloses no other on one side.  After single letters have
    been merged, that arc holds at most one letter.
    """
    n = len(word)
    for label in paired:
        i, j = table.positions(label)
        for first, second in ((i, j), (j, i)):
            arc = _cyclic_between(n, first, second)
            if all(table.character(word[k].label) == SINGLE for k in arc):
                return label, first, len(arc)
    raise AssertionError("non-interleaved pairs must nest")


def normalize(word: Word) -> tuple[NormalForm, Trace]:
    """Reduce ``word`` to its classification, with a replayable trace.

    Returns the :class:`NormalForm` and the :class:`Trace` of every
    rewrite applied, chained from ``word`` down to the residual word
    (empty, or one single letter standing for the last hole).
    """
    steps: list[RewriteStep] = []
    cur = word

    def emit(rule: str, params: dict) -> None:
        # only fold_concord and interleave_to_handle can return their input
        nonlocal cur
        out = apply_step(cur, rule, params)
        if out != cur:
            steps.append(RewriteStep(rule, params, cur, out))
            cur = out

    crosscaps = 0
    while True:
        table = cur.pairing()
        label = _first_concord(table)
        if label is None:
            break
        i, j = table.positions(label)
        emit("fold_concord", {"label": label})
        emit("hive_crosscap", {"pos": j - 1})
        crosscaps += 1

    handles = 0
    while True:
        found = _first_interleaved(cur.pairing())
        if found is None:
            break
        a, b = found
        emit("interleave_to_handle", {"a": a, "b": b})
        emit("hive_handle", {"pos": 0})
        handles += 1

    holes = 0
    while True:
        while True:
            table = cur.pairing()
            pos = _adjacent_singles(cur, table)
            if pos is None:
                break
            emit("glue_singles", {"pos": pos})
        table = cur.pairing()
        paired = [l for l in table if table.character(l) != SINGLE]
        if not paired:
            if len(cur):
                holes += 1
            break
        label, first, arc_len = _innermost_pair(cur, table, paired)
        if arc_len == 0:
            emit("cancel", {"pos": first})
        else:
            emit("hive_hole", {"label": label})
            holes += 1

    if crosscaps:
        form = NormalForm("nonorientable", crosscaps + 2 * handles, holes)
    elif handles:
        form = NormalForm("orientable", handles, holes)
    else:
        form = NormalForm("sphere", 0, holes)
    return form, Trace(steps)


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
            x = SignedLetter(f"a{i}")
            y = SignedLetter(f"b{i}")
            letters += [x, y, x.inverse(), y.inverse()]
    for i in range(1, form.boundary):
        frame = SignedLetter(f"h{i}")
        letters += [frame, SignedLetter(f"x{i}"), frame.inverse()]
    if form.boundary:
        letters.append(SignedLetter(f"x{form.boundary}"))
    return Word(tuple(letters))
