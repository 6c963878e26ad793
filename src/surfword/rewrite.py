"""Rewrite rules on edge words, recorded steps, and replay.

Every rule is a pure function from a word to a new word.  A rule raises
:class:`NotApplicable` when its pattern precondition fails at the given
site; it never returns a partially rewritten word.  Positions index the
stored sequence and wrap cyclically where noted.

Applied rules can be recorded as :class:`RewriteStep` values and chained
into a :class:`Trace`.  A trace is an auditable derivation: replaying it
with :func:`replay` recomputes every step from its parameters and
verifies each intermediate word exactly.  A trace can also be stored as
its moves alone (:meth:`Trace.from_moves`, which ``normalize`` uses):
the initial word, each ``(rule, params)`` and the final word.  Its
intermediate words are then built on demand, once, when its steps are
first read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .words import CONCORD, DISCORD, SignedLetter, Word, _checked_word, _parse_shared, fresh_label

__all__ = [
    "NotApplicable",
    "ReplayMismatch",
    "RewriteStep",
    "Trace",
    "apply_step",
    "block_at",
    "cancel",
    "fold_concord",
    "glue_singles",
    "hive_crosscap",
    "hive_handle",
    "hive_hole",
    "interleave_to_handle",
    "replay",
    "slide_block",
    "transpose_discord",
]


class NotApplicable(ValueError):
    """The rule's pattern precondition does not hold at the given site."""


class ReplayMismatch(RuntimeError):
    """A recorded step does not reproduce under replay."""


def _delete(word: Word, positions: set[int]) -> Word:
    return _checked_word(tuple(l for i, l in enumerate(word.letters) if i not in positions))


def _invert_run(letters: Iterable[SignedLetter]) -> tuple[SignedLetter, ...]:
    return tuple(l.inverse() for l in reversed(tuple(letters)))


def _pair_positions(word: Word, label: str, character: str) -> tuple[int, int]:
    """Stored positions of the pair ``label``, which must be of
    ``character`` (:data:`CONCORD` or :data:`DISCORD`)."""
    where = [k for k, letter in enumerate(word.letters) if letter.label == label]
    if len(where) == 2:
        i, j = where
        if (word[i].inverted == word[j].inverted) == (character == CONCORD):
            return i, j
    raise NotApplicable(f"{label!r} is not a {character} pair")


def _occurs_once(word: Word, label: str) -> bool:
    return sum(letter.label == label for letter in word.letters) == 1


def _cyclic_between(n: int, start: int, stop: int) -> list[int]:
    # indices strictly between start and stop, walking forward with wrap
    out = []
    i = (start + 1) % n
    while i != stop:
        out.append(i)
        i = (i + 1) % n
    return out


def _delete_adjacent_pair(word: Word, pos: int, same_flags: bool, site: str, shape: str) -> Word:
    # cancel and hive_crosscap differ only in the flag relation they want
    n = len(word)
    if n < 2 or not 0 <= pos < n:
        raise NotApplicable(f"no {site} at position {pos}")
    j = (pos + 1) % n
    a, b = word[pos], word[j]
    if a.label != b.label or (a.inverted == b.inverted) != same_flags:
        raise NotApplicable(f"letters at {pos},{j} are not an adjacent {shape} pair")
    return _delete(word, {pos, j})


def cancel(word: Word, pos: int) -> Word:
    """Remove an adjacent inverse pair: ``... a a' ...`` becomes ``...``.

    The letters at cyclic positions ``pos`` and ``pos + 1`` must carry
    the same label with opposite flags (either order).
    """
    return _delete_adjacent_pair(word, pos, False, "adjacent pair", "inverse")


def transpose_discord(word: Word, label: str, split: int) -> Word:
    """Swap the two halves of the run enclosed by a discord pair.

    With the word read cyclically from the positive occurrence of
    ``label`` as ``a beta beta2 a'``, where ``split`` is the position of
    the first letter of ``beta2``, the result reads ``a beta2 beta a'``.
    ``split`` may equal the position of the inverted occurrence, making
    ``beta2`` empty and the rule the identity.
    """
    i, j = _pair_positions(word, label, DISCORD)
    if word[i].inverted:
        i, j = j, i
    n = len(word)
    between = _cyclic_between(n, i, j)
    offset = (split - (i + 1)) % n
    if offset > len(between):
        raise NotApplicable(f"split {split} is not between the occurrences of {label!r}")
    run = [word[k] for k in between]
    moved = run[offset:] + run[:offset]
    out = list(word.letters)
    for k, letter in zip(between, moved):
        out[k] = letter
    return _checked_word(tuple(out))


def fold_concord(word: Word, label: str) -> Word:
    """Fold a concord pair together: ``alpha a beta a gamma`` becomes
    ``alpha ov(beta) a a gamma``, with ``ov`` the reverse-and-flip of the
    enclosed run.

    The pair's occurrences are taken in storage order and the enclosed
    run is the stored segment between them.  A pair written with both
    flags inverted folds the same way and comes out with positive flags.
    """
    i, j = _pair_positions(word, label, CONCORD)
    head = word.letters[:i]
    mid = word.letters[i + 1 : j]
    tail = word.letters[j + 1 :]
    upright = SignedLetter(label)
    return _checked_word(head + _invert_run(mid) + (upright, upright) + tail)


def block_at(word: Word, pos: int) -> tuple[int, tuple[SignedLetter, ...]] | None:
    """Detect a movable block starting at cyclic position ``pos``.

    Returns ``(2, letters)`` for a crosscap block ``x x`` (equal flags),
    ``(4, letters)`` for a handle block ``x y x' y'``, else ``None``.
    In a valid word the two shapes cannot start at the same position.
    """
    letters = word.letters
    n = len(letters)
    if n < 2:
        return None
    a, b = letters[pos], letters[(pos + 1) % n]
    if a.label == b.label and a.inverted == b.inverted:
        return 2, (a, b)
    if n >= 4 and a.label != b.label:
        c, d = letters[(pos + 2) % n], letters[(pos + 3) % n]
        if c == a.inverse() and d == b.inverse():
            return 4, (a, b, c, d)
    return None


def slide_block(word: Word, block_start: int, dest: int) -> Word:
    """Move a crosscap or handle block, reinserting it just before the
    letter at position ``dest``.

    ``dest`` must lie outside the block.  Sliding to the position right
    after the block is the identity.
    """
    n = len(word)
    if not 0 <= block_start < n:
        raise NotApplicable(f"no block at position {block_start}")
    found = block_at(word, block_start)
    if found is None:
        raise NotApplicable(f"no crosscap or handle block at position {block_start}")
    size, block = found
    occupied = {(block_start + k) % n for k in range(size)}
    if not 0 <= dest < n or dest in occupied:
        raise NotApplicable(f"destination {dest} is not outside the block")
    out: list[SignedLetter] = []
    for idx in range(n):
        if idx == dest:
            out.extend(block)
        if idx not in occupied:
            out.append(word[idx])
    return _checked_word(tuple(out))


def interleave_to_handle(word: Word, a: str, b: str) -> Word:
    """Collect two interleaved discord pairs into a handle block.

    Reading the cycle from the first stored occurrence of ``a`` as
    ``x beta y gamma x' delta y' tail`` (``x`` an occurrence of ``a``,
    ``y`` the occurrence of ``b`` between ``x`` and ``x'``), the result
    is ``x y x' y' tail delta gamma beta``.  Every other pair keeps its
    flags, so no pairing character changes.
    """
    if a == b:
        raise NotApplicable("need two distinct labels")
    a1, a2 = _pair_positions(word, a, DISCORD)
    b1, b2 = _pair_positions(word, b, DISCORD)
    n = len(word)
    marks = {a2: "A", b1: "B", b2: "B"}
    segments: list[list[SignedLetter]] = [[]]
    seen: list[int] = []
    i = (a1 + 1) % n
    while i != a1:
        if i in marks:
            seen.append(i)
            segments.append([])
        else:
            segments[-1].append(word[i])
        i = (i + 1) % n
    if [marks[p] for p in seen] != ["B", "A", "B"]:
        raise NotApplicable(f"pairs {a!r} and {b!r} are not interleaved")
    beta, gamma, delta, tail = segments
    x = word[a1]
    y = word[seen[0]]
    out = (x, y, x.inverse(), y.inverse())
    return _checked_word(out + tuple(tail) + tuple(delta) + tuple(gamma) + tuple(beta))


def glue_singles(word: Word, pos: int) -> Word:
    """Merge two cyclically adjacent single letters into one fresh single."""
    n = len(word)
    if n < 2 or not 0 <= pos < n:
        raise NotApplicable(f"no adjacent singles at position {pos}")
    j = (pos + 1) % n
    if not (_occurs_once(word, word[pos].label) and _occurs_once(word, word[j].label)):
        raise NotApplicable(f"letters at {pos},{j} are not both single")
    merged = SignedLetter(fresh_label(word))
    out = [merged if k == pos else word[k] for k in range(n) if k != j]
    return _checked_word(tuple(out))


def hive_hole(word: Word, label: str) -> Word:
    """Remove a pair-framed hole ``a x a'``: the discord pair ``label``
    together with the one single letter it encloses.

    The arc following the first stored occurrence is preferred when both
    arcs qualify.  The caller accounts for the removed hole.
    """
    i, j = _pair_positions(word, label, DISCORD)
    n = len(word)
    for first, second in ((i, j), (j, i)):
        arc = _cyclic_between(n, first, second)
        if len(arc) == 1 and _occurs_once(word, word[arc[0]].label):
            return _delete(word, {first, second, arc[0]})
    raise NotApplicable(f"pair {label!r} does not frame one single letter")


def hive_crosscap(word: Word, pos: int) -> Word:
    """Remove an adjacent concord pair ``x x`` (one crosscap).

    The caller accounts for the removed crosscap.
    """
    return _delete_adjacent_pair(word, pos, True, "block", "concord")


def hive_handle(word: Word, pos: int) -> Word:
    """Remove a handle block ``x y x' y'`` (one handle).

    The caller accounts for the removed handle.
    """
    n = len(word)
    if n < 4 or not 0 <= pos < n:
        raise NotApplicable(f"no block at position {pos}")
    found = block_at(word, pos)
    if found is None or found[0] != 4:
        raise NotApplicable(f"no handle block at position {pos}")
    return _delete(word, {(pos + k) % n for k in range(4)})


_APPLIERS = {
    "cancel": lambda w, p: cancel(w, int(p["pos"])),
    "transpose_discord": lambda w, p: transpose_discord(w, p["label"], int(p["split"])),
    "fold_concord": lambda w, p: fold_concord(w, p["label"]),
    "slide_block": lambda w, p: slide_block(w, int(p["block_start"]), int(p["dest"])),
    "interleave_to_handle": lambda w, p: interleave_to_handle(w, p["a"], p["b"]),
    "rotate": lambda w, p: w.rotate(int(p["k"])),
    "invert": lambda w, p: w.invert(),
    "glue_singles": lambda w, p: glue_singles(w, int(p["pos"])),
    "hive_hole": lambda w, p: hive_hole(w, p["label"]),
    "hive_crosscap": lambda w, p: hive_crosscap(w, int(p["pos"])),
    "hive_handle": lambda w, p: hive_handle(w, int(p["pos"])),
}


def apply_step(word: Word, rule: str, params: dict | None = None) -> Word:
    """Apply ``rule`` with ``params`` to ``word``; the step dispatcher."""
    try:
        applier = _APPLIERS[rule]
    except KeyError:
        raise NotApplicable(f"unknown rule {rule!r}") from None
    return applier(word, params or {})


_STEP_KEYS = {"rule", "params", "before", "after"}


@dataclass(frozen=True, eq=True)
class RewriteStep:
    """One recorded rule application.

    The step is self-checking: applying ``rule`` with ``params`` to
    ``before`` must reproduce ``after`` exactly, which :func:`replay`
    verifies.
    """

    rule: str
    params: dict
    before: Word
    after: Word

    def to_dict(self) -> dict:
        return Trace([self]).to_list()[0]

    @classmethod
    def from_dict(
        cls,
        data: dict,
        parsed: dict[str, Word] | None = None,
        letters: dict[str, SignedLetter] | None = None,
    ) -> "RewriteStep":
        """Rebuild a step from :meth:`to_dict` output; raises
        :class:`ValueError` on any other shape or an unparsable word.

        ``parsed`` maps word texts to words already parsed from them and
        gains the words parsed here, so a trace parses each word once.
        ``letters`` maps tokens to letters in the same way, so the words
        of a trace share one letter per distinct token.
        """
        if not (
            isinstance(data, dict)
            and data.keys() == _STEP_KEYS
            and isinstance(data["params"], dict)
            and all(isinstance(data[k], str) for k in ("rule", "before", "after"))
        ):
            raise ValueError("trace step wants strings rule, before, after and an object params")
        parsed = {} if parsed is None else parsed
        letters = {} if letters is None else letters
        for text in (data["before"], data["after"]):
            if text not in parsed:
                parsed[text] = _parse_shared(text, letters)
        return cls(
            rule=data["rule"],
            params=dict(data["params"]),
            before=parsed[data["before"]],
            after=parsed[data["after"]],
        )

    def describe(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.rule}({args}): {self.before.render()!r} -> {self.after.render()!r}"


class Trace:
    """An ordered chain of rewrite steps.

    Invariant: each step's ``before`` equals the previous step's
    ``after``.  Serializes to a JSON array of step objects.

    A trace made by :meth:`from_moves` stores only its initial word, its
    ``(rule, params)`` moves and its final word.  Its steps, with the
    words between, are built through :func:`apply_step` the first time
    they are read, and the build checks that the moves reach the final
    word.
    """

    __slots__ = ("_initial", "_moves", "_final", "_steps")

    def __init__(self, steps: Iterable[RewriteStep] = ()):
        steps = tuple(steps)
        for prev, nxt in zip(steps, steps[1:]):
            if prev.after != nxt.before:
                raise ValueError(
                    f"steps do not chain: {prev.after.render()!r} != {nxt.before.render()!r}"
                )
        self._steps = steps
        self._moves = tuple((step.rule, step.params) for step in steps)
        self._initial = steps[0].before if steps else None
        self._final = steps[-1].after if steps else None

    @classmethod
    def from_moves(cls, initial: Word, moves: Iterable[tuple[str, dict]], final: Word) -> "Trace":
        """A trace of ``moves`` applied from ``initial``, which the caller
        states reach ``final``; its steps are built when first read."""
        trace = cls()
        trace._moves = tuple(moves)
        if trace._moves:
            trace._initial, trace._final, trace._steps = initial, final, None
        return trace

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        if self._steps is None:
            steps = []
            word = self._initial
            for rule, params in self._moves:
                after = apply_step(word, rule, params)
                steps.append(RewriteStep(rule, params, word, after))
                word = after
            if word != self._final:
                raise AssertionError(
                    f"moves reach {word.render()!r}, not the final word {self._final.render()!r}"
                )
            self._steps = tuple(steps)
        return self._steps

    def __len__(self) -> int:
        return len(self._moves)

    def __iter__(self) -> Iterator[RewriteStep]:
        return iter(self.steps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.steps[index])
        return self.steps[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.steps == other.steps

    def __repr__(self) -> str:
        return f"<Trace of {len(self)} steps>"

    def initial_word(self) -> Word | None:
        return self._initial

    def final_word(self) -> Word | None:
        return self._final

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)

    def to_list(self) -> list[dict]:
        """The steps as the JSON-ready objects of :meth:`to_json`.

        Each word is rendered once: a step's ``after`` text is also the
        next step's ``before``.
        """
        steps = self.steps
        if not steps:
            return []
        texts = [steps[0].before.render()] + [step.after.render() for step in steps]
        return [
            {"rule": step.rule, "params": dict(step.params), "before": before, "after": after}
            for step, before, after in zip(steps, texts, texts[1:])
        ]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_list(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse :meth:`to_json` output; raises :class:`ValueError` on
        malformed or too deeply nested JSON, a malformed step or steps
        that do not chain.

        Each distinct word text is parsed once, and one letter is made
        per distinct token, which all the words of the trace share.
        """
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("trace JSON is nested too deeply") from None
        if not isinstance(data, list):
            raise ValueError("a trace must be a JSON array of steps")
        parsed: dict[str, Word] = {}
        letters: dict[str, SignedLetter] = {}
        return cls(RewriteStep.from_dict(item, parsed, letters) for item in data)


def replay(word: Word, trace: Trace) -> Word:
    """Re-run ``trace`` from ``word``, verifying every step exactly.

    Raises :class:`ReplayMismatch` on the first step whose recorded
    words disagree with recomputation, or whose rule or parameters do
    not apply.  Returns the final word.

    Once a step's result is checked equal to its recorded ``after``,
    replay continues from that recorded word: the rules are pure
    functions of letter values, and the words of a parsed trace share
    their letters, so later comparisons mostly meet the same objects.
    """
    current = word
    for idx, step in enumerate(trace):
        if current != step.before:
            raise ReplayMismatch(
                f"step {idx}: expected word {step.before.render()!r}, have {current.render()!r}"
            )
        try:
            result = apply_step(current, step.rule, step.params)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            # NotApplicable is a ValueError; the rest come from bad params
            raise ReplayMismatch(f"step {idx}: {step.rule} not applicable: {exc}") from exc
        if result != step.after:
            raise ReplayMismatch(
                f"step {idx}: {step.rule} produced {result.render()!r}, "
                f"recorded {step.after.render()!r}"
            )
        current = step.after
    return current
