"""Rewrite rules on edge words, recorded steps, and replay.

Every rule is a pure function from a word to a new word.  A rule raises
:class:`NotApplicable` when its pattern precondition fails at the given
site; it never returns a partially rewritten word.  Positions index the
stored sequence and wrap cyclically where noted.

Each rule is implemented once, on a coded word (:class:`_Coded`): the
letter codes ``2 * id + inverted``.  It is a check, which turns the
parameters into positions or raises :class:`NotApplicable`, and then
one edit of the codes at those positions.  ``normalize`` and the orbit
search find their sites and call the edits directly; :func:`apply_step`,
replay and traces dispatch to the checked rules.  The functions on
:class:`Word` are wrappers that encode, apply the rule and decode.

Applied rules can be recorded as :class:`RewriteStep` values and chained
into a :class:`Trace`.  A trace is an auditable derivation: replaying it
with :func:`replay` recomputes every step from its parameters and
verifies each intermediate word exactly.  A trace can also be stored as
its moves alone (:meth:`Trace.from_moves`, which ``normalize`` uses):
the initial word, each ``(rule, params)`` and the final word.  Its
intermediate words are built once, when its steps are first read; it
is written to JSON from the codes, without them.

One walk applies a trace's moves: :meth:`Trace._walk` edits the codes
of the first word and yields them after each move.  Writing a trace,
building its steps, :meth:`Trace.from_json` and :func:`replay` all read
it.  ``from_json`` compares the text of each word with the recorded
one; when every text agrees, the trace it returns stores its moves
alone.  A trace whose texts differ anywhere (a tampered, compactly
written or oddly spaced word, or a move that does not apply) is read
word by word instead, by :func:`_read_steps`, the one reader of step
objects, which :meth:`RewriteStep.from_dict` also uses; replay names
the step at fault.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

from .words import CONCORD, DISCORD, SignedLetter, Word, _Value, _check_multiplicity
from .words import _checked_letter, _checked_word, _first_unused, _parse_shared

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


class _Coded:
    """A word as letter codes ``2 * id + inverted``, with ``names[id]``
    the label of each id and ``letters`` the letter made for each code.

    Edits change ``codes`` in place.  Coded words made from one another
    have their own codes and share ``names`` and ``letters``, which only
    grow, so all of them decode a code to the same letter.
    """

    __slots__ = ("codes", "names", "letters")

    def __init__(self, codes: list[int], names: list[str], letters: dict[int, SignedLetter]):
        self.codes, self.names, self.letters = codes, names, letters

    @classmethod
    def encode(cls, word: Word) -> "_Coded":
        ids: dict[str, int] = {}
        codes = [2 * ids.setdefault(l.label, len(ids)) + l.inverted for l in word.letters]
        return cls(codes, list(ids), dict(zip(codes, word.letters)))

    @classmethod
    def parse(cls, tokens: list[str]) -> "_Coded":
        """The word of the tokens ``_tokenize`` read, coded without making
        a letter; raises :meth:`Word.parse`'s ``MultiplicityError``."""
        labels = [token.rstrip("'") for token in tokens]
        _check_multiplicity(labels)
        ids: dict[str, int] = {}
        codes = [2 * ids.setdefault(l, len(ids)) + (t[-1] == "'") for l, t in zip(labels, tokens)]
        return cls(codes, list(ids), {})

    def decode(self) -> Word:
        """The word the codes stand for; a letter is made only for a code
        that has none yet, and the codes are scanned for those only when
        one is missing."""
        try:
            return _checked_word(tuple(map(self.letters.__getitem__, self.codes)))
        except KeyError:
            for code in set(self.codes).difference(self.letters):
                self.letters[code] = _checked_letter(self.names[code >> 1], bool(code & 1))
        return _checked_word(tuple(map(self.letters.__getitem__, self.codes)))


def _on_word(rule, word: Word, *args) -> Word:
    coded = _Coded.encode(word)
    rule(coded, *args)
    return coded.decode()


def _pair(coded: _Coded, label: str, character: str) -> tuple[int, int]:
    """Stored positions of the pair ``label``, which must be of
    ``character`` (:data:`CONCORD` or :data:`DISCORD`)."""
    codes = coded.codes
    try:
        up = 2 * coded.names.index(label)
        if character == CONCORD:
            code = up if up in codes else up + 1
            i = codes.index(code)
            return i, codes.index(code, i + 1)
        i, j = codes.index(up), codes.index(up + 1)
        return min(i, j), max(i, j)
    except ValueError:  # no such label, or not two occurrences of the character
        raise NotApplicable(f"{label!r} is not a {character} pair") from None


def _single(codes: list[int], k: int) -> bool:
    return codes.count(codes[k]) + codes.count(codes[k] ^ 1) == 1


def _remove(codes: list[int], *positions: int) -> None:
    """The edit of ``cancel``, ``hive_crosscap``, ``hive_handle`` and
    ``hive_hole``: delete the letters at ``positions``."""
    for k in sorted(positions, reverse=True):
        del codes[k]


def _adjacent_pair(coded: _Coded, pos: int, flip: int, site: str, shape: str) -> None:
    # cancel and hive_crosscap differ only in the flag relation they want
    codes = coded.codes
    n = len(codes)
    if n < 2 or not 0 <= pos < n:
        raise NotApplicable(f"no {site} at position {pos}")
    j = (pos + 1) % n
    if codes[pos] ^ codes[j] != flip:
        raise NotApplicable(f"letters at {pos},{j} are not an adjacent {shape} pair")
    _remove(codes, pos, j)


def _cancel(coded: _Coded, pos: int) -> None:
    _adjacent_pair(coded, pos, 1, "adjacent pair", "inverse")


def cancel(word: Word, pos: int) -> Word:
    """Remove an adjacent inverse pair: ``... a a' ...`` becomes ``...``.

    The letters at cyclic positions ``pos`` and ``pos + 1`` must carry
    the same label with opposite flags (either order).
    """
    return _on_word(_cancel, word, pos)


def _transpose(codes: list[int], up: int, down: int, offset: int) -> None:
    """The edit of ``transpose_discord``: rotate the cyclic run strictly
    between ``up`` and ``down`` left by ``offset``."""
    _rotate_left(codes, up + 1)  # the run now starts at 0
    run = (down - up - 1) % len(codes)
    codes[:run] = codes[offset:run] + codes[:offset]
    _rotate_left(codes, -up - 1)


def _transpose_discord(coded: _Coded, label: str, split: int) -> None:
    i, j = _pair(coded, label, DISCORD)
    codes = coded.codes
    if codes[i] & 1:
        i, j = j, i
    offset = (split - i - 1) % len(codes)
    if offset > (j - i - 1) % len(codes):
        raise NotApplicable(f"split {split} is not between the occurrences of {label!r}")
    _transpose(codes, i, j, offset)


def transpose_discord(word: Word, label: str, split: int) -> Word:
    """Swap the two halves of the run enclosed by a discord pair.

    With the word read cyclically from the positive occurrence of
    ``label`` as ``a beta beta2 a'``, where ``split`` is the position of
    the first letter of ``beta2``, the result reads ``a beta2 beta a'``.
    ``split`` may equal the position of the inverted occurrence, making
    ``beta2`` empty and the rule the identity.  ``split`` is read modulo
    the word length: on ``a b c a' d`` the splits 7, 12 and -3 all act
    as 2.
    """
    return _on_word(_transpose_discord, word, label, split)


def _fold(codes: list[int], i: int, j: int) -> None:
    """The edit of ``fold_concord`` at the concord pair stored at ``i < j``."""
    up = codes[i] & ~1
    codes[i : j - 1] = _inverse(codes[i + 1 : j])
    codes[j - 1] = codes[j] = up


def _fold_concord(coded: _Coded, label: str) -> None:
    _fold(coded.codes, *_pair(coded, label, CONCORD))


def fold_concord(word: Word, label: str) -> Word:
    """Fold a concord pair together: ``alpha a beta a gamma`` becomes
    ``alpha ov(beta) a a gamma``, with ``ov`` the reverse-and-flip of the
    enclosed run.

    The pair's occurrences are taken in storage order and the enclosed
    run is the stored segment between them.  A pair written with both
    flags inverted folds the same way and comes out with positive flags.
    """
    return _on_word(_fold_concord, word, label)


def _block_size(codes: list[int], pos: int) -> int:
    """2 for a crosscap block ``x x`` at cyclic position ``pos``, 4 for a
    handle block ``x y x' y'``, else 0."""
    n = len(codes)
    if n < 2:
        return 0
    a, b = codes[pos], codes[(pos + 1) % n]
    if a == b:
        return 2
    # as no label occurs three times, this holds only for two labels in four letters
    if codes[(pos + 2) % n] == a ^ 1 and codes[(pos + 3) % n] == b ^ 1:
        return 4
    return 0


def block_at(word: Word, pos: int) -> tuple[int, tuple[SignedLetter, ...]] | None:
    """Detect a movable block starting at cyclic position ``pos``.

    Returns ``(2, letters)`` for a crosscap block ``x x`` (equal flags),
    ``(4, letters)`` for a handle block ``x y x' y'``, else ``None``.
    In a valid word the two shapes cannot start at the same position.
    """
    n = len(word)
    if n < 2:
        return None
    # ``word[pos]`` raises IndexError for a position outside the word
    window = _checked_word((word[pos], *(word[(pos + k) % n] for k in range(1, min(n, 4)))))
    size = _block_size(_Coded.encode(window).codes, 0)
    return (size, window.letters[:size]) if size else None


def _slide(codes: list[int], block_start: int, size: int, dest: int) -> None:
    """The edit of ``slide_block``: move ``size`` letters at ``block_start`` to before ``dest``."""
    occupied = [(block_start + k) % len(codes) for k in range(size)]
    block = [codes[k] for k in occupied]
    at = dest - sum(k < dest for k in occupied)
    _remove(codes, *occupied)
    codes[at:at] = block


def _slide_block(coded: _Coded, block_start: int, dest: int) -> None:
    codes = coded.codes
    n = len(codes)
    if not 0 <= block_start < n:
        raise NotApplicable(f"no block at position {block_start}")
    size = _block_size(codes, block_start)
    if not size:
        raise NotApplicable(f"no crosscap or handle block at position {block_start}")
    if not 0 <= dest < n or (dest - block_start) % n < size:
        raise NotApplicable(f"destination {dest} is not outside the block")
    _slide(codes, block_start, size, dest)


def slide_block(word: Word, block_start: int, dest: int) -> Word:
    """Move a crosscap or handle block, reinserting it just before the
    letter at position ``dest``.

    ``dest`` must lie outside the block.  Sliding to the position right
    after the block is the identity.
    """
    return _on_word(_slide_block, word, block_start, dest)


def _interleave(codes: list[int], a1: int, b_in: int, a2: int, b_out: int) -> None:
    """The edit of ``interleave_to_handle`` at the pair ``a`` stored at
    ``a1 < a2`` and the pair ``b`` with ``b_in`` between them and
    ``b_out`` outside."""
    x, y = codes[a1], codes[b_in]
    beta, gamma = codes[a1 + 1 : b_in], codes[b_in + 1 : a2]
    if b_out > a2:
        delta, tail = codes[a2 + 1 : b_out], codes[b_out + 1 :] + codes[:a1]
    else:
        delta, tail = codes[a2 + 1 :] + codes[:b_out], codes[b_out + 1 : a1]
    codes[:] = [x, y, x ^ 1, y ^ 1, *tail, *delta, *gamma, *beta]


def _interleave_to_handle(coded: _Coded, a: str, b: str) -> None:
    if a == b:
        raise NotApplicable("need two distinct labels")
    a1, a2 = _pair(coded, a, DISCORD)
    b1, b2 = _pair(coded, b, DISCORD)
    if (a1 < b1 < a2) == (a1 < b2 < a2):
        raise NotApplicable(f"pairs {a!r} and {b!r} are not interleaved")
    b_in, b_out = (b1, b2) if a1 < b1 < a2 else (b2, b1)
    _interleave(coded.codes, a1, b_in, a2, b_out)


def interleave_to_handle(word: Word, a: str, b: str) -> Word:
    """Collect two interleaved discord pairs into a handle block.

    Reading the cycle from the first stored occurrence of ``a`` as
    ``x beta y gamma x' delta y' tail`` (``x`` an occurrence of ``a``,
    ``y`` the occurrence of ``b`` between ``x`` and ``x'``), the result
    is ``x y x' y' tail delta gamma beta``.  Every other pair keeps its
    flags, so no pairing character changes.
    """
    return _on_word(_interleave_to_handle, word, a, b)


def _rotate_left(codes: list[int], k: int) -> None:
    if codes:
        k %= len(codes)
        codes[:] = codes[k:] + codes[:k]


def _rotate(coded: _Coded, k: int) -> None:
    _rotate_left(coded.codes, k)


def _inverse(codes: list[int]) -> list[int]:
    return [code ^ 1 for code in reversed(codes)]


def _invert(coded: _Coded) -> None:
    coded.codes[:] = _inverse(coded.codes)


def _glue(coded: _Coded, pos: int) -> None:
    """The edit of ``glue_singles``: the letters at ``pos`` and ``pos +
    1`` become one letter with the first label unused in the word."""
    codes, names = coded.codes, coded.names
    label = _first_unused({names[code >> 1] for code in codes})
    if label not in names:
        names.append(label)
    codes[pos] = 2 * names.index(label)
    del codes[(pos + 1) % len(codes)]


def _glue_singles(coded: _Coded, pos: int) -> None:
    codes = coded.codes
    n = len(codes)
    if n < 2 or not 0 <= pos < n:
        raise NotApplicable(f"no adjacent singles at position {pos}")
    j = (pos + 1) % n
    if not (_single(codes, pos) and _single(codes, j)):
        raise NotApplicable(f"letters at {pos},{j} are not both single")
    _glue(coded, pos)


def glue_singles(word: Word, pos: int) -> Word:
    """Merge two cyclically adjacent single letters into one fresh single."""
    return _on_word(_glue_singles, word, pos)


def _hive_hole(coded: _Coded, label: str) -> None:
    i, j = _pair(coded, label, DISCORD)
    codes = coded.codes
    n = len(codes)
    for first, second in ((i, j), (j, i)):
        middle = (first + 1) % n
        if (second - first) % n == 2 and _single(codes, middle):
            _remove(codes, first, second, middle)
            return
    raise NotApplicable(f"pair {label!r} does not frame one single letter")


def hive_hole(word: Word, label: str) -> Word:
    """Remove a pair-framed hole ``a x a'``: the discord pair ``label``
    together with the one single letter it encloses.

    The arc following the first stored occurrence is preferred when both
    arcs qualify.  The caller accounts for the removed hole.
    """
    return _on_word(_hive_hole, word, label)


def _hive_crosscap(coded: _Coded, pos: int) -> None:
    _adjacent_pair(coded, pos, 0, "block", "concord")


def hive_crosscap(word: Word, pos: int) -> Word:
    """Remove an adjacent concord pair ``x x`` (one crosscap).

    The caller accounts for the removed crosscap.
    """
    return _on_word(_hive_crosscap, word, pos)


def _hive_handle(coded: _Coded, pos: int) -> None:
    codes = coded.codes
    n = len(codes)
    if n < 4 or not 0 <= pos < n:
        raise NotApplicable(f"no block at position {pos}")
    if _block_size(codes, pos) != 4:
        raise NotApplicable(f"no handle block at position {pos}")
    _remove(codes, *((pos + k) % n for k in range(4)))


def hive_handle(word: Word, pos: int) -> Word:
    """Remove a handle block ``x y x' y'`` (one handle).

    The caller accounts for the removed handle.
    """
    return _on_word(_hive_handle, word, pos)


_RULES = {  # each rule's checked edit and the names of its parameters, in order
    "cancel": (_cancel, ("pos",)),
    "transpose_discord": (_transpose_discord, ("label", "split")),
    "fold_concord": (_fold_concord, ("label",)),
    "slide_block": (_slide_block, ("block_start", "dest")),
    "interleave_to_handle": (_interleave_to_handle, ("a", "b")),
    "rotate": (_rotate, ("k",)),
    "invert": (_invert, ()),
    "glue_singles": (_glue_singles, ("pos",)),
    "hive_hole": (_hive_hole, ("label",)),
    "hive_crosscap": (_hive_crosscap, ("pos",)),
    "hive_handle": (_hive_handle, ("pos",)),
}


def _apply(coded: _Coded, rule: str, params: dict | None) -> None:
    """Apply ``rule`` with ``params`` to ``coded`` in place; the step
    dispatcher on codes.

    The rule's own parameters are read in the order of its ``_RULES``
    entry, labels as given and the others with ``int``.  The first one
    that is missing, or whose value ``int`` rejects, raises
    :class:`NotApplicable` naming it; a parameter the rule does not read
    is not checked, so a rule with none ignores ``params``.
    """
    try:
        edit, names = _RULES[rule]
    except (KeyError, TypeError):  # TypeError: a rule name that cannot be hashed
        raise NotApplicable(f"unknown rule {rule!r}") from None
    params = params or {}
    args = []
    for name in names:
        try:
            value = params[name]
            args.append(value if name in ("label", "a", "b") else int(value))
        except KeyError:
            raise NotApplicable(f"{rule}: missing parameter {name!r}") from None
        except (TypeError, ValueError, OverflowError):
            reason = f"parameters must be an object, not {type(params).__name__}"
            if isinstance(params, dict):
                reason = f"parameter {name!r} is not an integer: {value!r}"
            raise NotApplicable(f"{rule}: {reason}") from None
    edit(coded, *args)


def apply_step(word: Word, rule: str, params: dict | None = None) -> Word:
    """Apply ``rule`` with ``params`` to ``word``; the step dispatcher."""
    return _on_word(_apply, word, rule, params)


_STEP_KEYS = {"rule", "params", "before", "after"}


def _shaped(data) -> bool:
    """Whether ``data`` has the shape of a :meth:`RewriteStep.to_dict` object."""
    return (
        isinstance(data, dict)
        and data.keys() == _STEP_KEYS
        and isinstance(data["params"], dict)
        and all(isinstance(data[k], str) for k in ("rule", "before", "after"))
    )


def _text(coded: _Coded, tokens: list[str]) -> str:
    """The text of ``coded``, joined from one token per code; ``tokens``
    holds the two tokens of each name, and is remade when a name is new."""
    if len(tokens) < 2 * len(coded.names):  # first word, or glue_singles named a label
        tokens[:] = [token for name in coded.names for token in (name, name + "'")]
    return " ".join(map(tokens.__getitem__, coded.codes))


def _step_line(step: dict) -> str:
    """A step object of :meth:`Trace.to_list` as a line of
    :meth:`Trace.describe`, ``rule(params): 'before' -> 'after'``."""
    args = ", ".join(f"{k}={v}" for k, v in step["params"].items())
    return f"{step['rule']}({args}): {step['before']!r} -> {step['after']!r}"


class RewriteStep(_Value):
    """One recorded rule application.

    The step is self-checking: applying ``rule`` with ``params`` to
    ``before`` must reproduce ``after`` exactly, which :func:`replay`
    verifies.
    """

    __match_args__ = __slots__ = ("rule", "params", "before", "after")

    def to_dict(self) -> dict:
        return Trace([self]).to_list()[0]

    @classmethod
    def from_dict(cls, data: dict) -> "RewriteStep":
        """Rebuild a step from :meth:`to_dict` output; raises
        :class:`ValueError` on any other shape or an unparsable word.
        The step is read by :func:`_read_steps`, as a trace's are."""
        return next(_read_steps([data]))

    def describe(self) -> str:
        return Trace([self]).describe()


def _read_steps(data: Iterable) -> Iterator[RewriteStep]:
    """The steps of the step objects ``data``, read word by word; raises
    :class:`ValueError` at the first item of another shape or with an
    unparsable word.  Each distinct word text is parsed once, and one
    letter is made per distinct token, which all the words share."""
    parsed: dict[str, Word] = {}
    letters: dict[str, SignedLetter] = {}
    for item in data:
        if not _shaped(item):
            raise ValueError("trace step wants strings rule, before, after and an object params")
        before, after = item["before"], item["after"]
        for text in (before, after):
            if text not in parsed:
                parsed[text] = _parse_shared(text, letters)
        yield RewriteStep(item["rule"], dict(item["params"]), parsed[before], parsed[after])


class Trace:
    """An ordered chain of rewrite steps.

    Invariant: each step's ``before`` equals the previous step's
    ``after``.  Serializes to a JSON array of step objects.

    One walk (:meth:`_walk`) applies the moves of every trace: the
    initial word is encoded once, the moves edit its codes, and the walk
    checks that they reach the final word.  A trace made by
    :meth:`from_moves` stores only its initial word, its ``(rule,
    params)`` moves and its final word.  Its steps, with the words
    between, are built from the walk the first time they are read, each
    word decoded once.  Until then it is written from the codes, and
    builds no step.  :meth:`from_json` returns such a trace for the text
    that :meth:`to_json` writes.
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

    def _walk(self) -> Iterator[_Coded]:
        """Apply the moves, each with its checks, to the codes of the
        initial word, yielding the coded word after each move; check at
        the end that the moves reach the final word."""
        coded = _Coded.encode(self._initial)
        for rule, params in self._moves:
            _apply(coded, rule, params)
            yield coded
        word = coded.decode()
        if word != self._final:
            raise AssertionError(
                f"moves reach {word.render()!r}, not the final word {self._final.render()!r}"
            )

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        if self._steps is None:
            words = [self._initial, *(coded.decode() for coded in self._walk())]
            self._steps = tuple(
                RewriteStep(rule, params, before, after)
                for (rule, params), before, after in zip(self._moves, words, words[1:])
            )
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
        """One line per step, ``rule(params): 'before' -> 'after'``, with
        each word rendered once."""
        return "\n".join(map(_step_line, self.to_list()))

    def to_list(self) -> list[dict]:
        """The steps as the JSON-ready objects of :meth:`to_json`.

        Each word is rendered once: a step's ``after`` text is also the
        next step's ``before``.  A trace whose steps are not built is
        written from the codes of its walk, each word joined from one
        token per code, and builds no step.
        """
        if self._steps is not None:
            steps = self._steps
            texts = [step.before.render() for step in steps[:1]]
            texts += [step.after.render() for step in steps]
        else:
            tokens: list[str] = []
            texts = [self._initial.render(), *(_text(coded, tokens) for coded in self._walk())]
        return [
            {"rule": rule, "params": dict(params), "before": before, "after": after}
            for (rule, params), before, after in zip(self._moves, texts, texts[1:])
        ]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_list(), indent=indent)

    @classmethod
    def _checked_moves(cls, data: list) -> "Trace | None":
        """The moves-only trace of the step objects ``data`` if each step's
        ``before`` is the previous ``after`` and its move makes its
        ``after`` text from the word before, else ``None``."""
        if not (data and all(map(_shaped, data))):
            return None
        text, tokens = data[0]["before"], []
        moves = [(step["rule"], step["params"]) for step in data]
        try:
            trace = cls.from_moves(_parse_shared(text, {}), moves, None)
            # ``data`` first: the walk stops before its check of the final word
            for step, coded in zip(data, trace._walk()):
                if step["before"] != text:
                    return None
                text = _text(coded, tokens)
                if text != step["after"]:
                    return None
        except ValueError:  # a bad first word, or a move that does not apply
            return None
        trace._final = coded.decode()
        return trace

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse :meth:`to_json` output; raises :class:`ValueError` on
        malformed or too deeply nested JSON, a malformed step or steps
        that do not chain.

        The first word is parsed once and its moves are walked
        (:meth:`_walk`), each with its rule's checks; the text of each
        word the walk makes is compared with the recorded ``after``, and
        each ``before`` must be the previous ``after`` as text.  A text
        that a move makes from a valid word is a valid word, so no other
        word is parsed or counted, and the trace returned stores its
        moves only (:meth:`from_moves`).

        At the first step that does not agree, every step is read word
        by word by :func:`_read_steps`, the reader of
        :meth:`RewriteStep.from_dict`, which raises the errors of a bad
        step or word in step order; steps that parse but do not
        reproduce are kept for :func:`replay` to name.  Each distinct
        word text is then parsed once, and one letter is made per
        distinct token, which all the words of the trace share, the
        words written compactly (``aba'b'``) as much as the others.
        """
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("trace JSON is nested too deeply") from None
        if not isinstance(data, list):
            raise ValueError("a trace must be a JSON array of steps")
        if (trace := cls._checked_moves(data)) is not None:
            return trace
        return cls(_read_steps(data))


def replay(word: Word, trace: Trace) -> Word:
    """Re-run ``trace`` from ``word``, verifying every step exactly.

    Raises :class:`ReplayMismatch` on the first step whose recorded
    words disagree with recomputation, or whose rule or parameters do
    not apply.  Returns the final word.

    ``word`` is compared with the trace's first word, and then the moves
    are walked once (:meth:`Trace._walk`), with every check and the
    check that they reach the final word; moves that miss it name the
    last step.  When the steps are built, each word the walk makes is
    also compared with the recorded ``after``.  A step whose decoding
    had to make a letter maps its codes to the recorded letters, so
    that later words decode to the objects they are compared with.
    """
    if not len(trace):
        return word
    if word != trace.initial_word():
        raise ReplayMismatch(
            f"step 0: expected word {trace.initial_word().render()!r}, have {word.render()!r}"
        )
    steps, done = trace._steps, 0
    try:
        for done, coded in enumerate(trace._walk(), 1):
            if steps is not None:
                step = steps[done - 1]
                known = len(coded.letters)
                result = coded.decode()
                if result != step.after:
                    raise ReplayMismatch(
                        f"step {done - 1}: {step.rule} produced {result.render()!r}, "
                        f"recorded {step.after.render()!r}"
                    )
                if len(coded.letters) > known:
                    coded.letters.update(zip(coded.codes, step.after.letters))
    except NotApplicable as exc:
        rule = trace._moves[done][0]
        raise ReplayMismatch(f"step {done}: {rule} not applicable: {exc}") from exc
    except AssertionError as exc:  # raised by the walk's last check only
        raise ReplayMismatch(f"step {done - 1}: {exc}") from exc
    return trace.final_word()
