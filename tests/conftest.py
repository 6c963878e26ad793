"""Shared test helpers: word strategies, applicable-rule instance
generators, and the acceptance summary hook."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from surfword import SignedLetter, Word, label_sequence

REWRITE_RULES = (
    "cancel",
    "transpose_discord",
    "fold_concord",
    "slide_block",
    "interleave_to_handle",
)


@st.composite
def words(draw, max_pairs: int = 5, max_singles: int = 3) -> Word:
    """Arbitrary valid words: paired labels with independent flags plus
    single letters, in a drawn order."""
    pairs = draw(st.integers(0, max_pairs))
    singles = draw(st.integers(0, max_singles))
    names = list(itertools.islice(label_sequence(), pairs + singles))
    letters = []
    for name in names[:pairs]:
        letters.append(SignedLetter(name, draw(st.booleans())))
        letters.append(SignedLetter(name, draw(st.booleans())))
    for name in names[pairs:]:
        letters.append(SignedLetter(name, draw(st.booleans())))
    if letters:
        letters = draw(st.permutations(letters))
    return Word(tuple(letters))


def relabeled(word: Word, offset: int = 7) -> Word:
    """Rename every label injectively, keeping all flags."""
    order = list(itertools.islice(label_sequence(), len(word.labels()) + offset))
    mapping = {
        label: order[(idx + offset) % len(order)]
        for idx, label in enumerate(word.labels())
    }
    return Word(tuple(SignedLetter(mapping[l.label], l.inverted) for l in word))


def every_word_over_three_labels():
    """Every valid word over the labels ``a``, ``b`` and ``c``, each
    used zero, one or two times with either flag (criterion 5)."""
    labels = ("a", "b", "c")

    def build(prefix, counts):
        if all(count == 0 for count in counts.values()):
            yield Word(tuple(prefix))
            return
        for label in labels:
            if counts[label]:
                counts[label] -= 1
                for flag in (False, True):
                    prefix.append(SignedLetter(label, flag))
                    yield from build(prefix, counts)
                    prefix.pop()
                counts[label] += 1

    for usage in itertools.product((0, 1, 2), repeat=3):
        yield from build([], dict(zip(labels, usage)))


def _base_word(rng: random.Random) -> Word:
    from surfword import random_word

    return random_word(rng.randrange(0, 8), rng.randrange(0, 3), rng.randrange(2**30))


def _fresh_names(word: Word, count: int) -> list[str]:
    used = set(word.labels())
    out = []
    for name in label_sequence():
        if name not in used:
            out.append(name)
            if len(out) == count:
                return out
    raise AssertionError("unreachable")


def _insert(word: Word, pos: int, letters: list[SignedLetter]) -> Word:
    seq = list(word.letters)
    return Word(tuple(seq[:pos] + letters + seq[pos:]))


def _cancel_instance(rng: random.Random) -> tuple[Word, dict]:
    base = _base_word(rng)
    (name,) = _fresh_names(base, 1)
    letter = SignedLetter(name, bool(rng.getrandbits(1)))
    pos = rng.randrange(len(base) + 1)
    return _insert(base, pos, [letter, letter.inverse()]), {"pos": pos}


def _transpose_instance(rng: random.Random) -> tuple[Word, dict]:
    base = _base_word(rng)
    (name,) = _fresh_names(base, 1)
    flag = bool(rng.getrandbits(1))
    first = rng.randrange(len(base) + 1)
    grown = _insert(base, first, [SignedLetter(name, flag)])
    second = rng.randrange(len(grown) + 1)
    grown = _insert(grown, second, [SignedLetter(name, not flag)])
    i, j = grown.pairing().positions(name)
    if grown[i].inverted:
        i, j = j, i
    gap = (j - i - 1) % len(grown)
    split = (i + 1 + rng.randrange(gap + 1)) % len(grown)
    return grown, {"label": name, "split": split}


def _fold_instance(rng: random.Random) -> tuple[Word, dict]:
    base = _base_word(rng)
    (name,) = _fresh_names(base, 1)
    flag = bool(rng.getrandbits(1))
    first = rng.randrange(len(base) + 1)
    grown = _insert(base, first, [SignedLetter(name, flag)])
    second = rng.randrange(len(grown) + 1)
    grown = _insert(grown, second, [SignedLetter(name, flag)])
    return grown, {"label": name}


def _slide_instance(rng: random.Random) -> tuple[Word, dict]:
    base = _base_word(rng)
    while len(base) == 0:
        base = _base_word(rng)
    names = _fresh_names(base, 2)
    x = SignedLetter(names[0], bool(rng.getrandbits(1)))
    if rng.getrandbits(1):
        block = [x, x]
    else:
        y = SignedLetter(names[1], bool(rng.getrandbits(1)))
        block = [x, y, x.inverse(), y.inverse()]
    pos = rng.randrange(len(base) + 1)
    grown = _insert(base, pos, block)
    outside = [d for d in range(len(grown)) if not pos <= d < pos + len(block)]
    return grown, {"block_start": pos, "dest": rng.choice(outside)}


def _interleave_instance(rng: random.Random) -> tuple[Word, dict]:
    base = _base_word(rng)
    names = _fresh_names(base, 2)
    x = SignedLetter(names[0], bool(rng.getrandbits(1)))
    y = SignedLetter(names[1], bool(rng.getrandbits(1)))
    cuts = sorted(rng.randrange(len(base) + 1) for _ in range(4))
    seq = list(base.letters)
    letters = (
        seq[: cuts[0]]
        + [x]
        + seq[cuts[0] : cuts[1]]
        + [y]
        + seq[cuts[1] : cuts[2]]
        + [x.inverse()]
        + seq[cuts[2] : cuts[3]]
        + [y.inverse()]
        + seq[cuts[3] :]
    )
    return Word(tuple(letters)), {"a": names[0], "b": names[1]}


_INSTANCE_MAKERS = {
    "cancel": _cancel_instance,
    "transpose_discord": _transpose_instance,
    "fold_concord": _fold_instance,
    "slide_block": _slide_instance,
    "interleave_to_handle": _interleave_instance,
}


def applicable_instance(rule: str, rng: random.Random) -> tuple[Word, dict]:
    """A word and parameters on which ``rule`` is applicable by
    construction."""
    return _INSTANCE_MAKERS[rule](rng)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, ()):
            if "test_acceptance.py" in report.nodeid and getattr(report, "when", "call") == "call":
                rows.append((report.nodeid.split("::")[-1], label))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, label in sorted(rows):
            terminalreporter.write_line(f"{label}  {name}")
