"""Seeded inputs for the four workloads and the layer sweep.

Inputs are made here, with no help from the program, so that a change
to the program cannot change what the benchmark feeds it.  A word is a
tuple of ``(label, inverted)`` tokens until :func:`render` turns it into
the text the program parses.  The seed changes the letters of every
word but never its shape: a random word keeps its length and its number
of pairs and singles, a family word is only relabelled, and an orbit's
start word is relabelled, rotated and possibly inverted, which leaves
its orbit the same size.  That keeps the work per run the same across
seeds.
"""

from __future__ import annotations

import itertools
import random
from string import ascii_lowercase

Token = tuple[str, bool]
Tokens = tuple[Token, ...]

# batch-corpus: words with the profile of acceptance criterion 3
# (0..10 pairs, 0..3 single letters).
CORPUS_WORDS = 5000

# long-normalize: (family, size) of each word in one round, 200 to 1000
# letters.  The median time is that of family_iii(200), whose cost does
# not change with the seed: it is in the round three times, between five
# words that take half its time or less and five that take twice or
# more, so the median is one of a run's 3 * rounds samples of that word
# and does not move onto another word.
LONG_WORDS = (
    ("nested_handles", 50), ("family_v", 150), ("random", 300), ("family_iii", 100),
    ("family_v", 200),
    ("family_iii", 200), ("family_iii", 200), ("family_iii", 200),
    ("family_v", 500), ("nested_handles", 166), ("family_iii", 300), ("random", 1000),
    ("family_iii", 500),
)

# trace-replay: letters of each word in one round, 64 to 192.
TRACE_SIZES = tuple(64 + (128 * i) // 19 for i in range(20))

# orbit-closure: every ORBIT_STRIDE-th of the 949 classes of the
# criterion-5 enumeration (14 words), explored up to length 6 as the
# acceptance test does, plus untruncated orbits of three 8-letter words
# (each under a second, 64 to 112 states): 17 orbits, an odd number.
ORBIT_STRIDE = 68
ORBIT_LABELS = ("a", "b", "c")
EIGHT_LETTER_WORDS = (
    "a b a' b' x y z w",
    "a a b b x y z w",
    "a x b y a' z b' w",
)


def label_names():
    """``a .. z, a1 .. z1, a2 ..``: names the word grammar accepts."""
    for suffix in itertools.count():
        tail = "" if suffix == 0 else str(suffix)
        for ch in ascii_lowercase:
            yield ch + tail


def render(tokens: Tokens) -> str:
    return " ".join(label + ("'" if inverted else "") for label, inverted in tokens)


def tokenize(text: str) -> Tokens:
    return tuple((tok.rstrip("'"), tok.endswith("'")) for tok in text.split())


def invert(tokens: Tokens) -> Tokens:
    return tuple((label, not inverted) for label, inverted in reversed(tokens))


def random_tokens(rng: random.Random, pairs: int, singles: int) -> Tokens:
    """A shuffled word with ``pairs`` paired labels (random flags) and
    ``singles`` upright single letters."""
    names = list(itertools.islice(label_names(), pairs + singles))
    rng.shuffle(names)
    tokens = [(name, rng.random() < 0.5) for name in names[:pairs] for _ in range(2)]
    tokens += [(name, False) for name in names[pairs:]]
    rng.shuffle(tokens)
    return tuple(tokens)


def random_sized(rng: random.Random, letters: int) -> Tokens:
    """A random word of exactly ``letters`` letters, about one in eight single."""
    singles = max(1, letters // 8)
    if (letters - singles) % 2:
        singles += 1
    return random_tokens(rng, (letters - singles) // 2, singles)


def relabel(rng: random.Random, tokens: Tokens) -> Tokens:
    """Rename the labels by a random bijection, which changes no surface.

    Family words are not rotated or inverted as well: a rotation changes
    the peak memory of ``normalize`` on ``family_iii`` by up to half, so
    the seed, not the program, would move the numbers.
    """
    labels = list(dict.fromkeys(label for label, _ in tokens))
    names = list(itertools.islice(label_names(), len(labels)))
    rng.shuffle(names)
    rename = dict(zip(labels, names))
    return tuple((rename[label], inverted) for label, inverted in tokens)


def family_iii(n: int) -> Tokens:
    """``a1 .. an an .. a1``: nonorientable of genus n."""
    run = [(f"a{i}", False) for i in range(1, n + 1)]
    return tuple(run + run[::-1])


def family_v(n: int) -> Tokens:
    """``a1 .. an a1' .. an'``: orientable of genus n // 2, a sphere for n = 1."""
    run = [(f"a{i}", False) for i in range(1, n + 1)]
    return tuple(run + [(label, True) for label, _ in run])


def nested_handles(m: int) -> Tokens:
    """``p1 h1 p2 h2 .. pm hm x pm' .. p1'`` with ``hi = ai bi ai' bi'``:
    m nested pairs around m handles and one hole, 6m + 1 letters,
    orientable of genus m with one boundary component."""
    head: list[Token] = []
    for i in range(1, m + 1):
        a, b = f"a{i}", f"b{i}"
        head += [(f"p{i}", False), (a, False), (b, False), (a, True), (b, True)]
    tail = [(f"p{i}", True) for i in range(m, 0, -1)]
    return tuple(head + [("x", False)] + tail)


def closed_form(family: str, size: int) -> tuple[str, int, int] | None:
    """The classification each family is known to have; None for random words."""
    if family == "family_iii":
        return ("nonorientable", size, 0)
    if family == "family_v":
        return ("sphere", 0, 0) if size == 1 else ("orientable", size // 2, 0)
    if family == "nested_handles":
        return ("orientable", size, 1)
    return None


FAMILIES = {"family_iii": family_iii, "family_v": family_v, "nested_handles": nested_handles}


def family_word(rng: random.Random, family: str, size: int) -> Tokens:
    """A relabelled family word, or a random word of ``size`` letters."""
    if family == "random":
        return random_sized(rng, size)
    return relabel(rng, FAMILIES[family](size))


def family_size(family: str, letters: int) -> int:
    """The family parameter whose word has about ``letters`` letters."""
    if family == "random":
        return letters
    if family == "nested_handles":
        return max(1, round((letters - 1) / 6))
    return max(1, letters // 2)


def every_word(labels: tuple[str, ...]) -> list[Tokens]:
    """Every valid word using each of ``labels`` zero, one or two times,
    with every choice of flags: the criterion-5 enumeration."""
    out: list[Tokens] = []

    def build(prefix: list[Token], counts: dict[str, int]) -> None:
        if not any(counts.values()):
            out.append(tuple(prefix))
            return
        for label in labels:
            if counts[label]:
                counts[label] -= 1
                for flag in (False, True):
                    prefix.append((label, flag))
                    build(prefix, counts)
                    prefix.pop()
                counts[label] += 1

    for usage in itertools.product((0, 1, 2), repeat=len(labels)):
        build([], dict(zip(labels, usage)))
    return out


def class_key(tokens: Tokens) -> Tokens:
    """Least rotation of the word or of its inverse: equal exactly for
    words equal up to rotation and inversion."""
    if not tokens:
        return ()
    n = len(tokens)
    return min(base[r:] + base[:r] for base in (tokens, invert(tokens)) for r in range(n))


def representatives(labels: tuple[str, ...]) -> dict[Tokens, Tokens]:
    """One word per rotation-and-inversion class of the enumeration."""
    reps: dict[Tokens, Tokens] = {}
    for word in every_word(labels):
        reps.setdefault(class_key(word), word)
    return reps


def corpus(seed: int) -> list[str]:
    """The batch file's words.  The empty word is left out: batch reads a
    blank line as no word at all."""
    rng = random.Random(f"batch-corpus:{seed}")
    profiles = ((i % 11, (i * 7) % 4) for i in itertools.count())
    words = (render(random_tokens(rng, p, s)) for p, s in profiles if p or s)
    return list(itertools.islice(words, CORPUS_WORDS))


def long_words(seed: int) -> list[dict]:
    rng = random.Random(f"long-normalize:{seed}")
    return [
        {"word": render(family_word(rng, family, size)), "closed": closed_form(family, size)}
        for family, size in LONG_WORDS
    ]


def trace_words(seed: int) -> list[str]:
    rng = random.Random(f"trace-replay:{seed}")
    return [render(random_sized(rng, size)) for size in TRACE_SIZES]


def orbit_starts(seed: int) -> tuple[tuple[str, ...], list[dict]]:
    """The seed's three labels and the start words of one round.

    Each start word is a fixed class of the enumeration, or a fixed
    8-letter word, relabelled with the seed's letters, rotated and
    possibly inverted; the orbits are therefore the same size in every
    run.
    """
    rng = random.Random(f"orbit-closure:{seed}")
    reps = representatives(ORBIT_LABELS)
    chosen = [reps[key] for key in sorted(reps, key=lambda k: (-len(k), k))[::ORBIT_STRIDE]]
    eight = [tokenize(text) for text in EIGHT_LETTER_WORDS]
    used = sorted({label for word in chosen + eight for label, _ in word})
    letters = rng.sample(ascii_lowercase, len(used))
    rename = dict(zip(used, letters))
    starts = []
    for word, max_length in [(w, 6) for w in chosen] + [(w, None) for w in eight]:
        word = tuple((rename[label], inverted) for label, inverted in word)
        if word:
            k = rng.randrange(len(word))
            word = word[k:] + word[:k]
            if rng.random() < 0.5:
                word = invert(word)
        starts.append({"word": render(word), "max_length": max_length})
    return tuple(rename[label] for label in ORBIT_LABELS), starts
