"""Verification machinery independent of the normalizer.

Everything here classifies a word without rewriting it.  The Euler
characteristic comes from identifying polygon corners into vertex
classes with a union-find; boundary components come from tracing a
separate graph on edge ends.  The two structures share no code with the
rewrite engine, so agreement between :func:`classify_by_invariants` and
the normalizer is a meaningful cross-check rather than a tautology.

Also provides the standard word families, a seeded random word
generator, and a breadth-first orbit explorer over the rewrite rules.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .normalform import NormalForm
from .rewrite import (
    NotApplicable,
    block_at,
    cancel,
    fold_concord,
    interleave_to_handle,
    slide_block,
    transpose_discord,
)
from .words import CONCORD, DISCORD, SignedLetter, Word, label_sequence

__all__ = [
    "CornerComplex",
    "InconsistentInvariants",
    "Orbit",
    "bfs_orbit",
    "boundary_count",
    "classify_by_invariants",
    "corner_complex",
    "euler_characteristic",
    "family_iii",
    "family_iv",
    "family_v",
    "invariants_summary",
    "orientable",
    "random_word",
]


class InconsistentInvariants(RuntimeError):
    """The computed invariants do not describe any compact surface.

    Unreachable for valid words; raising it signals a bug, not bad input.
    """


class _UnionFind:
    __slots__ = ("_parent",)

    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        self._parent[self.find(x)] = self.find(y)

    def class_count(self) -> int:
        return sum(1 for x, p in enumerate(self._parent) if x == p)


@dataclass(frozen=True, slots=True)
class CornerComplex:
    """Vertex, edge and face counts of the identified polygon."""

    vertices: int
    edges: int
    faces: int

    @property
    def chi(self) -> int:
        return self.vertices - self.edges + self.faces


def _tail_head(word: Word, i: int) -> tuple[int, int]:
    # corner indices at the tail and head of occurrence i; corner i sits
    # before the letter at position i, corner i+1 after it
    n = len(word)
    if word[i].inverted:
        return (i + 1) % n, i
    return i, (i + 1) % n


def corner_complex(word: Word) -> CornerComplex:
    """Count cells of the surface obtained by gluing the polygon.

    Corners merge into vertex classes: gluing a paired label identifies
    tail corner with tail corner and head with head.  Single letters
    glue nothing.  Faces is always 1 (the polygon itself); the empty
    word stands for the sphere, one vertex and no edges.
    """
    n = len(word)
    if n == 0:
        return CornerComplex(1, 0, 1)
    table = word.pairing()
    uf = _UnionFind(n)
    for label in table:
        positions = table.positions(label)
        if len(positions) == 2:
            p, q = positions
            p_tail, p_head = _tail_head(word, p)
            q_tail, q_head = _tail_head(word, q)
            uf.union(p_tail, q_tail)
            uf.union(p_head, q_head)
    return CornerComplex(uf.class_count(), len(table), 1)


def euler_characteristic(word: Word) -> int:
    """V - E + F of the glued polygon; 2 for the empty word."""
    return corner_complex(word).chi


def orientable(word: Word) -> bool:
    """A word presents an orientable surface exactly when it has no
    concord pair."""
    return not word.pairing().has_concord()


def boundary_count(word: Word) -> int:
    """Count boundary components by tracing edge ends.

    Each occurrence has two ends, one at each adjoining corner.  Linking
    consecutive ends around every corner, tail end to tail end and head
    end to head end across every gluing, and the two ends of each free
    edge gives a graph of disjoint cycles.  The cycles through a free
    edge are the boundary components; the rest are interior vertex
    links.
    """
    n = len(word)
    if n == 0:
        return 0

    def at_tail(i: int) -> int:
        # end index: 2i sits at corner i, 2i+1 at corner i+1
        return 2 * i + 1 if word[i].inverted else 2 * i

    def at_head(i: int) -> int:
        return 2 * i if word[i].inverted else 2 * i + 1

    uf = _UnionFind(2 * n)
    for i in range(n):
        uf.union(2 * ((i - 1) % n) + 1, 2 * i)
    table = word.pairing()
    free_ends = []
    for label in table:
        positions = table.positions(label)
        if len(positions) == 2:
            p, q = positions
            uf.union(at_tail(p), at_tail(q))
            uf.union(at_head(p), at_head(q))
        else:
            (i,) = positions
            uf.union(2 * i, 2 * i + 1)
            free_ends.append(2 * i)
    return len({uf.find(e) for e in free_ends})


def classify_by_invariants(word: Word) -> NormalForm:
    """Classify from the invariants alone, no rewriting involved.

    Capping each boundary component with a disk adds 1 to the
    characteristic; the capped value then determines the genus within
    the orientable or nonorientable family.
    """
    chi = euler_characteristic(word)
    b = boundary_count(word)
    capped = chi + b
    if capped > 2:
        raise InconsistentInvariants(f"capped characteristic {capped} exceeds 2")
    if orientable(word):
        if capped == 2:
            return NormalForm("sphere", 0, b)
        if capped % 2:
            raise InconsistentInvariants(
                f"orientable word with odd capped characteristic {capped}"
            )
        return NormalForm("orientable", (2 - capped) // 2, b)
    genus = 2 - capped
    if genus < 1:
        raise InconsistentInvariants(f"nonorientable word with genus {genus}")
    return NormalForm("nonorientable", genus, b)


def invariants_summary(word: Word) -> dict:
    """The oracle's readings as a plain dict (the JSON schema)."""
    complex_ = corner_complex(word)
    return {
        "chi": complex_.chi,
        "orientable": orientable(word),
        "boundary": boundary_count(word),
        "vertices": complex_.vertices,
        "edges": complex_.edges,
    }


def _labels(n: int) -> list[SignedLetter]:
    return [SignedLetter(f"a{i}") for i in range(1, n + 1)]


def family_iii(n: int) -> Word:
    """``a1 ... an an ... a1``: nonorientable of genus n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    run = _labels(n)
    return Word(tuple(run) + tuple(reversed(run)))


def family_iv(n: int) -> Word:
    """``a1 ... a(n-1) an a1' ... a(n-1)' an``: nonorientable of genus n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    run = _labels(n)
    head, last = run[:-1], run[-1]
    return Word(tuple(head) + (last,) + tuple(l.inverse() for l in head) + (last,))


def family_v(n: int) -> Word:
    """``a1 ... an a1' ... an'``: orientable of genus n // 2 (sphere for n=1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    run = _labels(n)
    return Word(tuple(run) + tuple(l.inverse() for l in run))


def random_word(pairs: int, singles: int, seed: int) -> Word:
    """A valid word with the given occurrence profile, deterministic in
    ``seed``.

    Paired occurrences get independent random inversion flags; single
    letters are upright; the whole sequence is shuffled.
    """
    if pairs < 0 or singles < 0:
        raise ValueError("pairs and singles must be nonnegative")
    rng = random.Random(seed)
    names = list(itertools.islice(label_sequence(), pairs + singles))
    letters: list[SignedLetter] = []
    for name in names[:pairs]:
        letters.append(SignedLetter(name, bool(rng.getrandbits(1))))
        letters.append(SignedLetter(name, bool(rng.getrandbits(1))))
    for name in names[pairs:]:
        letters.append(SignedLetter(name))
    rng.shuffle(letters)
    return Word(tuple(letters))


@dataclass(frozen=True, slots=True)
class Orbit:
    """A set of words closed under the rewrite rules, up to rotation and
    inversion; ``truncated`` is set when the state cap cut exploration
    short."""

    words: frozenset[Word]
    truncated: bool

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, word: object) -> bool:
        if not isinstance(word, Word):
            return False
        key = word.canonical_key()
        return any(
            len(member) == len(word) and member.canonical_key() == key for member in self.words
        )


def _orbit_neighbors(word: Word) -> Iterator[Word]:
    """All words one rule application away from ``word``, read from the
    word and from its inversion.

    ``cancel``, ``transpose_discord`` and ``slide_block`` read their
    sites cyclically, so one reading finds every site.  ``fold_concord``
    and ``interleave_to_handle`` start from the first stored occurrence
    of a label, so those two also run from the rotations that put each
    occurrence of that label first.  The same neighbor can come out
    more than once; :func:`bfs_orbit` deduplicates by key.
    """
    n = len(word)
    if n == 0:
        return
    for base in (word, word.invert()):
        table = base.pairing()
        discords = table.with_character(DISCORD)
        for pos in range(n):
            try:
                yield cancel(base, pos)
            except NotApplicable:
                pass
        for label in discords:
            for split in range(n):
                try:
                    yield transpose_discord(base, label, split)
                except NotApplicable:
                    pass
        for start in range(n):
            if block_at(base, start) is None:
                continue
            for dest in range(n):
                try:
                    yield slide_block(base, start, dest)
                except NotApplicable:
                    pass
        for label in table.with_character(CONCORD):
            for p in table.positions(label):
                yield fold_concord(base.rotate(p), label)
        for a in discords:
            for p in table.positions(a):
                spun = base.rotate(p)
                for b in discords:
                    if a == b:
                        continue
                    try:
                        yield interleave_to_handle(spun, a, b)
                    except NotApplicable:
                        pass


def bfs_orbit(word: Word, max_length: int | None = None, max_states: int | None = None) -> Orbit:
    """Breadth-first closure of ``word`` under the rewrite rules.

    Members are deduplicated up to rotation and inversion, restricted to
    length at most ``max_length`` (the start word is always admitted),
    and capped at ``max_states`` states; hitting the cap sets the
    ``truncated`` flag.  No rule lengthens a word, so the closure is
    finite even unbounded.  ``Orbit.words`` holds one member per class,
    which may be any rotation or inversion of it; compare members with
    :meth:`Word.canonical_key` or ``in``.
    """
    seen: dict[tuple, Word] = {word.canonical_key(): word}
    queue: deque[Word] = deque([word])
    truncated = False
    while queue and not truncated:
        current = queue.popleft()
        for neighbor in _orbit_neighbors(current):
            if max_length is not None and len(neighbor) > max_length:
                continue
            key = neighbor.canonical_key()
            if key in seen:
                continue
            if max_states is not None and len(seen) >= max_states:
                truncated = True
                break
            seen[key] = neighbor
            queue.append(neighbor)
    return Orbit(frozenset(seen.values()), truncated)
