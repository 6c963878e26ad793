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
from dataclasses import dataclass
from typing import Iterator

from .normalform import NormalForm, _partners
from .rewrite import _apply, _block_size, _Coded, _inverse
from .words import SignedLetter, Word, _least_rotation, label_sequence

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
        return any(len(m) == len(word) and m.canonical_key() == key for m in self.words)


def _neighbor(base: _Coded, spin: int, rule: str, **params) -> list[int]:
    """Codes of ``rule`` with ``params`` applied to a copy of ``base`` rotated left by ``spin``."""
    coded = _Coded(base.codes[spin:] + base.codes[:spin], base.names, base.letters)
    _apply(coded, rule, params)
    return coded.codes


def _orbit_neighbors(forward: _Coded) -> Iterator[list[int]]:
    """The codes of all words one rule application away from the coded
    word ``forward``, read from its codes and from those of its
    inversion; none adds a label, so all decode with its labels.

    Each rule is applied, to a copy, only at the sites where it
    applies, so none raises :class:`NotApplicable`: ``cancel`` where
    two adjacent letters carry one label with opposite flags,
    ``transpose_discord`` at the splits from just after the upright
    occurrence through the inverted one, ``slide_block`` at the
    destinations outside the block, and ``interleave_to_handle`` for
    interleaved pairs.  ``cancel``, ``transpose_discord`` and
    ``slide_block`` read their sites cyclically, so one reading finds
    every site.  ``fold_concord`` and ``interleave_to_handle`` start
    from the first stored occurrence of a label, so those two also run
    from the rotations that put each occurrence of that label first.
    The same neighbor can come out more than once; :func:`bfs_orbit`
    deduplicates by key.
    """
    n = len(forward.codes)
    for base in (forward, _Coded(_inverse(forward.codes), forward.names, forward.letters)):
        codes, names = base.codes, base.names
        # paired labels in order of first occurrence, with their positions
        pairs = [(names[codes[i] >> 1], (i, j)) for i, j in enumerate(_partners(codes)) if i < j]
        discords = [(label, p) for label, p in pairs if codes[p[0]] != codes[p[1]]]
        for pos in range(n):
            if codes[pos] ^ codes[(pos + 1) % n] == 1:
                yield _neighbor(base, 0, "cancel", pos=pos)
        for label, (up, down) in discords:
            if codes[up] & 1:
                up, down = down, up
            if up < down:
                splits = range(up + 1, down + 1)
            else:
                splits = itertools.chain(range(down + 1), range(up + 1, n))
            for split in splits:
                yield _neighbor(base, 0, "transpose_discord", label=label, split=split)
        for start in range(n):
            if size := _block_size(codes, start):
                for dest in range(n):
                    if (dest - start) % n >= size:
                        yield _neighbor(base, 0, "slide_block", block_start=start, dest=dest)
        for label, positions in pairs:
            if codes[positions[0]] == codes[positions[1]]:
                for p in positions:
                    yield _neighbor(base, p, "fold_concord", label=label)
        for a, (i, j) in discords:
            for p in (i, j):
                for b, (k1, k2) in discords:
                    if a != b and (i < k1 < j) != (i < k2 < j):
                        yield _neighbor(base, p, "interleave_to_handle", a=a, b=b)


def _key(codes: list[int]) -> tuple:
    """The least rotation of ``codes`` or of their inversion, as in :meth:`Word.canonical_key`."""
    return min(_least_rotation(codes), _least_rotation(_inverse(codes)))


def bfs_orbit(word: Word, max_length: int | None = None, max_states: int | None = None) -> Orbit:
    """Breadth-first closure of ``word`` under the rewrite rules.

    Members are deduplicated up to rotation and inversion, restricted to
    length at most ``max_length`` (the start word is always admitted),
    and capped at ``max_states`` states; hitting the cap sets the
    ``truncated`` flag.  No rule lengthens a word, so the closure is
    finite even unbounded.  ``Orbit.words`` holds one member per class,
    which may be any rotation or inversion of it; compare members with
    :meth:`Word.canonical_key` or ``in``.  The states are letter codes,
    and each member but ``word`` itself is decoded once, at the end.
    """
    start = _Coded.encode(word)
    states = [start.codes]
    seen = {_key(start.codes)}
    truncated = False
    for codes in states:  # the list grows as the search admits states
        inverse = _inverse(codes)
        for neighbor in _orbit_neighbors(_Coded(codes, start.names, start.letters)):
            # the state itself, whose key is already seen
            if neighbor in (codes, inverse):
                continue
            if max_length is not None and len(neighbor) > max_length:
                continue
            key = _key(neighbor)
            if key in seen:
                continue
            if max_states is not None and len(seen) >= max_states:
                truncated = True
                break
            seen.add(key)
            states.append(neighbor)
        if truncated:
            break
    members = [_Coded(codes, start.names, start.letters).decode() for codes in states[1:]]
    return Orbit(frozenset([word, *members]), truncated)
