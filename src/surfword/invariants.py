"""Verification machinery independent of the normalizer.

Everything here classifies a word without rewriting it.  One
union-find over the polygon's corners, glued along the pairs, gives the
vertices and so the Euler characteristic; joining the two corners of
each free edge then gives the boundary components.  It shares no code
with the rewrite engine, so agreement between
:func:`classify_by_invariants` and the normalizer is a meaningful
cross-check rather than a tautology.

Also provides the standard word families, a seeded random word
generator, and a breadth-first orbit explorer over the rewrite rules.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .normalform import NormalForm
from .rewrite import _block_size, _Coded, _fold, _interleave, _inverse, _remove, _slide, _transpose
from .words import SignedLetter, Word, _least_paired_rotation, _Value, label_sequence

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


class CornerComplex(_Value):
    """Vertex, edge and face counts of the identified polygon."""

    __match_args__ = __slots__ = ("vertices", "edges", "faces")

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


def _readings(word: Word) -> tuple[int, int, int, bool]:
    """Vertices, edges, boundary components and orientability of the
    glued polygon, from one pairing table and one union-find over its
    corners.  Once the pairs have glued the corners into vertices, the
    two corners of each free edge are joined: a boundary vertex lies on
    one boundary circle, and the free edges run along those circles."""
    n = len(word)
    if n == 0:
        return 1, 0, 0, True
    table = word.pairing()
    uf = _UnionFind(n)
    free = []
    for entry in table.entries():
        if len(entry.positions) == 2:
            p, q = entry.positions
            p_tail, p_head = _tail_head(word, p)
            q_tail, q_head = _tail_head(word, q)
            uf.union(p_tail, q_tail)
            uf.union(p_head, q_head)
        else:
            free.extend(entry.positions)
    vertices = uf.class_count()
    for i in free:
        uf.union(i, (i + 1) % n)
    boundary = len({uf.find(i) for i in free})
    return vertices, len(table), boundary, not table.has_concord()


def corner_complex(word: Word) -> CornerComplex:
    """Count cells of the surface obtained by gluing the polygon.

    Corners merge into vertex classes: gluing a paired label identifies
    tail corner with tail corner and head with head.  Single letters
    glue nothing.  Faces is always 1 (the polygon itself); the empty
    word stands for the sphere, one vertex and no edges.
    """
    vertices, edges, _, _ = _readings(word)
    return CornerComplex(vertices, edges, 1)


def euler_characteristic(word: Word) -> int:
    """V - E + F of the glued polygon; 2 for the empty word."""
    return corner_complex(word).chi


def orientable(word: Word) -> bool:
    """A word presents an orientable surface exactly when it has no
    concord pair."""
    return not word.pairing().has_concord()


def boundary_count(word: Word) -> int:
    """Count boundary components: after the pairs glue the corners into
    vertices, joining the two corners of each free edge (single letter)
    leaves one class per boundary circle among the free edges."""
    return _readings(word)[2]


def classify_by_invariants(word: Word) -> NormalForm:
    """Classify from the invariants alone, no rewriting involved.

    Capping each boundary component with a disk adds 1 to the
    characteristic; the capped value then determines the genus within
    the orientable or nonorientable family.
    """
    vertices, edges, b, is_orientable = _readings(word)
    capped = vertices - edges + 1 + b
    if capped > 2:
        raise InconsistentInvariants(f"capped characteristic {capped} exceeds 2")
    if is_orientable:
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
    vertices, edges, boundary, is_orientable = _readings(word)
    return {
        "chi": vertices - edges + 1,
        "orientable": is_orientable,
        "boundary": boundary,
        "vertices": vertices,
        "edges": edges,
    }


def _labels(n: int) -> list[SignedLetter]:
    if n < 1:
        raise ValueError("n must be at least 1")
    return [SignedLetter(f"a{i}") for i in range(1, n + 1)]


def family_iii(n: int) -> Word:
    """``a1 ... an an ... a1``: nonorientable of genus n."""
    run = _labels(n)
    return Word(tuple(run) + tuple(reversed(run)))


def family_iv(n: int) -> Word:
    """``a1 ... a(n-1) an a1' ... a(n-1)' an``: nonorientable of genus n."""
    run = _labels(n)
    head, last = run[:-1], run[-1]
    return Word(tuple(head) + (last,) + tuple(l.inverse() for l in head) + (last,))


def family_v(n: int) -> Word:
    """``a1 ... an a1' ... an'``: orientable of genus n // 2 (sphere for n=1)."""
    run = _labels(n)
    return Word(tuple(run) + tuple(l.inverse() for l in run))


def random_word(pairs: int, singles: int, seed: int) -> Word:
    """A valid word with the given occurrence profile, deterministic in
    ``seed``.

    Paired occurrences get independent random inversion flags; single
    letters are upright; the whole sequence is shuffled.
    """
    import random  # only here, so importing the package does not load it

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


class Orbit(_Value):
    """A set of words closed under the rewrite rules, up to rotation and
    inversion; ``truncated`` is set when the state cap cut exploration
    short."""

    __match_args__ = __slots__ = ("words", "truncated")

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, word: object) -> bool:
        if not isinstance(word, Word):
            return False
        key = word.canonical_key()
        return any(len(m) == len(word) and m.canonical_key() == key for m in self.words)


def _partners(cur: list[int]) -> list[int]:
    """For each position, the position of the other occurrence of its
    label; a single letter is its own partner."""
    first = {cur[k] >> 1: k for k in range(len(cur) - 1, -1, -1)}
    last = {code >> 1: k for k, code in enumerate(cur)}
    return [j if (j := last[code >> 1]) != k else first[code >> 1] for k, code in enumerate(cur)]


def _orbit_neighbors(forward: list[int]) -> Iterator[list[int]]:
    """The codes of the words one rule application away from the word
    with codes ``forward``, up to rotation and inversion, without the
    rule sites that return the word's own class; none adds a label.

    The search finds each rule's sites itself, from the partner table
    and the block sizes, and calls the rule's edit at each on a copy.
    ``cancel``, ``transpose_discord`` and ``slide_block`` read their
    sites cyclically and commute with inversion: each neighbor they make
    from the inversion is the reverse-and-flip of one they make from
    ``forward``, so they run on ``forward`` alone.  They skip their
    identity sites: the splits at either end of the run, which return the
    word, and the slide to just after the block, which returns the word
    or, when the block wraps the end, one of its rotations.
    ``fold_concord`` writes its pair with positive flags and
    ``interleave_to_handle`` reads from one occurrence of its pair, so
    from the inversion they reach other words; they run on both sides,
    on the rotations that put each occurrence first.  In the seed-1
    ``orbit-closure`` round this lists 7,572 neighbors of its 572 states;
    :func:`bfs_orbit` keys 4,328 of them and drops the rest unkeyed, as
    admitted codes or on length.
    """
    n = len(forward)
    for codes in (forward, _inverse(forward)):
        pairs = [(i, j) for i, j in enumerate(_partners(codes)) if i < j]
        discords = [(i, j) for i, j in pairs if codes[i] != codes[j]]
        if codes is forward:
            for pos in range(n):
                if codes[pos] ^ codes[(pos + 1) % n] == 1:
                    _remove(out := codes[:], pos, (pos + 1) % n)
                    yield out
            for i, j in discords:
                up, down = (j, i) if codes[i] & 1 else (i, j)
                for split in range(n):  # the splits inside the run, in increasing order
                    if 0 < (offset := (split - up - 1) % n) < (down - up - 1) % n:
                        _transpose(out := codes[:], up, down, offset)
                        yield out
            for start in range(n):
                if size := _block_size(codes, start):
                    for dest in range(n):
                        if (dest - start) % n > size:
                            _slide(out := codes[:], start, size, dest)
                            yield out
        for i, j in pairs:
            if codes[i] == codes[j]:
                for p, q in ((i, j), (j, i)):
                    _fold(out := codes[p:] + codes[:p], 0, (q - p) % n)
                    yield out
        for i, j in discords:
            for p, q in ((i, j), (j, i)):
                for k1, k2 in discords:
                    if k1 != i and (i < k1 < j) != (i < k2 < j):
                        b_in, b_out = (k1, k2) if (k1 - p) % n < (q - p) % n else (k2, k1)
                        out = codes[p:] + codes[:p]
                        _interleave(out, 0, (b_in - p) % n, (q - p) % n, (b_out - p) % n)
                        yield out


def _key(codes: tuple[int, ...]) -> tuple:
    """The least rotation of ``codes`` or of their inversion, as in :meth:`Word.canonical_key`."""
    return min(_least_paired_rotation(codes), _least_paired_rotation(_inverse(codes)))


def bfs_orbit(word: Word, max_length: int | None = None, max_states: int | None = None) -> Orbit:
    """Breadth-first closure of ``word`` under the rewrite rules.

    Members are deduplicated up to rotation and inversion, restricted to
    length at most ``max_length`` (the start word is always admitted),
    and capped at ``max_states`` states; hitting the cap sets the
    ``truncated`` flag.  No rule lengthens a word, so the closure is
    finite even unbounded.  ``Orbit.words`` holds one member per class,
    which may be any rotation or inversion of it; compare members with
    :meth:`Word.canonical_key` or ``in``.  The states are letter codes,
    edited at the sites the search finds, without the rules' checks, and
    decoded once at the end.  ``admitted`` holds each state's codes and its
    key, so a neighbor with the codes of a state is dropped unkeyed.
    The rules that commute with inversion run on the state alone, and no
    site that returns the state's own class is listed (see
    :func:`_orbit_neighbors`).  Each site left out reaches the state's
    own class or one listed before it, both already admitted or rejected,
    and the cap is checked on new classes alone, so the members, their
    order and ``truncated`` are those of a search over every site of the
    state and of its inversion.
    """
    start = _Coded.encode(word)
    states = [tuple(start.codes)]
    admitted = {states[0], _key(states[0])}
    truncated = False
    for state in states:  # the list grows as the search admits states
        for neighbor in _orbit_neighbors(list(state)):
            codes = tuple(neighbor)
            if codes in admitted:
                continue
            if max_length is not None and len(codes) > max_length:
                continue
            key = _key(codes)
            if key in admitted:
                continue
            if max_states is not None and len(states) >= max_states:
                truncated = True
                break
            admitted.update((codes, key))
            states.append(codes)
        if truncated:
            break
    members = [_Coded(codes, start.names, start.letters).decode() for codes in states[1:]]
    return Orbit(frozenset([word, *members]), truncated)
