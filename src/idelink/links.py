"""Braid words, closure components, and exact linking data in S^3.

A link universe here is always a closed braid together with its axis:
the braid axis is the distinguished unknot every strand winds around,
components of the closure are the cycles of the braid permutation, and
all linking numbers come from signed crossing counts in the braid word.
Orientations are fixed once and for all: closure components follow the
braid direction and the axis is oriented so that lk(axis, C) equals the
(positive) winding number of C, i.e. its cycle length.

Strand positions are 0-based throughout; braid letters keep the usual
1-based convention where letter ``i`` is the positive half-twist of the
strands at positions ``i-1`` and ``i`` and ``-i`` is its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .zlattice import IntMatrix


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if type(self.strands) is not int:
            raise ValueError(f"strand count {self.strands!r} is not a plain int")
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if type(g) is not int or g == 0 or abs(g) > self.strands - 1:
                raise ValueError(
                    f"letter {g!r} is not a generator index for {self.strands} strands"
                )

    def __len__(self):
        return len(self.letters)


def braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """Permutation sending each starting position to its final position."""
    k = b.strands
    at = list(range(k))  # at[p] = strand currently at position p
    for g in b.letters:
        i = abs(g) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    perm = [0] * k
    for p, s in enumerate(at):
        perm[s] = p
    return tuple(perm)


def permutation_cycles(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a permutation, ordered by smallest element, each started there."""
    seen = [False] * len(perm)
    cycles = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cycle = []
        t = s
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = perm[t]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def braid_components(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Strand cycles of the closure; one cycle per closed-braid component."""
    return permutation_cycles(braid_permutation(b))


def braid_linking_matrix(b: BraidWord) -> IntMatrix:
    """Pairwise linking numbers of the closure components.

    Entry (C, C') is half the signed count of crossings between a strand
    of C and a strand of C'; crossings within one component do not
    contribute.  The diagonal is zero.  Two closed components cross an
    even number of times, so the halving is exact.
    """
    cycles = braid_components(b)
    return IntMatrix(_linking_rows(b, cycles), cols=len(cycles))


def _linking_rows(b: BraidWord, cycles: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """``braid_linking_matrix`` as rows of ints, given the closure's cycles."""
    comp_of = [0] * b.strands
    for c, cycle in enumerate(cycles):
        for s in cycle:
            comp_of[s] = c
    n = len(cycles)
    counts = [[0] * n for _ in range(n)]
    at = list(range(b.strands))
    for g in b.letters:
        i = abs(g) - 1
        s1, s2 = at[i], at[i + 1]
        c1, c2 = comp_of[s1], comp_of[s2]
        if c1 != c2:
            sign = 1 if g > 0 else -1
            counts[c1][c2] += sign
            counts[c2][c1] += sign
        at[i], at[i + 1] = at[i + 1], at[i]
    return [[x // 2 for x in row] for row in counts]


def braid_power(b: BraidWord, n: int) -> BraidWord:
    """The word repeated n times on the same strands (n a plain int >= 1)."""
    if type(n) is not int:
        raise ValueError(f"braid power {n!r} is not a plain int")
    if n < 1:
        raise ValueError("braid power requires n >= 1")
    return BraidWord(b.strands, b.letters * n)


@dataclass(frozen=True)
class LinkUniverse:
    """A finite ordered family of oriented knots with exact linking data.

    ``linking`` is symmetric with zero diagonal.  When ``axis_index`` is
    set, component ``axis_index`` is the braid axis and ``windings``
    records each component's winding about it (axis slot 0), matching
    the axis row of the linking matrix.
    """

    labels: tuple[str, ...]
    linking: IntMatrix
    axis_index: int | None = None
    windings: tuple[int, ...] | None = None

    def __post_init__(self):
        m = len(self.labels)
        if self.linking.shape != (m, m):
            raise ValueError("linking matrix shape does not match components")
        for i in range(m):
            if self.linking.entries[i][i]:
                raise ValueError("linking matrix must have zero diagonal")
            for j in range(i):
                if self.linking.entries[i][j] != self.linking.entries[j][i]:
                    raise ValueError("linking matrix must be symmetric")
        if (self.axis_index is None) != (self.windings is None):
            raise ValueError("windings are present exactly when an axis is")
        if self.axis_index is not None:
            a = self.axis_index
            if not 0 <= a < m:
                raise ValueError("axis index out of range")
            if len(self.windings) != m:
                raise ValueError("windings length does not match components")
            for i in range(m):
                if i != a and self.linking.entries[a][i] != self.windings[i]:
                    raise ValueError("axis linking must equal winding numbers")
            if self.windings[a] != 0:
                raise ValueError("axis winding slot must be zero")

    @property
    def size(self) -> int:
        return len(self.labels)

    def lk(self, i: int, j: int) -> int:
        return self.linking.entries[i][j]

    def non_axis(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if i != self.axis_index)


def universe_from_braid(
    b: BraidWord, *, axis_label: str = "A", component_prefix: str = "K"
) -> LinkUniverse:
    """Universe of the braid closure plus its axis (axis listed first).

    Closure components are ordered by smallest strand index; the axis
    links each with its winding number (cycle length), and the closure
    components link each other via the braid's crossing signs.
    """
    return _universe_and_cycles(b, axis_label, component_prefix)[0]


def _universe_and_cycles(
    b: BraidWord, axis_label: str = "A", component_prefix: str = "K"
) -> tuple[LinkUniverse, tuple[tuple[int, ...], ...]]:
    """``universe_from_braid`` with the closure's strand cycles it was built from.

    Closure component c + 1 of the universe is cycle c.
    """
    cycles = braid_components(b)
    closure_lk = _linking_rows(b, cycles)
    m = len(cycles) + 1
    rows = [[0] * m for _ in range(m)]
    windings = [0] * m
    for c, cycle in enumerate(cycles):
        w = len(cycle)
        windings[c + 1] = w
        rows[0][c + 1] = w
        rows[c + 1][0] = w
        rows[c + 1][1:] = closure_lk[c]
    labels = (axis_label,) + tuple(
        f"{component_prefix}{c + 1}" for c in range(len(cycles))
    )
    universe = LinkUniverse(
        labels=labels,
        linking=IntMatrix(rows, cols=m),
        axis_index=0,
        windings=tuple(windings),
    )
    return universe, cycles


def relabeled_universe(u: LinkUniverse, order: tuple[int, ...]) -> LinkUniverse:
    """The same universe with components enumerated in a new order.

    ``order[i]`` names the old index of the new component ``i``.  Used
    to confirm that every verdict is independent of enumeration order.
    """
    m = u.size
    if sorted(order) != list(range(m)):
        raise ValueError("order must be a permutation of the component indices")
    rows = [[u.linking.entries[order[i]][order[j]] for j in range(m)] for i in range(m)]
    axis = None if u.axis_index is None else order.index(u.axis_index)
    windings = None if u.windings is None else tuple(u.windings[order[i]] for i in range(m))
    return LinkUniverse(
        labels=tuple(u.labels[order[i]] for i in range(m)),
        linking=IntMatrix(rows, cols=m),
        axis_index=axis,
        windings=windings,
    )
