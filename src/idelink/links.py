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

from dataclasses import dataclass, field

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
    return IntMatrix(_linking_rows(b.strands, b.letters, cycles), cols=len(cycles))


def _linking_rows(
    strands: int, letters: tuple[int, ...], cycles: tuple[tuple[int, ...], ...]
) -> list[tuple[int, ...]]:
    """``braid_linking_matrix`` as rows of ints, given the word and its closure's cycles."""
    # comp_at[p] is the component of the strand at position p; position p
    # starts with strand p, and a crossing within one component moves nothing.
    comp_at = [0] * strands
    for c, cycle in enumerate(cycles):
        for s in cycle:
            comp_at[s] = c
    n = len(cycles)
    counts = [[0] * n for _ in range(n)]
    for g in letters:
        i = abs(g) - 1
        c1, c2 = comp_at[i], comp_at[i + 1]
        if c1 != c2:
            sign = 1 if g > 0 else -1
            counts[c1][c2] += sign
            counts[c2][c1] += sign
            comp_at[i], comp_at[i + 1] = c2, c1
    return [tuple(x // 2 for x in row) for row in counts]


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

    Constructing a universe checks all of this, then builds its m
    principal generators from the linking rows (``_generators``, read
    through ``ideles.principal_generators``).  Universes the package
    builds from a braid word are symmetric, integral and axis-consistent
    by construction and come from ``_trusted``, which skips the checks.
    """

    labels: tuple[str, ...]
    linking: IntMatrix
    axis_index: int | None = None
    windings: tuple[int, ...] | None = None
    _generators: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "_generators", _principal_rows(self.linking.entries))

    @classmethod
    def _trusted(
        cls,
        labels: tuple[str, ...],
        linking: IntMatrix,
        axis_index: int | None,
        windings: tuple[int, ...] | None,
    ) -> "LinkUniverse":
        """A universe from package-built data that meets every check of ``__post_init__``.

        Nothing is re-checked; ``tests/test_links.py`` rebuilds every
        lifted universe of the acceptance sweep and ``wide4`` through
        ``LinkUniverse(...)`` and compares.
        """
        u = object.__new__(cls)
        object.__setattr__(u, "labels", labels)
        object.__setattr__(u, "linking", linking)
        object.__setattr__(u, "axis_index", axis_index)
        object.__setattr__(u, "windings", windings)
        object.__setattr__(u, "_generators", _principal_rows(linking.entries))
        return u

    @property
    def size(self) -> int:
        return len(self.labels)

    def lk(self, i: int, j: int) -> int:
        return self.linking.entries[i][j]

    def non_axis(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if i != self.axis_index)


def _principal_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Boundary coefficients of each component's surface punctured by all the others.

    Entry k has lambda_K = 1 on its own slot and -lk(K, K') on the
    meridian of every other slot, flattened meridian-first as in
    ``ideles``; the zero diagonal leaves mu_K at 0.
    """
    gens = []
    for k, row in enumerate(rows):
        coeffs = [0] * (2 * len(row))
        coeffs[0::2] = [-x for x in row]
        coeffs[2 * k + 1] = 1
        gens.append(tuple(coeffs))
    return tuple(gens)


def universe_from_braid(
    b: BraidWord, *, axis_label: str = "A", component_prefix: str = "K"
) -> LinkUniverse:
    """Universe of the braid closure plus its axis (axis listed first).

    Closure components are ordered by smallest strand index; the axis
    links each with its winding number (cycle length), and the closure
    components link each other via the braid's crossing signs.
    """
    return _universe_and_cycles(b, 1, axis_label, component_prefix)[0]


def _universe_and_cycles(
    b: BraidWord, n: int = 1, axis_label: str = "A", component_prefix: str = "K"
) -> tuple[LinkUniverse, tuple[tuple[int, ...], ...]]:
    """``universe_from_braid`` of the n-th power of ``b``, with its strand cycles.

    n is a plain int >= 1.  The power's permutation is the word's
    permutation composed n times, so no word is built for the power.
    Closure component c + 1 of the universe is cycle c.  The rows are
    built from ints, symmetric, with zero diagonal and the windings as
    axis row, so the universe is built unchecked.
    """
    perm = braid_permutation(b)
    power = perm
    for _ in range(n - 1):
        power = tuple(perm[p] for p in power)
    cycles = permutation_cycles(power)
    windings = (0,) + tuple(len(cycle) for cycle in cycles)
    closure_lk = _linking_rows(b.strands, b.letters * n, cycles)
    rows = (windings,) + tuple((w,) + row for w, row in zip(windings[1:], closure_lk))
    labels = (axis_label,) + tuple(
        f"{component_prefix}{c + 1}" for c in range(len(cycles))
    )
    linking = IntMatrix._trusted(rows, len(rows))
    return LinkUniverse._trusted(labels, linking, 0, windings), cycles


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
