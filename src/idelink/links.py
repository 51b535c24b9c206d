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

import functools
from collections.abc import Sequence

from ._record import Record
from .zlattice import IntMatrix, _check_kind


class BraidWord(Record):
    """A word in the braid group on ``strands`` strands."""

    __slots__ = _fields = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...]):
        if type(strands) is not int:
            raise ValueError(f"strand count {strands!r} is not a plain int")
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        letters = tuple(letters)
        for g in letters:
            if type(g) is not int or g == 0 or abs(g) > strands - 1:
                raise ValueError(
                    f"letter {g!r} is not a generator index for {strands} strands"
                )
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)


def _braid_walk(
    strands: int, letters: tuple[int, ...]
) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """One pass over a word: its permutation and its crossings in order.

    Strands are named by their starting positions.  Letter ``±i``
    crosses the strands then at positions i-1 and i; it is recorded as
    (strand at i-1, strand at i, ±1).
    """
    at = list(range(strands))  # at[p] = strand currently at position p
    crossings = []
    for g in letters:
        i = abs(g) - 1
        s, t = at[i], at[i + 1]
        at[i], at[i + 1] = t, s
        crossings.append((s, t, 1 if g > 0 else -1))
    perm = [0] * strands
    for p, s in enumerate(at):
        perm[s] = p
    return tuple(perm), crossings


def _check_permutation(what: str, perm, n: int | None = None) -> None:
    """Reject a ``what`` that is not a sequence ordering 0..n-1; n is its length by default."""
    _check_kind(what, perm, Sequence)
    n = len(perm) if n is None else n
    if any(type(x) is not int for x in perm) or sorted(perm) != list(range(n)):
        raise ValueError(f"{what} {tuple(perm)!r} is not a permutation of 0..{n - 1}")


def _permutation_cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a known permutation of 0..n-1, ordered by smallest element, each started there."""
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


def _strand_components(cycles: tuple[tuple[int, ...], ...], strands: int) -> tuple[int, ...]:
    """Entry s is the index of the cycle through strand s."""
    comp = [0] * strands
    for c, cycle in enumerate(cycles):
        for s in cycle:
            comp[s] = c
    return tuple(comp)


def _crossing_rows(
    crossings: list[tuple[int, int, int]],
    blocks: Sequence[Sequence[int]],
    size: int,
    repeats: int = 1,
) -> list[tuple[int, ...]]:
    """Linking rows of ``size`` closure components, from a word's crossings.

    The closed braid repeats the word once per block, and the blocks
    given are repeated ``repeats`` times.  Entry s of a block is the
    component of the strand that starts that repeat at position s.  Each
    crossing between two components adds its sign to both their
    entries; the totals, times ``repeats``, are halved.
    """
    counts = [[0] * size for _ in range(size)]
    for comp in blocks:
        for s, t, sign in crossings:
            c1, c2 = comp[s], comp[t]
            if c1 != c2:
                counts[c1][c2] += sign
                counts[c2][c1] += sign
    return [tuple([x * repeats // 2 for x in row]) for row in counts]


class LinkUniverse(Record):
    """A finite ordered family of oriented knots with exact linking data.

    ``labels`` are distinct strings and ``linking`` is an ``IntMatrix``,
    symmetric with zero diagonal.  When ``axis_index`` (a plain int) is
    set, component ``axis_index`` is the braid axis and ``windings``,
    the axis row of the linking matrix, gives each component's winding
    about it (axis slot 0).

    Constructing a universe checks all of this, then builds its m
    principal generators from the linking rows (``_generators``, read
    in place by the checks and copied out by
    ``ideles.principal_generators``; a sublink's boundary is a row read
    on the sublink's slots).  Universes the package builds from a braid
    word are well formed by construction and come from
    ``LinkUniverse._trusted``, which checks nothing: ``tests/test_links.py``
    rebuilds every lifted universe of the acceptance sweep and ``wide4``
    through ``LinkUniverse(...)`` and compares.
    """

    __slots__ = ("labels", "linking", "axis_index", "_generators")
    _fields = ("labels", "linking", "axis_index")

    def __init__(
        self, labels: tuple[str, ...], linking: IntMatrix, axis_index: int | None = None
    ):
        labels = tuple(labels)
        m = len(labels)
        for name in labels:
            if not isinstance(name, str):
                raise ValueError(f"component label {name!r} is not a string")
        if len(set(labels)) != m:
            raise ValueError("component labels must be distinct")
        if not isinstance(linking, IntMatrix):
            raise ValueError(f"linking {linking!r} is not an IntMatrix")
        if linking.shape != (m, m):
            raise ValueError("linking matrix shape does not match components")
        for i in range(m):
            if linking.entries[i][i]:
                raise ValueError("linking matrix must have zero diagonal")
            for j in range(i):
                if linking.entries[i][j] != linking.entries[j][i]:
                    raise ValueError("linking matrix must be symmetric")
        if axis_index is not None:
            if type(axis_index) is not int:
                raise ValueError(f"axis index {axis_index!r} is not a plain int")
            if not 0 <= axis_index < m:
                raise ValueError("axis index out of range")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "linking", linking)
        object.__setattr__(self, "axis_index", axis_index)
        object.__setattr__(self, "_generators", _principal_rows(linking.entries))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def windings(self) -> tuple[int, ...] | None:
        """Each component's winding about the axis, axis slot 0; None without an axis."""
        return None if self.axis_index is None else self.linking.entries[self.axis_index]

    def non_axis(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if i != self.axis_index)


def _principal_rows(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Boundary coefficients of each component's surface punctured by all the others.

    Entry k has lambda_K = 1 on its own slot and -lk(K, K') on the
    meridian of every other slot, flattened meridian-first as in
    ``ideles``; the zero diagonal leaves mu_K at 0.  Rows are built only
    here; ``hasse.verify_projection_compatibility`` compares each stored
    row with the same sign convention, read off the linking matrix.
    """
    gens = []
    for k, row in enumerate(rows):
        coeffs = [0] * (2 * len(row))
        coeffs[0::2] = [-x for x in row]
        coeffs[2 * k + 1] = 1
        gens.append(tuple(coeffs))
    return tuple(gens)


def universe_from_braid(b: BraidWord) -> LinkUniverse:
    """Universe of the braid closure plus its axis (axis "A" listed first, then "K1", ...).

    Closure components are ordered by smallest strand index; the axis
    links each with its winding number (cycle length), and the closure
    components link each other via the braid's crossing signs.
    """
    _check_kind("braid", b, BraidWord)
    perm, crossings = _braid_walk(b.strands, b.letters)
    labels, windings, comp = _cover_skeleton(perm, 1)[:3]
    rows = _crossing_rows(crossings, (comp,), len(labels) - 1)
    return _closure_universe(labels, windings, rows)


def _closure_universe(
    labels: tuple[str, ...],
    windings: tuple[int, ...],
    closure_rows: list[tuple[int, ...]],
) -> LinkUniverse:
    """The universe of a closed braid, axis first, from its skeleton data and linking rows.

    ``windings`` is the axis row (axis slot 0, then each closure
    component's cycle length) and becomes the universe's own.  The rows
    are ints, symmetric, with zero diagonal, and the labels are distinct
    strings, so the universe, its linking matrix and its principal
    generator rows are built unchecked.
    """
    rows = (windings,) + tuple([(w,) + row for w, row in zip(windings[1:], closure_rows)])
    linking = IntMatrix._trusted(len(rows), len(rows), rows)
    return LinkUniverse._trusted(labels, linking, 0, _principal_rows(rows))


def _closure_labels(axis_label: str, component_prefix: str, size: int) -> tuple[str, ...]:
    """The axis label, then the prefix numbered 1..size."""
    return (axis_label,) + tuple([f"{component_prefix}{c}" for c in range(1, size + 1)])


@functools.lru_cache(maxsize=512)
def _cover_skeleton(sigma: tuple[int, ...], n: int) -> tuple[tuple, ...]:
    """Everything of the n-fold cover of a closed braid that sigma and n alone fix.

    Returns, all tuples, since every cover with this (sigma, n) shares
    them: the base universe's labels, its windings (the axis row of its
    linking matrix) and the cycle through each strand; the cover's
    labels, its windings and the power's word-repeat blocks over one
    period; then the fiber map and the deck rotation.  The table holds
    512 entries: the CLI admits 33 permutations (1 to 4 strands) and 12
    degrees, 396 keys.

    Closure component c + 1 is cycle c of sigma (of sigma^n upstairs),
    and the axis, component 0, links it with the cycle's length.  The
    n-th power repeats the word n times.  Block t, the components of the
    strands starting repeat t, is block 0 moved t steps along sigma, and
    block n is block 0 again, since sigma^n keeps each strand on its
    cycle of the power.  So the blocks are one orbit under that move,
    repeating with a period p that divides n: only blocks 0..p-1 are
    built.  Both maps fix the axis: the fiber map sends each cycle of
    the power to the base cycle of its first strand, and the deck sends
    it to the cycle of the power through sigma of that strand.
    """
    strands = len(sigma)
    cycles = _permutation_cycles(sigma)
    comp = _strand_components(cycles, strands)
    # sigma^n moves each strand n steps along its cycle.
    power = [0] * strands
    for cycle in cycles:
        for i, s in enumerate(cycle):
            power[s] = cycle[(i + n) % len(cycle)]
    top_cycles = _permutation_cycles(power)
    top_comp = _strand_components(top_cycles, strands)
    # Repeat t of the word starts with strand sigma^-t(s) at position s,
    # so its block is the previous one moved along sigma, until the
    # blocks come back to block 0.
    blocks = [top_comp]
    while len(blocks) < n:
        block = [0] * strands
        for c, p in zip(blocks[-1], sigma):
            block[p] = c
        block = tuple(block)
        if block == top_comp:
            break
        blocks.append(block)
    fiber_map = (0,) + tuple([comp[cycle[0]] + 1 for cycle in top_cycles])
    deck = (0,) + tuple([top_comp[sigma[cycle[0]]] + 1 for cycle in top_cycles])
    return (
        _closure_labels("A", "K", len(cycles)),
        (0,) + tuple([len(cycle) for cycle in cycles]),
        comp,
        _closure_labels("A~", "J", len(top_cycles)),
        (0,) + tuple([len(cycle) for cycle in top_cycles]),
        tuple(blocks),
        fiber_map,
        deck,
    )


def _cover_closures(
    b: BraidWord, n: int
) -> tuple[LinkUniverse, LinkUniverse, tuple[int, ...], tuple[int, ...]]:
    """The closures of ``b`` and of its n-th power, each with its axis, from one walk of ``b``.

    Returns the base universe (axis "A", components "K1", ...), the
    universe of the power (axis "A~", components "J1", ...), the fiber
    map sending each component of the power to the base component below
    it, and the deck rotation sending the lift through strand s to the
    lift through sigma(s).  n is a plain int >= 1.

    Only the linking rows need the word: the walk gives sigma and the
    crossings, and everything else, labels and windings included, is
    ``_cover_skeleton(sigma, n)``, shared by every word with that
    permutation.  The power's crossings are counted over the skeleton's
    p word-repeat blocks, n/p times.
    """
    sigma, crossings = _braid_walk(b.strands, b.letters)
    labels, windings, comp, top_labels, top_windings, blocks, fiber_map, deck = (
        _cover_skeleton(sigma, n)
    )
    base_rows = _crossing_rows(crossings, (comp,), len(labels) - 1)
    base = _closure_universe(labels, windings, base_rows)
    top_rows = _crossing_rows(crossings, blocks, len(top_labels) - 1, n // len(blocks))
    total = _closure_universe(top_labels, top_windings, top_rows)
    return base, total, fiber_map, deck


def relabeled_universe(u: LinkUniverse, order: tuple[int, ...]) -> LinkUniverse:
    """The same universe with components enumerated in a new order.

    ``order[i]`` names the old index of the new component ``i``.  Used
    to confirm that every verdict is independent of enumeration order.
    """
    _check_kind("universe", u, LinkUniverse)
    m = u.size
    _check_permutation("order", order, m)
    rows = [[u.linking.entries[order[i]][order[j]] for j in range(m)] for i in range(m)]
    axis = None if u.axis_index is None else order.index(u.axis_index)
    return LinkUniverse(
        labels=tuple(u.labels[order[i]] for i in range(m)),
        linking=IntMatrix(rows, cols=m),
        axis_index=axis,
    )
