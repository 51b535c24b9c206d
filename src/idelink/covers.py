"""Cyclic covers of S^3 branched over the braid axis.

The n-fold cyclic cover of S^3 branched over an unknotted axis is S^3
again, and the preimage of a closed braid is the closure of the n-th
power of the word.  That makes every piece of covering data exactly
computable:

* the character sends mu_axis to 1 in Z/n, so a component with winding
  w has character values (a, b) = (0, w mod n) and the axis has (1, 0);
* per base component, e = order of a (meridian covering degree),
  d = order of the subgroup <a, b> (torus covering degree), w = d/e
  (longitude covering degree), r = n/d (number of lifted components);
* a lifted meridian maps to e mu; a lifted preferred longitude maps to
  c mu + w lambda, where c = e * (sum of upstairs linking numbers of the
  lift with the other lifts in its fiber) is pinned down by requiring
  the boundary data of lifted surfaces to push forward to the boundary
  data of their image surfaces;
* the deck rotation advances one braid block, sending the lift through
  strand s to the lift through sigma(s).

Also included: the classical homology-order formula for cyclic branched
covers over a knot with a given Seifert matrix, taken as one integer
determinant, used to certify that chosen covers are integral homology
spheres.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from math import gcd

from ._record import Record
from .links import (
    BraidWord, LinkUniverse, _check_permutation, _cover_closures, relabeled_universe
)
from .zlattice import IntMatrix, SubLattice, _check_kind, _span


def _check_degree(degree: int) -> None:
    """Reject a cover degree that is not a plain int >= 1."""
    if type(degree) is not int:
        raise ValueError(f"cover degree {degree!r} is not a plain int")
    if degree < 1:
        raise ValueError("cover degree must be >= 1")


def _is_int_pair(x) -> bool:
    """True iff ``x`` is a tuple of two plain ints."""
    return type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is int


class SplitRecord(Record):
    """Covering arithmetic of one base component.

    a, b are the character values on the meridian and longitude; e is
    the meridian covering degree (order of a in Z/n), d = e*w the torus
    covering degree, w the longitude covering degree, and r = n/d the
    number of components lying over this one.  The constructor checks
    that every field is a plain int, e, d, w and r are >= 1, and d = e*w.
    """

    __slots__ = _fields = ("a", "b", "e", "d", "w", "r")

    def __init__(self, a: int, b: int, e: int, d: int, w: int, r: int):
        values = (a, b, e, d, w, r)
        for name, x in zip(self._fields, values):
            if type(x) is not int:
                raise ValueError(f"split record {name} must be a plain int, got {type(x).__name__}")
        if min(e, d, w, r) < 1:
            raise ValueError(f"split record e={e}, d={d}, w={w}, r={r} must all be >= 1")
        if d != e * w:
            raise ValueError(f"split record d={d} is not e*w = {e * w}")
        for name, x in zip(self._fields, values):
            object.__setattr__(self, name, x)


class CoverData(Record):
    """The degree-n cyclic cover of ``base`` branched over its axis.

    The character sends the axis meridian to 1 in Z/n, so the cover is
    connected; degree 1 is the identity cover, admitted as a degenerate
    test case.  ``total`` is the upstairs universe; ``fiber_map[j]`` is
    the base component under upstairs component j; ``splitting[k]`` is
    the ``SplitRecord`` of base component k; ``pushforward[j]`` is the
    2x2 matrix ((e, c), (0, w)) of plain ints, rows first, sending
    (mu_J, lambda_J) coefficient pairs to base (mu, lambda) pairs; and
    ``deck[j]`` is the deck rotation on upstairs components.

    Constructing a cover checks every field: the degree is a plain int
    >= 1, ``base`` and ``total`` are universes with a branch axis, which
    the checks read, ``splitting`` holds one ``SplitRecord`` per base
    component, and ``fiber_map``, ``pushforward`` and ``deck`` are tuples
    with one entry per upstairs component: base components, pairs of
    plain-int pairs, and a permutation.  It then pushes the upstairs
    principal generators down in one ``_pushed_rows`` pass (``_pushed``,
    entry j the image of generator j), for the checks and
    ``principal_pushforward`` to read.
    ``lift_braid`` knows its covers are valid and builds them through
    ``CoverData._trusted`` with the same pass: ``tests/test_covers.py``
    rebuilds the lift of every word with <= 3 strands and length <= 4,
    and of every ``wide4`` word, at every degree 1-12 through
    ``CoverData(...)`` and compares, ``_pushed`` included.
    """

    __slots__ = (
        "degree", "base", "total", "fiber_map", "splitting", "pushforward", "deck", "_pushed"
    )
    _fields = ("degree", "base", "total", "fiber_map", "splitting", "pushforward", "deck")

    def __init__(
        self,
        degree: int,
        base: LinkUniverse,
        total: LinkUniverse,
        fiber_map: tuple[int, ...],
        splitting: tuple[SplitRecord, ...],
        pushforward: tuple[tuple[tuple[int, int], tuple[int, int]], ...],
        deck: tuple[int, ...],
    ):
        _check_degree(degree)
        for what, u in (("base universe", base), ("upstairs universe", total)):
            _check_kind(what, u, LinkUniverse)
            if u.axis_index is None:
                raise ValueError(f"{what} has no branch axis")
        for what, entries, size in (
            ("splitting", splitting, base.size),
            ("fiber map", fiber_map, total.size),
            ("pushforward", pushforward, total.size),
            ("deck", deck, total.size),
        ):
            _check_kind(what, entries, tuple)
            if len(entries) != size:
                raise ValueError(f"{what} length {len(entries)} does not match {size} components")
        for rec in splitting:
            _check_kind("split record", rec, SplitRecord)
        for k in fiber_map:
            if type(k) is not int:
                raise ValueError(f"fiber map entry must be a plain int, got {type(k).__name__}")
            if not 0 <= k < base.size:
                raise ValueError(f"fiber map entry {k} is not a base component 0..{base.size - 1}")
        for pair in pushforward:
            if not (type(pair) is tuple and len(pair) == 2 and all(map(_is_int_pair, pair))):
                raise ValueError(f"pushforward entry must be a pair of int pairs, got {pair!r}")
        _check_permutation("deck", deck)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "fiber_map", fiber_map)
        object.__setattr__(self, "splitting", splitting)
        object.__setattr__(self, "pushforward", pushforward)
        object.__setattr__(self, "deck", deck)
        object.__setattr__(
            self, "_pushed", _pushed_rows(fiber_map, pushforward, base.size, total._generators)
        )


@functools.lru_cache(maxsize=512)
def _splitting(degree: int, windings: tuple[int, ...]) -> tuple[tuple[SplitRecord, ...], tuple]:
    """Splitting data of a braid universe's components, and the pairs of their single lifts.

    ``windings`` is the universe's axis row, axis slot 0: the degree-n
    character takes the values (1, 0) on the axis and (0, w mod n) on a
    component of winding w.  Returns each component's ``SplitRecord``
    and, when it has a single lift (r = 1), that lift's pushforward
    pair ((e, 0), (0, w)), else None.  Both depend on n and the windings
    alone, so the lift reads them in one lookup; the CLI's 33
    permutations of 1 to 4 strands have 15 winding rows, so its 12
    degrees make 180 keys.  Unchecked: ``lift_braid`` checks the degree.
    """
    records = []
    for k, winding in enumerate(windings):
        a, b = (1 % degree, 0) if k == 0 else (0, winding % degree)
        e = degree // gcd(a, degree)
        d = degree // gcd(gcd(a, b), degree)
        records.append(SplitRecord._trusted(a, b, e, d, d // e, degree // d))
    singles = tuple([((rec.e, 0), (0, rec.w)) if rec.r == 1 else None for rec in records])
    return tuple(records), singles


def lift_braid(b: BraidWord, degree: int) -> CoverData:
    """Lift the universe of ``b`` through the degree-n cover branched over its axis.

    The upstairs universe is the closure of the n-th power of the word
    together with the lifted axis; fibers, splitting data, pushforward
    matrices, and the deck rotation all come along.  The word is walked
    once, for its permutation sigma and its crossings; the labels,
    windings, word-repeat blocks, fiber map and deck come from the
    (sigma, n) skeleton table, and only the linking rows are counted
    from the crossings (``links._cover_closures``).  The degree is
    checked once, before anything is built.  ``splitting`` and the
    pushforward pair of every single lift are one lookup in the
    (n, base windings) table (``_splitting``); only a lift with others
    in its fiber (r > 1) sums its linking row over that fiber for c.
    Every field is valid by construction, so the cover is built through
    ``CoverData._trusted``, its generators pushed in one
    ``_pushed_rows`` pass as the constructor would.
    """
    _check_kind("braid", b, BraidWord)
    _check_degree(degree)
    base, total, fiber_map, deck = _cover_closures(b, degree)
    splitting, singles = _splitting(degree, base.windings)

    # A single lift's c is the zero diagonal: its pair comes from the table.
    pushforward = []
    for row, k in zip(total.linking.entries, fiber_map):
        pair = singles[k]
        if pair is None:
            rec = splitting[k]
            c = rec.e * sum([x for x, k2 in zip(row, fiber_map) if k2 == k])
            pair = ((rec.e, c), (0, rec.w))
        pushforward.append(pair)
    pushforward = tuple(pushforward)

    pushed = _pushed_rows(fiber_map, pushforward, base.size, total._generators)
    return CoverData._trusted(degree, base, total, fiber_map, splitting, pushforward, deck, pushed)


def pushforward_matrix(c: CoverData) -> IntMatrix:
    """Full pushforward on idele coordinates, a 2m x 2m' integer matrix."""
    _check_kind("cover", c, CoverData)
    m = c.base.size
    mp = c.total.size
    rows = [[0] * (2 * mp) for _ in range(2 * m)]
    for j in range(mp):
        k = c.fiber_map[j]
        rows[2 * k][2 * j : 2 * j + 2] = c.pushforward[j][0]
        rows[2 * k + 1][2 * j : 2 * j + 2] = c.pushforward[j][1]
    return IntMatrix(rows, cols=2 * mp)


def _pushed_rows(
    fiber_map: tuple[int, ...],
    pushforward: tuple[tuple[tuple[int, int], tuple[int, int]], ...],
    base_size: int,
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Push raw upstairs (mu, lambda) coefficient rows down, slot by slot, unchecked.

    The one push formula: each upstairs slot J adds its pushforward
    pair's image to the slot of its base component ``fiber_map[J]``.
    A cover's generators are pushed in one call when it is built.
    """
    slots = [(2 * k, a, b, c_j, d) for k, ((a, b), (c_j, d)) in zip(fiber_map, pushforward)]
    out = []
    for coeffs in rows:
        image = [0] * (2 * base_size)
        pairs = iter(coeffs)  # zipped twice: each slot takes its (mu, lambda) in turn
        for (i, a, b, c_j, d), mu, lam in zip(slots, pairs, pairs):
            image[i] += a * mu + b * lam
            image[i + 1] += c_j * mu + d * lam
        out.append(tuple(image))
    return tuple(out)


def _pushforward_coeffs(c: CoverData, coeffs: Sequence[int]) -> tuple[int, ...]:
    """One upstairs coefficient row of ``c`` pushed down by ``_pushed_rows``, unchecked."""
    return _pushed_rows(c.fiber_map, c.pushforward, c.base.size, (coeffs,))[0]


def pushforward_image(c: CoverData) -> SubLattice:
    """Image of the whole upstairs idele group downstairs."""
    return SubLattice.from_matrix(pushforward_matrix(c))


def deck_matrix(c: CoverData) -> IntMatrix:
    """The deck rotation as a permutation matrix on idele coordinates."""
    _check_kind("cover", c, CoverData)
    mp = c.total.size
    rows = [[0] * (2 * mp) for _ in range(2 * mp)]
    for j in range(mp):
        t = c.deck[j]
        rows[2 * t][2 * j] = 1
        rows[2 * t + 1][2 * j + 1] = 1
    return IntMatrix(rows, cols=2 * mp)


def principal_pushforward(c: CoverData) -> SubLattice:
    """Pushforward of the upstairs principal lattice: the span of the pushed generators."""
    _check_kind("cover", c, CoverData)
    return _span(2 * c.base.size, c._pushed)


def relabeled_cover(
    c: CoverData, base_order: tuple[int, ...], top_order: tuple[int, ...]
) -> CoverData:
    """The same cover with both universes enumerated in new orders.

    ``base_order[i]``/``top_order[i]`` give the old index of new
    component ``i``; all covering bookkeeping is transported along.
    Verdicts must not depend on this relabeling.
    """
    _check_kind("cover", c, CoverData)
    base = relabeled_universe(c.base, base_order)
    total = relabeled_universe(c.total, top_order)
    base_inv = [0] * len(base_order)
    for new, old in enumerate(base_order):
        base_inv[old] = new
    top_inv = [0] * len(top_order)
    for new, old in enumerate(top_order):
        top_inv[old] = new
    fiber_map = tuple(base_inv[c.fiber_map[top_order[j]]] for j in range(len(top_order)))
    deck = tuple(top_inv[c.deck[top_order[j]]] for j in range(len(top_order)))
    pushforward = tuple(c.pushforward[top_order[j]] for j in range(len(top_order)))
    return CoverData(
        degree=c.degree,
        base=base,
        total=total,
        fiber_map=fiber_map,
        splitting=tuple(c.splitting[k] for k in base_order),
        pushforward=pushforward,
        deck=deck,
    )


def branched_cover_order(seifert: IntMatrix, n: int) -> int:
    """First-homology order of the n-fold cyclic branched cover of a knot.

    From a k x k Seifert matrix V the order is |prod det(V - zeta V^T)|
    over the n-th roots of unity zeta != 1.  Those are the distinct
    eigenvalues of C, the companion matrix of 1 + t + ... + t^(n-1), so
    diagonalising C turns V (x) I - V^T (x) C into the blocks
    V - zeta V^T and the order is one integer determinant,
    |det(V (x) I - V^T (x) C)|.  A zero signals infinite homology and is
    returned as 0 so callers can filter for integral homology spheres
    (order 1).  For n = 1 the product is empty: the order is 1, or 0
    when det(V - t V^T) vanishes identically, which a polynomial of
    degree <= k shows by its values at t = 0..k.
    """
    _check_kind("Seifert matrix", seifert, IntMatrix)
    if seifert.rows != seifert.cols:
        raise ValueError("Seifert matrix must be square")
    _check_degree(n)
    k = seifert.rows
    v = seifert.entries
    if n == 1:
        return int(any(
            IntMatrix([[v[i][j] - t * v[j][i] for j in range(k)] for i in range(k)], cols=k).det()
            for t in range(k + 1)
        ))
    m = n - 1
    # Ones below the diagonal, and minus the (all-one) coefficients in the last column.
    comp = [[(b == a - 1) - (b == m - 1) for b in range(m)] for a in range(m)]
    rows = [
        [v[i][j] * (a == b) - v[j][i] * comp[a][b] for j in range(k) for b in range(m)]
        for i in range(k)
        for a in range(m)
    ]
    return abs(IntMatrix(rows, cols=k * m).det())
