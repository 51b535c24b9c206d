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
covers over a knot with a given Seifert matrix, used to certify that
chosen covers are integral homology spheres.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .ideles import IdeleVector, SurfaceClass, principal_generators
from .links import (
    BraidWord,
    LinkUniverse,
    braid_permutation,
    braid_power,
    permutation_cycles,
    relabeled_universe,
    universe_from_braid,
)
from .zlattice import IntMatrix, SubLattice, _span


@dataclass(frozen=True)
class CoverSpec:
    """Degree-n cyclic cover of the base universe branched over its axis.

    The character sends the axis meridian to 1 in Z/n, so the cover is
    connected; degree 1 is the identity cover, admitted as a degenerate
    test case.
    """

    degree: int
    base: LinkUniverse

    def __post_init__(self):
        if type(self.degree) is not int:
            raise ValueError(f"cover degree {self.degree!r} is not a plain int")
        if self.degree < 1:
            raise ValueError("cover degree must be >= 1")
        if self.base.axis_index is None:
            raise ValueError("base universe has no branch axis")


@dataclass(frozen=True)
class SplitRecord:
    """Covering arithmetic of one base component.

    a, b are the character values on the meridian and longitude; e is
    the meridian covering degree (order of a in Z/n), d = e*w the torus
    covering degree, w the longitude covering degree, and r = n/d the
    number of components lying over this one.
    """

    a: int
    b: int
    e: int
    d: int
    w: int
    r: int


@dataclass(frozen=True)
class ComponentSplitting:
    degree: int
    records: tuple[SplitRecord, ...]


@dataclass(frozen=True)
class CoverData:
    """A lifted braid universe with its covering bookkeeping.

    ``fiber_map[j]`` is the base component under upstairs component j;
    ``pushforward[j]`` is the 2x2 matrix ((e, c), (0, w)) of plain ints,
    rows first, sending (mu_J, lambda_J) coefficient pairs to base
    (mu, lambda) pairs; and ``deck[j]`` is the deck rotation on upstairs
    components.
    """

    spec: CoverSpec
    total: LinkUniverse
    fiber_map: tuple[int, ...]
    splitting: ComponentSplitting
    pushforward: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    deck: tuple[int, ...]

    def fiber(self, k: int) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.fiber_map) if b == k)


def _split_record(n: int, a: int, b: int) -> SplitRecord:
    a %= n
    b %= n
    e = n // gcd(a, n)
    d = n // gcd(gcd(a, b), n)
    return SplitRecord(a=a, b=b, e=e, d=d, w=d // e, r=n // d)


def component_splitting(spec: CoverSpec) -> ComponentSplitting:
    """Splitting data of every base component under the axis character."""
    n = spec.degree
    base = spec.base
    records = []
    for k in range(base.size):
        if k == base.axis_index:
            records.append(_split_record(n, 1, 0))
        else:
            records.append(_split_record(n, 0, base.windings[k]))
    return ComponentSplitting(degree=n, records=tuple(records))


def lift_braid(b: BraidWord, degree: int) -> CoverData:
    """Lift the universe of ``b`` through the degree-n cover branched over its axis.

    The upstairs universe is the closure of the n-th power of the word
    together with the lifted axis; fibers, splitting data, pushforward
    matrices, and the deck rotation all come along.
    """
    spec = CoverSpec(degree=degree, base=universe_from_braid(b))
    total = universe_from_braid(
        braid_power(b, degree), axis_label="A~", component_prefix="J"
    )

    # The permutation of the n-th power is sigma^n: each strand advances
    # n steps along its base cycle.
    sigma = braid_permutation(b)
    base_cycles = permutation_cycles(sigma)
    sigma_n = [0] * b.strands
    for cycle in base_cycles:
        for i, s in enumerate(cycle):
            sigma_n[s] = cycle[(i + degree) % len(cycle)]
    top_cycles = permutation_cycles(tuple(sigma_n))
    base_comp_of = [0] * b.strands
    for c, cycle in enumerate(base_cycles):
        for s in cycle:
            base_comp_of[s] = c
    top_comp_of = [0] * b.strands
    for c, cycle in enumerate(top_cycles):
        for s in cycle:
            top_comp_of[s] = c

    # Component 0 is the axis in both universes; closure components are
    # offset by one.
    fiber_map = [0] * total.size
    for c, cycle in enumerate(top_cycles):
        fiber_map[c + 1] = base_comp_of[cycle[0]] + 1

    deck = [0] * total.size
    for c, cycle in enumerate(top_cycles):
        deck[c + 1] = top_comp_of[sigma[cycle[0]]] + 1

    splitting = component_splitting(spec)

    pushforward = []
    for j in range(total.size):
        k = fiber_map[j]
        rec = splitting.records[k]
        c = rec.e * sum(
            total.lk(j, j2)
            for j2 in range(total.size)
            if j2 != j and fiber_map[j2] == k
        )
        pushforward.append(((rec.e, c), (0, rec.w)))

    return CoverData(
        spec=spec,
        total=total,
        fiber_map=tuple(fiber_map),
        splitting=splitting,
        pushforward=tuple(pushforward),
        deck=tuple(deck),
    )


def pushforward_matrix(c: CoverData) -> IntMatrix:
    """Full pushforward on idele coordinates, a 2m x 2m' integer matrix."""
    m = c.spec.base.size
    mp = c.total.size
    rows = [[0] * (2 * mp) for _ in range(2 * m)]
    for j in range(mp):
        k = c.fiber_map[j]
        rows[2 * k][2 * j : 2 * j + 2] = c.pushforward[j][0]
        rows[2 * k + 1][2 * j : 2 * j + 2] = c.pushforward[j][1]
    return IntMatrix(rows, cols=2 * mp)


def pushforward_idele(c: CoverData, v: IdeleVector) -> IdeleVector:
    """Accumulate each upstairs slot into its base slot through f."""
    if v.components != tuple(range(c.total.size)):
        raise ValueError("vector is not indexed by the upstairs components")
    return IdeleVector(tuple(range(c.spec.base.size)), _pushforward_coeffs(c, v.coeffs))


def _pushforward_coeffs(c: CoverData, coeffs: Sequence[int]) -> tuple[int, ...]:
    """``pushforward_idele`` on raw upstairs coefficients, unchecked."""
    out = [0] * (2 * c.spec.base.size)
    for j in range(c.total.size):
        k = c.fiber_map[j]
        to_mu, to_lam = c.pushforward[j]
        mu_j = coeffs[2 * j]
        lam_j = coeffs[2 * j + 1]
        out[2 * k] += to_mu[0] * mu_j + to_mu[1] * lam_j
        out[2 * k + 1] += to_lam[0] * mu_j + to_lam[1] * lam_j
    return tuple(out)


def pushforward_image(c: CoverData) -> SubLattice:
    """Image of the whole upstairs idele group downstairs."""
    return SubLattice.from_matrix(pushforward_matrix(c))


def pushforward_surface(c: CoverData, s: SurfaceClass) -> SurfaceClass:
    """Image of an upstairs surface class: each lift contributes w copies."""
    for j in s.support:
        if not 0 <= j < c.total.size:
            raise ValueError("support does not lie in the upstairs universe")
    totals: dict[int, int] = {}
    for i, j in enumerate(s.support):
        k = c.fiber_map[j]
        w = c.splitting.records[k].w
        totals[k] = totals.get(k, 0) + w * s.coeffs[i]
    support = tuple(sorted(totals))
    return SurfaceClass(support, tuple(totals[k] for k in support))


def deck_matrix(c: CoverData) -> IntMatrix:
    """The deck rotation as a permutation matrix on idele coordinates."""
    mp = c.total.size
    rows = [[0] * (2 * mp) for _ in range(2 * mp)]
    for j in range(mp):
        t = c.deck[j]
        rows[2 * t][2 * j] = 1
        rows[2 * t + 1][2 * j + 1] = 1
    return IntMatrix(rows, cols=2 * mp)


def principal_pushforward(c: CoverData) -> SubLattice:
    """Pushforward of the upstairs principal lattice, generator by generator."""
    cols = [_pushforward_coeffs(c, g) for g in principal_generators(c.total)]
    return _span(2 * c.spec.base.size, cols)


def relabeled_cover(
    c: CoverData, base_order: tuple[int, ...], top_order: tuple[int, ...]
) -> CoverData:
    """The same cover with both universes enumerated in new orders.

    ``base_order[i]``/``top_order[i]`` give the old index of new
    component ``i``; all covering bookkeeping is transported along.
    Verdicts must not depend on this relabeling.
    """
    base = relabeled_universe(c.spec.base, base_order)
    total = relabeled_universe(c.total, top_order)
    base_inv = [0] * len(base_order)
    for new, old in enumerate(base_order):
        base_inv[old] = new
    top_inv = [0] * len(top_order)
    for new, old in enumerate(top_order):
        top_inv[old] = new
    fiber_map = tuple(base_inv[c.fiber_map[top_order[j]]] for j in range(len(top_order)))
    deck = tuple(top_inv[c.deck[top_order[j]]] for j in range(len(top_order)))
    splitting = ComponentSplitting(
        degree=c.splitting.degree,
        records=tuple(c.splitting.records[base_order[k]] for k in range(len(base_order))),
    )
    pushforward = tuple(c.pushforward[top_order[j]] for j in range(len(top_order)))
    return CoverData(
        spec=CoverSpec(degree=c.spec.degree, base=base),
        total=total,
        fiber_map=fiber_map,
        splitting=splitting,
        pushforward=pushforward,
        deck=deck,
    )


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return _poly_trim(out)


def _poly_matrix_det(m: list[list[list[int]]]) -> list[int]:
    """Determinant of a small matrix of integer polynomials, by expansion."""
    n = len(m)
    if n == 0:
        return [1]
    if n == 1:
        return list(m[0][0])
    det: list[int] = []
    for j in range(n):
        minor = [[row[t] for t in range(n) if t != j] for row in m[1:]]
        term = _poly_mul(m[0][j], _poly_matrix_det(minor))
        if j % 2:
            term = [-x for x in term]
        det = _poly_add(det, term)
    return det


def _sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    f = _poly_trim(list(f))
    g = _poly_trim(list(g))
    if not f or not g:
        return 0
    df = len(f) - 1
    dg = len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    size = df + dg
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (size - dg - 1 - i))
    return IntMatrix(rows, cols=size).det()


def branched_cover_order(seifert: IntMatrix, n: int) -> int:
    """First-homology order of the n-fold cyclic branched cover of a knot.

    From a Seifert matrix V the order is the absolute resultant of
    det(V - t V^T) with (t^n - 1)/(t - 1); a zero resultant signals
    infinite homology and is returned as 0 so callers can filter for
    integral homology spheres (order 1).
    """
    if seifert.rows != seifert.cols:
        raise ValueError("Seifert matrix must be square")
    if n < 1:
        raise ValueError("cover degree must be >= 1")
    k = seifert.rows
    entries = seifert.entries
    poly_m = [
        [
            _poly_trim([entries[i][j], -entries[j][i]])
            for j in range(k)
        ]
        for i in range(k)
    ]
    alex = _poly_matrix_det(poly_m)
    cyc = [1] * n  # (t^n - 1)/(t - 1)
    if len(cyc) == 1:
        return 1 if alex else 0
    res = _sylvester_resultant(alex, cyc)
    return abs(res)
