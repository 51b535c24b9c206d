"""Truncated idele calculus over a link universe.

Each component K of a universe contributes one boundary-torus slot with
coordinates (mu_K, lambda_K); idele data is an integer vector over a
tuple of slots, flattened meridian-first in component order.  Over the
full universe these vectors live in Z^(2m), the truncated idele group.
The calculus works on raw coefficient tuples; ``IdeleVector`` validates
one and formats it for display.

The Seifert surface of K punctured by the other components of a sublink
L has boundary lambda_K - sum lk(K, K') mu_K' over K' in L: linear, fully
determined by linking numbers, and the whole universe's boundary read on
L's slots.  Over the whole universe the m single-surface boundaries are
the principal generators: a surface class sum c_K S_K has boundary
sum c_K times generator K, and the generators span the principal lattice.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import kernel
from ._record import Record
from .links import LinkUniverse
from .zlattice import AbelianInvariants, SubLattice, _check_kind, _quotient_invariants, _span


def _label_prefixes(ascii_labels: bool) -> tuple[str, str]:
    """Meridian and longitude label prefixes: ``mu_``/``lam_`` or ``μ_``/``λ_``."""
    return ("mu_", "lam_") if ascii_labels else ("μ_", "λ_")


class IdeleVector(Record):
    """Integer (mu, lambda) data over an ordered tuple of component slots."""

    __slots__ = _fields = ("components", "coeffs")

    def __init__(self, components: tuple[int, ...], coeffs: tuple[int, ...]):
        components, coeffs = tuple(components), tuple(coeffs)
        if len(coeffs) != 2 * len(components):
            raise ValueError("coefficient vector must have two entries per slot")
        for x in coeffs:
            if type(x) is not int:
                raise TypeError("idele coefficients must be plain ints")
        for k in components:
            if type(k) is not int:
                raise ValueError(f"component {k!r} is not a plain int")
        if len(set(components)) != len(components):
            raise ValueError("duplicate component slots")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "coeffs", coeffs)

    def format(self, u: LinkUniverse, ascii_labels: bool = False) -> str:
        """Human-readable combination of mu/lambda basis elements; every slot must be in ``u``."""
        _check_sublink(u, self.components)
        mu_sym, lam_sym = _label_prefixes(ascii_labels)
        dot = "*" if ascii_labels else "·"
        terms = []
        for slot, k in enumerate(self.components):
            for off, sym in ((0, mu_sym), (1, lam_sym)):
                c = self.coeffs[2 * slot + off]
                if not c:
                    continue
                label = sym + u.labels[k]
                mag = abs(c)
                body = label if mag == 1 else f"{mag}{dot}{label}"
                if not terms:
                    terms.append(body if c > 0 else f"-{body}")
                else:
                    terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def _check_sublink(u: LinkUniverse, sublink: Iterable[int]) -> tuple[int, ...]:
    _check_kind("universe", u, LinkUniverse)
    _check_kind("sublink", sublink, Iterable)
    sub = tuple(sublink)
    for k in sub:
        if type(k) is not int:
            raise ValueError(f"component {k!r} is not a plain int")
    sub = tuple(sorted(sub))
    if len(set(sub)) != len(sub):
        raise ValueError("sublink has repeated components")
    for k in sub:
        if not 0 <= k < u.size:
            raise ValueError(f"component {k} is not in the universe")
    return sub


def principal_generators(u: LinkUniverse) -> list[tuple[int, ...]]:
    """Boundary coefficients of the m single-surface generators, as a new list.

    Entry k is the boundary of K's surface punctured by every other
    component, lambda_K on its own slot and -lk(K, K') mu_K' on every
    other slot; on a sublink's slots, the one punctured by that sublink.
    The universe builds them once, from its linking rows, when it is
    constructed.  The checks in ``hasse`` read those stored rows in
    place; this public reader checks its argument and copies them into a
    list the caller may change.
    """
    _check_kind("universe", u, LinkUniverse)
    return list(u._generators)


def principal_lattice(u: LinkUniverse) -> SubLattice:
    """Span of the principal generators inside the full idele group Z^(2m).

    The boundaries of the single-surface generators span the image of
    every sublink's boundary map, so they generate the whole lattice.
    """
    gens = principal_generators(u)
    return _span(2 * len(gens), gens)


def meridian_subgroup(u: LinkUniverse, excluded: Iterable[int]) -> SubLattice:
    """Subgroup generated by mu_K for every component K outside ``excluded``."""
    sub = _check_sublink(u, excluded)
    cols = []
    for k in range(u.size):
        if k not in sub:
            col = [0] * (2 * u.size)
            col[2 * k] = 1
            cols.append(tuple(col))
    return _span(2 * u.size, cols)


def class_quotient(u: LinkUniverse, sublink: Iterable[int]) -> AbelianInvariants:
    """Invariants of the idele group modulo principal plus off-sublink meridians.

    Dividing Z^(2m) by the unit meridians mu_K, K outside the sublink,
    deletes those coordinates, so the quotient is Z^(m+|sublink|) modulo
    the m principal generators with the same coordinates deleted.  For a
    braid universe in S^3 it is free of rank |sublink|: the relations
    express every longitude over the surviving meridians.  The kept
    coordinates are ordered all longitudes first, then the sublink's
    meridians, so each generator's own unit longitude is its pivot and
    a free quotient is recognised with no further kernel call.
    """
    sub = _check_sublink(u, sublink)
    gens = principal_generators(u)
    n = len(gens) + len(sub)
    cols = [g[1::2] + tuple([g[2 * k] for k in sub]) for g in gens]
    return _quotient_invariants(n, kernel.col_hnf(n, cols))
