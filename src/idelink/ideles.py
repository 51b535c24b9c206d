"""Truncated idele calculus over a link universe.

Each component K of a universe contributes one boundary-torus slot with
coordinates (mu_K, lambda_K); an idele vector is an integer vector over
a tuple of slots, flattened meridian-first in component order.  Over the
full universe these vectors live in Z^(2m), the truncated idele group.

A surface class is a formal integer combination of Seifert-surface
generators supported on a sublink.  Its boundary data is linear and
fully determined by linking numbers: the generator of component K
contributes lambda_K on its own slot and -lk(K, K') mu_K' everywhere
else.  The diagonal map collects these boundaries over the whole
universe; the principal lattice is its image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .links import LinkUniverse
from .zlattice import AbelianInvariants, SubLattice, _span, quotient_invariants


def _label_prefixes(ascii_labels: bool) -> tuple[str, str]:
    """Meridian and longitude label prefixes: ``mu_``/``lam_`` or ``μ_``/``λ_``."""
    return ("mu_", "lam_") if ascii_labels else ("μ_", "λ_")


@dataclass(frozen=True)
class IdeleVector:
    """Integer (mu, lambda) data over an ordered tuple of component slots."""

    components: tuple[int, ...]
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != 2 * len(self.components):
            raise ValueError("coefficient vector must have two entries per slot")
        for x in self.coeffs:
            if type(x) is not int:
                raise TypeError("idele coefficients must be plain ints")
        if len(set(self.components)) != len(self.components):
            raise ValueError("duplicate component slots")

    @classmethod
    def zero(cls, components: Iterable[int]) -> "IdeleVector":
        components = tuple(components)
        return cls(components, (0,) * (2 * len(components)))

    @classmethod
    def build(
        cls, components: Iterable[int], entries: Mapping[int, tuple[int, int]]
    ) -> "IdeleVector":
        components = tuple(components)
        coeffs = []
        for k in components:
            m, l = entries.get(k, (0, 0))
            coeffs.extend((m, l))
        unknown = set(entries) - set(components)
        if unknown:
            raise ValueError(f"entries name unknown slots: {sorted(unknown)}")
        return cls(components, tuple(coeffs))

    def _slot(self, k: int) -> int:
        try:
            return self.components.index(k)
        except ValueError:
            raise KeyError(f"component {k} has no slot in this vector") from None

    def mu(self, k: int) -> int:
        return self.coeffs[2 * self._slot(k)]

    def lam(self, k: int) -> int:
        return self.coeffs[2 * self._slot(k) + 1]

    def _require_same_slots(self, other: "IdeleVector"):
        if self.components != other.components:
            raise ValueError("idele vectors live over different slot tuples")

    def __add__(self, other: "IdeleVector") -> "IdeleVector":
        self._require_same_slots(other)
        return IdeleVector(
            self.components, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "IdeleVector") -> "IdeleVector":
        self._require_same_slots(other)
        return IdeleVector(
            self.components, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "IdeleVector":
        return IdeleVector(self.components, tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def format(self, u: LinkUniverse, ascii_labels: bool = False) -> str:
        """Human-readable combination of mu/lambda basis elements."""
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


@dataclass(frozen=True)
class SurfaceClass:
    """Integer combination of Seifert-surface generators on a sublink.

    ``support`` is the sublink the class is defined on (sorted component
    indices); coefficients are aligned with it and may be zero.
    """

    support: tuple[int, ...]
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.coeffs):
            raise ValueError("one coefficient per supported component")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be strictly sorted component indices")
        for x in self.coeffs:
            if type(x) is not int:
                raise TypeError("surface coefficients must be plain ints")

    @classmethod
    def single(cls, k: int) -> "SurfaceClass":
        return cls((k,), (1,))

    @classmethod
    def zero(cls, support: Iterable[int] = ()) -> "SurfaceClass":
        support = tuple(sorted(support))
        return cls(support, (0,) * len(support))

    def coefficient(self, k: int) -> int:
        try:
            return self.coeffs[self.support.index(k)]
        except ValueError:
            return 0

    def __add__(self, other: "SurfaceClass") -> "SurfaceClass":
        if self.support != other.support:
            raise ValueError("surface classes live on different sublinks")
        return SurfaceClass(
            self.support, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )


def _check_sublink(u: LinkUniverse, sublink: Iterable[int]) -> tuple[int, ...]:
    sub = tuple(sorted(sublink))
    if len(set(sub)) != len(sub):
        raise ValueError("sublink has repeated components")
    for k in sub:
        if not 0 <= k < u.size:
            raise ValueError(f"component {k} is not in the universe")
    return sub


def boundary_punctured_surface(u: LinkUniverse, k: int, sublink: Iterable[int]) -> IdeleVector:
    """Boundary of the punctured Seifert surface of K inside a sublink L.

    The result is lambda_K minus lk(K, K') mu_K' summed over the other
    components of L; slots outside L are zero because this is boundary
    data on the tori of L only.
    """
    sub = _check_sublink(u, sublink)
    if k not in sub:
        raise ValueError(f"component {k} does not belong to the sublink")
    return IdeleVector(tuple(range(u.size)), _boundary_coeffs(u, k, sub))


def _boundary_coeffs(u: LinkUniverse, k: int, sub: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of ``boundary_punctured_surface`` over every slot, unchecked."""
    lk = u.linking.entries[k]
    coeffs = [0] * (2 * len(lk))
    coeffs[2 * k + 1] = 1
    for k2 in sub:
        if k2 != k:
            coeffs[2 * k2] = -lk[k2]
    return tuple(coeffs)


def diagonal_map(u: LinkUniverse, s: SurfaceClass) -> IdeleVector:
    """Boundary data of a surface class on every slot of the universe.

    The sum of c_K times the boundary of K's surface punctured by every
    other component: components inside the support get
    (-sum lk(K, K') c_K', c_K), all others the same linking-weighted
    meridian coefficient with zero longitude part.
    """
    full = tuple(range(u.size))
    coeffs = [0] * (2 * u.size)
    for k, c in zip(_check_sublink(u, s.support), s.coeffs):
        for i, x in enumerate(_boundary_coeffs(u, k, full)):
            coeffs[i] += c * x
    return IdeleVector(full, tuple(coeffs))


def principal_generators(u: LinkUniverse) -> list[tuple[int, ...]]:
    """Boundary coefficients of the m single-surface generators, as a new list.

    Entry k equals ``diagonal_map(u, SurfaceClass.single(k)).coeffs``:
    lambda_K on its own slot and -lk(K, K') mu_K' on every other slot.
    The universe builds them once, from its linking rows, when it is
    constructed; each call copies that tuple into a list the caller may
    change.
    """
    return list(u._generators)


def principal_lattice(u: LinkUniverse) -> SubLattice:
    """Image of the diagonal map inside the full idele group Z^(2m).

    The boundaries of the single-surface generators span the image of
    every sublink's boundary map, so they generate the whole lattice.
    """
    return _span(2 * u.size, principal_generators(u))


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
    express every longitude over the surviving meridians.
    """
    return _class_quotient(principal_generators(u), _check_sublink(u, sublink))


def _class_quotient(gens: Sequence[tuple[int, ...]], sub: tuple[int, ...]) -> AbelianInvariants:
    """``class_quotient`` from the universe's ``principal_generators``.

    The kept coordinates are ordered all longitudes first, then the
    sublink's meridians, so each generator's own unit longitude is its
    pivot and a free quotient is recognised without a Smith form.
    """
    n = len(gens) + len(sub)
    cols = [g[1::2] + tuple([g[2 * k] for k in sub]) for g in gens]
    return quotient_invariants(n, _span(n, cols))
