"""Verifiers: decide each norm-principle identity as an exact lattice fact.

Every check runs on a single branched-cover scenario and returns a
record with a verdict, a witness on failure, and a timing.  Failures are
verdicts rather than errors: the tool exists to probe where truncated
identities hold, so a principled failure is data and always carries an
explicit witness (for lattice equalities, a vector lying in exactly one
side; for invariant claims, the mismatched invariants).

``run_suite`` enumerates every braid word within given bounds, every
listed cover degree, runs all checks, and aggregates deterministic,
JSON-serializable reports.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .covers import (
    CoverData,
    _pushforward_coeffs,
    deck_matrix,
    lift_braid,
    pushforward_image,
    pushforward_matrix,
)
from .ideles import (
    _boundary_coeffs,
    _class_quotient,
    _label_prefixes,
    meridian_subgroup,
    principal_generators,
)
from .links import BraidWord, LinkUniverse
from .zlattice import (
    SubLattice,
    _span,
    lattice_equal,
    lattice_intersect,
    lattice_member,
    lattice_sum,
    preimage_lattice,
    quotient_invariants,
    relative_quotient_invariants,
)

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    millis: float
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "verdict": "pass" if self.passed else "fail",
        }
        if self.witness is not None:
            out["witness"] = self.witness
        out["millis"] = self.millis
        return out


@dataclass(frozen=True)
class VerificationReport:
    strands: int
    word: tuple[int, ...]
    degree: int
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "scenario": {
                "strands": self.strands,
                "word": list(self.word),
                "degree": self.degree,
            },
            "checks": [c.to_json_dict() for c in self.checks],
            "passed": self.passed,
        }


def _coordinate_labels(u: LinkUniverse) -> list[str]:
    mu, lam = _label_prefixes(True)
    out = []
    for name in u.labels:
        out.extend((mu + name, lam + name))
    return out


def equality_witness(a: SubLattice, b: SubLattice) -> tuple[int, ...] | None:
    """A vector in exactly one of two sublattices, or None when equal.

    Some canonical generator of the larger-looking side must escape the
    other side whenever the lattices differ, so scanning generators is
    complete.
    """
    for col in a.columns:
        if not lattice_member(col, b):
            return col
    for col in b.columns:
        if not lattice_member(col, a):
            return col
    return None


def _timed(fn: Callable[[], tuple[bool, dict | None]], name: str) -> CheckRecord:
    start = time.perf_counter()
    passed, witness = fn()
    millis = round((time.perf_counter() - start) * 1000.0, 3)
    return CheckRecord(name=name, passed=passed, millis=millis, witness=witness)


def _principal_span(u: LinkUniverse) -> SubLattice:
    """The principal lattice of ``u``, from this module's ``principal_generators``."""
    return _span(2 * u.size, principal_generators(u))


def _unit_longitudes(gens: Sequence[tuple[int, ...]]) -> bool:
    """True iff generator k has longitude coordinates [i = k], as in every braid universe."""
    return all(g[2 * i + 1] == (i == k) for k, g in enumerate(gens) for i in range(len(gens)))


def _norm_principle_accept(c: CoverData) -> bool:
    """True only when ``norm_principle`` passes, decided without a lattice.

    With unit longitudes the base principal lattice is G·Z^m: an element
    is sum t_k g_k with t_k its longitude coordinate on slot k.  When
    every lift of K pushes forward by ((a_J, b_J), (0, w_K)), the
    longitude coordinates of the image of f on slot K are multiples of
    w_K (all zero, w_K = 0, when K has no lift), so principal ∩ image
    lies in G·W·Z^m.  When every pushed upstairs generator is w_K·g_K, the
    pushforward side is exactly G·W·Z^m and lies in both the principal
    lattice and the image, so the sides are equal.  False means the
    closed form does not apply or the check fails; the lattice route
    then decides and finds the witness.
    """
    down = principal_generators(c.spec.base)
    if not _unit_longitudes(down):
        return False
    w: list[int | None] = [None] * len(down)
    for j, (_, (c_j, d)) in enumerate(c.pushforward):
        k = c.fiber_map[j]
        if c_j or w[k] not in (None, d):
            return False
        w[k] = d
    for j, gen in enumerate(principal_generators(c.total)):
        k = c.fiber_map[j]
        if _pushforward_coeffs(c, gen) != tuple(w[k] * x for x in down[k]):
            return False
    return True


def _norm_principle_lattice(c: CoverData) -> tuple[bool, dict | None]:
    """``norm_principle`` as lattice arithmetic: (passed, witness)."""
    base = c.spec.base
    left = lattice_intersect(_principal_span(base), pushforward_image(c))
    right = _span(
        2 * base.size, [_pushforward_coeffs(c, g) for g in principal_generators(c.total)]
    )
    if lattice_equal(left, right):
        return True, None
    vec = equality_witness(left, right)
    return False, {
        "vector": list(vec),
        "in_intersection": lattice_member(vec, left),
        "in_pushforward": lattice_member(vec, right),
        "coordinates": _coordinate_labels(base),
    }


def verify_norm_principle(c: CoverData) -> CheckRecord:
    """Principal-intersect-image equals pushed-forward principal, exactly.

    A closed form accepts the covers it can prove; everything else, and
    every failure, goes through the lattice route.
    """

    def run():
        if _norm_principle_accept(c):
            return True, None
        return _norm_principle_lattice(c)

    return _timed(run, "norm_principle")


def verify_diagonal_commutes(c: CoverData) -> CheckRecord:
    """Pushing a lifted surface's boundary equals the image surface's boundary.

    Checked exactly on every upstairs generator: the surface of J maps
    to w_K copies of the surface of K = fiber_map[J].  Both sides are
    linear in the surface class, so every other class follows.
    """

    def run():
        down = principal_generators(c.spec.base)
        for j, gen in enumerate(principal_generators(c.total)):
            k = c.fiber_map[j]
            w = c.splitting.records[k].w
            lhs = _pushforward_coeffs(c, gen)
            rhs = tuple(w * x for x in down[k])
            if lhs != rhs:
                return False, {
                    "surface_support": [j],
                    "surface_coeffs": [1],
                    "pushed_boundary": list(lhs),
                    "boundary_of_image": list(rhs),
                    "coordinates": _coordinate_labels(c.spec.base),
                }
        return True, None

    return _timed(run, "diagonal_commutes")


def verify_meridian_pushforward(c: CoverData) -> CheckRecord:
    """Pushed-forward meridians carry no longitude coordinates."""

    def run():
        size = c.total.size
        for j in range(size):
            unit = [0] * (2 * size)
            unit[2 * j] = 1
            image = _pushforward_coeffs(c, unit)
            if any(image[1::2]):
                return False, {
                    "upstairs_component": c.total.labels[j],
                    "image": list(image),
                    "coordinates": _coordinate_labels(c.spec.base),
                }
        return True, None

    return _timed(run, "meridian_pushforward")


def _sublinks(size: int) -> Iterator[tuple[int, ...]]:
    for r in range(size + 1):
        yield from itertools.combinations(range(size), r)


def verify_class_quotient_free(c: CoverData) -> CheckRecord:
    """Idele group mod (principal + off-sublink meridians) is free on the sublink.

    Decided for every sublink of the base and of the upstairs universe
    from one class quotient per universe, the empty sublink's.  With the
    longitudes first the generator block is [L; B_S], and Z^m / L is free
    of rank 0 exactly when L is unimodular; then (l, mu) -> mu - B_S L^-1 l
    maps Z^(m+|S|) onto Z^|S| with the generators' span as kernel, so
    every sublink S passes.  The empty sublink is also the first one the
    full loop visits, so a failure carries the same witness.
    """

    def run():
        for tag, u in (("base", c.spec.base), ("cover", c.total)):
            inv = _class_quotient(principal_generators(u), ())
            if inv.free_rank or inv.torsion:
                return False, {
                    "universe": tag,
                    "sublink": [],
                    "free_rank": inv.free_rank,
                    "torsion": list(inv.torsion),
                    "expected_free_rank": 0,
                }
        return True, None

    return _timed(run, "class_quotient_free")


def _project_coeffs(coeffs: tuple[int, ...], sub: tuple[int, ...]) -> tuple[int, ...]:
    """Full-universe idele coefficients restricted to the slots of ``sub``."""
    return tuple(x for k in sub for x in coeffs[2 * k : 2 * k + 2])


@functools.lru_cache(maxsize=16)
def _projection_table(size: int) -> tuple[tuple[tuple[int, ...], Callable], ...]:
    """Every nonempty sublink, in ``_sublinks`` order, with a getter for its slots.

    The getter reads slots 2k, 2k+1 for each k of the sublink, which is
    ``_project_coeffs``; a nonempty sublink has two or more slots, so it
    returns a tuple.  Index data only, shared by every universe of ``size``.
    """
    return tuple(
        (sub, operator.itemgetter(*(i for k in sub for i in (2 * k, 2 * k + 1))))
        for sub in _sublinks(size)
        if sub
    )


def verify_projection_compatibility(c: CoverData) -> CheckRecord:
    """Boundary data restricts coherently along nested sublinks.

    For every pair L inside L' and every generator on L, the boundary
    taken on L' and projected down to L equals the boundary taken on L.
    Projections compose, so it is enough to compare, for every L, the
    boundary on the full universe projected to L with the boundary on L:
    then proj_L(b_L') = proj_L(b_full) = proj_L(b_L).  The two sides of
    every comparison are still built separately, and projected through
    a per-size slot-index table.  A failure reruns the nested loop for
    its witness.
    """

    def run():
        for tag, u in (("base", c.spec.base), ("cover", c.total)):
            full = tuple(range(u.size))
            on_full = [_boundary_coeffs(u, k, full) for k in full]
            for sub, proj in _projection_table(u.size):
                for k in sub:
                    if proj(on_full[k]) != proj(_boundary_coeffs(u, k, sub)):
                        return False, _nested_projection_witness(tag, u)
        return True, None

    return _timed(run, "projection_compatibility")


def _nested_projection_witness(tag: str, u: LinkUniverse) -> dict:
    """The first nested pair, in sublink order, whose projection disagrees."""
    subs = list(_sublinks(u.size))
    boundary = {(k, sub): _boundary_coeffs(u, k, sub) for sub in subs for k in sub}
    own = {(k, sub): _project_coeffs(b, sub) for (k, sub), b in boundary.items()}
    for big in subs:
        for small in _sublinks(len(big)):
            sub = tuple(big[i] for i in small)
            for k in sub:
                via_big = _project_coeffs(boundary[k, big], sub)
                direct = own[k, sub]
                if via_big != direct:
                    return {
                        "universe": tag,
                        "sublink": [u.labels[t] for t in sub],
                        "larger": [u.labels[t] for t in big],
                        "generator": u.labels[k],
                        "projected": list(via_big),
                        "direct": list(direct),
                    }
    raise AssertionError("no nested pair disagrees")


def _axis_functional(u: LinkUniverse) -> list[int] | None:
    """psi with ker psi = principal + meridians away from the axis, or None.

    With unit longitudes the m generators and the m unit meridians form
    a unimodular basis, so that lattice is every basis vector but
    mu_axis, the kernel of mu_axis's dual: psi[2a] = 1 and
    psi[2k+1] = -g_k[2a].  None when the longitudes are not units.
    """
    gens = principal_generators(u)
    if not _unit_longitudes(gens):
        return None
    a = u.axis_index
    psi = [0] * (2 * u.size)
    psi[2 * a] = 1
    for k, g in enumerate(gens):
        psi[2 * k + 1] = -g[2 * a]
    return psi


def _cover_exact_sequence_accept(c: CoverData) -> bool:
    """True only when ``cover_exact_sequence`` passes, decided without a lattice.

    With R_M = ker psi_M and R_N = ker psi_N, the preimage of R_M under
    f is ker(psi_M∘f).  When psi_N∘tau = psi_N the deck image lies in
    R_N, so the exact side is R_N; when psi_M∘f = s·psi_N with s != 0
    the preimage is R_N too, and both quotient routes of part (ii) give
    Z (psi_N takes the value 1, and the image is sZ).  False means the
    closed form does not apply or the check fails; the lattice route
    then decides and finds the witness.
    """
    psi_m = _axis_functional(c.spec.base)
    psi_n = _axis_functional(c.total)
    if psi_m is None or psi_n is None:
        return False
    for j, t in enumerate(c.deck):
        if psi_n[2 * t] != psi_n[2 * j] or psi_n[2 * t + 1] != psi_n[2 * j + 1]:
            return False
    r = []
    for j, ((a, b), (c_j, d)) in enumerate(c.pushforward):
        k = c.fiber_map[j]
        to_mu, to_lam = psi_m[2 * k], psi_m[2 * k + 1]
        r.extend((a * to_mu + c_j * to_lam, b * to_mu + d * to_lam))
    s = r[2 * c.total.axis_index]
    return s != 0 and r == [s * x for x in psi_n]


def _cover_exact_sequence_lattice(c: CoverData) -> tuple[bool, dict | None]:
    """``cover_exact_sequence`` as lattice arithmetic: (passed, witness)."""
    base = c.spec.base
    total = c.total
    f = pushforward_matrix(c)
    r_m = lattice_sum(_principal_span(base), meridian_subgroup(base, (base.axis_index,)))
    r_n = lattice_sum(_principal_span(total), meridian_subgroup(total, (total.axis_index,)))
    kernel_side = preimage_lattice(f, r_m)
    tau = deck_matrix(c)
    shifted = [
        tuple(
            tau.entries[i][j] - (1 if i == j else 0)
            for i in range(2 * total.size)
        )
        for j in range(2 * total.size)
    ]
    deck_image = _span(2 * total.size, shifted)
    exact_side = lattice_sum(deck_image, r_n)
    if not lattice_equal(kernel_side, exact_side):
        vec = equality_witness(kernel_side, exact_side)
        return False, {
            "part": "middle_exactness",
            "vector": list(vec),
            "in_kernel_preimage": lattice_member(vec, kernel_side),
            "in_deck_image_plus_relations": lattice_member(vec, exact_side),
            "coordinates": _coordinate_labels(total),
        }
    source_mod_kernel = quotient_invariants(2 * total.size, kernel_side)
    image_side = relative_quotient_invariants(
        lattice_sum(pushforward_image(c), r_m), r_m
    )
    if source_mod_kernel != image_side:
        return False, {
            "part": "image_isomorphism",
            "source_mod_kernel": {
                "free_rank": source_mod_kernel.free_rank,
                "torsion": list(source_mod_kernel.torsion),
            },
            "image": {
                "free_rank": image_side.free_rank,
                "torsion": list(image_side.torsion),
            },
        }
    return True, None


def verify_cover_exact_sequence(c: CoverData) -> CheckRecord:
    """The quotient sequence of the cover is exact, as lattice identities.

    With R_N = principal + meridians away from the lifted branch axis
    and R_M its base counterpart: (i) the preimage of R_M under the
    pushforward equals (deck - 1)-image + R_N (middle exactness), and
    (ii) the induced quotient map has isomorphic source-mod-kernel and
    image, computed through two independent routes.  A closed form
    accepts the covers it can prove; everything else, and every failure,
    goes through the lattice route.
    """

    def run():
        if _cover_exact_sequence_accept(c):
            return True, None
        return _cover_exact_sequence_lattice(c)

    return _timed(run, "cover_exact_sequence")


CHECKS: dict[str, Callable[[CoverData], CheckRecord]] = {
    "norm_principle": verify_norm_principle,
    "diagonal_commutes": verify_diagonal_commutes,
    "meridian_pushforward": verify_meridian_pushforward,
    "class_quotient_free": verify_class_quotient_free,
    "projection_compatibility": verify_projection_compatibility,
    "cover_exact_sequence": verify_cover_exact_sequence,
}


def resolve_checks(names: Sequence[str] | None) -> list[str]:
    """Known, distinct check names, at least one; None names all of them.

    A run that checks nothing cannot pass.
    """
    if names is None:
        return list(CHECKS)
    if not names:
        raise ValueError("names no check")
    if len(set(names)) != len(names):
        raise ValueError("names a check more than once")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown checks: {', '.join(unknown)}; available: {', '.join(CHECKS)}"
        )
    return list(names)


def run_scenario(
    b: BraidWord, degree: int, checks: Sequence[str] | None = None
) -> VerificationReport:
    """Lift one braid scenario and run the requested checks."""
    names = resolve_checks(checks)
    cover = lift_braid(b, degree)
    records = tuple(CHECKS[name](cover) for name in names)
    return VerificationReport(
        strands=b.strands, word=b.letters, degree=degree, checks=records
    )


def iter_braid_words(max_strands: int, max_length: int) -> Iterator[BraidWord]:
    """All braid words within the bounds, in deterministic order.

    Strand counts ascend, then lengths, then letters lexicographically
    over the signed alphabet -(k-1)..-1, 1..k-1.
    """
    for strands in range(1, max_strands + 1):
        alphabet = [g for g in range(-(strands - 1), strands) if g]
        for length in range(max_length + 1):
            for letters in itertools.product(alphabet, repeat=length):
                yield BraidWord(strands, letters)


def count_scenarios(max_strands: int, max_length: int, degrees: Sequence[int]) -> int:
    words = 0
    for strands in range(1, max_strands + 1):
        a = 2 * (strands - 1)
        words += sum(a**l for l in range(max_length + 1)) if a else 1
    return words * len(degrees)


@dataclass(frozen=True)
class SuiteResult:
    max_strands: int
    max_length: int
    degrees: tuple[int, ...]
    reports: tuple[VerificationReport, ...]
    complete: bool

    @property
    def check_count(self) -> int:
        return sum(len(r.checks) for r in self.reports)

    @property
    def failure_count(self) -> int:
        return sum(1 for r in self.reports for c in r.checks if not c.passed)

    def to_json_dict(self) -> dict:
        total_millis = round(
            sum(c.millis for r in self.reports for c in r.checks), 3
        )
        return {
            "version": __version__,
            "schema": REPORT_SCHEMA,
            "bounds": {
                "max_strands": self.max_strands,
                "max_length": self.max_length,
                "degrees": list(self.degrees),
            },
            "complete": self.complete,
            "scenarios": [r.to_json_dict() for r in self.reports],
            "summary": {
                "scenarios": len(self.reports),
                "checks": self.check_count,
                "passes": self.check_count - self.failure_count,
                "failures": self.failure_count,
                "total_millis": total_millis,
            },
        }


def run_suite(
    max_strands: int,
    max_length: int,
    degrees: Iterable[int],
    checks: Sequence[str] | None = None,
) -> SuiteResult:
    """Run every (word, degree) scenario within bounds, in deterministic order."""
    degrees = tuple(degrees)
    if type(max_strands) is not int or type(max_length) is not int:
        raise ValueError("bounds must be plain ints")
    if max_strands < 1 or max_length < 0:
        raise ValueError("bounds must cover at least one scenario")
    if not degrees:
        raise ValueError("names no degree")
    for n in degrees:
        if type(n) is not int:
            raise ValueError(f"cover degree {n!r} is not a plain int")
        if n < 1:
            raise ValueError("cover degrees must be >= 1")
    if len(set(degrees)) != len(degrees):
        raise ValueError("names a degree more than once")
    names = resolve_checks(checks)
    reports = tuple(
        run_scenario(b, n, names)
        for b in iter_braid_words(max_strands, max_length)
        for n in degrees
    )
    return SuiteResult(
        max_strands=max_strands,
        max_length=max_length,
        degrees=degrees,
        reports=reports,
        complete=True,
    )


def scenario_report_json(report: VerificationReport) -> dict:
    return {
        "version": __version__,
        "schema": REPORT_SCHEMA,
        **report.to_json_dict(),
    }
