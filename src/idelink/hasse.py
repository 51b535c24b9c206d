"""Verifiers: decide each norm-principle identity as an exact lattice fact.

Every check runs on a single branched-cover scenario and returns
``(passed, witness)``: a verdict and, on failure, its witness;
``run_scenario`` times each check and records it by name.  Failures are
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
import math
import time
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import __version__, kernel
from ._record import Record
from .covers import (
    CoverData,
    _check_degree,
    _pushforward_coeffs,
    deck_matrix,
    lift_braid,
    principal_pushforward,
    pushforward_image,
    pushforward_matrix,
)
from .ideles import _label_prefixes, meridian_subgroup, principal_lattice
from .links import BraidWord, LinkUniverse
from .zlattice import (
    SubLattice,
    _check_kind,
    _quotient_invariants,
    _span,
    lattice_equal,
    lattice_intersect,
    lattice_member,
    lattice_sum,
    preimage_lattice,
)

REPORT_SCHEMA = 1


class CheckRecord(Record):
    """One check's verdict on one scenario: its name, pass or fail, wall time, witness.

    ``millis`` is the check's wall time in milliseconds, a finite int
    or float >= 0; ``witness`` is a dict on failure, else None.  The
    constructor checks each kind; ``run_scenario`` builds its records
    through ``CheckRecord._trusted``.
    """

    __slots__ = _fields = ("name", "passed", "millis", "witness")

    def __init__(self, name: str, passed: bool, millis: float, witness: dict | None = None):
        _check_kind("check name", name, str)
        _check_kind("verdict", passed, bool)
        if type(millis) not in (int, float) or not 0 <= millis < math.inf:
            raise ValueError(f"millis must be a finite number >= 0, got {millis!r}")
        if witness is not None:
            _check_kind("witness", witness, dict)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "millis", millis)
        object.__setattr__(self, "witness", witness)

    def to_json_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "verdict": "pass" if self.passed else "fail",
        }
        if self.witness is not None:
            out["witness"] = self.witness
        out["millis"] = self.millis
        return out


class VerificationReport(Record):
    """The check records of one (braid word, cover degree) scenario, in the order run.

    The constructor checks that strands and degree are plain ints, the
    word a tuple of plain ints and checks a tuple of ``CheckRecord``s;
    ``run_scenario`` builds its reports through ``VerificationReport._trusted``.
    """

    __slots__ = _fields = ("strands", "word", "degree", "checks")

    def __init__(
        self, strands: int, word: tuple[int, ...], degree: int, checks: tuple[CheckRecord, ...]
    ):
        for what, n in (("strand count", strands), ("degree", degree)):
            if type(n) is not int:
                raise ValueError(f"{what} must be a plain int, got {type(n).__name__}")
        if type(word) is not tuple or any([type(g) is not int for g in word]):
            raise ValueError(f"word must be a tuple of plain ints, got {word!r}")
        _check_kind("checks", checks, tuple)
        for c in checks:
            _check_kind("check record", c, CheckRecord)
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "checks", checks)

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
    _check_kind("first lattice", a, SubLattice)
    _check_kind("second lattice", b, SubLattice)
    for col in a.columns:
        if not lattice_member(col, b):
            return col
    for col in b.columns:
        if not lattice_member(col, a):
            return col
    return None


@functools.lru_cache(maxsize=16)
def _identity_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the m x m identity matrix; index data shared by every universe of size m."""
    return tuple(tuple(int(i == k) for i in range(m)) for k in range(m))


def _unit_longitudes(gens: Sequence[tuple[int, ...]]) -> bool:
    """True iff generator k has longitude coordinates [i = k], as in every braid universe."""
    return tuple([g[1::2] for g in gens]) == _identity_rows(len(gens))


def _first_unscaled_lift(c: CoverData, w: Sequence[int | None]) -> int | None:
    """The first upstairs J whose pushed generator is not w_K·g_K, K = fiber_map[J].

    g_K is the stored base generator, and w is read only at base
    components with a lift.  Fibers are mostly single lifts, so each
    lift scales g_K itself; a unit scale (the axis's, always) compares
    g_K as stored.  None when every lift matches.
    """
    down = c.base._generators
    for j, (k, pushed) in enumerate(zip(c.fiber_map, c._pushed)):
        w_k = w[k]
        if pushed != (down[k] if w_k == 1 else tuple([w_k * x for x in down[k]])):
            return j
    return None


def _norm_principle_accept(c: CoverData) -> bool:
    """True only when ``norm_principle`` passes, decided without a lattice.

    With unit longitudes the base principal lattice is G·Z^m: an element
    is sum t_k g_k with t_k its longitude coordinate on slot k.  When
    every lift of K pushes forward by ((a_J, b_J), (0, w_K)), the
    longitude coordinates of the image of f on slot K are multiples of
    w_K (all zero, w_K = 0, when K has no lift), so principal ∩ image
    lies in G·W·Z^m.  When every pushed upstairs generator is w_K·g_K
    (``diagonal_commutes``'s comparison, with w_K read off the
    pushforward pairs), the pushforward side is exactly G·W·Z^m and
    lies in both the principal lattice and the image, so the sides are
    equal.  False means the closed form does not apply or the check
    fails; the lattice route then decides and finds the witness.
    """
    if not _unit_longitudes(c.base._generators):
        return False
    w: list[int | None] = [None] * c.base.size
    for k, (_, (c_j, d)) in zip(c.fiber_map, c.pushforward):
        if c_j or w[k] not in (None, d):
            return False
        w[k] = d
    return _first_unscaled_lift(c, w) is None


def _norm_principle_lattice(c: CoverData) -> tuple[bool, dict | None]:
    """``norm_principle`` as lattice arithmetic: (passed, witness)."""
    base = c.base
    left = lattice_intersect(principal_lattice(base), pushforward_image(c))
    right = principal_pushforward(c)
    if lattice_equal(left, right):
        return True, None
    vec = equality_witness(left, right)
    return False, {
        "vector": list(vec),
        "in_intersection": lattice_member(vec, left),
        "in_pushforward": lattice_member(vec, right),
        "coordinates": _coordinate_labels(base),
    }


def verify_norm_principle(c: CoverData) -> tuple[bool, dict | None]:
    """Principal-intersect-image equals pushed-forward principal, exactly.

    A closed form accepts the covers it can prove; everything else, and
    every failure, goes through the lattice route.
    """
    _check_kind("cover", c, CoverData)
    return (True, None) if _norm_principle_accept(c) else _norm_principle_lattice(c)


def verify_diagonal_commutes(c: CoverData) -> tuple[bool, dict | None]:
    """Pushing a lifted surface's boundary equals the image surface's boundary.

    Checked exactly on every upstairs generator: the surface of J maps
    to w_K copies of the surface of K = fiber_map[J].  Both sides are
    linear in the surface class, so every other class follows.  The
    pushed boundaries are the cover's own, pushed once when it was built,
    and ``norm_principle``'s closed form makes the same comparison.
    """
    _check_kind("cover", c, CoverData)
    j = _first_unscaled_lift(c, [rec.w for rec in c.splitting])
    if j is None:
        return True, None
    k = c.fiber_map[j]
    w = c.splitting[k].w
    return False, {
        "surface_support": [j],
        "surface_coeffs": [1],
        "pushed_boundary": list(c._pushed[j]),
        "boundary_of_image": [w * x for x in c.base._generators[k]],
        "coordinates": _coordinate_labels(c.base),
    }


def verify_meridian_pushforward(c: CoverData) -> tuple[bool, dict | None]:
    """Pushed-forward meridians carry no longitude coordinates.

    The unit meridian of upstairs component J pushes forward to the
    first column of J's pushforward matrix, on the slot of
    K = fiber_map[J], and to zero elsewhere; so its longitude coordinate
    is that matrix's lower-left entry.  A failure pushes the unit
    through ``_pushforward_coeffs`` for its witness.
    """
    _check_kind("cover", c, CoverData)
    size = c.total.size
    for j in range(size):
        if c.pushforward[j][1][0]:
            unit = [0] * (2 * size)
            unit[2 * j] = 1
            return False, {
                "upstairs_component": c.total.labels[j],
                "image": list(_pushforward_coeffs(c, unit)),
                "coordinates": _coordinate_labels(c.base),
            }
    return True, None


def verify_class_quotient_free(c: CoverData) -> tuple[bool, dict | None]:
    """Idele group mod (principal + off-sublink meridians) is free on the sublink.

    Decided for every sublink of the base and of the upstairs universe
    from one column Hermite form per universe, the empty sublink's.
    With the longitudes first the generator block is [L; B_S], and
    Z^m / L is free of rank 0 exactly when L is unimodular, that is
    when its canonical form is the m x m identity: m columns, column k
    with its pivot 1 on row k.  Then (l, mu) -> mu - B_S L^-1 l maps
    Z^(m+|S|) onto Z^|S| with the generators' span as kernel, so every
    sublink S passes.  Otherwise the same form gives the empty
    sublink's invariants; it is also the first sublink the full loop
    visits, so a failure carries the same witness.
    """
    _check_kind("cover", c, CoverData)
    for tag, u in (("base", c.base), ("cover", c.total)):
        gens = u._generators
        m = len(gens)
        cols = kernel.col_hnf(m, [g[1::2] for g in gens])
        if len(cols) == m and all([col[k] == 1 for k, col in enumerate(cols)]):
            continue
        inv = _quotient_invariants(m, cols)
        return False, {
            "universe": tag,
            "sublink": [],
            "free_rank": inv.free_rank,
            "torsion": list(inv.torsion),
            "expected_free_rank": 0,
        }
    return True, None


def verify_projection_compatibility(c: CoverData) -> tuple[bool, dict | None]:
    """Boundary data restricts coherently along nested sublinks.

    For every L inside L' and every generator on L, the boundary on L'
    projected to L equals the boundary on L.  A boundary on a sublink is
    the generator's stored row read on the sublink's slots, so it is
    enough that each stored row equals the linking formula,
    (-lk(K, K'), [K' = K]) on the slot of every K': projections compose,
    so then proj_L(b_L') = proj_L(b_full) = b_L.  A failure names the
    first sublink, by size and then lexicographically, on which the
    first wrong row differs from the formula.
    """
    _check_kind("cover", c, CoverData)
    for tag, u in (("base", c.base), ("cover", c.total)):
        units = _identity_rows(u.size)
        for k, (g, row) in enumerate(zip(u._generators, u.linking.entries)):
            if g[1::2] == units[k] and g[0::2] == tuple([-x for x in row]):
                continue
            want = [(-x, unit) for x, unit in zip(row, units[k])]
            t = next(t for t in (k, *range(u.size)) if g[2 * t : 2 * t + 2] != want[t])
            sub = sorted({k, t})
            return False, {
                "universe": tag,
                "sublink": [u.labels[t] for t in sub],
                "larger": list(u.labels),
                "generator": u.labels[k],
                "projected": [x for t in sub for x in g[2 * t : 2 * t + 2]],
                "direct": [x for t in sub for x in want[t]],
            }
    return True, None


def _axis_functional(u: LinkUniverse) -> list[int] | None:
    """psi with ker psi = principal + meridians away from the axis, or None.

    With unit longitudes the m generators and the m unit meridians form
    a unimodular basis, so that lattice is every basis vector but
    mu_axis, the kernel of mu_axis's dual: psi[2a] = 1 and
    psi[2k+1] = -g_k[2a].  None when the longitudes are not units.
    """
    gens = u._generators
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
    the preimage is R_N too.  False means the closed form does not
    apply or the check fails; the lattice route then decides and finds
    the witness.
    """
    psi_m = _axis_functional(c.base)
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
    base = c.base
    total = c.total
    f = pushforward_matrix(c)
    r_m = lattice_sum(principal_lattice(base), meridian_subgroup(base, (base.axis_index,)))
    r_n = lattice_sum(principal_lattice(total), meridian_subgroup(total, (total.axis_index,)))
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
    return True, None


def verify_cover_exact_sequence(c: CoverData) -> tuple[bool, dict | None]:
    """The quotient sequence of the cover is exact, as lattice identities.

    With R_N = principal + meridians away from the lifted branch axis
    and R_M its base counterpart: the preimage of R_M under the
    pushforward equals (deck - 1)-image + R_N (middle exactness).  A
    closed form accepts the covers it can prove; everything else, and
    every failure, goes through the lattice route.
    """
    _check_kind("cover", c, CoverData)
    return (True, None) if _cover_exact_sequence_accept(c) else _cover_exact_sequence_lattice(c)


CHECKS: dict[str, Callable[[CoverData], tuple[bool, dict | None]]] = {
    "norm_principle": verify_norm_principle,
    "diagonal_commutes": verify_diagonal_commutes,
    "meridian_pushforward": verify_meridian_pushforward,
    "class_quotient_free": verify_class_quotient_free,
    "projection_compatibility": verify_projection_compatibility,
    "cover_exact_sequence": verify_cover_exact_sequence,
}


def resolve_checks(names: Iterable[str] | None) -> list[str]:
    """Known, distinct check names, at least one; None names all of them.

    A run that checks nothing cannot pass.  A bare string is rejected,
    not read as a sequence of one-letter names; any other iterable of
    names, an iterator included, is read once.
    """
    if names is None:
        return list(CHECKS)
    if isinstance(names, str):
        raise ValueError(f"expected a list of check names, not the string {names!r}")
    _check_kind("check names", names, Iterable)
    names = list(names)
    if not names:
        raise ValueError("names no check")
    for n in names:
        _check_kind("check name", n, str)
    if len(set(names)) != len(names):
        raise ValueError("names a check more than once")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown checks: {', '.join(unknown)}; available: {', '.join(CHECKS)}"
        )
    return names


def run_scenario(
    b: BraidWord, degree: int, checks: Iterable[str] | None = None
) -> VerificationReport:
    """Lift one braid scenario and run the requested checks, each timed."""
    return _run_scenario(b, degree, resolve_checks(checks))


def _run_scenario(b: BraidWord, degree: int, names: list[str]) -> VerificationReport:
    """``run_scenario`` on names ``resolve_checks`` has already returned.

    Each check is timed by ``time.perf_counter``, read through this
    module's ``time`` when the scenario runs, and its ``millis`` is the
    wall time in ms rounded half up to a whole microsecond in integer
    arithmetic, a float equal to ``round(millis, 3)``.  The records
    and the report hold values valid by construction, so they are built
    through their classes' ``_trusted``; ``tests/test_hasse.py``
    (``TestTrustedReports``) rebuilds them through the constructors.
    """
    cover = lift_braid(b, degree)
    clock = time.perf_counter
    records = []
    for name in names:
        start = clock()
        passed, witness = CHECKS[name](cover)
        micros = int((clock() - start) * 1e6 + 0.5)
        records.append(CheckRecord._trusted(name, passed, micros / 1000, witness))
    return VerificationReport._trusted(b.strands, b.letters, degree, tuple(records))


def _check_bounds(max_strands: int, max_length: int) -> None:
    """Reject suite bounds that are not plain ints covering at least one scenario."""
    if type(max_strands) is not int or type(max_length) is not int:
        raise ValueError("bounds must be plain ints")
    if max_strands < 1 or max_length < 0:
        raise ValueError("bounds must cover at least one scenario")


def iter_braid_words(max_strands: int, max_length: int) -> Iterator[BraidWord]:
    """All braid words within the bounds, in deterministic order.

    Strand counts ascend, then lengths, then letters lexicographically
    over the signed alphabet -(k-1)..-1, 1..k-1.  The bounds are checked
    at the call, not when the first word is asked for.
    """
    _check_bounds(max_strands, max_length)
    return (
        BraidWord(strands, letters)
        for strands in range(1, max_strands + 1)
        for length in range(max_length + 1)
        for letters in itertools.product(
            [g for g in range(-(strands - 1), strands) if g], repeat=length
        )
    )


def _check_degrees(degrees: Iterable[int]) -> tuple[int, ...]:
    """Suite degrees as a tuple: at least one, each a plain int >= 1, none twice."""
    _check_kind("degrees", degrees, Iterable)
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("names no degree")
    for n in degrees:
        _check_degree(n)
    if len(set(degrees)) != len(degrees):
        raise ValueError("names a degree more than once")
    return degrees


def count_scenarios(max_strands: int, max_length: int, degrees: Iterable[int]) -> int:
    _check_bounds(max_strands, max_length)
    degrees = _check_degrees(degrees)
    words = 0
    for strands in range(1, max_strands + 1):
        a = 2 * (strands - 1)
        words += sum(a**l for l in range(max_length + 1)) if a else 1
    return words * len(degrees)


class SuiteResult(Record):
    __slots__ = _fields = ("max_strands", "max_length", "degrees", "reports", "complete")

    def __init__(
        self,
        max_strands: int,
        max_length: int,
        degrees: tuple[int, ...],
        reports: tuple[VerificationReport, ...],
        complete: bool,
    ):
        object.__setattr__(self, "max_strands", max_strands)
        object.__setattr__(self, "max_length", max_length)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "reports", reports)
        object.__setattr__(self, "complete", complete)

    def summary(self) -> dict:
        """The report's ``summary`` block, from one pass over the check records."""
        millis = []
        failures = 0
        for r in self.reports:
            for c in r.checks:
                millis.append(c.millis)
                if not c.passed:
                    failures += 1
        return {
            "scenarios": len(self.reports),
            "checks": len(millis),
            "passes": len(millis) - failures,
            "failures": failures,
            "total_millis": round(sum(millis), 3),
        }

    def to_json_dict(self) -> dict:
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
            "summary": self.summary(),
        }


def run_suite(
    max_strands: int,
    max_length: int,
    degrees: Iterable[int],
    checks: Iterable[str] | None = None,
) -> SuiteResult:
    """Run every (word, degree) scenario within bounds, in deterministic order.

    Bounds, degrees and check names are all checked, and the names
    resolved, once, before the first scenario runs.
    """
    _check_bounds(max_strands, max_length)
    degrees = _check_degrees(degrees)
    names = resolve_checks(checks)
    reports = tuple(
        _run_scenario(b, n, names)
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
    _check_kind("report", report, VerificationReport)
    return {
        "version": __version__,
        "schema": REPORT_SCHEMA,
        **report.to_json_dict(),
    }
