"""Acceptance criteria, one test per criterion, exact tolerances.

The heavy shared computation is the full scenario sweep: every braid
word on at most 3 strands of length at most 5 (all sign patterns), every
cover degree in {2, 3, 4, 5}, all checks.  Each test prints one summary
line (run pytest with -s to see them on passing runs).
"""

import random
import time

import pytest

from idelink.covers import (
    _pushforward_coeffs,
    lift_braid,
    principal_pushforward,
    pushforward_image,
    relabeled_cover,
)
from idelink.hasse import run_suite
from idelink.ideles import principal_generators, principal_lattice
from idelink.links import BraidWord
from idelink.zlattice import (
    IntMatrix,
    SubLattice,
    lattice_equal,
    lattice_intersect,
    lattice_member,
    lattice_sum,
    quotient_invariants,
)

from oracles import box_points, invariants_oracle, member_oracle, resultant_oracle

MAX_STRANDS = 3
MAX_LENGTH = 5
DEGREES = (2, 3, 4, 5)
TIME_BUDGET_SECONDS = 120.0


def _announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {criterion}: {status} — {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def full_suite():
    start = time.perf_counter()
    result = run_suite(MAX_STRANDS, MAX_LENGTH, DEGREES)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _failures(result, check_name):
    return [
        (r.strands, r.word, r.degree)
        for r in result.reports
        for c in r.checks
        if c.name == check_name and not c.passed
    ]


def test_criterion_1_norm_principle_suite(full_suite):
    result, elapsed = full_suite
    bad = _failures(result, "norm_principle")
    expected = (1 + 63 + 1365) * len(DEGREES)
    ok = result.complete and len(result.reports) == expected and not bad
    ok = ok and elapsed < TIME_BUDGET_SECONDS
    _announce(
        1,
        ok,
        f"{len(result.reports)} scenarios, {len(bad)} norm-principle failures, "
        f"{elapsed:.1f}s (budget {TIME_BUDGET_SECONDS:.0f}s)",
    )


def test_criterion_2_worked_double_cover():
    c = lift_braid(BraidWord(1, ()), 2)
    # ordered basis (mu_A, lam_A, mu_K, lam_K)
    expected = SubLattice.from_columns(4, [(0, 1, -1, 0), (-2, 0, 0, 2)])
    left = lattice_intersect(principal_lattice(c.base), pushforward_image(c))
    right = principal_pushforward(c)
    ok = lattice_equal(left, expected) and lattice_equal(right, expected)
    _announce(2, ok, "both sides equal <lam_A - mu_K, 2 lam_K - 2 mu_A>")


def test_criterion_3_commutativity(full_suite):
    result, _ = full_suite
    bad = _failures(result, "diagonal_commutes")
    c = lift_braid(BraidWord(2, (1,)), 2)
    pushed = _pushforward_coeffs(c, principal_generators(c.total)[1])
    specific = pushed == (-2, 0, 0, 1)
    ok = not bad and specific
    _announce(
        3,
        ok,
        f"{len(bad)} commutativity failures; lifted generator pushes to "
        f"lam_K - 2 mu_A: {specific}",
    )


def test_criterion_4_meridian_pushforward(full_suite):
    result, _ = full_suite
    bad = _failures(result, "meridian_pushforward")
    _announce(4, not bad, f"{len(bad)} meridian-image failures over the suite")


def test_criterion_5_class_quotients(full_suite):
    result, _ = full_suite
    bad = _failures(result, "class_quotient_free")
    _announce(5, not bad, f"{len(bad)} class-quotient failures over all sublinks")


def test_criterion_6_projection_compatibility(full_suite):
    result, _ = full_suite
    bad = _failures(result, "projection_compatibility")
    _announce(6, not bad, f"{len(bad)} projection-compatibility failures")


def test_criterion_7_exact_sequence(full_suite):
    result, _ = full_suite
    bad = _failures(result, "cover_exact_sequence")
    _announce(7, not bad, f"{len(bad)} exact-sequence failures over the suite")


def test_criterion_8_lattice_oracle_equivalence():
    rng = random.Random(20260811)
    cases = 1000
    discrepancies = 0
    box_checked = 0
    for _ in range(cases):
        rank = rng.randint(1, 4)
        gens_a = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(0, rank + 1))
        ]
        gens_b = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(0, rank + 1))
        ]
        a = SubLattice.from_columns(rank, gens_a)
        b = SubLattice.from_columns(rank, gens_b)
        s = lattice_sum(a, b)
        inter = lattice_intersect(a, b)
        probes = [tuple(rng.randint(-8, 8) for _ in range(rank)) for _ in range(5)]
        probes += s.canonical_form.columns() + inter.canonical_form.columns()
        for v in probes:
            in_a = member_oracle(v, gens_a)
            in_b = member_oracle(v, gens_b)
            if lattice_member(v, a) != in_a or lattice_member(v, b) != in_b:
                discrepancies += 1
            if lattice_member(v, s) != member_oracle(v, gens_a + gens_b):
                discrepancies += 1
            if lattice_member(v, inter) != (in_a and in_b):
                discrepancies += 1
        inv = quotient_invariants(rank, a)
        free, torsion = invariants_oracle(rank, gens_a)
        if (inv.free_rank, inv.torsion) != (free, torsion):
            discrepancies += 1
        pts_a = box_points(gens_a, rank, 8, visit_cap=30_000)
        if pts_a is not None:
            pts_canon = box_points(
                a.canonical_form.columns(), rank, 8, visit_cap=300_000
            )
            if pts_canon is not None:
                box_checked += 1
                if pts_a != pts_canon:
                    discrepancies += 1
                pts_b = box_points(gens_b, rank, 8, visit_cap=30_000)
                pts_i = box_points(
                    inter.canonical_form.columns(), rank, 8, visit_cap=300_000
                )
                if pts_b is not None and pts_i is not None:
                    if pts_i != (pts_a & pts_b):
                        discrepancies += 1
    ok = discrepancies == 0
    _announce(
        8,
        ok,
        f"{cases} randomized cases, {discrepancies} discrepancies, "
        f"{box_checked} full box enumerations",
    )


def test_criterion_9_branched_cover_orders():
    from idelink.covers import branched_cover_order

    trefoil = IntMatrix([[-1, 1], [0, -1]])
    figure_eight = IntMatrix([[1, 1], [0, -1]])
    # det(V - t V^T) for these matrices, ascending coefficients
    trefoil_delta = [1, -1, 1]
    figure_eight_delta = [-1, 3, -1]
    expected = {
        (0, 2): 3,
        (0, 3): 4,
        (0, 5): 1,
        (1, 2): 5,
    }
    ok = True
    details = []
    for (which, n), value in expected.items():
        mat = (trefoil, figure_eight)[which]
        delta = (trefoil_delta, figure_eight_delta)[which]
        got = branched_cover_order(mat, n)
        oracle = abs(resultant_oracle(delta, [1] * n))
        ok = ok and got == value == oracle
        details.append(f"n={n}: {got}")
    _announce(9, ok, "orders " + ", ".join(details) + " all match the oracle")


def _map_back(lattice, order, size):
    cols = []
    for col in lattice.canonical_form.columns():
        out = [0] * (2 * size)
        for i in range(size):
            out[2 * order[i]] = col[2 * i]
            out[2 * order[i] + 1] = col[2 * i + 1]
        cols.append(tuple(out))
    return SubLattice.from_columns(2 * size, cols)


def test_criterion_10_enumeration_determinism(sweep_covers):
    # sweep_covers (tests/conftest.py) lifts the same sweep as full_suite.
    mismatched = 0
    scenarios = 0
    for _, _, c in sweep_covers:
        scenarios += 1
        base_order = tuple(reversed(range(c.base.size)))
        top_order = tuple(reversed(range(c.total.size)))
        r = relabeled_cover(c, base_order, top_order)
        left = lattice_intersect(
            principal_lattice(c.base), pushforward_image(c)
        )
        right = principal_pushforward(c)
        left_p = lattice_intersect(
            principal_lattice(r.base), pushforward_image(r)
        )
        right_p = principal_pushforward(r)
        verdict = lattice_equal(left, right)
        verdict_p = lattice_equal(left_p, right_p)
        same_forms = lattice_equal(
            _map_back(left_p, base_order, c.base.size), left
        ) and lattice_equal(
            _map_back(right_p, base_order, c.base.size), right
        )
        if not (verdict and verdict_p and same_forms):
            mismatched += 1
    _announce(
        10,
        mismatched == 0 and scenarios == (1 + 63 + 1365) * len(DEGREES),
        f"{scenarios} scenarios re-run under reversed enumeration, "
        f"{mismatched} verdict or canonical-form mismatches",
    )
