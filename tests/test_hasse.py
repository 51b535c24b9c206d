"""Verifier records, witnesses, and the suite driver."""

import functools
import hashlib
import json
import types
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idelink import covers, hasse, ideles, kernel, links, zlattice
from idelink.covers import (
    lift_braid,
    principal_pushforward,
    pushforward_image,
    relabeled_cover,
)
from idelink.hasse import (
    CHECKS,
    CheckRecord,
    equality_witness,
    iter_braid_words,
    count_scenarios,
    resolve_checks,
    run_scenario,
    run_suite,
    scenario_report_json,
    verify_class_quotient_free,
    verify_cover_exact_sequence,
    verify_diagonal_commutes,
    verify_meridian_pushforward,
    verify_norm_principle,
    verify_projection_compatibility,
)
from idelink.ideles import principal_lattice
from idelink.links import BraidWord
from idelink.zlattice import (
    SubLattice,
    lattice_equal,
    lattice_intersect,
    lattice_member,
)

from oracles import (
    class_quotient_all_sublinks,
    diagonal_commutes_typed,
    failure_corpus,
    meridian_pushforward_typed,
    projection_all_sublinks,
    replaced,
    unfree_sublink,
    universe_of,
    wide4_words,
    with_rows,
)


def test_worked_double_cover_lattices():
    c = lift_braid(BraidWord(1, ()), 2)
    # ordered basis (mu_A, lam_A, mu_K, lam_K)
    expected = SubLattice.from_columns(4, [(0, 1, -1, 0), (-2, 0, 0, 2)])
    left = lattice_intersect(principal_lattice(c.base), pushforward_image(c))
    right = principal_pushforward(c)
    assert lattice_equal(left, expected)
    assert lattice_equal(right, expected)


@pytest.mark.parametrize("word,strands,degree", [
    ((), 1, 2),
    ((1,), 2, 2),
    ((1, 1), 2, 3),
    ((1, 2), 3, 2),
    ((), 1, 1),
])
def test_all_checks_pass_on_good_covers(word, strands, degree):
    report = run_scenario(BraidWord(strands, word), degree)
    assert report.passed
    assert [c.name for c in report.checks] == list(CHECKS)


def test_equality_witness_confirmed_by_membership():
    a = SubLattice.from_columns(2, [(2, 0), (0, 1)])
    b = SubLattice.from_columns(2, [(1, 0), (0, 2)])
    w = equality_witness(a, b)
    assert w is not None
    assert lattice_member(w, a) != lattice_member(w, b)
    assert equality_witness(a, a) is None


def test_norm_principle_witness_on_tampered_cover():
    # break one pushforward matrix; the check must fail with a witness
    # lying in exactly one side
    c = lift_braid(BraidWord(2, (1,)), 2)
    bad = c.pushforward[:1] + (((1, 5), (0, 1)),) + c.pushforward[2:]
    tampered = replaced(c, pushforward=bad)
    passed, witness = verify_norm_principle(tampered)
    assert not passed
    assert witness is not None
    vec = tuple(witness["vector"])
    left = lattice_intersect(principal_lattice(tampered.base), pushforward_image(tampered))
    right = principal_pushforward(tampered)
    assert lattice_member(vec, left) != lattice_member(vec, right)
    assert witness["in_intersection"] != witness["in_pushforward"]


def test_meridian_witness_on_tampered_cover():
    c = lift_braid(BraidWord(2, (1,)), 2)
    bad = (((2, 0), (1, 1)),) + c.pushforward[1:]
    tampered = replaced(c, pushforward=bad)
    passed, witness = verify_meridian_pushforward(tampered)
    assert not passed
    assert witness["upstairs_component"] == "A~"


def test_diagonal_commutes_witness_on_tampered_cover():
    c = lift_braid(BraidWord(2, (1,)), 2)
    bad = c.pushforward[:1] + (((1, 3), (0, 1)),) + c.pushforward[2:]
    tampered = replaced(c, pushforward=bad)
    passed, witness = verify_diagonal_commutes(tampered)
    assert not passed
    assert witness["pushed_boundary"] != witness["boundary_of_image"]


def _moved_pushforward(b, n, j, entry, delta):
    """The degree-n lift of ``b`` with entry ``entry`` of lift j's pushforward moved by delta."""
    c = lift_braid(b, n)
    rows = [list(row) for row in c.pushforward[j]]
    rows[entry[0]][entry[1]] += delta
    moved = tuple(tuple(row) for row in rows)
    return replaced(c, pushforward=c.pushforward[:j] + (moved,) + c.pushforward[j + 1 :])


# Every check's (passed, witness) on two tampered covers, as report JSON.
# Both covers fail norm_principle and cover_exact_sequence through their
# lattice routes, so the pinned vectors fix the order in which
# equality_witness scans the two sides and their generators.
PINNED_WITNESSES = [
    (
        # The Hopf link's double cover, lift J1's longitude degree 2 -> 3.
        (BraidWord(2, (1, 1)), 2, 1, (1, 1), 1),
        {
            "norm_principle": [False, {
                "coordinates": ["mu_A", "lam_A", "mu_K1", "lam_K1", "mu_K2", "lam_K2"],
                "in_intersection": True,
                "in_pushforward": False,
                "vector": [0, 1, 5, 6, -7, -6],
            }],
            "diagonal_commutes": [False, {
                "boundary_of_image": [-2, 0, 0, 2, -2, 0],
                "coordinates": ["mu_A", "lam_A", "mu_K1", "lam_K1", "mu_K2", "lam_K2"],
                "pushed_boundary": [-2, 0, 0, 3, -2, 0],
                "surface_coeffs": [1],
                "surface_support": [1],
            }],
            "meridian_pushforward": [True, None],
            "class_quotient_free": [True, None],
            "projection_compatibility": [True, None],
            "cover_exact_sequence": [False, {
                "coordinates": ["mu_A~", "lam_A~", "mu_J1", "lam_J1", "mu_J2", "lam_J2"],
                "in_deck_image_plus_relations": False,
                "in_kernel_preimage": True,
                "part": "middle_exactness",
                "vector": [0, 0, 0, 2, 0, -3],
            }],
        },
    ),
    (
        # The double cover of the closed sigma_1, lift J2's longitude degree 1 -> 2.
        (BraidWord(2, (1,)), 2, 2, (1, 1), 1),
        {
            "norm_principle": [False, {
                "coordinates": ["mu_A", "lam_A", "mu_K1", "lam_K1"],
                "in_intersection": False,
                "in_pushforward": True,
                "vector": [2, 0, 0, 0],
            }],
            "diagonal_commutes": [False, {
                "boundary_of_image": [-2, 0, 0, 1],
                "coordinates": ["mu_A", "lam_A", "mu_K1", "lam_K1"],
                "pushed_boundary": [-2, 0, 0, 2],
                "surface_coeffs": [1],
                "surface_support": [2],
            }],
            "meridian_pushforward": [True, None],
            "class_quotient_free": [True, None],
            "projection_compatibility": [True, None],
            "cover_exact_sequence": [False, {
                "coordinates": ["mu_A~", "lam_A~", "mu_J1", "lam_J1", "mu_J2", "lam_J2"],
                "in_deck_image_plus_relations": False,
                "in_kernel_preimage": True,
                "part": "middle_exactness",
                "vector": [1, 0, 0, 1, 0, -1],
            }],
        },
    ),
]


@pytest.mark.parametrize("tamper,expected", PINNED_WITNESSES)
def test_tampered_cover_witnesses_are_pinned_byte_for_byte(tamper, expected):
    c = _moved_pushforward(*tamper)
    got = {name: list(check(c)) for name, check in CHECKS.items()}
    assert list(got) == list(expected)
    # Report JSON bytes, so True and 1 differ.
    assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(expected, indent=2, sort_keys=True)


def _record_calls(monkeypatch, module, name, *bindings):
    """Arguments of every call to ``module.name`` from now on.

    The function is patched in ``module`` and, under the same name, in
    each of ``bindings``, so a caller that imported it is counted too.
    """
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for owner in (module, *bindings):
        monkeypatch.setattr(owner, name, recorded, raising=owner is module)
    return calls


def _tampered_longitudes(c, changes):
    """``c`` with ``changes[k]`` = {slot: value} written into generator k of both universes."""

    def tampered(u):
        gens = ideles.principal_generators(u)
        rows = {k: tuple(slots.get(i, x) for i, x in enumerate(gens[k])) for k, slots in changes.items()}
        return with_rows(u, rows)

    return replaced(c, base=tampered(c.base), total=tampered(c.total))


def test_class_quotient_witness_through_smith(monkeypatch):
    # Longitude block [(2, 1), (0, 2)] as Hermite columns: the pivot 2 does
    # not divide the 1 below it, so neither the identity accept nor the
    # divisibility exit applies, and the invariants come from the
    # alternating Hermite rounds past the check's own col_hnf.  The
    # quotient is Z/4, where the pivots alone would read Z/2 + Z/2.
    c = _tampered_longitudes(lift_braid(BraidWord(2, (1,)), 2), {0: {1: 2, 3: 1}, 1: {3: 2}})
    hnf_calls = _record_calls(monkeypatch, kernel, "col_hnf")
    passed, witness = verify_class_quotient_free(c)
    assert not passed
    assert witness == {"universe": "base", "sublink": [], "free_rank": 0, "torsion": [4], "expected_free_rank": 0}
    # The base universe fails first: one call reduces it, the rest alternate.
    assert hnf_calls[0][1] == [(2, 1), (0, 2)]
    assert len(hnf_calls) > 1
    assert (passed, witness) == class_quotient_all_sublinks(c)


def test_class_quotient_witness_from_the_divisibility_exit(monkeypatch):
    # Doubling the axis generator's own longitude gives the Hermite columns
    # [(2, 0), (0, 1)]: every pivot divides the entries below it, so the
    # pivots are the diagonal and Z/2 is read off with no call past the check's.
    c = _tampered_longitudes(lift_braid(BraidWord(2, (1,)), 2), {0: {1: 2}})
    hnf_calls = _record_calls(monkeypatch, kernel, "col_hnf")
    passed, witness = verify_class_quotient_free(c)
    assert not passed
    assert witness == {"universe": "base", "sublink": [], "free_rank": 0, "torsion": [2], "expected_free_rank": 0}
    assert len(hnf_calls) == 1
    assert (passed, witness) == class_quotient_all_sublinks(c)


def test_unimodular_longitude_block_that_is_not_the_identity_passes(monkeypatch):
    # Writing 1 into the axis generator's longitude on the other slot gives
    # the block [(1, 1), (0, 1)]: unimodular, so its Hermite form is the
    # identity and every sublink's quotient is free.
    c = _tampered_longitudes(lift_braid(BraidWord(2, (1,)), 2), {0: {3: 1}})
    hnf_calls = _record_calls(monkeypatch, kernel, "col_hnf")
    assert verify_class_quotient_free(c) == (True, None)
    assert hnf_calls[0][1] == [(1, 1), (0, 1)]
    assert len(hnf_calls) == 2
    assert class_quotient_all_sublinks(c) == (True, None)


def _projection_failure(u, tag, sub, gen, projected, direct):
    """The (passed, witness) pair of a projection failure on universe ``u``."""
    return False, {
        "universe": tag,
        "sublink": sub,
        "larger": list(u.labels),
        "generator": gen,
        "projected": projected,
        "direct": direct,
    }


# The Hopf link and its axis, A, K1, K2, linked pairwise once.
HOPF_COVER = lift_braid(BraidWord(2, (1, 1)), 2)


def test_projection_witness_on_dropped_linking_term():
    # K2's row drops its linking terms with A and K1; the first of the two
    # slots, A's, names the pair, which lists A first.
    c = HOPF_COVER
    assert c.base.linking.entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    tampered = replaced(c, base=with_rows(c.base, {2: (0, 0, 0, 0, 0, 1)}))
    expected = _projection_failure(c.base, "base", ["A", "K2"], "K2", [0, 0, 0, 1], [-1, 0, 0, 1])
    assert verify_projection_compatibility(tampered) == expected
    assert projection_all_sublinks(tampered) == expected


def test_projection_witness_on_own_slot():
    # K2's own slot carries a meridian, and its slot on K1 moves as well:
    # the own slot comes first, so the sublink is K2 alone.
    c = HOPF_COVER
    tampered = replaced(c, base=with_rows(c.base, {2: (-1, 0, -3, 0, 1, 1)}))
    expected = _projection_failure(c.base, "base", ["K2"], "K2", [1, 1], [0, 1])
    assert verify_projection_compatibility(tampered) == expected
    assert projection_all_sublinks(tampered) == expected


def test_projection_witness_on_cover_only():
    # A 4-strand knot lifts to 4 components plus the axis at degree 4, all
    # linked pairwise once; the base is left intact and J3 drops its link
    # with J4.
    c = lift_braid(BraidWord(4, (1, 2, 3)), 4)
    assert (c.base.size, c.total.size) == (2, 5)
    row = (-1, 0, -1, 0, -1, 0, 0, 1, 0, 0)
    tampered = replaced(c, total=with_rows(c.total, {3: row}))
    expected = _projection_failure(
        c.total, "cover", ["J3", "J4"], "J3", [0, 1, 0, 0], [0, 1, -1, 0]
    )
    assert verify_projection_compatibility(tampered) == expected
    assert projection_all_sublinks(tampered) == expected


def test_product_path_builds_no_typed_wrappers(monkeypatch):
    # The typed idele layer and IntMatrix-wrapped pushforwards stay out of
    # the checks and the lift; the lift's linking matrices come from the
    # trusted constructor, which runs no IntMatrix.__init__.
    matrices = _record_calls(monkeypatch, zlattice.IntMatrix, "__init__")
    ideles_built = _record_calls(monkeypatch, ideles.IdeleVector, "__init__")
    c = lift_braid(BraidWord(4, ()), 2)
    assert (c.base.size, c.total.size) == (5, 5)
    assert matrices == []
    for fn in CHECKS.values():
        assert fn(c)[0]
    assert ideles_built == []


def test_scenario_builds_each_universes_generators_once(monkeypatch):
    # Each universe builds its principal generators when it is constructed;
    # the checks read copies of them, and only projection_compatibility
    # rebuilds them, from the linking matrix, to compare.  Both bindings
    # of the one formula are patched, so the by-name import is counted too.
    builds = _record_calls(monkeypatch, links, "_principal_rows", hasse)
    report = run_scenario(BraidWord(4, ()), 2)
    assert report.passed and len(report.checks) == len(CHECKS)
    # The lift's 2 builds, then the check's 2.
    assert [len(rows) for rows, in builds] == [5, 5, 5, 5]
    c = lift_braid(BraidWord(4, ()), 2)
    for name, fn in CHECKS.items():
        builds.clear()
        assert fn(c)[0]
        assert len(builds) == (2 if name == "projection_compatibility" else 0), name


# Route cross-checks, as data.  Each identity is decided by two routes,
# and their agreement on many covers is what shows the verdicts right.
# (A) The closed forms against their lattice routes, the recorded
# attributes: an accept may only ever return True where the route passes.
CLOSED_FORM = {
    "norm_principle": "_norm_principle_lattice",
    "cover_exact_sequence": "_cover_exact_sequence_lattice",
}
# (B) The reduced checks against the loops over every sublink.
FULL_LOOPS = {
    "class_quotient_free": class_quotient_all_sublinks,
    "projection_compatibility": projection_all_sublinks,
}
# (C) The tuple checks against the typed routes.  These build boundaries
# from the linking matrix where the checks read the stored generators,
# so only families with real generators meet this pair.
TYPED_ROUTES = {
    "diagonal_commutes": diagonal_commutes_typed,
    "meridian_pushforward": meridian_pushforward_typed,
}

# How many of a family's n covers a check must fail.  "some" is the
# floor of tampered families: the damage must reach the check, or the
# agreement says little.
FLOORS = {
    "none": lambda failed, n: failed == 0,
    "some": lambda failed, n: failed > 0,
    "all": lambda failed, n: failed == n,
    "some, not all": lambda failed, n: 0 < failed < n,
}


class Family(NamedTuple):
    """A row of the matrix: one family of the ``cover_families`` table (conftest.py)."""

    size: int
    # A floor per check, in CHECKS order, or None where its pair skips the family.
    floors: tuple
    # What else the family must hold for its rows to say something.
    holds: Callable | None = None
    # Whether passes may come from the lattice routes, the closed forms not applying.
    lattice_passes: bool = False
    # The universes and the sublink sizes that the projection witnesses name.
    projection_witnesses: tuple | None = None


PASS = ("none",) * len(CHECKS)
# Floors in CHECKS order: norm_principle, diagonal_commutes,
# meridian_pushforward, class_quotient_free, projection_compatibility,
# cover_exact_sequence.
MATRIX = {
    "sweep": Family(5716, PASS),
    "wide4": Family(240, PASS, lambda covers: sum(c.total.size == 5 for c in covers) > 100),
    "relabeled": Family(58, PASS, lambda covers: any(c.base.axis_index or c.total.axis_index for c in covers)),
    "moved_pushforward": Family(5716, ("some", None, None, None, None, "some")),
    "moved_pushforward_short": Family(404, (None, "some", "some", None, None, None)),
    # norm_principle does not read the deck rotation.
    "swapped_deck": Family(5124, (None, None, None, None, None, "some")),
    # Unit longitudes: the accepts apply and every class quotient is free,
    # while each shifted generator row leaves the linking formula.
    "patched_kept": Family(286, ("none", None, None, "none", "all", "none")),
    "patched_broken": Family(286, ("all", None, None, "none", "all", "all")),
    # Doubled longitudes are no units: the closed forms do not apply, and
    # the lattice routes pass some covers and fail others.
    "doubled_longitudes": Family(286, ("some, not all", None, None, "all", "all", "some, not all"),
                                 lattice_passes=True),
    # f = 0: both sides of norm_principle are 0, while the exact sequence
    # fails, since the preimage of R_M is everything; every boundary goes
    # to 0 and every meridian to no longitude.
    "zero_pushforward": Family(286, ("none", "all", "none", None, None, "all")),
    # Every row of a real universe equals the linking formula, so one moved
    # entry of one generator, in either universe, must fail the check:
    # both universes fail, on the generator's own slot and off it.
    "moved_generator": Family(817, (None, None, None, None, "all", None),
                              projection_witnesses=({"base", "cover"}, {1, 2})),
    # Every (degree, strand count) the CLI admits; the base windings sum to the strands.
    "all_degrees": Family(1452, PASS, lambda covers: {(c.degree, sum(c.base.windings)) for c in covers}
                          == {(n, s) for n in range(1, 13) for s in range(1, 5)}),
}


def _floors(row, routes):
    """The checks of ``routes`` that ``row`` runs, with their floors."""
    return {name: floor for name, floor in zip(CHECKS, row.floors) if floor and name in routes}


def _families(routes):
    return [family for family, row in MATRIX.items() if _floors(row, routes)]


def _agree(cover_families, family, routes, outcomes):
    """Assert a family's size, shape, agreement and floors; its row and what else it found.

    ``outcomes(covers, routes)`` gives, for the checks the row runs,
    the disagreements between each check and its second route, the
    failures per check, and one more value, which is returned.
    """
    row = MATRIX[family]
    covers = cover_families[family]
    assert len(covers) == row.size
    assert row.holds is None or row.holds(covers)
    floors = _floors(row, routes)
    bad, failed, found = outcomes(covers, {name: routes[name] for name in floors})
    assert bad == []
    assert [name for name, f in floors.items() if not FLOORS[f](failed[name], len(covers))] == [], failed
    return row, found


def _closed_form_outcomes(monkeypatch, covers, attrs):
    """Disagreements with the lattice route, failures, and missed accepts.

    ``attrs`` names each compared check's lattice route in ``hasse``.
    Returns the (cover index, check) pairs whose (passed, witness)
    differs from the lattice route's, and per check the number of covers
    that fail and the number of passing covers the closed form left to
    the lattice route.  The route runs once per cover and check: where
    the closed form declines, the check runs it and that run is recorded
    as the oracle's answer; where it accepts, the route runs here.
    """
    routes = {}
    ran = {}
    for name, attr in attrs.items():
        route = routes[name] = getattr(hasse, attr)

        def recording(c, name=name, route=route):
            ran[name] = route(c)
            return ran[name]

        monkeypatch.setattr(hasse, attr, recording)
    bad = []
    failed = dict.fromkeys(attrs, 0)
    missed = dict.fromkeys(attrs, 0)
    for i, c in enumerate(covers):
        for name in attrs:
            ran.pop(name, None)
            rec = CHECKS[name](c)
            expected = ran[name] if name in ran else routes[name](c)
            if rec != expected:
                bad.append((i, name))
            failed[name] += not rec[0]
            missed[name] += rec[0] and name in ran
    return bad, failed, missed


def _route_outcomes(covers, routes):
    """Disagreements with the second route, failures and failing witnesses, per check."""
    bad, failed, witnesses = [], {}, {}
    for name, route in routes.items():
        outcomes = [CHECKS[name](c) for c in covers]
        bad += [(i, name) for i, c in enumerate(covers) if outcomes[i] != route(c)]
        witnesses[name] = [w for passed, w in outcomes if not passed]
        failed[name] = len(witnesses[name])
    return bad, failed, witnesses


@pytest.mark.parametrize("family", _families(CLOSED_FORM))
def test_closed_forms_agree_with_lattice_routes(monkeypatch, cover_families, family):
    outcomes = functools.partial(_closed_form_outcomes, monkeypatch)
    row, missed = _agree(cover_families, family, CLOSED_FORM, outcomes)
    if not row.lattice_passes:
        assert missed == dict.fromkeys(missed, 0)


@pytest.mark.parametrize("family", _families(FULL_LOOPS))
def test_reduced_checks_agree_with_full_loops(cover_families, family):
    row, witnesses = _agree(cover_families, family, FULL_LOOPS, _route_outcomes)
    if row.projection_witnesses:
        found = witnesses["projection_compatibility"]
        assert ({w["universe"] for w in found}, {len(w["sublink"]) for w in found}) == row.projection_witnesses


@pytest.mark.parametrize("family", _families(TYPED_ROUTES))
def test_tuple_checks_agree_with_typed_routes(cover_families, family):
    _agree(cover_families, family, TYPED_ROUTES, _route_outcomes)


# Each ``oracles.failure_corpus`` family on the sweep3 covers: its size,
# then its failures per check in CHECKS order; and the SHA-256 of every
# outcome.  Between them the families fail every check.
CORPUS_FAILURES = {
    "moved_pushforward": (1492, 1492, 1492, 352, 0, 0, 760),
    "swapped_deck": (964, 0, 0, 0, 0, 0, 584),
    "moved_generator": (498, 498, 498, 0, 75, 498, 285),
    "doubled_longitudes": (498, 188, 91, 0, 498, 498, 119),
}
CORPUS_SHA256 = "1d09540e417ba466ffcadad474ca15ca2c0ead7f0490d5389aa931aaefbf605b"


def test_failure_corpus_outcomes_are_pinned(sweep_covers):
    # Every check's record on every corpus cover, as the report writes
    # it, with its timing field dropped: a changed witness, canonical
    # form or scan order changes the digest even where no verdict moves.
    sweep3 = [c for b, _, c in sweep_covers if len(b.letters) <= 4]
    assert len(sweep3) == 1492
    outcomes, failed = [], {}
    for family, covers in failure_corpus(sweep3).items():
        counts = [0] * len(CHECKS)
        for c in covers:
            records = []
            for i, (name, check) in enumerate(CHECKS.items()):
                passed, witness = check(c)
                counts[i] += not passed
                doc = CheckRecord(name, passed, 0.0, witness).to_json_dict()
                del doc["millis"]
                records.append(doc)
            outcomes.append(records)
        failed[family] = (len(covers), *counts)
    assert failed == CORPUS_FAILURES
    text = json.dumps(outcomes, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256


# Every scenario report of the words with <=4 strands and <=4 letters at
# degrees 1-12, in suite order, each as the report writer writes it
# (indented, keys sorted) with its timing fields dropped, and a newline.
REPORT_SHA256 = "912d563ce24b41052e0ae30cf8f3732776fcb649f2f8fa2e6a50985914912480"


def test_every_small_report_is_pinned(small_lifts):
    # The sweep3 digest reaches <=3 strands at degrees 2-5 only; this
    # covers 4-strand words and degrees 1 and 6-12, every check in
    # CHECKS order, as run_scenario records it on the lift.
    digest = hashlib.sha256()
    for b, n, c in small_lifts:
        records = []
        for name, check in CHECKS.items():
            passed, witness = check(c)
            records.append(CheckRecord(name, passed, 0.0, witness))
        doc = hasse.VerificationReport(b.strands, b.letters, n, tuple(records)).to_json_dict()
        for rec in doc["checks"]:
            del rec["millis"]
        digest.update(json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")
    assert len(small_lifts) == 23136
    assert digest.hexdigest() == REPORT_SHA256


@st.composite
def _grafted_covers(draw, covers):
    """A real cover with some pushforward pairs and possibly the deck replaced."""
    c = draw(st.sampled_from(covers))
    small = st.integers(-3, 3)
    pair = st.tuples(st.tuples(small, small), st.tuples(small, small))
    pushforward = tuple(
        draw(st.one_of(st.just(real), pair)) for real in c.pushforward
    )
    deck = draw(st.one_of(st.just(c.deck), st.permutations(range(c.total.size))))
    return replaced(c, pushforward=pushforward, deck=tuple(deck))


def test_accept_implies_lattice_pass_on_grafted_covers(sweep_covers):
    covers = [c for _, _, c in sweep_covers[:400]]

    @settings(max_examples=200, deadline=None)
    @given(_grafted_covers(covers))
    def accept_is_sound(c):
        if hasse._norm_principle_accept(c):
            assert hasse._norm_principle_lattice(c) == (True, None)
        if hasse._cover_exact_sequence_accept(c):
            assert hasse._cover_exact_sequence_lattice(c) == (True, None)

    accept_is_sound()


def test_closed_form_checks_make_no_kernel_calls(monkeypatch):
    c = lift_braid(BraidWord(4, ()), 2)
    assert (c.base.size, c.total.size) == (5, 5)
    calls = {name: _record_calls(monkeypatch, kernel, name) for name in ("col_hnf", "col_hnf_with_kernel", "smith")}
    assert verify_norm_principle(c)[0]
    assert verify_cover_exact_sequence(c)[0]
    assert calls == dict.fromkeys(calls, [])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.tuples(*[st.integers(-2, 2)] * (2 * m)), min_size=m, max_size=m
        )
    )
)
def test_free_on_empty_sublink_iff_free_on_every_sublink(gens):
    # Any [L; B] block, not only braid universes: the empty sublink decides.
    u = universe_of(gens)
    inv = ideles.class_quotient(u, ())
    assert (not inv.free_rank and not inv.torsion) == (unfree_sublink(u) is None)


def test_class_quotient_makes_one_hermite_call_per_universe(monkeypatch):
    # A pass is read off the kernel's Hermite form: no lattice or
    # invariants record is built and the public quotient is not called.
    c = lift_braid(BraidWord(4, ()), 2)
    assert (c.base.size, c.total.size) == (5, 5)
    calls = _record_calls(monkeypatch, kernel, "col_hnf")

    def forbidden(*args, **kwargs):
        raise AssertionError("a passing class quotient built a wrapper")

    for mod in (zlattice, ideles, hasse):
        monkeypatch.setattr(mod, "quotient_invariants", forbidden, raising=False)
    monkeypatch.setattr(zlattice.SubLattice, "__init__", forbidden)
    monkeypatch.setattr(zlattice.AbelianInvariants, "__init__", forbidden)
    assert verify_class_quotient_free(c) == (True, None)
    assert [nrows for nrows, _ in calls] == [5, 5]


def test_exact_sequence_lattice_route_builds_the_pushforward_once(monkeypatch):
    # The axis generator's longitude written on the other slot: the
    # longitudes are no longer units, so the closed form declines and the
    # lattice route decides both parts from one pushforward matrix.
    c = _tampered_longitudes(lift_braid(BraidWord(2, (1,)), 2), {0: {3: 1}})
    # hasse's own binding, and the one ``covers.pushforward_image`` calls.
    calls = _record_calls(monkeypatch, covers, "pushforward_matrix", hasse)
    assert not hasse._cover_exact_sequence_accept(c)
    assert verify_cover_exact_sequence(c) == (True, None)
    assert len(calls) == 1


def test_meridian_pass_makes_no_pushforward_coeffs_call(monkeypatch):
    # A passing check reads each pushforward matrix directly; only a
    # failure pushes a unit meridian through for its witness.
    c = lift_braid(BraidWord(4, ()), 2)
    assert (c.base.size, c.total.size) == (5, 5)
    calls = _record_calls(monkeypatch, hasse, "_pushforward_coeffs")
    assert verify_meridian_pushforward(c)[0]
    assert calls == []
    # The counter sees the failure route.
    bad = (((2, 0), (1, 1)),) + c.pushforward[1:]
    assert not verify_meridian_pushforward(replaced(c, pushforward=bad))[0]
    assert len(calls) == 1


def test_passing_scenario_pushes_each_upstairs_generator_once(monkeypatch):
    # The lift pushes the cover's 5 generators in one pass; norm_principle's
    # closed form and diagonal_commutes read them and push nothing.  Every
    # push, through either module's binding, is one _pushed_rows pass.
    # Counted through hasse's bindings too, so a check that imports a push is caught.
    passes = _record_calls(monkeypatch, covers, "_pushed_rows", hasse)
    coeffs = _record_calls(monkeypatch, hasse, "_pushforward_coeffs")
    report = run_scenario(BraidWord(4, ()), 2)
    assert report.passed and len(report.checks) == len(CHECKS)
    assert ([len(args[3]) for args in passes], coeffs) == ([5], [])


def test_passing_scenario_reads_stored_generators_in_place(monkeypatch):
    # The checks read each universe's stored generator rows: the public
    # reader, with its copy and its checks, is not on a passing path.
    # Counted through hasse's binding too, so a check that imports the reader is caught.
    calls = _record_calls(monkeypatch, ideles, "principal_generators", hasse)
    report = run_scenario(BraidWord(4, ()), 2)
    assert report.passed and len(report.checks) == len(CHECKS)
    assert calls == []


def test_monotone_truncation_extra_split_strand():
    # adding an unused strand (split unknot around the axis) never flips
    # a passing verdict
    for word, strands in [((), 1), ((1,), 2), ((1, 1), 2), ((1, -1), 2)]:
        for degree in (2, 3):
            base = run_scenario(BraidWord(strands, word), degree)
            widened = run_scenario(BraidWord(strands + 1, word), degree)
            assert base.passed and widened.passed


def test_checks_run_on_relabeled_cover():
    c = lift_braid(BraidWord(3, (1, 2, 2)), 2)
    r = relabeled_cover(
        c,
        tuple(reversed(range(c.base.size))),
        tuple(reversed(range(c.total.size))),
    )
    for name, fn in CHECKS.items():
        assert fn(c)[0] == fn(r)[0], name


def test_run_scenario_names_and_times_each_record_by_its_registry_key(monkeypatch):
    monkeypatch.setitem(CHECKS, "renamed", hasse.verify_norm_principle)
    (rec,) = run_scenario(BraidWord(2, (1,)), 2, ["renamed"]).checks
    assert rec.name == "renamed"
    assert type(rec.millis) is float and rec.millis >= 0
    assert (rec.passed, rec.witness) == (True, None)


class TestTrustedReports:
    """The run loop builds its records unchecked, through their classes' ``_trusted``.

    ``run_scenario`` builds its ``CheckRecord``s and ``VerificationReport``
    that way, on every scenario with <=3 strands, length <=3 and degrees
    2-5, and every wide4 word at its degree; ``run_suite`` builds its
    ``SuiteResult`` that way.
    """

    @staticmethod
    def reports():
        scenarios = [(b, n) for b in iter_braid_words(3, 3) for n in (2, 3, 4, 5)]
        return [(b, n, run_scenario(b, n)) for b, n in scenarios + wide4_words()]

    def test_reports_equal_their_rebuild_through_the_public_constructors(self):
        bad = []
        for b, n, rep in self.reports():
            rebuilt = replaced(rep, checks=tuple(replaced(c) for c in rep.checks))
            if rebuilt != rep or (rep.strands, rep.word, rep.degree) != (b.strands, b.letters, n):
                bad.append((b, n))
        assert bad == []

    def test_suite_result_equals_its_rebuild_through_the_public_constructor(self):
        result = run_suite(2, 2, iter([3, 2]))
        assert replaced(result) == result
        assert (result.degrees, result.complete, len(result.reports)) == ((3, 2), True, 16)

    def test_millis_is_a_float_at_microsecond_resolution(self):
        bad = [
            (b, n, c.name, c.millis)
            for b, n, rep in self.reports()
            for c in rep.checks
            if not (type(c.millis) is float and c.millis >= 0 and c.millis == round(c.millis, 3))
        ]
        assert bad == []

    def test_millis_rounds_the_clock_to_whole_microseconds(self, monkeypatch):
        # Each check reads the clock twice: 1234.6 us, then 0.4 us, then 250 ms.
        ticks = iter([10.0, 10.0012346, 20.0, 20.0000004, 30.0, 30.25])
        clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
        monkeypatch.setattr(hasse, "time", clock)
        names = ["norm_principle", "diagonal_commutes", "meridian_pushforward"]
        rep = run_scenario(BraidWord(2, (1,)), 2, names)
        assert [c.millis for c in rep.checks] == [1.235, 0.0, 250.0]
        assert all(type(c.millis) is float for c in rep.checks)

    def test_a_failing_check_keeps_its_witness(self, monkeypatch):
        witness = {"vector": [1, -2], "why": "test"}
        monkeypatch.setitem(CHECKS, "norm_principle", lambda cover: (False, witness))
        for b, n in [(BraidWord(2, (1,)), 2)] + wide4_words()[:5]:
            rep = run_scenario(b, n)
            first = rep.checks[0]
            assert (first.name, first.passed, first.witness) == ("norm_principle", False, witness)
            assert not rep.passed and all(c.passed for c in rep.checks[1:])
            assert replaced(rep, checks=tuple(replaced(c) for c in rep.checks)) == rep


def test_resolve_checks():
    assert resolve_checks(None) == list(CHECKS)
    assert resolve_checks(["norm_principle"]) == ["norm_principle"]
    with pytest.raises(ValueError):
        resolve_checks(["norm_principle", "made_up"])


def test_an_iterator_of_check_names_is_read_once():
    names = ["norm_principle", "meridian_pushforward"]
    assert resolve_checks(iter(names)) == names
    with pytest.raises(ValueError, match="names a check more than once"):
        resolve_checks(iter(["norm_principle"] * 2))
    b = BraidWord(2, (1,))
    assert [r.name for r in run_scenario(b, 2, iter(names)).checks] == names
    result = run_suite(2, 1, (2,), checks=iter(names))
    assert [[r.name for r in rep.checks] for rep in result.reports] == [names] * 4


def test_run_suite_resolves_its_check_names_once(monkeypatch):
    calls = _record_calls(monkeypatch, hasse, "resolve_checks")
    result = run_suite(2, 2, (2, 3), checks=["norm_principle"])
    assert len(result.reports) == 16
    assert calls == [(["norm_principle"],)]


def test_empty_check_list_rejected():
    with pytest.raises(ValueError, match="names no check"):
        resolve_checks([])
    with pytest.raises(ValueError, match="names no check"):
        run_scenario(BraidWord(1, ()), 2, [])
    with pytest.raises(ValueError, match="names no check"):
        run_suite(1, 0, (2,), checks=())


def test_plain_int_degree_at_the_library_boundary():
    b = BraidWord(2, (1,))
    for degree in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="not a plain int"):
            run_scenario(b, degree)
        with pytest.raises(ValueError, match="not a plain int"):
            lift_braid(b, degree)


def test_repeated_check_rejected():
    with pytest.raises(ValueError, match="names a check more than once"):
        resolve_checks(["norm_principle", "norm_principle"])
    with pytest.raises(ValueError, match="names a check more than once"):
        run_scenario(BraidWord(1, ()), 2, ["norm_principle"] * 2)


def test_check_names_as_a_bare_string_rejected():
    # A string is a sequence of one-letter names; every entry point asks
    # for a list instead.
    b = BraidWord(2, (1,))
    with pytest.raises(ValueError, match="expected a list of check names"):
        resolve_checks("norm_principle")
    with pytest.raises(ValueError, match="expected a list of check names"):
        run_scenario(b, 2, "norm_principle")
    with pytest.raises(ValueError, match="expected a list of check names"):
        run_suite(1, 0, (2,), checks="norm_principle")
    assert run_scenario(b, 2, ["norm_principle"]).passed


def test_iter_braid_words_deterministic_and_complete():
    words = list(iter_braid_words(2, 2))
    assert [(w.strands, w.letters) for w in words] == [
        (1, ()),
        (2, ()),
        (2, (-1,)),
        (2, (1,)),
        (2, (-1, -1)),
        (2, (-1, 1)),
        (2, (1, -1)),
        (2, (1, 1)),
    ]
    assert count_scenarios(2, 2, (2, 3)) == len(words) * 2
    assert count_scenarios(2, 2, iter((2, 3))) == len(words) * 2
    assert count_scenarios(3, 5, (2, 3, 4, 5)) == (1 + 63 + 1365) * 4


@pytest.mark.parametrize("bounds", [("3", 2), (2, 2.0), (True, 2), (0, 2), (2, -1)])
def test_word_bounds_rejected_at_the_call(bounds):
    # Checked when called, as run_suite checks them, not when first iterated.
    with pytest.raises(ValueError, match="bounds must"):
        iter_braid_words(*bounds)
    with pytest.raises(ValueError, match="bounds must"):
        count_scenarios(*bounds, (2,))


@pytest.mark.parametrize("degrees,message", [
    ("23", "cover degree '2' is not a plain int"),
    ((2, 2), "names a degree more than once"),
    ((0,), "cover degree must be >= 1"),
    ((), "names no degree"),
])
def test_bad_degrees_rejected_alike_by_count_and_suite(degrees, message):
    for fn in (count_scenarios, run_suite):
        with pytest.raises(ValueError) as exc:
            fn(2, 2, degrees)
        assert str(exc.value) == message


class TestRunSuite:
    def test_small_suite_counts(self):
        res = run_suite(2, 3, (2, 3))
        assert len(res.reports) == 32
        assert res.complete
        summary = res.summary()
        assert summary["failures"] == 0
        assert summary["checks"] == 32 * len(CHECKS)

    def test_empty_degrees(self):
        # No degree means no scenario, and a run that checks nothing cannot pass.
        with pytest.raises(ValueError, match="names no degree"):
            run_suite(2, 2, ())

    def test_non_int_degrees_rejected_before_running(self, monkeypatch):
        ran = []
        monkeypatch.setattr(hasse, "_run_scenario", lambda *args: ran.append(args))
        for degrees in ((True,), (2, 2.0), (2, "3")):
            with pytest.raises(ValueError, match="not a plain int"):
                run_suite(1, 0, degrees)
        with pytest.raises(ValueError, match="plain ints"):
            run_suite(True, 0, (2,))
        assert ran == []

    def test_single_trivial_scenario(self):
        res = run_suite(1, 3, (2,))
        assert len(res.reports) == 1
        assert res.reports[0].word == ()

    def test_json_round_trip_and_determinism(self):
        res1 = run_suite(2, 2, (2,), checks=["norm_principle", "meridian_pushforward"])
        res2 = run_suite(2, 2, (2,), checks=["norm_principle", "meridian_pushforward"])
        doc1 = res1.to_json_dict()
        doc2 = res2.to_json_dict()
        blob1 = json.dumps(_strip_millis(doc1), sort_keys=True)
        blob2 = json.dumps(_strip_millis(doc2), sort_keys=True)
        assert blob1 == blob2
        reparsed = json.loads(json.dumps(doc1))
        checks = sum(len(s["checks"]) for s in reparsed["scenarios"])
        passes = sum(
            1
            for s in reparsed["scenarios"]
            for c in s["checks"]
            if c["verdict"] == "pass"
        )
        assert checks == reparsed["summary"]["checks"]
        assert passes == reparsed["summary"]["passes"]

    def test_repeated_degree_rejected(self):
        with pytest.raises(ValueError, match="names a degree more than once"):
            run_suite(1, 0, (2, 2))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            run_suite(0, 2, (2,))
        with pytest.raises(ValueError):
            run_suite(2, -1, (2,))
        with pytest.raises(ValueError):
            run_suite(2, 2, (0,))


def _strip_millis(doc):
    doc = json.loads(json.dumps(doc))
    for scenario in doc.get("scenarios", []):
        for check in scenario["checks"]:
            check["millis"] = 0
    doc.get("summary", {}).pop("total_millis", None)
    return doc


def test_scenario_report_json_shape():
    rep = run_scenario(BraidWord(2, (1,)), 2, ["norm_principle"])
    doc = scenario_report_json(rep)
    assert doc["schema"] == 1
    assert doc["scenario"] == {"strands": 2, "word": [1], "degree": 2}
    assert doc["checks"][0]["name"] == "norm_principle"
    assert doc["checks"][0]["verdict"] == "pass"
    assert "millis" in doc["checks"][0]
