"""Verifier records, witnesses, and the suite driver."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idelink import hasse, ideles, kernel, links, zlattice
from idelink.covers import (
    lift_braid,
    principal_pushforward,
    pushforward_image,
    relabeled_cover,
)
from idelink.hasse import (
    CHECKS,
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
    meridian_pushforward_typed,
    projection_all_nested_pairs,
    replaced,
    unfree_sublink,
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
    left = lattice_intersect(
        principal_lattice(tampered.base), pushforward_image(tampered)
    )
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


def _count_col_hnf(monkeypatch):
    """Arguments of every ``kernel.col_hnf`` call from now on."""
    calls = []
    real = kernel.col_hnf

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernel, "col_hnf", counted)
    return calls


def _tampered_longitudes(monkeypatch, changes):
    """Principal generators with ``changes[k]`` = {slot: value} written into generator k."""
    real = hasse.principal_generators

    def tampered(u):
        gens = real(u)
        for k, slots in changes.items():
            g = list(gens[k])
            for slot, value in slots.items():
                g[slot] = value
            gens[k] = tuple(g)
        return gens

    monkeypatch.setattr(hasse, "principal_generators", tampered)


def test_class_quotient_witness_through_smith(monkeypatch):
    # Longitude block [(2, 1), (0, 2)] as Hermite columns: the pivot 2 does
    # not divide the 1 below it, so neither the unit-pivot accept nor the
    # divisibility exit applies, and the invariants come from the
    # alternating Hermite rounds past the span's own col_hnf.  The quotient
    # is Z/4, where the pivots alone would read Z/2 + Z/2.
    c = lift_braid(BraidWord(2, (1,)), 2)
    _tampered_longitudes(monkeypatch, {0: {1: 2, 3: 1}, 1: {3: 2}})
    hnf_calls = _count_col_hnf(monkeypatch)
    passed, witness = verify_class_quotient_free(c)
    assert not passed
    assert witness == {
        "universe": "base",
        "sublink": [],
        "free_rank": 0,
        "torsion": [4],
        "expected_free_rank": 0,
    }
    # The base universe fails first: one call spans it, the rest alternate.
    assert hnf_calls[0][1] == [(2, 1), (0, 2)]
    assert len(hnf_calls) > 1
    assert (passed, witness) == class_quotient_all_sublinks(c)


def test_class_quotient_witness_from_the_divisibility_exit(monkeypatch):
    # Doubling the axis generator's own longitude gives the Hermite columns
    # [(2, 0), (0, 1)]: every pivot divides the entries below it, so the
    # pivots are the diagonal and Z/2 is read off with no call past the span's.
    c = lift_braid(BraidWord(2, (1,)), 2)
    _tampered_longitudes(monkeypatch, {0: {1: 2}})
    hnf_calls = _count_col_hnf(monkeypatch)
    passed, witness = verify_class_quotient_free(c)
    assert not passed
    assert witness == {
        "universe": "base",
        "sublink": [],
        "free_rank": 0,
        "torsion": [2],
        "expected_free_rank": 0,
    }
    assert len(hnf_calls) == 1
    assert (passed, witness) == class_quotient_all_sublinks(c)


def test_projection_witness_on_dropped_linking_term(monkeypatch):
    # On sublinks of three or more components, drop the linking term of the
    # last other component: projecting from such a sublink then disagrees
    # with the boundary taken on the smaller one.
    real = hasse._boundary_coeffs

    def dropped(u, k, sub):
        coeffs = list(real(u, k, sub))
        if len(sub) >= 3:
            last = [k2 for k2 in sub if k2 != k][-1]
            coeffs[2 * last] = 0
        return tuple(coeffs)

    monkeypatch.setattr(hasse, "_boundary_coeffs", dropped)
    c = lift_braid(BraidWord(2, ()), 2)
    passed, witness = verify_projection_compatibility(c)
    assert not passed
    assert set(witness) == {
        "universe", "sublink", "larger", "generator", "projected", "direct",
    }
    assert witness["projected"] != witness["direct"]
    assert witness["universe"] == "base"
    assert witness["larger"] == ["A", "K1", "K2"]
    assert (passed, witness) == projection_all_nested_pairs(c)


def _agrees_with_full_loops(c):
    return (
        verify_class_quotient_free(c) == class_quotient_all_sublinks(c)
        and verify_projection_compatibility(c) == projection_all_nested_pairs(c)
    )


def test_reduced_checks_agree_with_full_loops_on_acceptance_sweep(sweep_covers):
    # Every cover of the acceptance sweep: <=3 strands, length <=5, degrees 2-5.
    assert len(sweep_covers) == 5716
    assert [c for _, _, c in sweep_covers if not _agrees_with_full_loops(c)] == []


def test_reduced_checks_agree_with_full_loops_on_wide4_words(wide4_covers):
    covers = [c for _, _, c in wide4_covers]
    assert sum(c.total.size == 5 for c in covers) > 100
    assert [c for c in covers if not _agrees_with_full_loops(c)] == []


def _outcomes(c):
    """(passed, witness) of the tuple checks and of their typed oracles."""
    return (
        (verify_diagonal_commutes(c), verify_meridian_pushforward(c)),
        (diagonal_commutes_typed(c), meridian_pushforward_typed(c)),
    )


def _disagree(c):
    new, typed = _outcomes(c)
    return new != typed


def test_tuple_checks_agree_with_typed_routes_on_acceptance_sweep(sweep_covers):
    assert len(sweep_covers) == 5716
    assert [(b, n) for b, n, c in sweep_covers if _disagree(c)] == []


def test_tuple_checks_agree_with_typed_routes_on_wide4_words(wide4_covers):
    assert [(b, n) for b, n, c in wide4_covers if _disagree(c)] == []


def _tampered_covers(seed):
    # One entry of one pushforward matrix moved by +-1 or +-2, once per
    # cover with <=3 strands, length <=3, degree 2-5.
    rng = random.Random(seed)
    for b in iter_braid_words(3, 3):
        for n in (2, 3, 4, 5):
            c = lift_braid(b, n)
            j = rng.randrange(c.total.size)
            rows = [list(row) for row in c.pushforward[j]]
            rows[rng.randrange(2)][rng.randrange(2)] += rng.choice((-2, -1, 1, 2))
            bad = tuple(tuple(row) for row in rows)
            pushforward = c.pushforward[:j] + (bad,) + c.pushforward[j + 1 :]
            yield replaced(c, pushforward=pushforward)


def test_tuple_checks_agree_with_typed_routes_on_tampered_covers():
    tampered = list(_tampered_covers(17))
    assert len(tampered) >= 300
    outcomes = [_outcomes(c) for c in tampered]
    assert [o for o in outcomes if o[0] != o[1]] == []
    # Both checks must see some of the damage, or the agreement is vacuous.
    assert any(not new[0][0] for new, _ in outcomes)
    assert any(not new[1][0] for new, _ in outcomes)


def test_product_path_builds_no_typed_wrappers(monkeypatch):
    # The typed idele layer and IntMatrix-wrapped pushforwards stay out of
    # the checks and the lift; the lift's linking matrices come from the
    # trusted constructor, which runs no IntMatrix.__init__.
    b = BraidWord(4, ())
    counts = {"IntMatrix": 0, "IdeleVector": 0}

    def counting(cls, key):
        real = cls.__init__

        def init(self, *args, **kwargs):
            counts[key] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    counting(zlattice.IntMatrix, "IntMatrix")
    counting(ideles.IdeleVector, "IdeleVector")
    c = lift_braid(b, 2)
    assert (c.base.size, c.total.size) == (5, 5)
    assert counts["IntMatrix"] == 0
    for fn in CHECKS.values():
        assert fn(c)[0]
    assert counts["IdeleVector"] == 0


def test_scenario_builds_each_universes_generators_once(monkeypatch):
    # Each universe builds its principal generators when it is constructed;
    # the checks read copies of them.
    b = BraidWord(4, ())
    builds = []
    real = links._principal_rows

    def counted(rows):
        builds.append(len(rows))
        return real(rows)

    monkeypatch.setattr(links, "_principal_rows", counted)
    report = run_scenario(b, 2)
    assert report.passed and len(report.checks) == len(CHECKS)
    assert builds == [5, 5]


# The two checks with a closed-form accept, each with its lattice route as
# the oracle.  The accept may only ever return True where that route passes.
CLOSED_FORM = {
    "norm_principle": (verify_norm_principle, "_norm_principle_lattice"),
    "cover_exact_sequence": (verify_cover_exact_sequence, "_cover_exact_sequence_lattice"),
}


def _closed_form_outcomes(monkeypatch, covers, names=tuple(CLOSED_FORM)):
    """Disagreements with the lattice route, failures, and missed accepts.

    Returns the (cover index, check) pairs whose (passed, witness)
    differs from the lattice route's, and per check the number of covers
    that fail and the number of passing covers the closed form left to
    the lattice route.  The route runs once per cover and check: where
    the closed form declines, the check runs it and that run is recorded
    as the oracle's answer; where it accepts, the route runs here.
    """
    routes = {}
    ran = {}
    for name, (_, attr) in CLOSED_FORM.items():
        route = routes[name] = getattr(hasse, attr)

        def recording(c, name=name, route=route):
            ran[name] = route(c)
            return ran[name]

        monkeypatch.setattr(hasse, attr, recording)
    bad = []
    failed = dict.fromkeys(names, 0)
    missed = dict.fromkeys(names, 0)
    for i, c in enumerate(covers):
        for name in names:
            ran.pop(name, None)
            rec = CLOSED_FORM[name][0](c)
            expected = ran[name] if name in ran else routes[name](c)
            if rec != expected:
                bad.append((i, name))
            failed[name] += not rec[0]
            missed[name] += rec[0] and name in ran
    return bad, failed, missed


def test_closed_forms_agree_with_lattice_routes_on_acceptance_sweep(monkeypatch, sweep_covers):
    covers = [c for _, _, c in sweep_covers]
    none = dict.fromkeys(CLOSED_FORM, 0)
    assert _closed_form_outcomes(monkeypatch, covers) == ([], none, none)


def test_closed_forms_agree_with_lattice_routes_on_wide4_words(monkeypatch, wide4_covers):
    covers = [c for _, _, c in wide4_covers]
    none = dict.fromkeys(CLOSED_FORM, 0)
    assert _closed_form_outcomes(monkeypatch, covers) == ([], none, none)


def test_closed_forms_agree_with_lattice_routes_on_relabeled_covers(monkeypatch, sweep_covers):
    # Every hundredth sweep cover, both universes enumerated in a seeded order.
    rng = random.Random(29)
    relabeled = []
    for _, _, c in sweep_covers[::100]:
        base_order = list(range(c.base.size))
        top_order = list(range(c.total.size))
        rng.shuffle(base_order)
        rng.shuffle(top_order)
        relabeled.append(relabeled_cover(c, tuple(base_order), tuple(top_order)))
    assert len(relabeled) == 58
    assert any(r.base.axis_index or r.total.axis_index for r in relabeled)
    none = dict.fromkeys(CLOSED_FORM, 0)
    assert _closed_form_outcomes(monkeypatch, relabeled) == ([], none, none)


def test_closed_forms_agree_with_lattice_routes_on_tampered_pushforwards(monkeypatch, sweep_covers):
    # One entry of one pushforward pair moved by +-1 or +-2, once per sweep cover.
    rng = random.Random(31)
    tampered = []
    for _, _, c in sweep_covers:
        j = rng.randrange(c.total.size)
        rows = [list(row) for row in c.pushforward[j]]
        rows[rng.randrange(2)][rng.randrange(2)] += rng.choice((-2, -1, 1, 2))
        pushforward = c.pushforward[:j] + (tuple(map(tuple, rows)),) + c.pushforward[j + 1 :]
        tampered.append(replaced(c, pushforward=pushforward))
    bad, failed, missed = _closed_form_outcomes(monkeypatch, tampered)
    assert bad == []
    # The damage must reach both checks, or the agreement says little.
    assert all(failed.values()), failed
    assert missed == dict.fromkeys(CLOSED_FORM, 0)


def test_exact_sequence_agrees_with_lattice_route_on_swapped_deck_targets(monkeypatch, sweep_covers):
    # Two deck targets swapped on every sweep cover with three or more upstairs
    # components; norm_principle does not read the deck rotation.
    rng = random.Random(37)
    swapped = []
    for _, _, c in sweep_covers:
        if c.total.size < 3:
            continue
        i, j = rng.sample(range(c.total.size), 2)
        deck = list(c.deck)
        deck[i], deck[j] = deck[j], deck[i]
        swapped.append(replaced(c, deck=tuple(deck)))
    assert len(swapped) == 5124
    bad, failed, missed = _closed_form_outcomes(monkeypatch, swapped, ("cover_exact_sequence",))
    assert bad == []
    assert failed["cover_exact_sequence"]
    assert missed == {"cover_exact_sequence": 0}


def test_closed_forms_agree_under_patched_generators(monkeypatch, sweep_covers):
    # Both routes read principal_generators through hasse, and the patched
    # generators keep unit longitudes, so the accepts apply to them.  Adding
    # n·mu_A to every off-axis base generator and w_K·mu_A~ to every off-axis
    # lift of K keeps both identities, because the axis lift pushes mu_A~ to
    # n·mu_A; adding mu_A to the base generators alone breaks both.
    covers = [c for _, _, c in sweep_covers[::20]]
    real = hasse.principal_generators
    patched = {}
    monkeypatch.setattr(hasse, "principal_generators", lambda u: patched[id(u)])

    def shifted(u, by):
        a = 2 * u.axis_index
        return [g[:a] + (g[a] + by(k),) + g[a + 1 :] for k, g in enumerate(real(u))]

    for c in covers:
        base, total = c.base, c.total
        w = [c.splitting[k].w for k in c.fiber_map]
        patched[id(base)] = shifted(base, lambda k: 0 if k == base.axis_index else c.degree)
        patched[id(total)] = shifted(total, lambda j: 0 if j == total.axis_index else w[j])
    none = dict.fromkeys(CLOSED_FORM, 0)
    assert _closed_form_outcomes(monkeypatch, covers) == ([], none, none)

    for c in covers:
        patched[id(c.base)] = shifted(c.base, lambda k: 1)
        patched[id(c.total)] = real(c.total)
    bad, failed, _ = _closed_form_outcomes(monkeypatch, covers)
    assert bad == []
    assert failed == dict.fromkeys(CLOSED_FORM, len(covers))

    # Doubled longitudes in both universes are no units: the closed forms
    # do not apply, and the lattice routes pass some covers and fail others.
    for c in covers:
        for u in (c.base, c.total):
            patched[id(u)] = [tuple(x << (i % 2) for i, x in enumerate(g)) for g in real(u)]
    bad, failed, _ = _closed_form_outcomes(monkeypatch, covers)
    assert bad == []
    assert all(0 < n < len(covers) for n in failed.values()), failed


def test_closed_forms_agree_with_lattice_routes_on_zero_pushforwards(monkeypatch, sweep_covers):
    # f = 0: both sides of norm_principle are 0, while the exact sequence
    # fails, since the preimage of R_M is everything.
    covers = [
        replaced(c, pushforward=(((0, 0), (0, 0)),) * c.total.size)
        for _, _, c in sweep_covers[::20]
    ]
    bad, failed, missed = _closed_form_outcomes(monkeypatch, covers)
    assert bad == []
    assert failed == {"norm_principle": 0, "cover_exact_sequence": len(covers)}
    assert missed == dict.fromkeys(CLOSED_FORM, 0)


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
    calls = []

    def counting(name):
        real = getattr(kernel, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(kernel, name, counted)

    for name in ("col_hnf", "col_hnf_with_kernel", "smith"):
        counting(name)
    assert verify_norm_principle(c)[0]
    assert verify_cover_exact_sequence(c)[0]
    assert calls == []


def test_projection_witness_on_middle_layer_only(monkeypatch):
    # A 4-strand knot lifts to 4 components plus the axis at degree 4; break
    # the boundary on 3-component sublinks of that 5-component cover only.
    real = hasse._boundary_coeffs

    def shifted(u, k, sub):
        coeffs = list(real(u, k, sub))
        if u.size == 5 and len(sub) == 3:
            last = [k2 for k2 in sub if k2 != k][-1]
            coeffs[2 * last] += 1
        return tuple(coeffs)

    c = lift_braid(BraidWord(4, (1, 2, 3)), 4)
    assert (c.base.size, c.total.size) == (2, 5)
    monkeypatch.setattr(hasse, "_boundary_coeffs", shifted)
    passed, witness = verify_projection_compatibility(c)
    assert not passed
    assert witness["universe"] == "cover"
    assert (passed, witness) == projection_all_nested_pairs(c)


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
    inv = hasse._class_quotient(gens, ())
    assert (not inv.free_rank and not inv.torsion) == (unfree_sublink(gens) is None)


def test_class_quotient_makes_one_hermite_call_per_universe(monkeypatch):
    c = lift_braid(BraidWord(4, ()), 2)
    assert (c.base.size, c.total.size) == (5, 5)
    calls = []
    real = kernel.col_hnf

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernel, "col_hnf", counted)
    assert verify_class_quotient_free(c)[0]
    assert len(calls) == 2


@pytest.mark.parametrize("size", range(7))
def test_projection_table_matches_project_coeffs(size):
    table = hasse._projection_table(size)
    assert [sub for sub, _ in table] == [sub for sub in hasse._sublinks(size) if sub]
    rng = random.Random(size)
    for _ in range(20):
        v = tuple(rng.randint(-9, 9) for _ in range(2 * size))
        assert [proj(v) for _, proj in table] == [
            hasse._project_coeffs(v, sub) for sub, _ in table
        ]


def test_projection_pass_makes_no_project_coeffs_call(monkeypatch):
    c = lift_braid(BraidWord(4, ()), 2)
    assert (c.base.size, c.total.size) == (5, 5)
    calls = []
    real = hasse._project_coeffs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hasse, "_project_coeffs", counted)
    assert verify_projection_compatibility(c)[0]
    assert calls == []


def test_meridian_pass_makes_no_pushforward_coeffs_call(monkeypatch):
    # A passing check reads each pushforward matrix directly; only a
    # failure pushes a unit meridian through for its witness.
    c = lift_braid(BraidWord(4, ()), 2)
    assert (c.base.size, c.total.size) == (5, 5)
    calls = []
    real = hasse._pushforward_coeffs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hasse, "_pushforward_coeffs", counted)
    assert verify_meridian_pushforward(c)[0]
    assert calls == []
    # The counter sees the failure route.
    bad = (((2, 0), (1, 1)),) + c.pushforward[1:]
    assert not verify_meridian_pushforward(replaced(c, pushforward=bad))[0]
    assert len(calls) == 1


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


def test_resolve_checks():
    assert resolve_checks(None) == list(CHECKS)
    assert resolve_checks(["norm_principle"]) == ["norm_principle"]
    with pytest.raises(ValueError):
        resolve_checks(["norm_principle", "made_up"])


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
    assert count_scenarios(3, 5, (2, 3, 4, 5)) == (1 + 63 + 1365) * 4


class TestRunSuite:
    def test_small_suite_counts(self):
        res = run_suite(2, 3, (2, 3))
        assert len(res.reports) == 32
        assert res.complete
        assert res.failure_count == 0
        assert res.check_count == 32 * len(CHECKS)

    def test_empty_degrees(self):
        # No degree means no scenario, and a run that checks nothing cannot pass.
        with pytest.raises(ValueError, match="names no degree"):
            run_suite(2, 2, ())

    def test_non_int_degrees_rejected_before_running(self, monkeypatch):
        ran = []
        monkeypatch.setattr(hasse, "run_scenario", lambda *args: ran.append(args))
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
