"""Lifting braid universes through branched covers of the axis."""

import dataclasses
import itertools
import random
from math import gcd

import pytest

from idelink import covers, links
from idelink.covers import (
    CoverSpec,
    branched_cover_order,
    component_splitting,
    deck_matrix,
    lift_braid,
    principal_pushforward,
    pushforward_idele,
    pushforward_image,
    pushforward_matrix,
    pushforward_surface,
    relabeled_cover,
)
from idelink.ideles import IdeleVector, SurfaceClass, diagonal_map
from idelink.links import (
    BraidWord,
    braid_linking_matrix,
    braid_power,
    universe_from_braid,
)
from idelink.zlattice import IntMatrix, SubLattice, lattice_equal

from oracles import lift_maps_by_walking_both_words, poly_eval, resultant_oracle


def suite_covers(max_strands=3, max_len=3, degrees=(2, 3)):
    for strands in range(1, max_strands + 1):
        alphabet = [g for g in range(-(strands - 1), strands) if g]
        for length in range(max_len + 1):
            for w in itertools.product(alphabet, repeat=length):
                for n in degrees:
                    yield lift_braid(BraidWord(strands, w), n)


class TestLift:
    def test_sigma1_double_cover(self):
        c = lift_braid(BraidWord(2, (1,)), 2)
        assert c.spec.base.linking.entries == ((0, 2), (2, 0))
        assert c.total.labels == ("A~", "J1", "J2")
        assert c.total.linking.entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        rec = c.splitting.records[1]
        assert (rec.e, rec.w, rec.r) == (1, 1, 2)
        assert c.fiber_map == (0, 1, 1)

    def test_trivial_braid_double_cover(self):
        c = lift_braid(BraidWord(1, ()), 2)
        rec = c.splitting.records[1]
        assert (rec.e, rec.w, rec.r) == (1, 2, 1)
        assert c.total.size == 2

    def test_axis_record(self):
        for n in (1, 2, 3, 5):
            c = lift_braid(BraidWord(2, (1, -1)), n)
            axis = c.splitting.records[0]
            assert (axis.a, axis.e, axis.w, axis.r) == (1 % n, n, 1, 1)
            assert c.pushforward[0] == ((n, 0), (0, 1))

    def test_identity_cover(self):
        c = lift_braid(BraidWord(2, (1, 1)), 1)
        assert c.total.size == c.spec.base.size
        assert c.deck == tuple(range(c.total.size))
        assert lattice_equal(pushforward_image(c), SubLattice.full(6))

    def test_spec_validation(self):
        u = universe_from_braid(BraidWord(2, (1,)))
        with pytest.raises(ValueError):
            CoverSpec(degree=0, base=u)
        from idelink.links import LinkUniverse

        no_axis = LinkUniverse(("K1", "K2"), IntMatrix([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            CoverSpec(degree=2, base=no_axis)

    def test_splitting_formulas(self):
        # non-axis component of winding w: e = 1, w-degree = order of w
        # mod n, r = gcd(w, n)
        for winding, n in itertools.product(range(1, 6), range(1, 7)):
            base = universe_from_braid(BraidWord(winding, tuple(range(1, winding))))
            spec = CoverSpec(degree=n, base=base)
            rec = component_splitting(spec).records[1]
            assert rec.e == 1
            assert rec.r == gcd(winding, n)
            assert rec.w == n // gcd(winding, n)
            assert rec.e * rec.w == rec.d and rec.r * rec.d == n


def _closure_crossings(b):
    """Signed crossing counts between the closure components of ``b``.

    Components are found by following each strand's end position to the
    strand that starts there, and ordered by their smallest strand.
    """
    at = list(range(b.strands))
    events = []
    for g in b.letters:
        i = abs(g) - 1
        events.append((at[i], at[i + 1], 1 if g > 0 else -1))
        at[i], at[i + 1] = at[i + 1], at[i]
    continues_as = {s: p for p, s in enumerate(at)}
    smallest = {}
    for s in range(b.strands):
        orbit = [s]
        while continues_as[orbit[-1]] != s:
            orbit.append(continues_as[orbit[-1]])
        smallest[s] = min(orbit)
    index = {r: i for i, r in enumerate(sorted(set(smallest.values())))}
    counts = [[0] * len(index) for _ in index]
    for s1, s2, sign in events:
        c1, c2 = index[smallest[s1]], index[smallest[s2]]
        if c1 != c2:
            counts[c1][c2] += sign
            counts[c2][c1] += sign
    return counts


def lift_invariant_failures(b, c):
    """Every lift invariant that ``c``, a cover of the closure of ``b``, breaks."""
    n = c.spec.degree
    base = c.spec.base
    bad = []
    for k, rec in enumerate(c.splitting.records):
        if rec.e * rec.w != rec.d or rec.r * rec.d != n:
            bad.append(("splitting arithmetic", k))
        fiber = c.fiber(k)
        if len(fiber) != rec.r:
            bad.append(("fiber size", k))
        # The deck rotation restricted to a fiber is one r-cycle.
        orbit = [fiber[0]]
        for _ in range(rec.r - 1):
            orbit.append(c.deck[orbit[-1]])
        if sorted(orbit) != list(fiber) or c.deck[orbit[-1]] != fiber[0]:
            bad.append(("deck cycle", k))
        if k != base.axis_index:
            lifted = base.windings[k] // gcd(base.windings[k], n)
            if any(c.total.windings[j] != lifted for j in fiber):
                bad.append(("lifted winding", k))
    for u, word in ((base, b), (c.total, braid_power(b, n))):
        counts = _closure_crossings(word)
        if any(x % 2 for row in counts for x in row):
            bad.append(("odd crossing count", u.labels))
        halves = [[x // 2 for x in row] for row in counts]
        if halves != [list(row[1:]) for row in u.linking.entries[1:]]:
            bad.append(("linking", u.labels))
    return bad


class TestLiftInvariants:
    def test_acceptance_sweep(self, sweep_covers):
        # Every cover with <=3 strands, length <=5, degree 2-5.
        assert len(sweep_covers) == 5716
        failures = [
            (b, n, f)
            for b, n, c in sweep_covers
            for f in lift_invariant_failures(b, c)
        ]
        assert failures == []

    def test_wide4_words(self, wide4_covers):
        failures = [
            (b, n, f)
            for b, n, c in wide4_covers
            for f in lift_invariant_failures(b, c)
        ]
        assert failures == []

    def test_broken_lifts_are_caught(self):
        b = BraidWord(2, (1,))
        c = lift_braid(b, 2)
        # A deck rotation that fixes every component breaks the fiber cycle.
        frozen = dataclasses.replace(c, deck=tuple(range(c.total.size)))
        assert lift_invariant_failures(b, frozen) == [("deck cycle", 1)]
        # The mirror word crosses its lifts negatively.
        assert lift_invariant_failures(BraidWord(2, (-1,)), c) == [("linking", c.total.labels)]


class TestLiftDerivation:
    """The lift reads both universes' cycles off one permutation of the base word."""

    def test_maps_agree_with_walking_both_words(self, sweep_covers, wide4_covers):
        lifted = sweep_covers + wide4_covers
        assert len(lifted) == 5716 + 240
        bad = [
            (b, n)
            for b, n, c in lifted
            if (c.fiber_map, c.deck) != lift_maps_by_walking_both_words(b, n)
        ]
        assert bad == []

    def test_universe_closure_block_is_linking_matrix(self, sweep_covers, wide4_covers):
        bad = []
        for b, n, c in sweep_covers + wide4_covers:
            for u, word in ((c.spec.base, b), (c.total, braid_power(b, n))):
                block = tuple(row[1:] for row in u.linking.entries[1:])
                if block != braid_linking_matrix(word).entries:
                    bad.append((b, n, u.labels))
        assert bad == []

    def test_one_lift_walks_the_permutation_at_most_three_times(self, monkeypatch):
        # One walk per universe, plus sigma of the base word for the deck.
        calls = []
        real = links.braid_permutation

        def counted(b):
            calls.append(b)
            return real(b)

        monkeypatch.setattr(links, "braid_permutation", counted)
        monkeypatch.setattr(covers, "braid_permutation", counted)
        c = lift_braid(BraidWord(4, (1, 2, -3, 1)), 6)
        assert c.total.size > c.spec.base.size
        assert 0 < len(calls) <= 3


class TestPushforward:
    def test_sigma1_slots(self):
        c = lift_braid(BraidWord(2, (1,)), 2)
        mu_j2 = pushforward_idele(c, IdeleVector.build(range(3), {2: (1, 0)}))
        assert mu_j2.coeffs == (0, 0, 1, 0)
        lam_j1 = pushforward_idele(c, IdeleVector.build(range(3), {1: (0, 1)}))
        assert lam_j1.coeffs == (0, 0, 1, 1)
        mu_axis = pushforward_idele(c, IdeleVector.build(range(3), {0: (1, 0)}))
        assert mu_axis.coeffs == (2, 0, 0, 0)
        assert pushforward_idele(c, IdeleVector.zero(range(3))).is_zero()

    def test_trivial_cover_slots(self):
        c = lift_braid(BraidWord(1, ()), 2)
        lam_j = pushforward_idele(c, IdeleVector.build(range(2), {1: (0, 1)}))
        assert lam_j.coeffs == (0, 0, 0, 2)
        mu_j = pushforward_idele(c, IdeleVector.build(range(2), {1: (1, 0)}))
        assert mu_j.coeffs == (0, 0, 1, 0)

    def test_image_examples(self):
        c = lift_braid(BraidWord(1, ()), 2)
        assert lattice_equal(
            pushforward_image(c),
            SubLattice.from_columns(
                4, [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)]
            ),
        )
        c2 = lift_braid(BraidWord(2, (1,)), 2)
        assert lattice_equal(
            pushforward_image(c2),
            SubLattice.from_columns(
                4, [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
            ),
        )

    def test_surface_examples(self):
        c = lift_braid(BraidWord(2, (1,)), 2)
        s = pushforward_surface(c, SurfaceClass.single(1))
        assert s.support == (1,) and s.coeffs == (1,)
        axis = pushforward_surface(c, SurfaceClass.single(0))
        assert axis.support == (0,) and axis.coeffs == (1,)
        c2 = lift_braid(BraidWord(1, ()), 2)
        doubled = pushforward_surface(c2, SurfaceClass.single(1))
        assert doubled.support == (1,) and doubled.coeffs == (2,)

    def test_matrix_agrees_with_slotwise(self):
        rng = random.Random(3)
        for c in suite_covers(2, 3, (2, 3)):
            f = pushforward_matrix(c)
            v = IdeleVector(
                tuple(range(c.total.size)),
                tuple(rng.randint(-4, 4) for _ in range(2 * c.total.size)),
            )
            assert f.apply(v.coeffs) == pushforward_idele(c, v).coeffs


class TestDeck:
    def test_sigma1_swap(self):
        c = lift_braid(BraidWord(2, (1,)), 2)
        assert c.deck == (0, 2, 1)

    def test_order_on_fibers(self):
        for c in suite_covers(3, 2, (2, 3, 4)):
            for k in range(c.spec.base.size):
                r = c.splitting.records[k].r
                for j in c.fiber(k):
                    t = j
                    for _ in range(r):
                        t = c.deck[t]
                    assert t == j

    def test_deck_invariance(self):
        for c in suite_covers(3, 2, (2, 3)):
            lk = c.total.linking.entries
            for j1 in range(c.total.size):
                assert c.fiber_map[c.deck[j1]] == c.fiber_map[j1]
                for j2 in range(c.total.size):
                    assert lk[c.deck[j1]][c.deck[j2]] == lk[j1][j2]
            # pushforward absorbs the deck rotation
            f = pushforward_matrix(c)
            assert f @ deck_matrix(c) == f


class TestCoverIdentities:
    def test_linking_transfer(self):
        # e_K'' * sum of upstairs linkings over K'' = w_K * base linking
        for c in suite_covers(3, 3, (2, 3, 4)):
            base = c.spec.base
            for j in range(c.total.size):
                k = c.fiber_map[j]
                w_k = c.splitting.records[k].w
                for k2 in range(base.size):
                    if k2 == k:
                        continue
                    e2 = c.splitting.records[k2].e
                    upstairs = sum(c.total.lk(j, j2) for j2 in c.fiber(k2))
                    assert e2 * upstairs == w_k * base.lk(k, k2)

    def test_diagonal_commutes_on_generators(self):
        for c in suite_covers(3, 3, (2, 3)):
            for j in range(c.total.size):
                s = SurfaceClass.single(j)
                lhs = pushforward_idele(c, diagonal_map(c.total, s))
                rhs = diagonal_map(c.spec.base, pushforward_surface(c, s))
                assert lhs == rhs

    def test_meridian_columns(self):
        for c in suite_covers(3, 2, (2, 5)):
            f = pushforward_matrix(c)
            for j in range(c.total.size):
                col = f.column(2 * j)
                assert col[1::2] == (0,) * c.spec.base.size

    def test_principal_pushforward_matches_matrix_route(self):
        from idelink.ideles import principal_lattice

        for c in suite_covers(2, 3, (2, 3, 4)):
            f = pushforward_matrix(c)
            p_n = principal_lattice(c.total)
            via_matrix = SubLattice.from_matrix(f @ p_n.canonical_form)
            assert lattice_equal(via_matrix, principal_pushforward(c))


class TestRelabeledCover:
    def test_roundtrip(self):
        c = lift_braid(BraidWord(3, (1, 2)), 2)
        base_order = tuple(reversed(range(c.spec.base.size)))
        top_order = tuple(reversed(range(c.total.size)))
        r = relabeled_cover(c, base_order, top_order)
        assert r.spec.base.labels == tuple(reversed(c.spec.base.labels))
        back = relabeled_cover(
            r,
            tuple(base_order.index(i) for i in range(len(base_order))),
            tuple(top_order.index(i) for i in range(len(top_order))),
        )
        assert back == c

    def test_deck_matrix_is_permutation(self):
        c = lift_braid(BraidWord(2, (1,)), 4)
        t = deck_matrix(c)
        assert abs(t.det()) == 1
        assert sorted(sum(row) for row in t.entries) == [1] * t.rows


TREFOIL = IntMatrix([[-1, 1], [0, -1]])
FIGURE_EIGHT = IntMatrix([[1, 1], [0, -1]])


class TestBranchedCoverOrder:
    def test_trefoil_orders(self):
        assert branched_cover_order(TREFOIL, 2) == 3
        assert branched_cover_order(TREFOIL, 3) == 4
        assert branched_cover_order(TREFOIL, 5) == 1

    def test_figure_eight(self):
        assert branched_cover_order(FIGURE_EIGHT, 2) == 5

    def test_infinite_homology_is_zero(self):
        # the sixth root of unity is a root of t^2 - t + 1
        assert branched_cover_order(TREFOIL, 6) == 0
        assert branched_cover_order(IntMatrix([[0]]), 2) == 0

    def test_unknot_and_identity(self):
        assert branched_cover_order(IntMatrix([], cols=0), 4) == 1
        assert branched_cover_order(TREFOIL, 1) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            branched_cover_order(IntMatrix([[1, 0]]), 2)

    def test_against_resultant_oracle(self):
        rng = random.Random(12)
        for _ in range(60):
            g = rng.randint(0, 2)
            v = [[rng.randint(-2, 2) for _ in range(2 * g)] for _ in range(2 * g)]
            m = IntMatrix(v, cols=2 * g)
            for n in (2, 3, 4, 5):
                got = branched_cover_order(m, n)
                alex = alexander_by_expansion(v)
                expected = abs(resultant_oracle(alex, [1] * n))
                assert got == expected

    def test_n2_equals_alexander_at_minus_one(self):
        for mat in (TREFOIL, FIGURE_EIGHT):
            alex = alexander_by_expansion([list(r) for r in mat.entries])
            assert branched_cover_order(mat, 2) == abs(poly_eval(alex, -1))


def alexander_by_expansion(v):
    """det(V - t V^T) via permutation expansion, coefficients ascending."""
    import itertools as it

    n = len(v)
    coeffs = [0] * (n + 1)
    for perm in it.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        sign = 1 if inv % 2 == 0 else -1
        # each factor is (v[i][p] - t v[p][i]); expand the product
        poly = [sign]
        for i in range(n):
            a, b = v[i][perm[i]], -v[perm[i]][i]
            poly = [
                (poly[d] * a if d < len(poly) else 0)
                + (poly[d - 1] * b if d >= 1 else 0)
                for d in range(len(poly) + 1)
            ]
        for d, c in enumerate(poly):
            coeffs[d] += c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
