"""Lifting braid universes through branched covers of the axis."""

import itertools
import operator
import random
from math import gcd, lcm

import pytest

from idelink import covers, links
from idelink.covers import (
    _pushforward_coeffs,
    branched_cover_order,
    deck_matrix,
    lift_braid,
    principal_pushforward,
    pushforward_image,
    pushforward_matrix,
    relabeled_cover,
)
from idelink.hasse import iter_braid_words
from idelink.ideles import principal_generators
from idelink.links import BraidWord, LinkUniverse
from idelink.zlattice import IntMatrix, SubLattice, lattice_equal

from oracles import (
    alexander_oracle,
    closure_walk,
    lift_maps_by_walking_both_words,
    permutation_words,
    poly_eval,
    power_word,
    replaced,
    resultant_oracle,
    splitting_oracle,
    surface_boundary,
    surface_pushforward,
    wide4_words,
)


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
        assert c.base.linking.entries == ((0, 2), (2, 0))
        assert c.total.labels == ("A~", "J1", "J2")
        assert c.total.linking.entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        rec = c.splitting[1]
        assert (rec.e, rec.w, rec.r) == (1, 1, 2)
        assert c.fiber_map == (0, 1, 1)

    def test_trivial_braid_double_cover(self):
        c = lift_braid(BraidWord(1, ()), 2)
        rec = c.splitting[1]
        assert (rec.e, rec.w, rec.r) == (1, 2, 1)
        assert c.total.size == 2

    def test_axis_record(self):
        for n in (1, 2, 3, 5):
            c = lift_braid(BraidWord(2, (1, -1)), n)
            axis = c.splitting[0]
            assert (axis.a, axis.e, axis.w, axis.r) == (1 % n, n, 1, 1)
            assert c.pushforward[0] == ((n, 0), (0, 1))

    def test_identity_cover(self):
        c = lift_braid(BraidWord(2, (1, 1)), 1)
        assert c.total.size == c.base.size
        assert c.deck == tuple(range(c.total.size))
        assert lattice_equal(pushforward_image(c), SubLattice.full(6))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="cover degree must be >= 1"):
            lift_braid(BraidWord(2, (1,)), 0)
        no_axis = LinkUniverse(("K1", "K2"), IntMatrix([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="has no branch axis"):
            replaced(lift_braid(BraidWord(2, (1,)), 2), base=no_axis)

    @pytest.mark.parametrize("field", ["base", "total"])
    def test_universe_without_an_axis_is_refused(self, field):
        # The cover's own universe with its axis dropped: every check
        # reads the axis, so the cover is refused when it is built.
        c = lift_braid(BraidWord(2, (1,)), 2)
        u = getattr(c, field)
        with pytest.raises(ValueError, match="has no branch axis"):
            replaced(c, **{field: LinkUniverse(u.labels, u.linking)})

    def test_splitting_formulas(self):
        # non-axis component of winding w: e = 1, w-degree = order of w
        # mod n, r = gcd(w, n)
        for winding, n in itertools.product(range(1, 6), range(1, 7)):
            rec = lift_braid(BraidWord(winding, tuple(range(1, winding))), n).splitting[1]
            assert rec.e == 1
            assert rec.r == gcd(winding, n)
            assert rec.w == n // gcd(winding, n)
            assert rec.e * rec.w == rec.d and rec.r * rec.d == n


def lift_invariant_failures(b, c):
    """Every lift invariant that ``c``, a cover of the closure of ``b``, breaks."""
    n = c.degree
    base = c.base
    bad = []
    for k, rec in enumerate(c.splitting):
        if rec.e * rec.w != rec.d or rec.r * rec.d != n:
            bad.append(("splitting arithmetic", k))
        fiber = tuple(j for j, x in enumerate(c.fiber_map) if x == k)
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
    for u, word in ((base, b), (c.total, power_word(b, n))):
        if closure_walk(word)[2] != tuple(row[1:] for row in u.linking.entries[1:]):
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
        frozen = replaced(c, deck=tuple(range(c.total.size)))
        assert lift_invariant_failures(b, frozen) == [("deck cycle", 1)]
        # The mirror word crosses its lifts negatively.
        assert lift_invariant_failures(BraidWord(2, (-1,)), c) == [("linking", c.total.labels)]


def pushed_by_hand(c):
    """Every upstairs principal generator pushed down, one call each."""
    return tuple(_pushforward_coeffs(c, g) for g in principal_generators(c.total))


class TestPushedGenerators:
    """A cover pushes its upstairs generators once, when it is constructed."""

    def test_acceptance_sweep_and_wide4_words(self, sweep_covers, wide4_covers):
        lifted = sweep_covers + wide4_covers
        assert len(lifted) == 5716 + 240
        assert [(b, n) for b, n, c in lifted if c._pushed != pushed_by_hand(c)] == []

    def test_tampered_covers_push_their_own_data(self, cover_families):
        # Each tampered cover is rebuilt through the constructor, so its
        # pushed generators follow the moved pushforward entry, the swapped
        # deck targets, the new enumeration or the changed generators.
        real = ("sweep", "wide4", "all_degrees")
        for kind, covers_of_kind in cover_families.items():
            if kind not in real:
                assert [c for c in covers_of_kind if c._pushed != pushed_by_hand(c)] == [], kind
        # The tampering reaches the pushed generators, or the check says little.
        sweep = cover_families["sweep"]
        for kind, originals in (("moved_pushforward", sweep), ("doubled_longitudes", sweep[::20])):
            assert any(t._pushed != c._pushed for t, c in zip(cover_families[kind], originals)), kind


def _tuples_all_the_way_down(value, leaves=(int,)) -> bool:
    """True iff ``value`` has a type in ``leaves``, or is a tuple of such values, nested."""
    if type(value) is tuple:
        return all(_tuples_all_the_way_down(x, leaves) for x in value)
    return type(value) in leaves


class TestTrustedCovers:
    """``lift_braid`` builds its covers unchecked from the (sigma, n) skeleton table.

    Every word with <=3 strands and length <=4, and every wide4 word, at
    every degree the CLI admits (1-12).
    """

    @staticmethod
    def lifted_pairs():
        words = list(iter_braid_words(3, 4)) + [b for b, _ in wide4_words()]
        return [(b, n) for b in words for n in range(1, 13)]

    def test_lift_equals_its_rebuild_through_the_public_constructors(self):
        bad = []
        for b, n in self.lifted_pairs():
            c = lift_braid(b, n)
            base, total = (
                replaced(u, linking=IntMatrix(u.linking.entries, cols=u.size))
                for u in (c.base, c.total)
            )
            rebuilt = replaced(c, base=base, total=total)
            same = (
                rebuilt == c
                and rebuilt._pushed == c._pushed
                and rebuilt.base._generators == c.base._generators
                and rebuilt.total._generators == c.total._generators
                and _tuples_all_the_way_down((c.fiber_map, c.pushforward, c.deck, c._pushed))
                and type(c.splitting) is tuple
            )
            if not same:
                bad.append((b, n))
        assert bad == []

    def test_cold_and_warm_skeleton_give_the_same_cover(self):
        bad = []
        try:
            for b, n in self.lifted_pairs():
                covers._cover_skeleton.cache_clear()
                cold = lift_braid(b, n)
                warm = lift_braid(b, n)
                if (cold, cold._pushed) != (warm, warm._pushed):
                    bad.append((b, n))
        finally:
            covers._cover_skeleton.cache_clear()
        assert bad == []

    def test_skeleton_values_are_tuples_all_the_way_down(self):
        # Covers share the skeleton's values, so none may be mutable:
        # tuples of ints, of label strings, of (immutable) split records,
        # and of None for a component with more than one lift.
        leaves = (int, str, covers.SplitRecord, type(None))
        bad = [
            (b, n)
            for b, n in self.lifted_pairs()
            if not _tuples_all_the_way_down(covers._cover_skeleton(closure_walk(b)[0], n), leaves)
        ]
        assert bad == []
        c, d = lift_braid(BraidWord(3, (1, 2)), 3), lift_braid(BraidWord(3, (-1, -2)), 3)
        assert c.fiber_map is d.fiber_map and c.deck is d.deck

    def test_skeleton_table_holds_every_key_the_cli_admits(self):
        # 1 + 2 + 6 + 24 permutations of 1 to 4 strands, times 12 degrees.
        assert covers._cover_skeleton.cache_info().maxsize >= 33 * 12


class TestSplittingTable:
    """Splitting records and single-lift pairs come from the one (sigma, n) table.

    Every (sigma, n) the CLI admits: 33 permutations of 1 to 4 strands
    times degrees 1-12.
    """

    @staticmethod
    def cli_lifts():
        words = permutation_words()
        assert len(words) == 33
        return [lift_braid(b, n) for b in words for n in range(1, 13)]

    def test_splitting_matches_the_oracle(self):
        bad = []
        for c in self.cli_lifts():
            n = c.degree
            want = tuple(
                splitting_oracle(n, 1, 0) if k == c.base.axis_index else splitting_oracle(n, 0, w)
                for k, w in enumerate(c.base.windings)
            )
            got = tuple((rec.a, rec.b, rec.e, rec.d, rec.w, rec.r) for rec in c.splitting)
            if got != want:
                bad.append((c.base.windings, n, got, want))
        assert bad == []

    def test_table_holds_every_key_the_cli_admits(self):
        # 15 rows of windings over the 33 permutations, times 12 degrees;
        # the (sigma, n) table holds the 396 keys these come from.
        keys = {(c.degree, c.base.windings) for c in self.cli_lifts()}
        assert len(keys) == 15 * 12
        assert covers._cover_skeleton.cache_info().maxsize >= len(keys)

    def test_pushforward_c_is_e_times_the_fiber_sum(self):
        # c = e * (sum of the lift's linking numbers with its fiber), which
        # is 0 for a single lift (r = 1), whose pair is the table's.
        bad = []
        single = linked = 0
        for b, n in TestTrustedCovers.lifted_pairs():
            c = lift_braid(b, n)
            for j, (k, row) in enumerate(zip(c.fiber_map, c.total.linking.entries)):
                rec = c.splitting[k]
                fiber_sum = sum(x for x, k2 in zip(row, c.fiber_map) if k2 == k)
                want = ((rec.e, rec.e * fiber_sum), (0, rec.w))
                if c.pushforward[j] != want or (rec.r == 1 and want[0][1] != 0):
                    bad.append((b, n, j))
                single += rec.r == 1
                linked += want[0][1] != 0
        assert bad == []
        assert single > 0 and linked > 0


class TestLiftDerivation:
    """The lift reads sigma, the fiber map and the deck off both universes' cycles."""

    def test_maps_agree_with_walking_both_words(self, sweep_covers, wide4_covers):
        lifted = sweep_covers + wide4_covers
        assert len(lifted) == 5716 + 240
        bad = [
            (b, n)
            for b, n, c in lifted
            if (c.fiber_map, c.deck) != lift_maps_by_walking_both_words(b, n)
        ]
        assert bad == []

    def test_cover_rows_match_the_power_word_at_every_degree(self, monkeypatch):
        # The cover's rows come from the word's one walk, over one period
        # of its word repeats counted n/p times; the oracle walks the
        # whole n-fold word.  Every word with <=3 strands and length <=4,
        # and every wide4 word, at every degree the CLI admits.  A sigma
        # cycle of length L splits into gcd(n, L) cycles of the power, so
        # the repeats have period p = lcm of those gcds.
        counted = []
        real = links._closure_universe

        def recording(labels, windings, crossings, blocks, repeats=1):
            counted.append((len(blocks), repeats))
            return real(labels, windings, crossings, blocks, repeats)

        for module in (links, covers):
            monkeypatch.setattr(module, "_closure_universe", recording)
        words = list(iter_braid_words(3, 4)) + [b for b, _ in wide4_words()]
        bad = []
        periods = set()
        for b in words:
            sigma_cycles = closure_walk(b)[1]
            for n in range(1, 13):
                counted.clear()
                c = lift_braid(b, n)
                lifted = counted[:]
                block = tuple(row[1:] for row in c.total.linking.entries[1:])
                _, cycles, linking = closure_walk(power_word(b, n))
                windings = (0,) + tuple(len(cycle) for cycle in cycles)
                if (block, c.total.windings) != (linking, windings):
                    bad.append((b, n))
                p = lcm(*(gcd(n, len(cycle)) for cycle in sigma_cycles))
                # The base's one block, then the power's p blocks n/p times.
                if lifted != [(1, 1), (p, n // p)]:
                    bad.append((b, n, lifted))
                periods.add(p < n)
        assert bad == []
        assert periods == {True, False}

    def test_one_lift_walks_the_word_once(self, monkeypatch):
        # One walk over the word's letters gives sigma and every crossing.
        walks = []
        real_walk = links._braid_walk

        def counted_walk(strands, letters):
            walks.append(len(letters))
            return real_walk(strands, letters)

        for module in (links, covers):
            monkeypatch.setattr(module, "_braid_walk", counted_walk)
        b = BraidWord(4, (1, 2, -3, 1))
        c = lift_braid(b, 6)
        assert c.total.size > c.base.size
        # The walk covers the word's len(b) letters, not the n * len(b)
        # letters of its n-th power.
        assert walks == [len(b)]

    def test_lift_builds_no_checked_wrappers(self, monkeypatch):
        # The lift's universes come from the trusted constructors; the
        # public ones, and their checks, stay out of its path.
        b = BraidWord(4, (1, 2, -3, 1))
        counts = {"IntMatrix": 0, "LinkUniverse": 0, "BraidWord": 0}

        def counting(cls, attr, key):
            real = getattr(cls, attr)

            def counted(self, *args, **kwargs):
                counts[key] += 1
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, attr, counted)

        counting(IntMatrix, "__init__", "IntMatrix")
        counting(links.LinkUniverse, "__init__", "LinkUniverse")
        counting(BraidWord, "__init__", "BraidWord")
        c = lift_braid(b, 6)
        assert c.total.size > c.base.size
        assert counts == {"IntMatrix": 0, "LinkUniverse": 0, "BraidWord": 0}
        # The counters see the public constructors.
        BraidWord(2, (1,))
        links.LinkUniverse(("K",), IntMatrix([[0]]))
        assert counts == {"IntMatrix": 1, "LinkUniverse": 1, "BraidWord": 1}

    def test_a_warm_lift_makes_one_table_lookup(self):
        # Everything sigma and n fix is one lookup in the one (sigma, n) table.
        b = BraidWord(4, (1, 2, -3, 1))
        lift_braid(b, 6)
        before = covers._cover_skeleton.cache_info()
        lift_braid(b, 6)
        after = covers._cover_skeleton.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1
        assert after.hits == before.hits + 1

    def test_lift_base_is_the_braids_universe(self, small_lifts):
        # The lift's base comes from the (sigma, n) table, universe_from_braid
        # from links alone: both must build the same universe.
        assert len(small_lifts) == 23136
        bad = []
        for b, n, c in small_lifts:
            u = links.universe_from_braid(b)
            if (c.base, c.base._generators) != (u, u._generators):
                bad.append((b, n))
        assert bad == []


class TestCoverTower:
    """Cyclic covers compose through every intermediate degree.

    For 1 < d < n with d | n, the degree-n cover of b is the degree-d
    cover of b followed by the degree-n/d cover of b^d.  Every word
    with <=3 strands and length <=4, and 150 seeded 4-strand words of
    length <=5, at every n in 2-12 and every such d.
    """

    @staticmethod
    def triples():
        rng = random.Random(10)
        alphabet = [-3, -2, -1, 1, 2, 3]
        words = list(iter_braid_words(3, 4)) + [
            BraidWord(4, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))))
            for _ in range(150)
        ]
        return [(b, n, d) for b in words for n in range(2, 13) for d in range(2, n) if n % d == 0]

    def test_the_cover_through_b_to_the_d_is_the_top_of_the_tower(self):
        triples = self.triples()
        assert len(triples) == 523 * 12
        bad = []
        for b, n, d in triples:
            c_n, c_d = lift_braid(b, n), lift_braid(b, d)
            upper = lift_braid(power_word(b, d), n // d)
            deck = tuple(range(c_n.total.size))
            for _ in range(d):
                deck = tuple(c_n.deck[j] for j in deck)
            same = (
                upper.base.linking == c_d.total.linking
                and upper.total.linking == c_n.total.linking
                and tuple(c_d.fiber_map[k] for k in upper.fiber_map) == c_n.fiber_map
                and pushforward_matrix(c_d) @ pushforward_matrix(upper) == pushforward_matrix(c_n)
                and upper.deck == deck
            )
            if not same:
                bad.append((b, n, d))
        assert bad == []

    def test_a_broken_floor_breaks_the_tower(self):
        # A pushforward c entry moved on the middle cover spoils the product.
        b = BraidWord(2, (1, 1))
        c_n, c_d, upper = lift_braid(b, 4), lift_braid(b, 2), lift_braid(power_word(b, 2), 2)
        assert pushforward_matrix(c_d) @ pushforward_matrix(upper) == pushforward_matrix(c_n)
        moved = tuple(((e, c + 1), row) for (e, c), row in c_d.pushforward)
        broken = replaced(c_d, pushforward=moved)
        assert pushforward_matrix(broken) @ pushforward_matrix(upper) != pushforward_matrix(c_n)


def unit(m, i):
    """The i-th coordinate vector of Z^(2m)."""
    return tuple(int(t == i) for t in range(2 * m))


class TestPushforward:
    def test_sigma1_slots(self):
        c = lift_braid(BraidWord(2, (1,)), 2)
        mu_j2 = _pushforward_coeffs(c, unit(3, 4))
        assert mu_j2 == (0, 0, 1, 0)
        lam_j1 = _pushforward_coeffs(c, unit(3, 3))
        assert lam_j1 == (0, 0, 1, 1)
        mu_axis = _pushforward_coeffs(c, unit(3, 0))
        assert mu_axis == (2, 0, 0, 0)
        assert _pushforward_coeffs(c, (0,) * 6) == (0,) * 4

    def test_trivial_cover_slots(self):
        c = lift_braid(BraidWord(1, ()), 2)
        lam_j = _pushforward_coeffs(c, unit(2, 3))
        assert lam_j == (0, 0, 0, 2)
        mu_j = _pushforward_coeffs(c, unit(2, 2))
        assert mu_j == (0, 0, 1, 0)

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
        assert surface_pushforward(c, (1,), (1,)) == ((1,), (1,))
        assert surface_pushforward(c, (0,), (1,)) == ((0,), (1,))
        c2 = lift_braid(BraidWord(1, ()), 2)
        assert surface_pushforward(c2, (1,), (1,)) == ((1,), (2,))

    def test_matrix_agrees_with_slotwise(self):
        rng = random.Random(3)
        for c in suite_covers(2, 3, (2, 3)):
            f = pushforward_matrix(c)
            v = tuple(rng.randint(-4, 4) for _ in range(2 * c.total.size))
            assert f.apply(v) == _pushforward_coeffs(c, v)


class TestDeck:
    def test_sigma1_swap(self):
        c = lift_braid(BraidWord(2, (1,)), 2)
        assert c.deck == (0, 2, 1)

    def test_order_on_fibers(self):
        for c in suite_covers(3, 2, (2, 3, 4)):
            for j, k in enumerate(c.fiber_map):
                t = j
                for _ in range(c.splitting[k].r):
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


def test_unchecked_matrices_equal_their_rebuild_through_the_constructor(cover_families):
    """``pushforward_matrix``, ``deck_matrix``, ``@`` and ``identity`` build through ``_trusted``.

    Each matrix they build equals ``IntMatrix(...)`` of its own entries,
    over every family of the route cross-checks, tampered ones included.
    The products are a row through both cover matrices, kept to one row
    so the sweep stays fast, and each also equals its row-by-column sums.
    """

    def row_times(row, m):
        return tuple(sum(map(operator.mul, row, col)) for col in zip(*m.entries))

    bad = []
    identities = {}
    for family, covers_of_family in cover_families.items():
        for i, c in enumerate(covers_of_family):
            f, d = pushforward_matrix(c), deck_matrix(c)
            one = identities.get(d.rows)
            if one is None:
                one = identities[d.rows] = IntMatrix.identity(d.rows)
            r = IntMatrix([range(1, f.rows + 1)])
            rf = r @ f
            rfd = rf @ d
            if (
                any(m != IntMatrix(m.entries, cols=m.cols) for m in (f, d, one, rf, rfd))
                or rf.entries != (row_times(r.entries[0], f),)
                or rfd.entries != (row_times(rf.entries[0], d),)
            ):
                bad.append((family, i))
    assert bad == []
    assert sorted(identities) == [4, 6, 8, 10]


class TestCoverIdentities:
    def test_linking_transfer(self):
        # e_K'' * sum of upstairs linkings over K'' = w_K * base linking
        for c in suite_covers(3, 3, (2, 3, 4)):
            base = c.base
            for j in range(c.total.size):
                k = c.fiber_map[j]
                w_k = c.splitting[k].w
                for k2 in range(base.size):
                    if k2 == k:
                        continue
                    e2 = c.splitting[k2].e
                    upstairs = sum(
                        c.total.linking.entries[j][j2]
                        for j2, x in enumerate(c.fiber_map) if x == k2
                    )
                    assert e2 * upstairs == w_k * base.linking.entries[k][k2]

    def test_diagonal_commutes_on_generators(self):
        for c in suite_covers(3, 3, (2, 3)):
            gens = principal_generators(c.total)
            for j in range(c.total.size):
                lhs = _pushforward_coeffs(c, gens[j])
                rhs = surface_boundary(c.base, *surface_pushforward(c, (j,), (1,)))
                assert lhs == rhs

    def test_meridian_columns(self):
        for c in suite_covers(3, 2, (2, 5)):
            f = pushforward_matrix(c)
            for j in range(c.total.size):
                col = f.column(2 * j)
                assert col[1::2] == (0,) * c.base.size

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
        base_order = tuple(reversed(range(c.base.size)))
        top_order = tuple(reversed(range(c.total.size)))
        r = relabeled_cover(c, base_order, top_order)
        assert r.base.labels == tuple(reversed(c.base.labels))
        back = relabeled_cover(
            r,
            tuple(base_order.index(i) for i in range(len(base_order))),
            tuple(top_order.index(i) for i in range(len(top_order))),
        )
        assert back == c

    @pytest.mark.parametrize("bad", [(True, False), (1.0, 0.0)])
    def test_orders_must_be_plain_ints(self, bad):
        c = lift_braid(BraidWord(2, (1,)), 2)
        top = tuple(range(c.total.size))
        with pytest.raises(ValueError, match="permutation"):
            relabeled_cover(c, bad, top)
        with pytest.raises(ValueError, match="permutation"):
            relabeled_cover(c, (0, 1), bad + (2,))

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

    @pytest.mark.parametrize("degree", [True, 2.0, 0, -1])
    def test_degree_must_be_plain_positive_int(self, degree):
        # As in lift_braid: a bool or float degree is a ValueError, not 1 or a TypeError.
        with pytest.raises(ValueError, match="cover degree"):
            branched_cover_order(TREFOIL, degree)

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


def _seifert_cases():
    """(V, n) pairs: degenerate matrices at every n 1-12, then seeded random ones."""
    pinned = [
        [],
        [[0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[1, 1], [1, 1]],  # symmetric and singular: det(V - t V^T) = (1 - t)^2 det V = 0
        [[2, -1, 3], [2, -1, 3], [0, 1, 1]],  # a repeated row
        [[2**70 + 1, -(2**65)], [3, 2**64 + 7]],
    ]
    cases = [(v, n) for v in pinned for n in range(1, 13)]
    rng = random.Random(19)
    for _ in range(300):
        k = rng.randint(0, 5)
        bound = 2**66 if rng.random() < 0.1 else 3
        v = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]
        if k > 1 and rng.random() < 0.2:
            v[-1] = list(v[0])
        cases.append((v, rng.randint(1, 12)))
    return cases


def test_branched_cover_order_against_interpolated_resultant():
    # The oracle's Alexander polynomial shares no code with the package;
    # its resultant with 1 + t + ... + t^(n-1) is 0 when it vanishes identically, n = 1 included.
    for v, n in _seifert_cases():
        expected = abs(resultant_oracle(alexander_oracle(v), [1] * n))
        assert branched_cover_order(IntMatrix(v, cols=len(v)), n) == expected, (v, n)
    for v in ([[0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, 1], [1, 1]]):
        assert branched_cover_order(IntMatrix(v), 1) == 0
