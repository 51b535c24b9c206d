"""Idele vectors, boundary data, principal lattices, class quotients."""

import itertools
import random

import pytest

from idelink.ideles import (
    IdeleVector,
    class_quotient,
    meridian_subgroup,
    principal_generators,
    principal_lattice,
)
from idelink.covers import _pushforward_coeffs, lift_braid, principal_pushforward
from idelink.hasse import iter_braid_words, verify_projection_compatibility
from idelink.links import BraidWord, LinkUniverse, universe_from_braid
from idelink.zlattice import (
    AbelianInvariants,
    IntMatrix,
    SubLattice,
    lattice_equal,
    lattice_sum,
    preimage_lattice,
    quotient_invariants,
    snf,
)

from oracles import (
    boundary_from_linking,
    invariants_oracle,
    project_coeffs,
    replaced,
    surface_boundary,
    with_generators,
)


def hopf():
    return universe_from_braid(BraidWord(2, (1, 1)))


def axis_knot_lk2():
    return universe_from_braid(BraidWord(2, (1,)))


def small_universes(max_len=4):
    for strands in (1, 2, 3):
        alphabet = [g for g in range(-(strands - 1), strands) if g]
        for length in range(max_len + 1):
            for w in itertools.product(alphabet, repeat=length):
                yield universe_from_braid(BraidWord(strands, w))


def generator_sum(u, support, coeffs):
    """sum c_K times principal generator K, the boundary ``delta`` prints."""
    gens = principal_generators(u)
    out = [0] * (2 * u.size)
    for k, c in zip(support, coeffs):
        for i, x in enumerate(gens[k]):
            out[i] += c * x
    return tuple(out)


def single(u, k):
    """Oracle boundary of the single-surface class S_K."""
    return surface_boundary(u, (k,), (1,))


class TestIdeleVector:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IdeleVector((0, 1), (1, 0, 0))
        with pytest.raises(TypeError):
            IdeleVector((0,), (1.0, 0))

    def test_components_are_plain_ints(self):
        for bad in ("a", True, 1.0):
            with pytest.raises(ValueError, match="plain int"):
                IdeleVector((bad,), (0, 0))
        with pytest.raises(ValueError, match="duplicate"):
            IdeleVector((1, 1), (0, 0, 0, 0))

    def test_format(self):
        u = axis_knot_lk2()
        v = IdeleVector((0, 1), (-2, 0, 0, 1))
        assert v.format(u) == "-2·μ_A + λ_K1"
        assert v.format(u, ascii_labels=True) == "-2*mu_A + lam_K1"
        assert IdeleVector((0, 1), (0, 0, 0, 0)).format(u) == "0"

    @pytest.mark.parametrize("k", [5, 2, -1])
    def test_format_refuses_a_component_outside_the_universe(self, k):
        # Unchecked, 5 would raise IndexError and -1 print the last label.
        u = universe_from_braid(BraidWord(2, (1,)))
        with pytest.raises(ValueError, match=f"^component {k} is not in the universe$"):
            IdeleVector((k,), (1, 0)).format(u)


class TestBoundary:
    def test_hopf_two_component_sublink(self):
        u = hopf()
        assert project_coeffs(principal_generators(u)[1], (1, 2)) == (0, 1, -1, 0)

    def test_singleton_sublink_is_bare_longitude(self):
        u = hopf()
        assert project_coeffs(principal_generators(u)[1], (1,)) == (0, 1)

    def test_split_universe(self):
        u = universe_from_braid(BraidWord(3, ()))  # three split unknots
        # non-axis components have zero mutual linking
        v = project_coeffs(principal_generators(u)[1], (1, 2, 3))
        assert v[1] == 1
        assert v[2] == 0 and v[4] == 0


def _boundary_disagreements(covers):
    """(linking rows, k, sublink) where a stored row on a sublink differs from the linking formula.

    Every sublink of every distinct universe of ``covers``, the empty one
    included, with every component k, on the sublink or off it; the
    formula's boundary is projected onto the sublink's own slots.
    """
    universes = {u.linking.entries: u for _, _, c in covers for u in (c.base, c.total)}
    return [
        (rows, k, sub)
        for rows, u in universes.items()
        for r in range(u.size + 1)
        for sub in itertools.combinations(range(u.size), r)
        for k in range(u.size)
        if project_coeffs(principal_generators(u)[k], sub)
        != project_coeffs(boundary_from_linking(u, k, sub), sub)
    ]


def test_boundary_matches_linking_formula_on_acceptance_sweep(sweep_covers):
    assert _boundary_disagreements(sweep_covers) == []


def test_boundary_matches_linking_formula_on_wide4_words(wide4_covers):
    assert _boundary_disagreements(wide4_covers) == []


class TestDiagonalMap:
    def test_hopf_generator(self):
        u = hopf()
        assert principal_generators(u)[1] == (-1, 0, 0, 1, -1, 0)

    def test_zero_class(self):
        u = hopf()
        assert generator_sum(u, (1, 2), (0, 0)) == (0,) * 6

    def test_winding_two(self):
        u = axis_knot_lk2()
        assert principal_generators(u)[1] == (-2, 0, 0, 1)

    def test_linearity_on_braid_universes(self):
        rng = random.Random(9)
        universes = list(small_universes(3))
        for _ in range(200):
            u = rng.choice(universes)
            support = tuple(sorted(rng.sample(range(u.size), rng.randint(0, u.size))))
            c1 = tuple(rng.randint(-3, 3) for _ in support)
            c2 = tuple(rng.randint(-3, 3) for _ in support)
            lhs = generator_sum(u, support, tuple(a + b for a, b in zip(c1, c2)))
            b1 = surface_boundary(u, support, c1)
            b2 = surface_boundary(u, support, c2)
            assert lhs == tuple(x + y for x, y in zip(b1, b2))

    def test_meridian_coefficient_formula(self):
        # mu-coefficient at K is minus the linking-weighted sum of all
        # other coefficients, support or not; recompute from scratch.
        rng = random.Random(10)
        universes = list(small_universes(3))
        for _ in range(200):
            u = rng.choice(universes)
            support = tuple(sorted(rng.sample(range(u.size), rng.randint(0, u.size))))
            coeffs = tuple(rng.randint(-3, 3) for _ in support)
            v = generator_sum(u, support, coeffs)
            assert v == surface_boundary(u, support, coeffs)
            coefficient = dict(zip(support, coeffs))
            for k in range(u.size):
                expected = -sum(
                    u.linking.entries[k][k2] * coefficient.get(k2, 0)
                    for k2 in range(u.size)
                    if k2 != k
                )
                assert v[2 * k] == expected


class TestPrincipalLattice:
    def test_axis_knot(self):
        u = universe_from_braid(BraidWord(1, ()))
        p = principal_lattice(u)
        expect = SubLattice.from_columns(4, [(0, 1, -1, 0), (-1, 0, 0, 1)])
        assert lattice_equal(p, expect)

    def test_split_pair(self):
        # two unlinked non-axis components: boundaries are bare longitudes
        # up to the axis slot, so check the non-axis block directly
        u = universe_from_braid(BraidWord(2, ()))
        p = principal_lattice(u)
        for k in (1, 2):
            v = principal_generators(u)[k]
            assert v[2 * k + 1] == 1 and v[2 * (3 - k)] == 0

    def test_hopf_generators(self):
        u = hopf()
        gens = [single(u, k) for k in range(3)]
        assert principal_lattice(u) == SubLattice.from_columns(6, gens)

    def test_generators_are_single_surface_boundaries(self):
        for u in small_universes(3):
            gens = [single(u, k) for k in range(u.size)]
            assert principal_generators(u) == gens

    def test_public_universe_generators(self):
        # A universe built through the public constructor, with no axis.
        u = LinkUniverse(("K1", "K2", "K3"), IntMatrix([[0, 2, -1], [2, 0, 3], [-1, 3, 0]]))
        gens = [single(u, k) for k in range(u.size)]
        assert principal_generators(u) == gens
        assert gens[0] == (0, 1, -2, 0, 1, 0)

    def test_returned_list_is_a_copy(self):
        u = hopf()
        gens = principal_generators(u)
        before = list(gens)
        gens[0] = gens[0][:1] + (2,) + gens[0][2:]
        gens.append(gens[1])
        assert principal_generators(u) == before
        assert principal_generators(u) is not principal_generators(u)


def test_generator_double_reaches_every_reader():
    # Every reader of generators sees a with_generators double's rows, on the
    # universe and on a cover built from it; one that cached or rebuilt the
    # generators would see the real ones, and the failure-route tests would
    # quietly check those.  Doubling every entry changes every reading.
    c = lift_braid(BraidWord(2, (1,)), 2)
    doubles = []
    for u in (c.base, c.total):
        m = u.size
        gens = [tuple(2 * x for x in g) for g in principal_generators(u)]
        double = with_generators(u, gens)
        doubles.append(double)
        assert principal_generators(double) == gens
        assert principal_lattice(double) == SubLattice.from_columns(2 * m, gens)
        assert principal_lattice(double) != principal_lattice(u)
        for r in range(m + 1):
            for sub in itertools.combinations(range(m), r):
                kept = [g[1::2] + tuple(g[2 * k] for k in sub) for g in gens]
                inv = class_quotient(double, sub)
                assert (inv.free_rank, inv.torsion) == invariants_oracle(m + r, kept)
                assert inv != class_quotient(u, sub)
                for k in range(m):
                    stored = principal_generators(double)[k]
                    assert project_coeffs(stored, sub) == project_coeffs(gens[k], sub)
        # The public constructor rebuilds the real generators.
        assert principal_generators(replaced(double)) == principal_generators(u)
    cover = replaced(c, base=doubles[0], total=doubles[1])
    assert principal_generators(cover.base) == principal_generators(doubles[0])
    pushed = [_pushforward_coeffs(c, g) for g in principal_generators(doubles[1])]
    assert principal_pushforward(cover) == SubLattice.from_columns(2 * c.base.size, pushed)
    assert principal_pushforward(cover) != principal_pushforward(c)
    assert verify_projection_compatibility(cover)[0] is False


class TestMeridianSubgroup:
    def test_whole_universe_excluded(self):
        u = hopf()
        assert meridian_subgroup(u, (0, 1, 2)).rank == 0

    def test_nothing_excluded(self):
        u = hopf()
        m = meridian_subgroup(u, ())
        assert m.rank == 3
        for col in m.canonical_form.columns():
            assert col[1::2] == (0, 0, 0)

    def test_axis_excluded(self):
        u = universe_from_braid(BraidWord(1, ()))
        m = meridian_subgroup(u, (0,))
        assert m.canonical_form.columns() == [(0, 0, 1, 0)]

    def test_rejects_foreign_components(self):
        with pytest.raises(ValueError):
            meridian_subgroup(hopf(), (5,))

    def test_rejects_components_that_are_not_plain_ints(self):
        # True would otherwise stand for component 1 and exclude K1.
        u = hopf()
        for bad in ((True,), (1.0,), ("K1",), (0, True)):
            with pytest.raises(ValueError, match="plain int"):
                meridian_subgroup(u, bad)
            with pytest.raises(ValueError, match="plain int"):
                class_quotient(u, bad)


class TestClassQuotient:
    def test_axis_only(self):
        u = universe_from_braid(BraidWord(1, ()))
        assert class_quotient(u, (0,)) == AbelianInvariants(1, ())

    def test_empty_sublink(self):
        u = universe_from_braid(BraidWord(1, ()))
        assert class_quotient(u, ()) == AbelianInvariants(0, ())

    def test_hopf_full(self):
        assert class_quotient(hopf(), (0, 1, 2)) == AbelianInvariants(3, ())

    def test_free_of_sublink_rank_everywhere(self):
        # Also against the Z^(2m) formulation, principal plus off-sublink
        # meridians, and against gcds of minors while those stay cheap.
        for u in small_universes(3):
            m = u.size
            principal = principal_lattice(u)
            gens = [single(u, k) for k in range(m)]
            for r in range(m + 1):
                for sub in itertools.combinations(range(m), r):
                    inv = class_quotient(u, sub)
                    assert inv == AbelianInvariants(len(sub), ())
                    relations = lattice_sum(principal, meridian_subgroup(u, sub))
                    assert quotient_invariants(2 * m, relations) == inv
                    if m <= 3:
                        meridians = [
                            tuple(int(i == 2 * k) for i in range(2 * m))
                            for k in range(m)
                            if k not in sub
                        ]
                        oracle = invariants_oracle(2 * m, gens + meridians)
                        assert oracle == (inv.free_rank, inv.torsion)


    def test_agrees_with_smith_on_interleaved_coordinates(self):
        # Reference: the former route, Smith invariants of the generators
        # restricted to the kept coordinates in slot order (mu_K, lambda_K
        # interleaved), on every distinct universe of the acceptance sweep.
        universes = set()
        for b in iter_braid_words(3, 4):
            for n in (2, 3, 4, 5):
                c = lift_braid(b, n)
                universes.update((c.base, c.total))
        assert len(universes) > 100
        for u in universes:
            m = u.size
            gens = [single(u, k) for k in range(m)]
            for r in range(m + 1):
                for sub in itertools.combinations(range(m), r):
                    keep = sorted([2 * k for k in sub] + [2 * k + 1 for k in range(m)])
                    _, d, _ = snf(IntMatrix([[g[i] for g in gens] for i in keep], cols=m))
                    diag = [d.entries[i][i] for i in range(min(len(keep), m))]
                    nonzero = [x for x in diag if x]
                    smith = AbelianInvariants(
                        len(keep) - len(nonzero), tuple(x for x in nonzero if x > 1)
                    )
                    assert class_quotient(u, sub) == smith


def test_slotwise_exactness():
    # within one slot, the meridian line is exactly the kernel of the
    # longitude projection (m, l) -> l
    proj = IntMatrix([[0, 1]])
    ker = preimage_lattice(proj, SubLattice.zero(1))
    assert lattice_equal(ker, SubLattice.from_columns(2, [(1, 0)]))
