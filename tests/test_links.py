"""Braid combinatorics: permutations, components, exact linking data."""

import itertools
import random

import pytest

from idelink.links import (
    BraidWord,
    LinkUniverse,
    braid_linking_matrix,
    braid_permutation,
    braid_power,
    permutation_cycles,
    relabeled_universe,
    universe_from_braid,
)
from idelink.zlattice import IntMatrix

from oracles import replaced


def all_words(strands, max_len):
    alphabet = [g for g in range(-(strands - 1), strands) if g]
    for length in range(max_len + 1):
        yield from (
            BraidWord(strands, w) for w in itertools.product(alphabet, repeat=length)
        )


class TestBraidWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            BraidWord(0, ())
        with pytest.raises(ValueError):
            BraidWord(2, (0,))
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(1, (1,))
        assert len(BraidWord(3, (1, -2, 1))) == 3

    def test_strands_must_be_plain_int(self):
        for strands in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="not a plain int"):
                BraidWord(strands, ())


class TestPermutation:
    def test_single_generator_is_transposition(self):
        assert braid_permutation(BraidWord(2, (1,))) == (1, 0)

    def test_square_is_identity(self):
        assert braid_permutation(BraidWord(2, (1, 1))) == (0, 1)

    def test_three_cycle(self):
        perm = braid_permutation(BraidWord(3, (1, 2)))
        assert perm == (2, 0, 1)

    def test_inverse_letters_cancel(self):
        rng = random.Random(0)
        for _ in range(50):
            k = rng.randint(2, 4)
            w = [rng.choice([g for g in range(-(k - 1), k) if g]) for _ in range(6)]
            cancel = w + [-g for g in reversed(w)]
            assert braid_permutation(BraidWord(k, tuple(cancel))) == tuple(range(k))


class TestComponents:
    def test_examples(self):
        assert permutation_cycles(braid_permutation(BraidWord(2, (1, 1)))) == ((0,), (1,))
        assert permutation_cycles(braid_permutation(BraidWord(2, (1,)))) == ((0, 1),)
        assert permutation_cycles(braid_permutation(BraidWord(3, (1, 2)))) == ((0, 2, 1),)

    def test_ordering_by_smallest_strand(self):
        comps = permutation_cycles(braid_permutation(BraidWord(4, (3,))))
        assert comps == ((0,), (1,), (2, 3))

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_cycles((2, (1,)))

    def test_repeated_entry_rejected(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_cycles((0, 0))


class TestLinkingMatrix:
    def test_hopf_link(self):
        assert braid_linking_matrix(BraidWord(2, (1, 1))).entries == ((0, 1), (1, 0))

    def test_negative_hopf(self):
        assert braid_linking_matrix(BraidWord(2, (-1, -1))).entries == (
            (0, -1),
            (-1, 0),
        )

    def test_torus_two_four(self):
        assert braid_linking_matrix(BraidWord(2, (1, 1, 1, 1))).entries == (
            (0, 2),
            (2, 0),
        )

    def test_symmetric_zero_diagonal_exhaustive(self):
        for strands in (1, 2, 3):
            for b in all_words(strands, 6):
                m = braid_linking_matrix(b)
                assert m.shape[0] == m.shape[1]
                for i in range(m.rows):
                    assert m.entries[i][i] == 0
                    for j in range(m.rows):
                        assert m.entries[i][j] == m.entries[j][i]

    def test_symmetric_zero_diagonal_sampled_four_strands(self):
        rng = random.Random(17)
        alphabet = [g for g in range(-3, 4) if g]
        for _ in range(4000):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            m = braid_linking_matrix(BraidWord(4, w))
            for i in range(m.rows):
                assert m.entries[i][i] == 0
                for j in range(m.rows):
                    assert m.entries[i][j] == m.entries[j][i]

    def test_mirror_negates_linking(self):
        rng = random.Random(23)
        for _ in range(300):
            k = rng.randint(2, 4)
            w = tuple(
                rng.choice([g for g in range(-(k - 1), k) if g])
                for _ in range(rng.randint(0, 8))
            )
            lk = braid_linking_matrix(BraidWord(k, w))
            mirrored = braid_linking_matrix(BraidWord(k, tuple(-g for g in w)))
            assert mirrored.entries == tuple(
                tuple(-x for x in row) for row in lk.entries
            )

    def test_markov_stabilization_keeps_linking(self):
        # A word on k strands, viewed on k+1 strands with its last strand
        # isolated, closes to the same link after appending the new
        # positive generator; linking among the original components must
        # not move.
        for strands in (2, 3):
            for b in all_words(strands, 4):
                wide = BraidWord(strands + 1, b.letters)
                stabilized = BraidWord(strands + 1, b.letters + (strands,))
                base = braid_linking_matrix(b)
                stab = braid_linking_matrix(stabilized)
                # components of the stabilized braid: strand k joins the
                # cycle containing the old strand holding position k at
                # the end of the word, i.e. the cycle of sigma^-1(k).
                old = permutation_cycles(braid_permutation(b))
                new = permutation_cycles(braid_permutation(stabilized))
                assert len(new) == len(old)
                for ci, cyc in enumerate(old):
                    assert set(cyc) <= set(new[ci])
                assert stab.shape == base.shape
                assert stab.entries == base.entries


class TestUniverse:
    def test_hopf_universe(self):
        u = universe_from_braid(BraidWord(2, (1, 1)))
        assert u.labels == ("A", "K1", "K2")
        assert u.axis_index == 0
        assert u.windings == (0, 1, 1)
        assert u.linking.entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_trivial_word(self):
        u = universe_from_braid(BraidWord(1, ()))
        assert u.labels == ("A", "K1")
        assert u.linking.entries[0][1] == 1

    def test_single_generator(self):
        u = universe_from_braid(BraidWord(2, (1,)))
        assert u.labels == ("A", "K1")
        assert u.linking.entries[0][1] == 2
        assert u.windings == (0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkUniverse(("A", "K"), IntMatrix([[0, 1], [2, 0]]))
        with pytest.raises(ValueError):
            LinkUniverse(("A", "K"), IntMatrix([[1, 0], [0, 0]]))

    def test_windings_are_the_axis_row(self):
        m = IntMatrix([[0, 2, 1], [2, 0, 3], [1, 3, 0]])
        assert LinkUniverse(("K", "A", "L"), m, axis_index=1).windings == (2, 0, 3)
        assert LinkUniverse(("K", "A", "L"), m).windings is None

    @pytest.mark.parametrize("axis", [True, 1.0])
    def test_axis_index_must_be_plain_int(self, axis):
        # True would otherwise be stored as the axis, 1.0 fail with a TypeError.
        with pytest.raises(ValueError, match="not a plain int"):
            LinkUniverse(("A", "K"), IntMatrix([[0, 1], [1, 0]]), axis)

    def test_labels_must_be_strings(self):
        # Int labels would otherwise fail later, in IdeleVector.format and the witnesses.
        with pytest.raises(ValueError, match="not a string"):
            LinkUniverse((1, 2), IntMatrix([[0, 1], [1, 0]]), 0)

    @pytest.mark.parametrize("linking", [[[0]], ((0,),), None])
    def test_linking_must_be_an_int_matrix(self, linking):
        # A nested list would otherwise fail with an AttributeError on .shape.
        with pytest.raises(ValueError, match="linking .* is not an IntMatrix"):
            LinkUniverse(("A",), linking)

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            LinkUniverse(("A", "A"), IntMatrix([[0, 1], [1, 0]]), 0)

    @pytest.mark.parametrize("order", [(True, False, 2), (1.0, 0.0, 2.0)])
    def test_relabel_order_must_be_plain_ints(self, order):
        u = universe_from_braid(BraidWord(2, (1, 1)))
        with pytest.raises(ValueError, match="permutation"):
            relabeled_universe(u, order)

    def test_relabeled_universe_roundtrip(self):
        u = universe_from_braid(BraidWord(3, (1, 2, 1)))
        order = (2, 0, 1) if u.size == 3 else tuple(range(u.size))
        if u.size != 3:
            pytest.skip("unexpected component count")
        r = relabeled_universe(u, order)
        assert r.labels == tuple(u.labels[i] for i in order)
        back = relabeled_universe(r, tuple(order.index(i) for i in range(3)))
        assert back == u


class TestBraidPower:
    def test_examples(self):
        assert braid_power(BraidWord(2, (1,)), 2).letters == (1, 1)
        assert braid_power(BraidWord(2, (1, 1)), 3).letters == (1,) * 6
        assert braid_power(BraidWord(3, ()), 5).letters == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            braid_power(BraidWord(2, (1,)), 0)

    def test_bool_exponent_rejected(self):
        # True is an int subclass equal to 1; it must not pass as the first power.
        with pytest.raises(ValueError, match="not a plain int"):
            braid_power(BraidWord(2, (1,)), True)

    def test_float_exponent_rejected(self):
        with pytest.raises(ValueError, match="not a plain int"):
            braid_power(BraidWord(2, (1,)), 2.0)

    def test_winding_of_powers(self):
        # cycle lengths of the n-th power split each cycle of length d
        # into gcd(d, n) cycles of length d/gcd(d, n)
        from math import gcd

        rng = random.Random(5)
        for _ in range(100):
            k = rng.randint(1, 4)
            alphabet = [g for g in range(-(k - 1), k) if g]
            w = tuple(
                rng.choice(alphabet) for _ in range(rng.randint(0, 6))
            ) if alphabet else ()
            b = BraidWord(k, w)
            n = rng.randint(1, 6)
            cycles = permutation_cycles(braid_permutation(b))
            base = {min(c): len(c) for c in cycles}
            power = permutation_cycles(braid_permutation(braid_power(b, n)))
            for cyc in power:
                d = base[min(min(c) for c in cycles if set(cyc) <= set(c))]
                assert len(cyc) == d // gcd(d, n)


def _plain_int_rows(m: IntMatrix) -> bool:
    return type(m.entries) is tuple and all(
        type(row) is tuple and len(row) == m.cols and all(type(x) is int for x in row)
        for row in m.entries
    )


class TestTrustedUniverses:
    """The lift builds its universes unchecked; every check runs here instead."""

    def test_lifted_universes_pass_the_public_constructors(self, sweep_covers, wide4_covers):
        for b, n, c in sweep_covers + wide4_covers:
            for u in (c.base, c.total):
                m = u.size
                rebuilt = LinkUniverse(u.labels, IntMatrix(u.linking.entries, cols=m), u.axis_index)
                assert rebuilt == u, (b, n)
                assert rebuilt._generators == u._generators, (b, n)
                assert u.linking.shape == (m, m) and _plain_int_rows(u.linking), (b, n)
                assert type(u.windings) is tuple, (b, n)

    def test_universe_from_braid_passes_the_public_constructors(self):
        for b in all_words(3, 4):
            u = universe_from_braid(b)
            rebuilt = LinkUniverse(u.labels, IntMatrix(u.linking.entries, cols=u.size), u.axis_index)
            assert rebuilt == u and rebuilt._generators == u._generators
            assert _plain_int_rows(u.linking)

    def test_generators_are_data_of_the_universe(self):
        u = universe_from_braid(BraidWord(3, (1, 1, 2)))
        assert u == replaced(u)
        assert "_generators" not in repr(u)
        with pytest.raises(TypeError):
            LinkUniverse(u.labels, u.linking, u.axis_index, u._generators)
