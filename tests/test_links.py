"""Braid combinatorics: permutations, components, exact linking data.

Pinned cases are read twice: off ``oracles.closure_walk``, the tests'
own walk of a word, and off the package's universes and lifts
(component counts, windings, the closure block of the linking matrix).
"""

import itertools
import random
from math import gcd

import pytest

from idelink.covers import lift_braid
from idelink.links import BraidWord, LinkUniverse, relabeled_universe, universe_from_braid
from idelink.zlattice import IntMatrix

from oracles import closure_walk, replaced


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


def closure_block(u):
    """The linking numbers among a braid universe's closure components, axis left out."""
    return tuple(row[1:] for row in u.linking.entries[1:])


def windings(b):
    """The windings of the universe of ``b``: axis slot 0, then each component's."""
    return universe_from_braid(b).windings


class TestPermutation:
    def test_single_generator_is_transposition(self):
        b = BraidWord(2, (1,))
        assert closure_walk(b)[0] == (1, 0)
        assert windings(b) == (0, 2)

    def test_square_is_identity(self):
        b = BraidWord(2, (1, 1))
        assert closure_walk(b)[0] == (0, 1)
        assert windings(b) == (0, 1, 1)

    def test_three_cycle(self):
        b = BraidWord(3, (1, 2))
        assert closure_walk(b)[0] == (2, 0, 1)
        assert windings(b) == (0, 3)

    def test_inverse_letters_cancel(self):
        # The word times its inverse closes to the k-component unlink.
        rng = random.Random(0)
        for _ in range(50):
            k = rng.randint(2, 4)
            w = [rng.choice([g for g in range(-(k - 1), k) if g]) for _ in range(6)]
            b = BraidWord(k, tuple(w + [-g for g in reversed(w)]))
            assert closure_walk(b)[0] == tuple(range(k))
            assert universe_from_braid(b).linking == universe_from_braid(BraidWord(k, ())).linking


class TestComponents:
    def test_examples(self):
        for letters, strands, cycles, winding_row in (
            ((1, 1), 2, ((0,), (1,)), (0, 1, 1)),
            ((1,), 2, ((0, 1),), (0, 2)),
            ((1, 2), 3, ((0, 2, 1),), (0, 3)),
        ):
            b = BraidWord(strands, letters)
            assert closure_walk(b)[1] == cycles
            assert windings(b) == winding_row

    def test_ordering_by_smallest_strand(self):
        b = BraidWord(4, (3,))
        assert closure_walk(b)[1] == ((0,), (1,), (2, 3))
        assert windings(b) == (0, 1, 1, 2)


class TestLinkingMatrix:
    def test_hopf_link(self):
        b = BraidWord(2, (1, 1))
        assert closure_block(universe_from_braid(b)) == closure_walk(b)[2] == ((0, 1), (1, 0))

    def test_negative_hopf(self):
        b = BraidWord(2, (-1, -1))
        assert closure_block(universe_from_braid(b)) == closure_walk(b)[2] == ((0, -1), (-1, 0))

    def test_torus_two_four(self):
        b = BraidWord(2, (1, 1, 1, 1))
        assert closure_block(universe_from_braid(b)) == closure_walk(b)[2] == ((0, 2), (2, 0))

    def test_symmetric_zero_diagonal_exhaustive(self):
        # The universe's block equals the oracle's, which is symmetric
        # with zero diagonal.
        for strands in (1, 2, 3):
            for b in all_words(strands, 6):
                block = closure_walk(b)[2]
                assert closure_block(universe_from_braid(b)) == block
                for i in range(len(block)):
                    assert block[i][i] == 0
                    for j in range(len(block)):
                        assert block[i][j] == block[j][i]

    def test_symmetric_zero_diagonal_sampled_four_strands(self):
        rng = random.Random(17)
        alphabet = [g for g in range(-3, 4) if g]
        for _ in range(4000):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            block = closure_walk(BraidWord(4, w))[2]
            assert closure_block(universe_from_braid(BraidWord(4, w))) == block
            for i in range(len(block)):
                assert block[i][i] == 0
                for j in range(len(block)):
                    assert block[i][j] == block[j][i]

    def test_mirror_negates_linking(self):
        rng = random.Random(23)
        for _ in range(300):
            k = rng.randint(2, 4)
            w = tuple(
                rng.choice([g for g in range(-(k - 1), k) if g])
                for _ in range(rng.randint(0, 8))
            )
            lk = closure_block(universe_from_braid(BraidWord(k, w)))
            mirrored = closure_block(universe_from_braid(BraidWord(k, tuple(-g for g in w))))
            assert mirrored == tuple(tuple(-x for x in row) for row in lk)

    def test_markov_stabilization_keeps_linking(self):
        # A word on k strands, viewed on k+1 strands with its last strand
        # isolated, closes to the same link after appending the new
        # positive generator; linking among the original components must
        # not move.
        for strands in (2, 3):
            for b in all_words(strands, 4):
                wide = BraidWord(strands + 1, b.letters)
                stabilized = BraidWord(strands + 1, b.letters + (strands,))
                base = closure_block(universe_from_braid(b))
                stab = closure_block(universe_from_braid(stabilized))
                # components of the stabilized braid: strand k joins the
                # cycle containing the old strand holding position k at
                # the end of the word, i.e. the cycle of sigma^-1(k).
                old = closure_walk(b)[1]
                new = closure_walk(stabilized)[1]
                assert len(new) == len(old)
                for ci, cyc in enumerate(old):
                    assert set(cyc) <= set(new[ci])
                assert stab == base


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
    """The degree-n lift's upstairs universe is the closure of the n-th power of the word."""

    def test_examples(self):
        for b, n, power, winding_row, block in (
            (BraidWord(2, (1,)), 2, (1, 1), (0, 1, 1), ((0, 1), (1, 0))),
            (BraidWord(2, (1, 1)), 3, (1,) * 6, (0, 1, 1), ((0, 3), (3, 0))),
            (BraidWord(3, ()), 5, (), (0, 1, 1, 1), ((0, 0, 0),) * 3),
        ):
            total = lift_braid(b, n).total
            assert total.linking == universe_from_braid(BraidWord(b.strands, power)).linking
            assert (total.windings, closure_block(total)) == (winding_row, block)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lift_braid(BraidWord(2, (1,)), 0)

    def test_bool_exponent_rejected(self):
        # True is an int subclass equal to 1; it must not pass as the first power.
        with pytest.raises(ValueError, match="not a plain int"):
            lift_braid(BraidWord(2, (1,)), True)

    def test_float_exponent_rejected(self):
        with pytest.raises(ValueError, match="not a plain int"):
            lift_braid(BraidWord(2, (1,)), 2.0)

    def test_winding_of_powers(self):
        # cycle lengths of the n-th power split each cycle of length d
        # into gcd(d, n) cycles of length d/gcd(d, n)
        rng = random.Random(5)
        for _ in range(100):
            k = rng.randint(1, 4)
            alphabet = [g for g in range(-(k - 1), k) if g]
            w = tuple(
                rng.choice(alphabet) for _ in range(rng.randint(0, 6))
            ) if alphabet else ()
            b = BraidWord(k, w)
            n = rng.randint(1, 6)
            c = lift_braid(b, n)
            for j in c.total.non_axis():
                d = c.base.windings[c.fiber_map[j]]
                assert c.total.windings[j] == d // gcd(d, n)


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
