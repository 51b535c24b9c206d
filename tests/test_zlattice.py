"""Exact lattice algebra against brute-force oracles and algebraic laws."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idelink import kernel
from idelink.covers import pushforward_matrix
from idelink.ideles import meridian_subgroup, principal_lattice
from idelink.zlattice import (
    AbelianInvariants,
    IntMatrix,
    SubLattice,
    lattice_equal,
    lattice_intersect,
    lattice_member,
    lattice_sum,
    preimage_lattice,
    quotient_invariants,
    relative_quotient_invariants,
    snf,
)

from oracles import (
    box_points,
    dense_lattice_intersect,
    invariants_oracle,
    kernel_cut_preimage,
    member_oracle,
    relative_invariants_oracle,
    smith_diagonal_oracle,
    smith_invariants_oracle,
    smith_quotient_invariants,
    smith_relative_quotient_invariants,
)


def lat(rank, *cols):
    return SubLattice.from_columns(rank, cols)


class TestIntMatrix:
    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.0]])
        with pytest.raises(TypeError):
            IntMatrix([[True]])

    @pytest.mark.parametrize("cols", [True, 2.5])
    def test_cols_must_be_plain_int(self, cols):
        # True would otherwise be stored as the width, 2.5 fail later in .columns().
        with pytest.raises(ValueError, match="plain int"):
            IntMatrix([], cols=cols)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_identity_size_must_be_plain_int(self, n):
        # identity(True) would otherwise build a 1x1 matrix.
        with pytest.raises(ValueError, match="plain int"):
            IntMatrix.identity(n)

    def test_empty_shapes(self):
        assert IntMatrix([], cols=3).shape == (0, 3)
        assert IntMatrix([(), (), ()]).shape == (3, 0)
        assert IntMatrix([]).shape == (0, 0)

    def test_matmul_and_apply(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))
        assert a.apply((1, 1)) == (3, 7)

    @pytest.mark.parametrize("vec", [[1.5, 0], (True, 0), [0, 2.0]])
    def test_apply_rejects_floats_and_bools(self, vec):
        # Unchecked, [1.5, 0] would return (1.5, 0.0).
        with pytest.raises(TypeError, match="plain ints"):
            IntMatrix.identity(2).apply(vec)

    def test_det(self):
        assert IntMatrix([[1, 2], [3, 4]]).det() == -2
        assert IntMatrix.identity(4).det() == 1
        assert IntMatrix([[0, 0, 0]] * 3).det() == 0
        assert IntMatrix([], cols=0).det() == 1
        m = IntMatrix([[2, -1, 0], [1, 7, 3], [0, 4, -5]])
        assert m.det() == det_by_expansion(m.entries)


def det_by_expansion(rows):
    import itertools

    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = 1 if inv % 2 == 0 else -1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


class TestHnf:
    """The column Hermite form of m, read as ``SubLattice.from_matrix(m).canonical_form``."""

    def test_index_two_lattice(self):
        # columns (2,0) and (1,1) generate {(u,v): u = v mod 2}
        h = SubLattice.from_matrix(IntMatrix([[2, 1], [0, 1]])).canonical_form
        assert h.columns() == [(1, 1), (0, 2)]
        assert member_oracle((1, 1), [(2, 0), (1, 1)])
        assert member_oracle((0, 2), [(2, 0), (1, 1)])
        assert not member_oracle((1, 0), [(2, 0), (1, 1)])

    def test_identity_fixed(self):
        assert SubLattice.from_matrix(IntMatrix.identity(3)).canonical_form == IntMatrix.identity(3)

    def test_empty_matrix(self):
        empty = IntMatrix([(), (), ()])
        assert SubLattice.from_matrix(empty).canonical_form == empty
        assert SubLattice.from_matrix(IntMatrix([[0, 0]] * 3)).canonical_form == empty

    def test_canonical_shape_conditions(self):
        rng = random.Random(99)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            m = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            )
            h = SubLattice.from_matrix(m).canonical_form
            pivots = []
            for j in range(h.cols):
                nz = [i for i in range(h.rows) if h.entries[i][j]]
                assert nz, "canonical form has no zero columns"
                pivots.append(nz[0])
                assert h.entries[nz[0]][j] > 0
            assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
            for j, p in enumerate(pivots):
                for k in range(j):
                    assert 0 <= h.entries[p][k] < h.entries[p][j]


def random_unimodular(rng, n, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for r in range(n):
            m[r][j] += q * m[r][i]
        if rng.random() < 0.3:
            for r in range(n):
                m[r][i], m[r][j] = m[r][j], m[r][i]
        if rng.random() < 0.3:
            for r in range(n):
                m[r][i] = -m[r][i]
    return IntMatrix(m)


def test_hnf_invariant_under_unimodular_column_moves():
    rng = random.Random(4242)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        u = random_unimodular(rng, cols)
        assert abs(u.det()) == 1
        assert SubLattice.from_matrix(m) == SubLattice.from_matrix(m @ u)


matrix_strategy = st.integers(1, 4).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(rows, cols=c))
    )
)


def assert_snf_contract(m):
    """snf(m) meets the contract; returns its diagonal."""
    u, d, v = snf(m)
    assert (u.shape, d.shape, v.shape) == ((m.rows, m.rows), m.shape, (m.cols, m.cols))
    assert (u @ m @ v) == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for i, x in enumerate(diag):
        assert x >= 0
        if i and diag[i - 1]:
            assert x % diag[i - 1] == 0
        if i and diag[i - 1] == 0:
            assert x == 0
    return diag


@settings(max_examples=150, deadline=None)
@given(matrix_strategy)
def test_snf_contract(m):
    assert_snf_contract(m)


# Small entries, so pivots repeat and saturate, and entries beyond 2^64.
ODD_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.integers(2**64, 2**66),
    st.integers(-(2**66), -(2**64)),
)


def _odd_matrix(shape_rows_mix):
    """A matrix of the drawn rows, then combinations of them (rank deficient)."""
    (_, c), rows, mix = shape_rows_mix
    rows = rows + [
        [sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(c)] for coeffs in mix
    ]
    return IntMatrix(rows, cols=c)


odd_matrix_strategy = st.tuples(st.integers(0, 4), st.integers(0, 5)).flatmap(
    lambda rc: st.tuples(
        st.just(rc),
        st.lists(
            st.lists(ODD_ENTRIES, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ),
        st.lists(st.lists(st.integers(-2, 2), min_size=rc[0], max_size=rc[0]), max_size=2),
    )
).map(_odd_matrix)


@settings(max_examples=200, deadline=None)
@given(odd_matrix_strategy)
@example(IntMatrix([], cols=0))
@example(IntMatrix([], cols=4))
@example(IntMatrix([[], [], []], cols=0))
@example(IntMatrix([[2**64, 2**65], [2**65, 2**66]]))
@example(IntMatrix([[2**64 + 1, 0, 2**65], [0, 0, 0], [3 * (2**64 + 1), 0, 3 * 2**65]]))
def test_snf_contract_on_odd_shapes(m):
    """Empty, rank-deficient and beyond-2^64 matrices; the diagonal against gcds of minors."""
    diag = assert_snf_contract(m)
    nonzero = [x for x in diag if x]
    free_rank, torsion = invariants_oracle(m.rows, m.columns())
    assert (m.rows - len(nonzero), tuple(x for x in nonzero if x > 1)) == (free_rank, torsion)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrix_strategy, odd_matrix_strategy))
def test_smith_oracle_against_minor_gcds(m):
    """The elimination oracle and the minor-gcd oracle agree on small matrices."""
    cols = m.columns()
    assert smith_invariants_oracle(m.rows, cols) == invariants_oracle(m.rows, cols)


@settings(max_examples=100, deadline=None)
@given(matrix_strategy)
def test_hnf_spans_the_same_lattice(m):
    a = SubLattice.from_matrix(m)
    h = a.canonical_form
    for col in h.columns():
        assert member_oracle(col, m.columns())
    for col in m.columns():
        assert lattice_member(col, a)


class TestSnfExamples:
    def test_diag_2_3(self):
        _, d, _ = snf(IntMatrix([[2, 0], [0, 3]]))
        assert d.entries == ((1, 0), (0, 6))

    def test_zero(self):
        zero = IntMatrix([[0, 0, 0], [0, 0, 0]])
        _, d, _ = snf(zero)
        assert d == zero

    def test_one(self):
        _, d, _ = snf(IntMatrix([[1]]))
        assert d.entries == ((1,),)


class TestLatticeOps:
    def test_sum_examples(self):
        assert lattice_equal(
            lattice_sum(lat(2, (2, 0)), lat(2, (0, 1))), lat(2, (2, 0), (0, 1))
        )
        l = lat(2, (3, 1))
        assert lattice_equal(lattice_sum(l, SubLattice.zero(2)), l)
        assert lattice_equal(lattice_sum(lat(2, (2, 0)), lat(2, (3, 0))), lat(2, (1, 0)))

    def test_intersect_examples(self):
        got = lattice_intersect(lat(2, (2, 0), (0, 1)), lat(2, (1, 0), (0, 3)))
        assert lattice_equal(got, lat(2, (2, 0), (0, 3)))
        l = lat(2, (2, 1), (0, 5))
        assert lattice_equal(lattice_intersect(l, l), l)
        assert lattice_equal(
            lattice_intersect(l, SubLattice.zero(2)), SubLattice.zero(2)
        )

    def test_member_examples(self):
        assert lattice_member((4, 0), lat(2, (2, 0)))
        assert not lattice_member((1, 0), lat(2, (2, 0)))
        assert lattice_member((2, 3), lat(2, (2, 0), (0, 3)))

    def test_equal_examples(self):
        assert lattice_equal(lat(2, (1, 1), (0, 2)), lat(2, (1, -1), (0, 2)))
        assert not lattice_equal(SubLattice.full(2), lat(2, (2, 0), (0, 1)))
        assert lattice_equal(SubLattice.zero(2), SubLattice.zero(2))

    def test_negative_ambient_rank_rejected(self):
        with pytest.raises(ValueError):
            SubLattice.zero(-1)
        with pytest.raises(ValueError):
            SubLattice.from_columns(-2, ())

    def test_constructor_reduces_columns_to_the_canonical_form(self):
        # Membership and equality read the canonical form, so columns of
        # 2Z^2 out of Hermite order must not be stored as given.
        a = SubLattice(2, ((0, 2), (2, 0)))
        assert a == SubLattice.from_columns(2, [(0, 2), (2, 0)]) == lat(2, (2, 0), (0, 2))
        assert a.columns == ((2, 0), (0, 2))
        assert lattice_equal(a, lat(2, (2, 2), (0, 2)))
        assert lattice_member((2, 0), a) and not lattice_member((1, 0), a)
        assert SubLattice(2, [[3, 6], [2, 4]]) == lat(2, (1, 2))

    @pytest.mark.parametrize(
        "args, error",
        [
            ((-1, ()), ValueError),
            ((2, 5), ValueError),
            ((2, [(1,)]), ValueError),
            ((True, ()), ValueError),
            ((2, [(1.0, 0)]), TypeError),
            ((2, [(True, 0)]), TypeError),
        ],
        ids=["negative_rank", "columns_int", "short_column", "bool_rank", "float", "bool"],
    )
    def test_constructor_checks_its_arguments(self, args, error):
        with pytest.raises(error):
            SubLattice(*args)

    def test_ambient_rank_must_be_plain_int(self):
        # True would otherwise be kept as the rank, 2.0 fail inside the kernel.
        for bad in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="plain int"):
                SubLattice.from_columns(bad, ())
            with pytest.raises(ValueError, match="plain int"):
                SubLattice.zero(bad)

    def test_full_rank_must_be_plain_int(self):
        with pytest.raises(ValueError, match="plain int"):
            SubLattice.full(2.0)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lattice_sum(lat(2, (1, 0)), lat(3, (1, 0, 0)))
        with pytest.raises(ValueError):
            lattice_member((1, 0, 0), lat(2, (1, 0)))

    def test_sum_laws(self):
        rng = random.Random(11)
        for _ in range(60):
            rank = rng.randint(1, 4)
            mk = lambda: lat(
                rank,
                *[
                    [rng.randint(-3, 3) for _ in range(rank)]
                    for _ in range(rng.randint(0, 3))
                ],
            )
            a, b, c = mk(), mk(), mk()
            assert lattice_equal(lattice_sum(a, b), lattice_sum(b, a))
            assert lattice_equal(
                lattice_sum(lattice_sum(a, b), c), lattice_sum(a, lattice_sum(b, c))
            )
            assert lattice_equal(lattice_sum(a, a), a)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the kernel functions called, in order; clear it before the call under test."""
    calls = []
    for name in ("col_hnf", "col_hnf_with_kernel", "smith"):
        real = getattr(kernel, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(kernel, name, counted)
    return calls


def test_snf_reaches_no_kernel_function_but_smith(kernel_calls):
    """snf is one ``kernel.smith`` call, which reaches no other public kernel function."""
    rng = random.Random(81)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60)]
    for r, c in shapes:
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
        kernel_calls.clear()
        snf(m)
        assert kernel_calls == ["smith"]


class TestQuotients:
    def test_examples(self):
        assert quotient_invariants(2, lat(2, (2, 0))) == AbelianInvariants(1, (2,))
        assert quotient_invariants(3, SubLattice.zero(3)) == AbelianInvariants(3, ())
        assert quotient_invariants(2, SubLattice.full(2)) == AbelianInvariants(0, ())

    def test_saturated_non_unit_pivot_goes_through_the_kernel(self, kernel_calls):
        # <(2, 1)> is saturated, so Z^2 modulo it is Z, but its pivot is 2:
        # unit pivots are sufficient for a free quotient, not necessary.
        a = lat(2, (2, 1))
        assert a.columns == ((2, 1),)
        kernel_calls.clear()
        assert quotient_invariants(2, a) == AbelianInvariants(1, ())
        assert "col_hnf" in kernel_calls
        assert "smith" not in kernel_calls

    @pytest.mark.parametrize("rank,cols", [
        (3, [(1, 5, -7), (0, 1, 3)]),
        (4, [(1, 2, 3, 4), (0, 0, 1, 9)]),
        (4, [(0, 1, -6, 2), (0, 0, 0, 1), (1, 0, 0, 0)]),
    ])
    def test_unit_pivots_with_entries_below(self, kernel_calls, rank, cols):
        a = lat(rank, *cols)
        assert all(next(filter(None, col)) == 1 for col in a.columns)
        assert any(col[i] for col in a.columns for i in range(col.index(1) + 1, rank))
        kernel_calls.clear()
        inv = quotient_invariants(rank, a)
        assert kernel_calls == []
        assert inv == AbelianInvariants(rank - len(cols), ())
        assert (inv.free_rank, inv.torsion) == invariants_oracle(rank, cols)

    def test_zero_lattice(self, kernel_calls):
        zero3, zero0 = SubLattice.zero(3), SubLattice.zero(0)
        kernel_calls.clear()
        assert quotient_invariants(3, zero3) == AbelianInvariants(3, ())
        assert quotient_invariants(0, zero0) == AbelianInvariants(0, ())
        assert kernel_calls == []

    def test_never_calls_smith(self, monkeypatch):
        def refused(*args):
            raise AssertionError("quotient_invariants called kernel.smith")

        rng = random.Random(80)
        cases = [random_case(rng) for _ in range(300)]
        lattices = [SubLattice.from_columns(rank, cols) for rank, cols in cases]
        non_unit = [
            a for a in lattices if any(next(filter(None, col)) != 1 for col in a.columns)
        ]
        assert len(non_unit) > 100
        monkeypatch.setattr(kernel, "smith", refused)
        for a in lattices:
            quotient_invariants(a.ambient_rank, a)

    def test_first_isomorphism_on_cover_pushforwards(self, cover_families):
        # Z^(2m')/f^-1(R_M) and (f(Z^(2m')) + R_M)/R_M are isomorphic for every
        # integer map f: both quotient routes agree on each cover's pushforward
        # modulo the base's branch relations, on every sweep cover, on its twin
        # with one pushforward entry moved by +-1 or +-2, and on every wide4 cover.
        families = ("sweep", "moved_pushforward", "wide4")
        covers = [c for name in families for c in cover_families[name]]
        assert len(covers) == 11672
        bad = []
        for i, c in enumerate(covers):
            f = pushforward_matrix(c)
            base = c.base
            r_m = lattice_sum(principal_lattice(base), meridian_subgroup(base, (base.axis_index,)))
            source = quotient_invariants(2 * c.total.size, preimage_lattice(f, r_m))
            image = relative_quotient_invariants(lattice_sum(SubLattice.from_matrix(f), r_m), r_m)
            if source != image:
                bad.append((i, source, image))
        assert bad == []

    def test_relative(self):
        outer = lat(2, (1, 0), (0, 1))
        inner = lat(2, (2, 0), (0, 2))
        assert relative_quotient_invariants(outer, inner) == AbelianInvariants(0, (2, 2))
        with pytest.raises(ValueError):
            relative_quotient_invariants(inner, outer)

    def test_torsion_list_is_stored_as_tuple(self):
        inv = AbelianInvariants(0, [2])
        assert inv.torsion == (2,)
        assert inv == AbelianInvariants(0, (2,))
        assert hash(inv) == hash(AbelianInvariants(0, (2,)))

    @pytest.mark.parametrize("torsion", [(2.0,), (True,), (2, 4.0)])
    def test_torsion_must_be_plain_ints(self, torsion):
        with pytest.raises(ValueError, match="plain int"):
            AbelianInvariants(0, torsion)

    def test_invariants_validation(self):
        with pytest.raises(ValueError):
            AbelianInvariants(0, (3, 4))
        with pytest.raises(ValueError):
            AbelianInvariants(0, (1,))

    @pytest.mark.parametrize("free_rank", [1.0, True])
    def test_free_rank_must_be_plain_int(self, free_rank):
        with pytest.raises(ValueError, match="plain int"):
            AbelianInvariants(free_rank, ())

    @pytest.mark.parametrize("rank", [1.0, True])
    def test_quotient_ambient_rank_must_be_plain_int(self, rank):
        # 1.0 would otherwise come back as AbelianInvariants(free_rank=1.0, ...).
        with pytest.raises(ValueError, match="plain int"):
            quotient_invariants(rank, SubLattice.zero(1))


# Each public lattice operation given a record of the wrong kind (a plain
# list, or an IntMatrix where a SubLattice belongs and the reverse), or an
# int where a vector, the columns or one column belongs.  The message puts
# "an" before a vowel.
WRONG_KIND = {
    "quotient_invariants": lambda: quotient_invariants(2, [(1, 0)]),
    "relative_quotient_invariants": lambda: relative_quotient_invariants(
        SubLattice.full(2), IntMatrix.identity(2)
    ),
    "lattice_sum": lambda: lattice_sum([(1, 0)], SubLattice.full(2)),
    "lattice_intersect": lambda: lattice_intersect(SubLattice.full(2), [(1, 0)]),
    "lattice_equal": lambda: lattice_equal(IntMatrix.identity(2), SubLattice.full(2)),
    "lattice_member": lambda: lattice_member((1, 0), [(1, 0)]),
    "preimage_lattice": lambda: preimage_lattice(IntMatrix.identity(2), [(1, 0)]),
    "SubLattice.from_matrix": lambda: SubLattice.from_matrix(SubLattice.full(2)),
    "snf": lambda: snf([[1, 2]]),
    "IntMatrix.__matmul__": lambda: IntMatrix.identity(2) @ [[1], [0]],
    "lattice_member.vector": lambda: lattice_member(5, SubLattice.full(2)),
    "SubLattice.from_columns": lambda: SubLattice.from_columns(2, 5),
    "SubLattice.column": lambda: SubLattice(2, [5]),
    "SubLattice.from_columns.column": lambda: SubLattice.from_columns(2, [5]),
    "IntMatrix.apply": lambda: IntMatrix.identity(2).apply(5),
}


@pytest.mark.parametrize("name", WRONG_KIND)
def test_wrong_kind_argument_raises_value_error(name):
    with pytest.raises(ValueError, match="must be (a [^AEIOU]|an [AEIOU])"):
        WRONG_KIND[name]()


class TestKernelAndPreimage:
    def test_kernel_annihilates(self):
        rng = random.Random(3)
        for _ in range(80):
            rows = rng.randint(1, 4)
            cols = rng.randint(0, 5)
            m = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            )
            ker = preimage_lattice(m, SubLattice.zero(rows))
            assert ker.ambient_rank == cols
            for col in ker.canonical_form.columns():
                assert m.apply(col) == (0,) * rows

    def test_kernel_is_the_whole_kernel(self):
        # cols - rank(m) independent kernel vectors spanning a saturated
        # lattice (torsion-free quotient): that is the whole kernel.
        rng = random.Random(4)
        for _ in range(80):
            rows = rng.randint(1, 4)
            cols = rng.randint(0, 5)
            m = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], cols=cols
            )
            ker = preimage_lattice(m, SubLattice.zero(rows))
            assert ker.rank == cols - SubLattice.from_matrix(m).rank
            assert invariants_oracle(cols, ker.columns) == (cols - ker.rank, ())

    def test_preimage_matches_the_kernel_cut_oracle_in_one_reduction(self, kernel_calls):
        rng = random.Random(5)
        for _ in range(150):
            rows = rng.randint(0, 4)
            cols = rng.randint(0, 5)
            m = IntMatrix(
                [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)], cols=cols
            )
            target = SubLattice.from_columns(
                rows,
                [[rng.randint(-6, 6) for _ in range(rows)] for _ in range(rng.randint(0, rows + 1))],
            )
            want = kernel_cut_preimage(m, target)
            kernel_calls.clear()
            got = preimage_lattice(m, target)
            assert kernel_calls == ["col_hnf_with_kernel", "col_hnf"]
            assert got == want

    def test_preimage(self):
        m = IntMatrix([[2, 0], [0, 1]])
        target = lat(2, (4, 0), (0, 1))
        got = preimage_lattice(m, target)
        assert lattice_equal(got, lat(2, (2, 0), (0, 1)))
        # membership transfer both ways on small vectors
        for x in range(-4, 5):
            for y in range(-4, 5):
                assert lattice_member((x, y), got) == lattice_member(
                    m.apply((x, y)), target
                )


def random_case(rng):
    rank = rng.randint(1, 4)
    n_gens = rng.randint(0, rank + 1)
    cols = [
        tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(n_gens)
    ]
    return rank, cols


class TestOracleEquivalence:
    """Randomized agreement with the independent brute-force oracles."""

    def test_membership_and_ops_against_oracles(self):
        rng = random.Random(77)
        for _ in range(120):
            rank, cols_a = random_case(rng)
            _, cols_b = random_case(rng)
            cols_b = [c[:rank] + (0,) * (rank - len(c)) for c in cols_b]
            a = SubLattice.from_columns(rank, cols_a)
            b = SubLattice.from_columns(rank, cols_b)
            union = cols_a + cols_b
            s = lattice_sum(a, b)
            inter = lattice_intersect(a, b)
            probes = [tuple(rng.randint(-8, 8) for _ in range(rank)) for _ in range(6)]
            probes += [c for c in s.canonical_form.columns()]
            probes += [c for c in inter.canonical_form.columns()]
            for v in probes:
                in_a = member_oracle(v, cols_a)
                in_b = member_oracle(v, cols_b)
                assert lattice_member(v, a) == in_a
                assert lattice_member(v, b) == in_b
                assert lattice_member(v, s) == member_oracle(v, union)
                assert lattice_member(v, inter) == (in_a and in_b)

    def test_box_sets_against_oracles(self):
        rng = random.Random(78)
        bound = 5
        checked = 0
        for _ in range(60):
            rank, cols_a = random_case(rng)
            a = SubLattice.from_columns(rank, cols_a)
            pts = box_points(cols_a, rank, bound, visit_cap=40_000)
            if pts is None:
                continue
            canonical_pts = box_points(
                a.canonical_form.columns(), rank, bound, visit_cap=400_000
            )
            if canonical_pts is None:
                continue
            assert canonical_pts == pts
            checked += 1
        assert checked >= 20

    def test_quotients_against_minor_gcds(self):
        rng = random.Random(79)
        for _ in range(150):
            rank, cols = random_case(rng)
            inv = quotient_invariants(rank, SubLattice.from_columns(rank, cols))
            free, torsion = invariants_oracle(rank, cols)
            assert inv.free_rank == free
            assert inv.torsion == torsion


def load_workloads():
    """The benchmark's workload module, imported without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def assert_agrees_with_old_routes(a, b):
    """Carried-row intersection and Hermite quotients against the old routes.

    Quotients are also compared with the elimination oracle.
    """
    n = a.ambient_rank
    s = lattice_sum(a, b)
    i = lattice_intersect(a, b)
    assert i == dense_lattice_intersect(a, b)
    for m in (a, b, s, i):
        q = quotient_invariants(n, m)
        assert q == smith_quotient_invariants(n, m)
        assert (q.free_rank, q.torsion) == smith_invariants_oracle(n, m.columns)
    for outer, inner in ((s, i), (a, i), (s, a)):
        q = relative_quotient_invariants(outer, inner)
        assert q == smith_relative_quotient_invariants(outer, inner)
        assert (q.free_rank, q.torsion) == relative_invariants_oracle(outer.columns, inner.columns)


class TestOldRoutes:
    """The Hermite quotient route and carried-row intersection against the old routes."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_lattice_workload_problems(self, seed):
        workloads = load_workloads()
        for k in range(200):
            p = workloads.lattice_problem_at(seed, 0, k)
            n = p["n"]
            a = SubLattice.from_columns(n, p["cols_a"])
            b = SubLattice.from_columns(n, p["cols_b"])
            assert_agrees_with_old_routes(a, b)
            want = workloads.lattice_answers(p)
            got = [
                quotient_invariants(n, m)
                for m in (a, b, lattice_sum(a, b), lattice_intersect(a, b))
            ]
            assert [(q.free_rank, q.torsion) for q in got] == want["quotients"]
            diag = assert_snf_contract(a.canonical_form)
            chain = want["snf_diagonal"]
            assert diag == chain + [0] * (len(diag) - len(chain))
            assert [x for x in diag if x] == smith_diagonal_oracle(a.canonical_form.entries)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda r: st.tuples(
                st.just(r),
                st.lists(st.tuples(*[ODD_ENTRIES] * r), max_size=r + 3),
                st.lists(st.tuples(*[ODD_ENTRIES] * r), max_size=r + 3),
            )
        )
    )
    @example((0, [(), ()], []))
    @example((2, [(2, 1)], [(4, 2), (0, 3)]))
    @example((2, [(2, 1), (4, 2), (6, 3)], [(2**64, 2**65)]))
    def test_odd_shapes(self, case):
        rank, cols_a, cols_b = case
        a = SubLattice.from_columns(rank, cols_a)
        b = SubLattice.from_columns(rank, cols_b)
        assert_agrees_with_old_routes(a, b)
