"""Contract tests for the normal-form kernel."""

import inspect
import random

from idelink import kernel

from oracles import det_expansion, invariants_oracle


def test_xgcd_contract():
    rng = random.Random(5)
    for _ in range(500):
        a = rng.randint(-10**12, 10**12)
        b = rng.randint(-10**12, 10**12)
        g, x, y = kernel.xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_big_integer_entries_survive():
    big = 10**40
    h = kernel.col_hnf(2, [[2 * big, 0], [3 * big, 0]])
    assert h == [[big, 0]]
    u, d, v = kernel.smith(1, 1, [[big]])
    assert d == [[big]]


def _matmul(x, y, ncols):
    return [[sum(r[t] * y[t][j] for t in range(len(y))) for j in range(ncols)] for r in x]


def test_smith_contract_on_raw_lists():
    cases = [
        (0, 0, []),
        (0, 3, []),
        (2, 0, [[], []]),
        (3, 3, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        (3, 3, [[2, 4, 6], [1, 2, 3], [3, 6, 9]]),
        (2, 3, [[4, 6, 10], [2, 3, 5]]),
        (3, 2, [[6, 0], [0, 4], [0, 0]]),
        (2, 2, [[2**70, 3], [2**65 + 1, -(2**80)]]),
        (4, 5, [[1, 0, 2, 3, 0], [0, 2, 0, 2, 4], [1, 2, 2, 5, 4], [0, 0, 0, 0, 6]]),
    ]
    for nrows, ncols, rows in cases:
        given = [list(r) for r in rows]
        u, d, v = kernel.smith(nrows, ncols, given)
        assert given == rows
        assert len(u) == nrows and all(len(r) == nrows for r in u)
        assert len(v) == ncols and all(len(r) == ncols for r in v)
        assert len(d) == nrows and all(len(r) == ncols for r in d)
        assert _matmul(_matmul(u, rows, ncols), v, ncols) == d
        assert abs(det_expansion(u)) == 1 and abs(det_expansion(v)) == 1
        assert all(d[i][j] == 0 for i in range(nrows) for j in range(ncols) if i != j)
        diag = [d[i][i] for i in range(min(nrows, ncols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0
    assert kernel.smith(3, 3, cases[4][2])[1] == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert kernel.smith(2, 3, cases[5][2])[1] == [[1, 0, 0], [0, 0, 0]]
    assert kernel.smith(3, 2, cases[6][2])[1] == [[2, 0], [0, 12], [0, 0]]


def _kernel_cases():
    rng = random.Random(17)
    cases = [(0, []), (0, [[], []]), (2, []), (2, [[0, 0], [0, 0]]), (1, [[2**70], [3 * 2**69]])]
    for _ in range(150):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        cols = [[rng.randint(-5, 5) for _ in range(nrows)] for _ in range(ncols)]
        if ncols > 1 and rng.random() < 0.5:
            cols[-1] = [x + 2 * y for x, y in zip(cols[0], cols[1 % ncols])]
        cases.append((nrows, cols))
    return cases


def _unit(j, n):
    return [int(i == j) for i in range(n)]


def test_col_hnf_with_kernel_identity_tails_give_the_whole_kernel():
    for nrows, cols in _kernel_cases():
        ncols = len(cols)
        carried = [c + _unit(j, ncols) for j, c in enumerate(cols)]
        given = [list(c) for c in carried]
        hnf_cols, tails = kernel.col_hnf_with_kernel(nrows, carried)
        assert carried == given
        assert hnf_cols == kernel.col_hnf(nrows, cols)
        assert len(tails) == ncols - len(hnf_cols)
        for x in tails:
            assert len(x) == ncols
            assert all(sum(xj * c[i] for xj, c in zip(x, cols)) == 0 for i in range(nrows))
        # Independent kernel vectors, ncols - rank of them, spanning a saturated
        # lattice (torsion-free quotient): that is the whole kernel.
        assert invariants_oracle(ncols, tails) == (ncols - len(tails), ())


def test_col_hnf_with_kernel_tails_ride_along():
    rng = random.Random(18)
    for nrows, cols in _kernel_cases():
        ncols = len(cols)
        width = rng.randint(0, 3)
        extra = [[rng.randint(-9, 9) for _ in range(width)] for _ in cols]
        _, kernel_vectors = kernel.col_hnf_with_kernel(
            nrows, [c + _unit(j, ncols) for j, c in enumerate(cols)]
        )
        hnf_cols, tails = kernel.col_hnf_with_kernel(nrows, [c + t for c, t in zip(cols, extra)])
        assert hnf_cols == kernel.col_hnf(nrows, cols)
        assert tails == [
            [sum(xj * t[i] for xj, t in zip(x, extra)) for i in range(width)]
            for x in kernel_vectors
        ]


def test_col_hnf_with_kernel_keeps_two_positional_parameters():
    # perfbench's tracer reads the kernel calls' arguments by position
    # (span(nrows, *args)) and takes args[0] as a count when there are two.
    params = list(inspect.signature(kernel.col_hnf_with_kernel).parameters.values())
    assert [p.name for p in params] == ["nrows", "cols"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)
