"""Contract tests for the normal-form kernel."""

import random

from idelink import kernel


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
