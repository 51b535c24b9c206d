"""Exact integer normal-form kernel.

All the lattice algebra in this package reduces to one elimination
loop on integer matrices: a column-style Hermite normal form whose
column operations can be mirrored on a second matrix.  ``col_hnf``
returns the form, ``col_hnf_with_kernel`` reduces only the first
``nrows`` rows and also returns the carried rest of each column it
zeroes (a kernel basis when that rest starts as the identity), and
``smith`` reaches a Smith normal form with transforms by alternating
that reduction over columns and rows.  Every canonical form the
package reports comes from this module.

Matrices are plain nested lists of Python ints (arbitrary precision, no
floats).  ``col_hnf``/``col_hnf_with_kernel`` work on a list of columns;
``smith`` works on a list of rows.

Canonical column HNF convention: pivot rows strictly increase with the
column index, every entry above a pivot is zero, pivots are positive,
and each entry sitting in a pivot row to the left of that pivot is
reduced into ``[0, pivot)``.  Zero columns are dropped, so the result
has exactly rank-many columns and is unique for the generated lattice.
"""

from __future__ import annotations

BACKEND = "python"


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _reduce_columns(nrows, cols, mirror):
    """Column-reduce ``cols`` in place to canonical HNF; return the rank.

    Only unimodular column operations are applied, each mirrored on
    ``mirror`` (a parallel list of columns) when given.  Entries above
    the current row are already zero in every column at index >= rank,
    so arithmetic runs from the current row down.
    """
    ncols = len(cols)
    rank = 0
    for i in range(nrows):
        if rank == ncols:
            break
        pivot_at = -1
        for j in range(rank, ncols):
            if cols[j][i]:
                pivot_at = j
                break
        if pivot_at < 0:
            continue
        cp = cols[pivot_at]
        for j in range(pivot_at + 1, ncols):
            cj = cols[j]
            b = cj[i]
            if not b:
                continue
            a = cp[i]
            q, rem = divmod(b, a)
            if rem == 0:
                for t in range(i, nrows):
                    s = cp[t]
                    if s:
                        cj[t] -= q * s
                if mirror is not None:
                    mp, mj = mirror[pivot_at], mirror[j]
                    for t in range(len(mj)):
                        s = mp[t]
                        if s:
                            mj[t] -= q * s
            else:
                g, x, y = xgcd(a, b)
                af = a // g
                bf = b // g
                for t in range(i, nrows):
                    u, v = cp[t], cj[t]
                    cp[t] = x * u + y * v
                    cj[t] = af * v - bf * u
                if mirror is not None:
                    mp, mj = mirror[pivot_at], mirror[j]
                    for t in range(len(mj)):
                        u, v = mp[t], mj[t]
                        mp[t] = x * u + y * v
                        mj[t] = af * v - bf * u
        if pivot_at != rank:
            cols[rank], cols[pivot_at] = cols[pivot_at], cols[rank]
            if mirror is not None:
                mirror[rank], mirror[pivot_at] = mirror[pivot_at], mirror[rank]
        cr = cols[rank]
        if cr[i] < 0:
            for t in range(i, nrows):
                cr[t] = -cr[t]
            if mirror is not None:
                mr = mirror[rank]
                for t in range(len(mr)):
                    mr[t] = -mr[t]
        p = cr[i]
        for k in range(rank):
            ck = cols[k]
            q = ck[i] // p
            if q:
                for t in range(i, nrows):
                    s = cr[t]
                    if s:
                        ck[t] -= q * s
                if mirror is not None:
                    mk, mr = mirror[k], mirror[rank]
                    for t in range(len(mk)):
                        s = mr[t]
                        if s:
                            mk[t] -= q * s
        rank += 1
    return rank


def col_hnf(nrows, cols):
    """Canonical column HNF of the lattice generated by ``cols``.

    ``cols`` is a list of columns, each of length ``nrows``.  Returns a
    new list of rank-many canonical columns.
    """
    work = [list(c) for c in cols]
    rank = _reduce_columns(nrows, work, None)
    return work[:rank]


def col_hnf_with_kernel(nrows, cols):
    """Return (hnf_cols, kernel_tails) for columns longer than ``nrows``.

    Only the first ``nrows`` entries (the head) of each column are
    reduced; the rest of each column (its tail) rides along as the
    mirror.  ``hnf_cols`` is ``col_hnf`` of the heads.  ``kernel_tails``
    holds the tails of the ``len(cols) - rank`` columns whose heads
    reduced to zero: when column j carries the unit vector e_j they
    generate {x : heads . x = 0}, and for any tails t_j each is
    sum_j x_j t_j for the matching such x.
    """
    work = [list(c[:nrows]) for c in cols]
    tails = [list(c[nrows:]) for c in cols]
    rank = _reduce_columns(nrows, work, tails)
    return work[:rank], tails[rank:]


def smith(nrows, ncols, rows):
    """Smith normal form with transforms: returns (u, d, v), row-major.

    ``u * rows * v == d`` with u, v unimodular and d diagonal with a
    nonnegative divisibility chain d[0][0] | d[1][1] | ...

    One column reduction, mirrored on the columns of v, leaves the
    rank-many Hermite columns; reducing their rows, mirrored on the rows
    of u, leaves a rank x rank triangular block and zeros elsewhere.
    Column and row reductions of the block then alternate until it is
    diagonal (Kannan and Bachem, SIAM J. Comput. 1979): each round
    either lowers the leading pivot to the gcd of its line or clears
    that line, so it ends, as in ``zlattice.quotient_invariants``.  The
    positive diagonal is sorted (fewer pairs to fold; free in u and v),
    and each pair (a, b) with a not dividing b becomes (g, ab/g) for
    g = xa + yb, by [[x, y], [-b/g, a/g]] on rows of u and
    [[1, -yb/g], [1, xa/g]] on columns of v.
    """
    u = [[0] * i + [1] + [0] * (nrows - i - 1) for i in range(nrows)]
    # v is held as its columns until the end; the identity is symmetric.
    v = [[0] * i + [1] + [0] * (ncols - i - 1) for i in range(ncols)]
    # With no rows (or rank 0) the transposes are empty, and so is the work.
    cols = [list(col) for col in zip(*rows)]
    rank = _reduce_columns(nrows, cols, v)
    block = [list(line) for line in zip(*cols[:rank])]
    _reduce_columns(rank, block, u)
    del block[rank:]
    mirror, other = v, u
    while any(any(line[j + 1:]) for j, line in enumerate(block)):
        block = [list(line) for line in zip(*block)]
        lead = mirror[:rank]
        _reduce_columns(rank, block, lead)
        mirror[:rank] = lead
        mirror, other = other, mirror
    order = sorted(range(rank), key=lambda k: block[k][k])
    diag = [block[k][k] for k in order]
    u[:rank] = [u[k] for k in order]
    v[:rank] = [v[k] for k in order]
    for i in range(rank):
        a = diag[i]
        for j in range(i + 1, rank):
            b = diag[j]
            if b % a:
                g, x, y = xgcd(a, b)
                af, bf = a // g, b // g
                diag[j] = af * b
                a = g
                ui, uj = u[i], u[j]
                u[i] = [x * p + y * q for p, q in zip(ui, uj)]
                u[j] = [af * q - bf * p for p, q in zip(ui, uj)]
                vi, vj = v[i], v[j]
                xa, yb = x * af, y * bf
                v[i] = [p + q for p, q in zip(vi, vj)]
                v[j] = [xa * q - yb * p for p, q in zip(vi, vj)]
        diag[i] = a
    d = [[0] * ncols for _ in range(nrows)]
    for i, x in enumerate(diag):
        d[i][i] = x
    return u, d, [list(col) for col in zip(*v)]
