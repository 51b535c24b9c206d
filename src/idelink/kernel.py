"""Exact integer normal-form kernel.

All the lattice algebra in this package reduces to one elimination
loop on integer matrices: a column-style Hermite normal form of the
first rows of each column, whose column operations carry the rows
below along.  ``col_hnf`` returns the form, ``col_hnf_with_kernel``
returns only the carried rest of each column it zeroes (a kernel
basis when that rest starts as the identity, a preimage or an
intersection when it starts as other rows), and ``smith`` reaches a
Smith normal form with transforms by alternating that reduction over
columns and rows, each line carrying its line of a transform.  Every
canonical form the package reports comes from this module.

Matrices are plain nested lists of Python ints (arbitrary precision, no
floats).  ``col_hnf``/``col_hnf_with_kernel`` work on a list of columns;
``smith`` reads a sequence of rows (lists or tuples) and leaves it as it is.

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


def _reduce_columns(nrows, cols):
    """Column-reduce the first ``nrows`` rows of ``cols`` in place; return the rank.

    The heads (first ``nrows`` entries) end in canonical HNF.  Only
    unimodular column operations are applied, each once over the whole
    column, so the rows past ``nrows`` are carried along.  Entries above
    the current row are already zero in every column at index >= rank,
    so arithmetic runs from the current row down.
    """
    ncols = len(cols)
    width = len(cols[0]) if cols else 0
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
                for t in range(i, width):
                    s = cp[t]
                    if s:
                        cj[t] -= q * s
            else:
                g, x, y = xgcd(a, b)
                af = a // g
                bf = b // g
                for t in range(i, width):
                    u, v = cp[t], cj[t]
                    cp[t] = x * u + y * v
                    cj[t] = af * v - bf * u
        if pivot_at != rank:
            cols[rank], cols[pivot_at] = cols[pivot_at], cols[rank]
        cr = cols[rank]
        if cr[i] < 0:
            for t in range(i, width):
                cr[t] = -cr[t]
        p = cr[i]
        for k in range(rank):
            ck = cols[k]
            q = ck[i] // p
            if q:
                for t in range(i, width):
                    s = cr[t]
                    if s:
                        ck[t] -= q * s
        rank += 1
    return rank


def col_hnf(nrows, cols):
    """Canonical column HNF of the lattice generated by ``cols``.

    ``cols`` is a list of columns, each of length ``nrows``.  Returns a
    new list of rank-many canonical columns.
    """
    work = [list(c) for c in cols]
    rank = _reduce_columns(nrows, work)
    return work[:rank]


def col_hnf_with_kernel(nrows, cols):
    """Carried tails of the columns whose first ``nrows`` entries reduce to zero.

    Only the first ``nrows`` entries (the head) of each column are
    reduced; the rest of each column (its tail) is carried along.  The
    ``len(cols) - rank`` tails returned are those of the columns whose
    heads reduced to zero: when column j carries the unit vector e_j
    they generate {x : heads . x = 0}, and for any tails t_j each is
    sum_j x_j t_j for the matching such x.
    """
    work = [list(c) for c in cols]
    rank = _reduce_columns(nrows, work)
    return [c[nrows:] for c in work[rank:]]


def smith(nrows, ncols, rows):
    """Smith normal form with transforms: returns (u, d, v), row-major.

    ``u * rows * v == d`` with u, v unimodular and d diagonal with a
    nonnegative divisibility chain d[0][0] | d[1][1] | ...

    The columns of ``rows``, each carrying its column of v (the
    identity to start), are reduced to the rank-many Hermite columns;
    their rows, each carrying its row of u, are reduced the same way,
    leaving a rank x rank triangular block and zeros elsewhere.  Column
    and row reductions of the block then alternate, carrying the leading
    rank columns of v or rows of u, until it is diagonal (Kannan and
    Bachem, SIAM J. Comput. 1979): each round either lowers the leading
    pivot to the gcd of its line or clears that line, so it ends, as in
    ``zlattice.quotient_invariants``.  The positive diagonal is sorted
    (fewer pairs to fold; free in u and v), and each pair (a, b) with a
    not dividing b becomes (g, ab/g) for g = xa + yb, by
    [[x, y], [-b/g, a/g]] on rows of u and [[1, -yb/g], [1, xa/g]] on
    columns of v.
    """
    # With no rows, zip(*rows) would also drop the columns.
    heads = zip(*rows) if nrows else [()] * ncols
    cols = [list(h) + [0] * j + [1] + [0] * (ncols - j - 1) for j, h in enumerate(heads)]
    rank = _reduce_columns(nrows, cols)
    # v is held as its columns until the end.
    v = [c[nrows:] for c in cols]
    # The Hermite rows are the first nrows lines across cols[:rank].
    heads = zip(*cols[:rank]) if rank else [()] * nrows
    lines = [
        list(h) + [0] * i + [1] + [0] * (nrows - i - 1) for i, h in zip(range(nrows), heads)
    ]
    _reduce_columns(rank, lines)
    u = [line[rank:] for line in lines]
    block = [line[:rank] for line in lines[:rank]]
    carried, other = v, u
    while any(any(line[j + 1:]) for j, line in enumerate(block)):
        lines = [list(head) + tail for head, tail in zip(zip(*block), carried)]
        _reduce_columns(rank, lines)
        block = [line[:rank] for line in lines]
        carried[:rank] = [line[rank:] for line in lines]
        carried, other = other, carried
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
