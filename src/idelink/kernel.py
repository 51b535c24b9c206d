"""Exact integer normal-form kernel.

All the lattice algebra in this package reduces to two primitives on
integer matrices: a column-style Hermite normal form (optionally with a
kernel basis tracked through the reduction) and a Smith normal form with
transform matrices.  Every canonical form the package reports comes from
this module.

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
    """Return (hnf_cols, kernel_cols) for the column map of ``cols``.

    ``kernel_cols`` is a list of integer coefficient columns (length
    ``len(cols)``) generating {x : cols . x = 0}.
    """
    work = [list(c) for c in cols]
    ncols = len(cols)
    mirror = [[1 if r == j else 0 for r in range(ncols)] for j in range(ncols)]
    rank = _reduce_columns(nrows, work, mirror)
    return work[:rank], mirror[rank:]


def _identity_rows(n):
    return [[1 if c == r else 0 for c in range(n)] for r in range(n)]


def smith(nrows, ncols, rows):
    """Smith normal form with transforms: returns (u, d, v), row-major.

    ``u * rows * v == d`` with u, v unimodular and d diagonal with a
    nonnegative divisibility chain d[0][0] | d[1][1] | ...
    """
    d = [list(r) for r in rows]
    u = _identity_rows(nrows)
    v = _identity_rows(ncols)
    t = 0
    limit = nrows if nrows < ncols else ncols
    while t < limit:
        # Smallest-magnitude nonzero entry of the trailing block becomes
        # the pivot; deterministic scan keeps both backends identical.
        best = 0
        pi = pj = -1
        for i in range(t, nrows):
            di = d[i]
            for j in range(t, ncols):
                x = di[j]
                if x:
                    if x < 0:
                        x = -x
                    if pi < 0 or x < best:
                        best, pi, pj = x, i, j
                        if best == 1:
                            break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # Clear column t with unimodular row operations.
            for i in range(t + 1, nrows):
                x = d[i][t]
                if not x:
                    continue
                p = d[t][t]
                q, rem = divmod(x, p)
                if rem == 0:
                    dt, di_ = d[t], d[i]
                    ut, ui = u[t], u[i]
                    for c in range(t, ncols):
                        s = dt[c]
                        if s:
                            di_[c] -= q * s
                    for c in range(nrows):
                        s = ut[c]
                        if s:
                            ui[c] -= q * s
                else:
                    g, x1, y1 = xgcd(p, x)
                    pf = p // g
                    xf = x // g
                    dt, di_ = d[t], d[i]
                    ut, ui = u[t], u[i]
                    for c in range(t, ncols):
                        a1, b1 = dt[c], di_[c]
                        dt[c] = x1 * a1 + y1 * b1
                        di_[c] = pf * b1 - xf * a1
                    for c in range(nrows):
                        a1, b1 = ut[c], ui[c]
                        ut[c] = x1 * a1 + y1 * b1
                        ui[c] = pf * b1 - xf * a1
            # Clear row t with unimodular column operations.
            row_dirty = False
            for j in range(t + 1, ncols):
                x = d[t][j]
                if not x:
                    continue
                p = d[t][t]
                q, rem = divmod(x, p)
                if rem == 0:
                    for row in d:
                        s = row[t]
                        if s:
                            row[j] -= q * s
                    for row in v:
                        s = row[t]
                        if s:
                            row[j] -= q * s
                else:
                    g, x1, y1 = xgcd(p, x)
                    pf = p // g
                    xf = x // g
                    for row in d:
                        a1, b1 = row[t], row[j]
                        row[t] = x1 * a1 + y1 * b1
                        row[j] = pf * b1 - xf * a1
                    for row in v:
                        a1, b1 = row[t], row[j]
                        row[t] = x1 * a1 + y1 * b1
                        row[j] = pf * b1 - xf * a1
                    row_dirty = True
            if row_dirty:
                continue
            col_clear = True
            for i in range(t + 1, nrows):
                if d[i][t]:
                    col_clear = False
                    break
            if not col_clear:
                continue
            if d[t][t] < 0:
                dt, ut = d[t], u[t]
                for c in range(t, ncols):
                    dt[c] = -dt[c]
                for c in range(nrows):
                    ut[c] = -ut[c]
            # Enforce the divisibility chain: fold in a row holding an
            # entry the pivot does not divide, then re-clear.
            p = d[t][t]
            bad = -1
            for i in range(t + 1, nrows):
                di = d[i]
                for j in range(t + 1, ncols):
                    if di[j] % p:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            db, ub = d[bad], u[bad]
            dt, ut = d[t], u[t]
            for c in range(t, ncols):
                dt[c] += db[c]
            for c in range(nrows):
                ut[c] += ub[c]
        t += 1
    return u, d, v
