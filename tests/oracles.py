"""Independent brute-force oracles for the test suite.

Nothing here shares code with the package kernels: membership is decided
by rational elimination plus a finite congruence search, box enumeration
by breadth-first closure with a provable slack margin, quotient
invariants by gcds of minors (small matrices) and by a Smith
elimination on the smallest nonzero entry with row and column
operations (any size, entries of hundreds of bits included), Alexander
polynomials by interpolating permutation-expansion determinants, and
resultants by the Euclidean remainder sequence over the rationals,
the splitting data of a cover's component by listing the subgroups
its character values generate in Z/n, and the permutation, closure
components and linking numbers of a braid word by a walk of its own
that calls nothing in ``idelink.links`` (``closure_walk``).

The routes at the end are the exception.  Four are the lattice
routes ``idelink.zlattice`` replaced: absolute and relative quotient
invariants read off the diagonal of ``kernel.smith``, intersection
vectors summed densely over every kernel coefficient, and preimages
cut from the whole kernel of [M | T].
``kernel.smith`` builds its diagonal by alternating the same column
Hermite reduction that ``quotient_invariants`` alternates, so the two
Smith routes share the package route's elimination; the independent
references for quotient invariants are ``invariants_oracle`` and
``smith_invariants_oracle``.  The check routes follow.
Two are per-sublink loops over ``sublinks``, this module's own
enumeration, that ``idelink.hasse`` reduced to one class quotient and
one row comparison per generator of each universe, kept here to test
that reduction.  The class-quotient loop calls ``ideles.class_quotient``
on every sublink, so it reads the same generators as the check.  The
projection loop compares, for every generator K and every sublink L
holding K, the stored principal row of K sliced to L's slots
(``project_coeffs``) with ``boundary_from_linking``, the boundary on L
read straight off the linking matrix, sliced the same way.
The other two are the typed ``diagonal_commutes`` and
``meridian_pushforward`` checks.  They take surface classes as
(support, coefficients) pairs, build boundaries straight from the
linking matrix (``surface_boundary``) where ``idelink.hasse`` reads the
universe's principal generators, push surfaces forward through the
fiber map (``surface_pushforward``), and push boundaries forward by
multiplying with the full ``pushforward_matrix`` where ``idelink.hasse``
reads the per-component pairs; the diagonal one also compares the sum
of all generators.

Then come test doubles, no oracles.  ``replaced`` rebuilds a
changed record (a tampered cover, say) through the record's public
constructor.  ``with_generators`` gives a copy of a universe whose
principal generators are tampered rows, read by every route that reads
generators; tests fail the generator checks with it, as they fail the
pushforward checks with ``replaced(c, pushforward=...)``.
``with_rows`` replaces some generators and keeps the rest.
``universe_of`` wraps any m x 2m generator block in an axis-free
universe of m components.

Last come the cover families the route cross-checks run over, each a
seeded builder that changes real covers only through ``replaced``,
``with_generators`` and ``relabeled_cover``, and ``failure_corpus``,
the families whose failing witnesses a test pins byte for byte.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from idelink import hasse, ideles, kernel, zlattice
from idelink.covers import lift_braid, pushforward_matrix, relabeled_cover
from idelink.links import BraidWord, LinkUniverse
from idelink.zlattice import AbelianInvariants, IntMatrix, SubLattice


def rational_solve(cols, v):
    """Solve sum_j x_j cols[j] = v over Q by Gauss-Jordan elimination.

    Returns (particular, kernel_basis) as Fraction lists, or None when
    the system is inconsistent.
    """
    nrows = len(v)
    n = len(cols)
    m = [
        [Fraction(cols[j][i]) for j in range(n)] + [Fraction(v[i])]
        for i in range(nrows)
    ]
    pivot_cols = []
    ri = 0
    for c in range(n):
        pr = next((r for r in range(ri, nrows) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[ri], m[pr] = m[pr], m[ri]
        pv = m[ri][c]
        m[ri] = [x / pv for x in m[ri]]
        for r in range(nrows):
            if r != ri and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[ri])]
        pivot_cols.append(c)
        ri += 1
        if ri == nrows:
            break
    for r in range(ri, nrows):
        if m[r][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for j, c in enumerate(pivot_cols):
        particular[c] = m[j][n]
    kernel = []
    for free_c in range(n):
        if free_c in pivot_cols:
            continue
        k = [Fraction(0)] * n
        k[free_c] = Fraction(1)
        for j, c in enumerate(pivot_cols):
            k[c] = -m[j][free_c]
        kernel.append(k)
    return particular, kernel


def _prime_powers(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _solvable_mod_prime_power(rows, rhs, p, k):
    """Existence of y with rows . y = rhs over Z/p^k.

    Diagonalizes with global minimal-valuation pivots (row ops carry the
    right-hand side, column ops are invertible changes of variables), so
    the system reduces to p^alpha_i * y_i = b_i, solvable iff each
    p^alpha_i divides b_i and leftover rows have zero right-hand side.
    """
    pk = p**k
    m = len(rows)
    s = len(rows[0]) if rows else 0
    a = [[rows[r][c] % pk for c in range(s)] for r in range(m)]
    b = [rhs[r] % pk for r in range(m)]

    def valuation(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    t = 0
    limit = min(m, s)
    while t < limit:
        best_r = best_c = -1
        best_v = k
        for r in range(t, m):
            for c in range(t, s):
                x = a[r][c]
                if x == 0:
                    continue
                v = valuation(x)
                if v < best_v:
                    best_r, best_c, best_v = r, c, v
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best_r < 0:
            break
        a[t], a[best_r] = a[best_r], a[t]
        b[t], b[best_r] = b[best_r], b[t]
        for r in range(m):
            a[r][t], a[r][best_c] = a[r][best_c], a[r][t]
        alpha = best_v
        pa = p**alpha
        unit = a[t][t] // pa
        uinv = pow(unit, -1, pk)
        a[t] = [(x * uinv) % pk for x in a[t]]
        b[t] = (b[t] * uinv) % pk
        for r in range(m):
            if r == t or a[r][t] == 0:
                continue
            q = a[r][t] // pa  # global minimality makes this exact
            a[r] = [(x - q * y) % pk for x, y in zip(a[r], a[t])]
            b[r] = (b[r] - q * b[t]) % pk
        for c in range(t + 1, s):
            x = a[t][c]
            if x == 0:
                continue
            q = x // pa
            for r in range(m):
                a[r][c] = (a[r][c] - q * a[r][t]) % pk
        t += 1
    for r in range(m):
        if r < t:
            if b[r] % a[r][r]:
                return False
        elif b[r]:
            return False
    return True


def member_oracle(v, cols):
    """Decide membership of v in the integer column span of cols, exactly.

    After rational elimination with particular solution x0 and kernel
    basis K, an integral solution exists iff K y = -x0 is solvable
    modulo 1, i.e. iff (d K) y = -d x0 is solvable over Z/d for the
    common denominator d, which splits into prime-power systems.
    """
    if not cols:
        return not any(v)
    sol = rational_solve(cols, v)
    if sol is None:
        return False
    particular, kernel = sol
    denoms = [x.denominator for x in particular]
    for k in kernel:
        denoms.extend(x.denominator for x in k)
    d = lcm(*denoms)
    if d == 1:
        return True
    if not kernel:
        return False
    n = len(cols)
    rows = [[int(k[i] * d) for k in kernel] for i in range(n)]
    rhs = [-int(particular[i] * d) for i in range(n)]
    return all(
        _solvable_mod_prime_power(rows, rhs, p, e) for p, e in _prime_powers(d)
    )


def box_points(cols, rank, bound, visit_cap=200_000):
    """All lattice points of the column span with sup-norm <= bound.

    Breadth-first closure under adding and subtracting generators inside
    a slack box of radius bound + (rank+1)*max|entry|; a rearrangement
    bound keeps every representation of an in-box point inside the slack
    box, so the enumeration is complete.  Returns None past the cap.

    A point x is packed into one integer: bit field i holds the digit
    x_i + w + g (w the slack radius, g the largest generator entry).
    Inside the slack box every digit lies in [g, 2w+g], and one step
    moves it by at most g, into [0, 2w+2g], which the field's low bits
    hold; so a step is one integer addition that never carries between
    fields.  Each field's top bit is a guard that lets ``_digits_within``
    test all digits of a point against a range at once.
    """
    cols = [tuple(c) for c in cols if any(c)]
    if not cols:
        return {(0,) * rank}
    g = max(max(abs(x) for x in c) for c in cols)
    w = bound + (rank + 1) * g
    top = 1 << (2 * w + 2 * g).bit_length()  # guard bit; digits stay below it
    shift = top.bit_length()

    def pack(digits):
        return sum(d << (shift * i) for i, d in enumerate(digits))

    guard = pack([top] * rank)
    slack_lo, slack_hi = pack([g] * rank), pack([top - 1 - (2 * w + g)] * rank)
    steps = [pack([sgn * x for x in c]) for c in cols for sgn in (1, -1)]
    origin = pack([w + g] * rank)
    seen = {origin}
    frontier = [origin]
    while frontier:
        nxt = []
        for p in frontier:
            for step in steps:
                q = p + step
                if q in seen or not _digits_within(q, guard, slack_lo, slack_hi):
                    continue
                seen.add(q)
                if len(seen) > visit_cap:
                    return None
                nxt.append(q)
        frontier = nxt
    inner_lo = pack([w + g - bound] * rank)
    inner_hi = pack([top - 1 - (w + g + bound)] * rank)
    mask = top - 1
    return {
        tuple(((q >> (shift * i)) & mask) - w - g for i in range(rank))
        for q in seen
        if _digits_within(q, guard, inner_lo, inner_hi)
    }


def _digits_within(q, guard, lo, hi):
    """True iff every packed digit d of q lies in [low, high].

    ``guard`` packs the guard bit ``top`` into every field, ``lo`` packs
    low and ``hi`` packs top-1-high.  Within one field (d | top) - low
    keeps the guard bit iff d >= low, and d + top-1-high sets it iff
    d > high; neither borrows from nor carries into the next field.
    """
    return ((q | guard) - lo) & guard == guard and not (q + hi) & guard


def det_expansion(rows):
    """Integer determinant by signed permutation expansion (tiny matrices)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def invariants_oracle(rank, cols):
    """(free_rank, torsion) of Z^rank / <cols> via gcds of j x j minors."""
    g = len(cols)
    rows = [[cols[j][i] for j in range(g)] for i in range(rank)]
    d_prev = 1
    torsion = []
    rho = 0
    for j in range(1, min(rank, g) + 1):
        dj = 0
        for rset in itertools.combinations(range(rank), j):
            for cset in itertools.combinations(range(g), j):
                sub = [[rows[r][c] for c in cset] for r in rset]
                dj = gcd(dj, det_expansion(sub))
        if dj == 0:
            break
        step = dj // d_prev
        if step > 1:
            torsion.append(step)
        d_prev = dj
        rho = j
    return rank - rho, tuple(torsion)


def smith_diagonal_oracle(rows):
    """Nonzero Smith invariants d_1 | d_2 | ... of an integer matrix given by rows.

    Textbook elimination: the smallest nonzero entry is the pivot; row
    operations reduce its column and column operations its row; a
    nonzero remainder is a smaller pivot for the next round.  Once the
    pivot's row and column are clear, a row holding an entry the pivot
    does not divide is added to the pivot's row (the next round then
    finds a smaller remainder); otherwise the pivot is the next
    invariant and its row and column are struck out.
    """
    a = [list(r) for r in rows]
    diag = []
    while True:
        entries = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            return diag
        _, i, j = min(entries)
        p = a[i][j]
        clear = True
        for r, row in enumerate(a):
            if r != i and row[j]:
                q = row[j] // p
                a[r] = row = [x - q * y for x, y in zip(row, a[i])]
                clear = clear and not row[j]
        for c, x in enumerate(a[i]):
            if c != j and x:
                q = x // p
                for row in a:
                    row[c] -= q * row[j]
                clear = clear and not a[i][c]
        if not clear:
            continue
        bad = next((row for row in a if any(x % p for x in row)), None)
        if bad is not None:
            a[i] = [x + y for x, y in zip(a[i], bad)]
            continue
        diag.append(abs(p))
        del a[i]
        for row in a:
            del row[j]


def smith_invariants_oracle(rank, cols):
    """(free_rank, torsion) of Z^rank / <cols> from ``smith_diagonal_oracle``."""
    rows = [[c[i] for c in cols] for i in range(rank)]
    diag = smith_diagonal_oracle(rows)
    return rank - len(diag), tuple(x for x in diag if x > 1)


def relative_invariants_oracle(outer_cols, inner_cols):
    """(free_rank, torsion) of outer/inner, for independent ``outer_cols``.

    Each inner column's coordinates over the outer columns come from
    rational elimination and must be integers.
    """
    coords = []
    for v in inner_cols:
        sol = rational_solve(outer_cols, v)
        if sol is None or any(x.denominator != 1 for x in sol[0]):
            raise ValueError("inner lattice is not contained in outer lattice")
        coords.append([int(x) for x in sol[0]])
    return smith_invariants_oracle(len(outer_cols), coords)


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_divmod(f, g):
    f = [Fraction(x) for x in f]
    g = [Fraction(x) for x in g]
    q = [Fraction(0)] * max(1, len(f) - len(g) + 1)
    while len(f) >= len(g) and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) < len(g):
            break
        c = f[-1] / g[-1]
        k = len(f) - len(g)
        q[k] = c
        for i in range(len(g)):
            f[i + k] -= c * g[i]
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return q, f


def alexander_oracle(v):
    """det(V - t V^T) for a k x k matrix V, coefficients ascending, trimmed.

    The determinant is a polynomial of degree <= k; its values at
    t = 0..k come from ``det_expansion``, and Lagrange interpolation over
    ``Fraction`` gives its coefficients back.
    """
    k = len(v)
    coeffs = [Fraction(0)] * (k + 1)
    for s in range(k + 1):
        value = det_expansion([[v[i][j] - s * v[j][i] for j in range(k)] for i in range(k)])
        basis = [Fraction(value)]  # value * prod over r != s of (t - r)/(s - r)
        for r in range(k + 1):
            if r != s:
                shifted = [Fraction(0)] + basis
                basis = [(a - r * b) / (s - r) for a, b in zip(shifted, basis + [0])]
        coeffs = [a + b for a, b in zip(coeffs, basis)]
    if any(c.denominator != 1 for c in coeffs):
        raise AssertionError("interpolated integer polynomial must be integral")
    return _poly_trim(int(c) for c in coeffs)


def resultant_oracle(f, g):
    """Resultant of integer polynomials via the remainder sequence over Q."""
    f = [Fraction(x) for x in _poly_trim(f)]
    g = [Fraction(x) for x in _poly_trim(g)]
    if not f or not g:
        return 0
    acc = Fraction(1)
    while len(g) > 1:
        _, r = _poly_divmod(f, g)
        if not r:
            return 0
        df = len(f) - 1
        dg = len(g) - 1
        dr = len(r) - 1
        acc *= Fraction(-1) ** (df * dg) * g[-1] ** (df - dr)
        f, g = g, r
    acc *= g[0] ** (len(f) - 1)
    if acc.denominator != 1:
        raise AssertionError("resultant of integer polynomials must be integral")
    return int(acc)


def smith_quotient_invariants(n, relations):
    """Z^n modulo the sublattice ``relations``, from the Smith diagonal."""
    rank = relations.rank
    _, d, _ = kernel.smith(n, rank, list(zip(*relations.columns)))
    nonzero = [x for x in (d[i][i] for i in range(min(n, rank))) if x]
    return AbelianInvariants(n - len(nonzero), tuple(x for x in nonzero if x > 1))


def smith_relative_quotient_invariants(outer, inner):
    """outer/inner for nested sublattices, through ``smith_quotient_invariants``."""
    coords = []
    for col in inner.columns:
        sol = zlattice._solve_in_hnf(outer.columns, col)
        if sol is None:
            raise ValueError("inner lattice is not contained in outer lattice")
        coords.append(sol)
    return smith_quotient_invariants(outer.rank, SubLattice.from_columns(outer.rank, coords))


def identity_tail_kernel(nrows, cols):
    """Integer kernel of the column map ``cols``, each column carrying its unit vector."""
    n = len(cols)
    carried = [list(c) + [int(i == j) for i in range(n)] for j, c in enumerate(cols)]
    return SubLattice.from_columns(n, kernel.col_hnf_with_kernel(nrows, carried))


def dense_lattice_intersect(a, b):
    """a meet b, each vector summed over every kernel coefficient and row."""
    n = a.ambient_rank
    ker = identity_tail_kernel(n, a.columns + b.columns)
    vectors = [
        [sum(x * col[i] for x, col in zip(coeffs, a.columns)) for i in range(n)]
        for coeffs in ker.columns
    ]
    return SubLattice.from_columns(n, vectors)


def kernel_cut_preimage(m, target):
    """{x : m @ x in target}: the whole kernel of [M | T], cut to its first m.cols coordinates."""
    ker = identity_tail_kernel(m.rows, m.columns() + list(target.columns))
    return SubLattice.from_columns(m.cols, [col[: m.cols] for col in ker.columns])


def sublinks(size):
    """Every sublink of ``size`` components: by size, then lexicographically."""
    for r in range(size + 1):
        yield from itertools.combinations(range(size), r)


def unfree_sublink(u):
    """First sublink of ``u``, in ``sublinks`` order, whose class quotient is not free.

    Returns (sublink, invariants), or None when the class quotient of
    every sublink is free of the sublink's rank.
    """
    for sub in sublinks(u.size):
        inv = ideles.class_quotient(u, sub)
        if inv.free_rank != len(sub) or inv.torsion:
            return sub, inv
    return None


def class_quotient_all_sublinks(c):
    """``verify_class_quotient_free`` as a loop over every sublink: (passed, witness)."""
    for tag, u in (("base", c.base), ("cover", c.total)):
        found = unfree_sublink(u)
        if found is not None:
            sub, inv = found
            return False, {
                "universe": tag,
                "sublink": [u.labels[k] for k in sub],
                "free_rank": inv.free_rank,
                "torsion": list(inv.torsion),
                "expected_free_rank": len(sub),
            }
    return True, None


def project_coeffs(coeffs, sub):
    """Idele coefficients restricted to the slots 2k, 2k+1 of each k in ``sub``, by slicing."""
    return tuple(x for k in sub for x in coeffs[2 * k : 2 * k + 2])


def projection_all_sublinks(c):
    """``verify_projection_compatibility`` over every generator and sublink: (passed, witness).

    Generator by generator, each sublink holding it in ``sublinks``
    order; ``larger`` is the whole universe, the side projected from.
    """
    for tag, u in (("base", c.base), ("cover", c.total)):
        gens = ideles.principal_generators(u)
        for k in range(u.size):
            for sub in sublinks(u.size):
                if k not in sub:
                    continue
                projected = project_coeffs(gens[k], sub)
                direct = project_coeffs(boundary_from_linking(u, k, sub), sub)
                if projected != direct:
                    return False, {
                        "universe": tag,
                        "sublink": [u.labels[t] for t in sub],
                        "larger": list(u.labels),
                        "generator": u.labels[k],
                        "projected": list(projected),
                        "direct": list(direct),
                    }
    return True, None


def boundary_from_linking(u, k, sub):
    """Boundary of K's surface punctured by ``sub``, read off the linking matrix.

    lambda_K = 1, and -lk(K, K') on mu_K' for every other component K'
    of the sublink; every other slot is zero.
    """
    lk = u.linking.entries[k]
    coeffs = [0] * (2 * u.size)
    coeffs[2 * k + 1] = 1
    for k2 in sub:
        if k2 != k:
            coeffs[2 * k2] = -lk[k2]
    return tuple(coeffs)


def surface_boundary(u, support, coeffs):
    """Boundary of the surface class sum c_K S_K on every slot of ``u``.

    S_K is K's Seifert surface punctured by every other component; it
    contributes c_K to lambda_K and -c_K lk(K, K') to each mu_K'.
    """
    lk = u.linking.entries
    out = [0] * (2 * u.size)
    for k, a in zip(support, coeffs):
        out[2 * k + 1] += a
        for k2 in range(u.size):
            if k2 != k:
                out[2 * k2] -= a * lk[k][k2]
    return tuple(out)


def surface_pushforward(c, support, coeffs):
    """Image (support, coeffs) of an upstairs surface class: w_K copies of S_K per lift."""
    totals = {}
    for j, a in zip(support, coeffs):
        k = c.fiber_map[j]
        totals[k] = totals.get(k, 0) + c.splitting[k].w * a
    image = tuple(sorted(totals))
    return image, tuple(totals[k] for k in image)


def diagonal_commutes_typed(c):
    """``verify_diagonal_commutes`` through surface classes: (passed, witness)."""
    f = pushforward_matrix(c)
    m = c.total.size
    classes = [((j,), (1,)) for j in range(m)]
    classes.append((tuple(range(m)), (1,) * m))
    for support, coeffs in classes:
        lhs = f.apply(surface_boundary(c.total, support, coeffs))
        rhs = surface_boundary(c.base, *surface_pushforward(c, support, coeffs))
        if lhs != rhs:
            return False, {
                "surface_support": list(support),
                "surface_coeffs": list(coeffs),
                "pushed_boundary": list(lhs),
                "boundary_of_image": list(rhs),
                "coordinates": hasse._coordinate_labels(c.base),
            }
    return True, None


def meridian_pushforward_typed(c):
    """``verify_meridian_pushforward`` through the full pushforward matrix: (passed, witness)."""
    f = pushforward_matrix(c)
    for j in range(c.total.size):
        unit = tuple(int(i == 2 * j) for i in range(2 * c.total.size))
        image = f.apply(unit)
        if any(image[1::2]):
            return False, {
                "upstairs_component": c.total.labels[j],
                "image": list(image),
                "coordinates": hasse._coordinate_labels(c.base),
            }
    return True, None


def closure_walk(b):
    """(permutation, cycles, linking) of the closure of ``b``, by a walk of its own.

    The permutation sends each strand, named by its starting position,
    to its final position.  A strand ending at position p continues as
    the strand starting there, so the closure components are the cycles
    of the permutation, listed by smallest strand and started there.
    ``linking[i][j]`` is half the signed count of crossings between a
    strand of cycle i and a strand of cycle j, 0 on the diagonal.  Two
    closed components cross an even number of times, which the walk
    asserts.
    """
    where = list(range(b.strands))  # where[s] = the position strand s is at
    crossings = []
    for g in b.letters:
        i = abs(g) - 1
        left, right = where.index(i), where.index(i + 1)
        where[left], where[right] = i + 1, i
        crossings.append((left, right, 1 if g > 0 else -1))
    cycles = []
    for s in range(b.strands):
        if any(s in cycle for cycle in cycles):
            continue
        cycle = [s]
        while where[cycle[-1]] != s:
            cycle.append(where[cycle[-1]])
        cycles.append(tuple(cycle))
    cycle_of = {s: c for c, cycle in enumerate(cycles) for s in cycle}
    counts = [[0] * len(cycles) for _ in cycles]
    for left, right, sign in crossings:
        c1, c2 = cycle_of[left], cycle_of[right]
        if c1 != c2:
            counts[c1][c2] += sign
            counts[c2][c1] += sign
    assert all(x % 2 == 0 for row in counts for x in row), (b, counts)
    linking = tuple(tuple(x // 2 for x in row) for row in counts)
    return tuple(where), tuple(cycles), linking


def power_word(b, n):
    """The word of ``b`` repeated n times on the same strands."""
    return BraidWord(b.strands, b.letters * n)


def lift_maps_by_walking_both_words(b, n):
    """``lift_braid``'s (fiber_map, deck), reading the cycles of b and of b^n off each word.

    Axis first in both universes; closure components follow in
    ``closure_walk`` order.  A lift over the strand s moves to the lift
    over sigma(s).
    """
    sigma, cycles, _ = closure_walk(b)
    base_of = {s: c + 1 for c, cycle in enumerate(cycles) for s in cycle}
    top = closure_walk(power_word(b, n))[1]
    top_of = {s: c + 1 for c, cycle in enumerate(top) for s in cycle}
    fiber_map = (0,) + tuple(base_of[cycle[0]] for cycle in top)
    deck = (0,) + tuple(top_of[sigma[cycle[0]]] for cycle in top)
    return fiber_map, deck


def splitting_oracle(n, a, b):
    """(a, b, e, d, w, r) of character values (a, b) in Z/n, by listing subgroups.

    e is the size of the subgroup a generates (the meridian covering
    degree), d the size of the subgroup a and b generate (the torus
    covering degree), w = d / e and r = n / d.
    """
    a, b = a % n, b % n
    e = len({i * a % n for i in range(n)})
    d = len({(i * a + j * b) % n for i in range(n) for j in range(n)})
    return a, b, e, d, d // e, n // d


def permutation_words():
    """One braid word for each of the 33 permutations of 1 to 4 strands.

    The first positive word found for each, by length, so every
    (permutation, degree) the CLI admits is reached by one lift.
    """
    words = {}
    for strands in range(1, 5):
        for length in range(7):  # S_4 needs at most 6 adjacent transpositions
            for letters in itertools.product(range(1, strands), repeat=length):
                b = BraidWord(strands, letters)
                words.setdefault((strands, closure_walk(b)[0]), b)
    return list(words.values())


def wide4_words():
    """Eight 4-strand words for each (length 3-8, degree in {2,3,4,6,12})."""
    rng = random.Random(4)
    alphabet = [-3, -2, -1, 1, 2, 3]
    return [
        (BraidWord(4, tuple(rng.choice(alphabet) for _ in range(length))), degree)
        for length in range(3, 9)
        for degree in (2, 3, 4, 6, 12)
        for _ in range(8)
    ]


def replaced(obj, **changes):
    """``obj`` with ``changes``, rebuilt through its class's public constructor.

    Every constructor parameter not in ``changes`` is read from the
    attribute of the same name, so the constructor's checks run again.
    """
    kwargs = {name: getattr(obj, name) for name in _parameters(type(obj))}
    kwargs.update(changes)
    return type(obj)(**kwargs)


@functools.lru_cache(maxsize=None)
def _parameters(cls):
    """The parameter names of ``cls``'s constructor, read once per class."""
    return tuple(inspect.signature(cls).parameters)


def with_generators(u, gens):
    """A copy of universe ``u`` whose principal generators are ``gens``.

    The copy is ``replaced(u)`` with its ``_generators`` slot rewritten,
    so every reader of generators sees ``gens``, while ``replaced`` on
    the copy runs the constructor again and rebuilds the real ones.
    The copy still equals ``u``: generators are derived, not a field.
    """
    double = replaced(u)
    object.__setattr__(double, "_generators", tuple(tuple(g) for g in gens))
    return double


def with_rows(u, rows):
    """``u`` with generator k replaced by ``rows[k]``, for each k in ``rows``."""
    gens = ideles.principal_generators(u)
    for k, row in rows.items():
        gens[k] = row
    return with_generators(u, gens)


def universe_of(gens):
    """An axis-free universe of m unlinked components carrying the m x 2m block ``gens``."""
    m = len(gens)
    u = LinkUniverse(tuple(f"K{k}" for k in range(m)), IntMatrix([[0] * m] * m, cols=m))
    return with_generators(u, gens)


def relabeled_covers(covers, seed):
    """Each cover with both universes enumerated in a seeded order."""
    rng = random.Random(seed)
    out = []
    for c in covers:
        base_order = list(range(c.base.size))
        top_order = list(range(c.total.size))
        rng.shuffle(base_order)
        rng.shuffle(top_order)
        out.append(relabeled_cover(c, tuple(base_order), tuple(top_order)))
    return out


def moved_pushforward_entries(covers, seed):
    """Each cover with one seeded entry of one pushforward pair moved by ±1 or ±2."""
    rng = random.Random(seed)
    out = []
    for c in covers:
        j = rng.randrange(c.total.size)
        rows = [list(row) for row in c.pushforward[j]]
        rows[rng.randrange(2)][rng.randrange(2)] += rng.choice((-2, -1, 1, 2))
        pushforward = c.pushforward[:j] + (tuple(map(tuple, rows)),) + c.pushforward[j + 1 :]
        out.append(replaced(c, pushforward=pushforward))
    return out


def swapped_deck_targets(covers, seed):
    """Two seeded deck targets swapped, on each cover with three or more upstairs components."""
    rng = random.Random(seed)
    out = []
    for c in covers:
        if c.total.size < 3:
            continue
        i, j = rng.sample(range(c.total.size), 2)
        deck = list(c.deck)
        deck[i], deck[j] = deck[j], deck[i]
        out.append(replaced(c, deck=tuple(deck)))
    return out


def _shifted(u, shifts):
    """``u`` with ``shifts[k]`` added to generator k's axis meridian coordinate."""
    a = 2 * u.axis_index
    gens = zip(ideles.principal_generators(u), shifts)
    return with_generators(u, [g[:a] + (g[a] + s,) + g[a + 1 :] for g, s in gens])


def patched_generators(covers, kept):
    """Each cover with multiples of the axis meridian added to its generators.

    The longitudes stay units.  Kept: n·mu_A on every off-axis base
    generator and w_K·mu_A~ on every off-axis lift of K, which keeps
    both norm-principle identities, since the axis lift pushes mu_A~ to
    n·mu_A.  Broken: mu_A on every base generator, which breaks both.
    """
    if not kept:
        return [replaced(c, base=_shifted(c.base, [1] * c.base.size)) for c in covers]
    return [
        replaced(
            c,
            base=_shifted(c.base, [c.degree * (k != c.base.axis_index) for k in range(c.base.size)]),
            total=_shifted(c.total, [
                c.splitting[k].w * (j != c.total.axis_index) for j, k in enumerate(c.fiber_map)
            ]),
        )
        for c in covers
    ]


def _doubled(u):
    """``u`` with every longitude coordinate of every generator doubled."""
    gens = ideles.principal_generators(u)
    return with_generators(u, [tuple(x << (i % 2) for i, x in enumerate(g)) for g in gens])


def doubled_longitudes(covers):
    """Each cover with every longitude coordinate of both universes' generators doubled."""
    return [replaced(c, base=_doubled(c.base), total=_doubled(c.total)) for c in covers]


def zero_pushforwards(covers):
    """Each cover with every pushforward pair zero."""
    return [replaced(c, pushforward=(((0, 0), (0, 0)),) * c.total.size) for c in covers]


def moved_generator_entries(covers, seed):
    """Each cover with one seeded entry of one generator, of the base or the cover, moved by ±1 or ±2."""
    rng = random.Random(seed)
    out = []
    for c in covers:
        tag = rng.choice(("base", "total"))
        u = getattr(c, tag)
        k = rng.randrange(u.size)
        row = list(ideles.principal_generators(u)[k])
        row[rng.randrange(len(row))] += rng.choice((-2, -1, 1, 2))
        out.append(replaced(c, **{tag: with_rows(u, {k: tuple(row)})}))
    return out


def all_degree_covers(seed, per_cell):
    """Seeded lifts from the CLI's whole domain: every degree 1-12, every strand count 1-4.

    At each degree: the one 1-strand word, and ``per_cell`` words of
    2, 3 and 4 strands each, of seeded lengths 0-8 and letters.
    """
    rng = random.Random(seed)
    out = []
    for n in range(1, 13):
        out.append(lift_braid(BraidWord(1, ()), n))
        for strands in (2, 3, 4):
            alphabet = [g for g in range(1 - strands, strands) if g]
            for _ in range(per_cell):
                letters = tuple(rng.choice(alphabet) for _ in range(rng.randrange(9)))
                out.append(lift_braid(BraidWord(strands, letters), n))
    return out


def failure_corpus(covers):
    """Families of tampered ``covers`` that between them fail every check, by name.

    Moved pushforward entries (seed 31) and swapped deck targets (seed
    37) fail the checks that read the pushforward and the deck; moved
    generator entries (seed 26) and doubled longitudes fail the ones
    that read generators.  Those two tamper every third cover only:
    most of their failures go through the lattice routes, which cost
    several times what the others do.
    """
    return {
        "moved_pushforward": moved_pushforward_entries(covers, 31),
        "swapped_deck": swapped_deck_targets(covers, 37),
        "moved_generator": moved_generator_entries(covers[::3], 26),
        "doubled_longitudes": doubled_longitudes(covers[::3]),
    }
