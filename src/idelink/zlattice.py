"""Exact integer matrices and sublattice arithmetic.

Everything downstream (linking matrices, idele coordinates, pushforward
maps, quotient invariants) is phrased over a free ambient group Z^r, so
this module supplies the substrate: immutable arbitrary-precision
integer matrices, sublattices with a canonical Hermite form, and the
handful of subgroup operations the verifiers need.  No floating point
enters anywhere.

Sublattices are generated by matrix *columns* and held as their
canonical column Hermite form, in the kernel's tuple-of-columns layout.
Two sublattices of the same ambient group are equal exactly when their
canonical forms are equal, which makes ``lattice_equal`` a syntactic
comparison.  Caller input is validated once, at the constructors; the
operations hand canonical columns straight to the kernel.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd

from . import kernel
from ._record import Record


def _check_ints(c) -> tuple:
    """``c`` as a tuple, accepted by one type scan of its entries.

    Only when the scan fails are the entries checked one at a time, so
    the TypeError names the first entry that is not a plain int.
    """
    t = tuple(c)
    if not {int}.issuperset(map(type, t)):
        for x in t:
            if type(x) is not int:
                raise TypeError(f"matrix entries must be plain ints, got {type(x).__name__}")
    return t


def _check_kind(what: str, x, cls) -> None:
    """Reject an argument that is not a ``cls``, at a public entry."""
    if not isinstance(x, cls):
        name = cls.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise ValueError(f"{what} must be {article} {name}, got {type(x).__name__}")


def _check_sequence(what: str, v) -> None:
    """Reject a column or vector that is not a sequence; a tuple or list needs no ABC test."""
    if type(v) is not tuple and type(v) is not list:
        _check_kind(what, v, Sequence)


def _check_size(what: str, n) -> None:
    """Reject a shape, size or rank that is not a plain int >= 0."""
    if type(n) is not int:
        raise ValueError(f"{what} {n!r} is not a plain int")
    if n < 0:
        raise ValueError(f"negative {what}")


class IntMatrix(Record):
    """Immutable integer matrix; entries are row-major tuples of ints."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], *, cols: int | None = None):
        if cols is not None:
            _check_size("column count", cols)
        rows = tuple(map(_check_ints, entries))
        if rows:
            width = len(rows[0])
            if not {width}.issuperset(map(len, rows)):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_size("size", n)
        return cls._trusted(
            n, n, tuple(tuple(1 if c == r else 0 for c in range(n)) for r in range(n))
        )

    def column(self, j: int) -> tuple[int, ...]:
        if type(j) is not int or not 0 <= j < self.cols:
            raise ValueError(f"column index {j!r} is not a plain int in [0, {self.cols})")
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        _check_kind("right operand", other, IntMatrix)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for row in self.entries:
            out.append(
                tuple(
                    sum(row[t] * other.entries[t][j] for t in range(self.cols))
                    for j in range(other.cols)
                )
            )
        return IntMatrix._trusted(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        _check_sequence("vector", vec)
        vec = _check_ints(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(row[t] * vec[t] for t in range(self.cols)) for row in self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r}, cols={self.cols})"


class AbelianInvariants(Record):
    """Isomorphism class of a finitely generated abelian group."""

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        _check_size("free rank", free_rank)
        if type(torsion) is not tuple:
            torsion = tuple(torsion)
        prev = None
        for d in torsion:
            if type(d) is not int:
                raise ValueError(f"torsion invariant {d!r} is not a plain int")
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("torsion invariants must form a divisibility chain")
            prev = d
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)


class SubLattice(Record):
    """Subgroup of Z^ambient_rank, held as its canonical column Hermite form.

    ``columns`` holds the canonical columns ``kernel.col_hnf`` returns,
    each as a tuple of ints.  The form is unique for the subgroup, so
    record equality and hashing, over (ambient_rank, columns), compare
    lattices.  ``SubLattice(ambient_rank, columns)`` checks any
    generating columns and reduces them to that form, so every lattice
    is canonical; ``from_columns`` is the same constructor.
    """

    __slots__ = _fields = ("ambient_rank", "columns")

    def __init__(self, ambient_rank: int, columns: Iterable[Sequence[int]]):
        _check_size("ambient rank", ambient_rank)
        _check_kind("columns", columns, Iterable)
        cols = []
        for c in columns:
            _check_sequence("column", c)
            cols.append(_check_ints(c))
        if not {ambient_rank}.issuperset(map(len, cols)):
            raise ValueError("column length does not match ambient rank")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "columns", tuple(map(tuple, kernel.col_hnf(ambient_rank, cols))))

    @classmethod
    def from_matrix(cls, generators: IntMatrix) -> "SubLattice":
        _check_kind("generators", generators, IntMatrix)
        return _span(generators.rows, generators.columns())

    @classmethod
    def from_columns(cls, ambient_rank: int, columns: Iterable[Sequence[int]]) -> "SubLattice":
        return cls(ambient_rank, columns)

    @classmethod
    def zero(cls, ambient_rank: int) -> "SubLattice":
        return cls(ambient_rank, ())

    @classmethod
    def full(cls, ambient_rank: int) -> "SubLattice":
        return cls.from_matrix(IntMatrix.identity(ambient_rank))

    @property
    def rank(self) -> int:
        return len(self.columns)

    @property
    def canonical_form(self) -> IntMatrix:
        """The canonical columns as an ambient_rank x rank matrix.

        ``SubLattice.from_matrix(m).canonical_form`` is the column Hermite
        normal form of ``m``.
        """
        rows = tuple(zip(*self.columns)) or ((),) * self.ambient_rank
        return IntMatrix._trusted(self.ambient_rank, self.rank, rows)


def _span(ambient_rank: int, cols) -> SubLattice:
    """Sublattice spanned by trusted integer columns of length ambient_rank."""
    return SubLattice._trusted(ambient_rank, tuple(map(tuple, kernel.col_hnf(ambient_rank, cols))))


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (u, d, v) with u @ m @ v == d.

    u and v are unimodular; d is diagonal, nonnegative, with each
    diagonal entry dividing the next.
    """
    _check_kind("matrix", m, IntMatrix)
    u, d, v = kernel.smith(m.rows, m.cols, m.entries)
    return (
        IntMatrix._trusted(m.rows, m.rows, tuple(map(tuple, u))),
        IntMatrix._trusted(m.rows, m.cols, tuple(map(tuple, d))),
        IntMatrix._trusted(m.cols, m.cols, tuple(map(tuple, v))),
    )


def _require_same_ambient(a: SubLattice, b: SubLattice):
    _check_kind("first lattice", a, SubLattice)
    _check_kind("second lattice", b, SubLattice)
    if a.ambient_rank != b.ambient_rank:
        raise ValueError(
            f"ambient rank mismatch: {a.ambient_rank} vs {b.ambient_rank}"
        )


def lattice_sum(a: SubLattice, b: SubLattice) -> SubLattice:
    """Sublattice generated by both generator sets."""
    _require_same_ambient(a, b)
    return _span(a.ambient_rank, a.columns + b.columns)


def lattice_intersect(a: SubLattice, b: SubLattice) -> SubLattice:
    """Intersection, from one kernel reduction with carried rows.

    Columns (a_j, a_j) and (b_k, 0) are reduced on their first halves.
    Coefficients (x, y) zero those exactly when sum x_j a_j equals
    -sum y_k b_k, and the second half is then that common vector, so
    the tails ``kernel.col_hnf_with_kernel`` returns span a meet b.
    """
    _require_same_ambient(a, b)
    n = a.ambient_rank
    zero = (0,) * n
    cols = [c + c for c in a.columns] + [c + zero for c in b.columns]
    return _span(n, kernel.col_hnf_with_kernel(n, cols))


def preimage_lattice(m: IntMatrix, target: SubLattice) -> SubLattice:
    """{x in Z^cols : m @ x lies in target}, a sublattice of Z^cols.

    One kernel reduction with carried rows: columns (m_j, e_j) and
    (t, 0), t a target column, are reduced on their first m.rows
    entries.  Coefficients (x, y) zero those exactly when m @ x equals
    -sum y_k t_k, and the carried rows are then x, so the tails
    ``kernel.col_hnf_with_kernel`` returns span the preimage.  With
    ``SubLattice.zero(m.rows)`` as target it is the kernel of m.
    """
    _check_kind("matrix", m, IntMatrix)
    _check_kind("target", target, SubLattice)
    if m.rows != target.ambient_rank:
        raise ValueError("matrix rows must match target ambient rank")
    n = m.cols
    cols = [c + (0,) * j + (1,) + (0,) * (n - j - 1) for j, c in enumerate(m.columns())]
    cols += [t + (0,) * n for t in target.columns]
    return _span(n, kernel.col_hnf_with_kernel(m.rows, cols))


def _solve_in_hnf(cols, v: Sequence[int]) -> list[int] | None:
    """Coefficients expressing v over canonical columns, or None.

    Canonical columns are zero above their pivots, whose rows increase, so
    v reduces column by column; residue in a row with no pivot means v is
    outside the lattice.
    """
    residue = list(v)
    coeffs = []
    row = 0
    for col in cols:
        while not col[row]:
            if residue[row]:
                return None
            row += 1
        q, rem = divmod(residue[row], col[row])
        if rem:
            return None
        if q:
            for t in range(row, len(residue)):
                s = col[t]
                if s:
                    residue[t] -= q * s
        coeffs.append(q)
        row += 1
    return None if any(residue[row:]) else coeffs


def lattice_member(v: Sequence[int], a: SubLattice) -> bool:
    """True iff v is an integer combination of the generators."""
    _check_kind("lattice", a, SubLattice)
    _check_sequence("vector", v)
    if len(v) != a.ambient_rank:
        raise ValueError(f"vector length {len(v)} != ambient rank {a.ambient_rank}")
    return _solve_in_hnf(a.columns, _check_ints(v)) is not None


def lattice_equal(a: SubLattice, b: SubLattice) -> bool:
    """True iff both generate the same subgroup (canonical forms coincide)."""
    _require_same_ambient(a, b)
    return a.columns == b.columns


def _dividing_pivots(cols) -> list[int] | None:
    """Pivots of Hermite columns if each divides the entries below it, else None."""
    pivots = []
    for col in cols:
        i = 0
        while not col[i]:
            i += 1
        p = col[i]
        if p != 1:
            for x in col[i + 1:]:
                if x % p:
                    return None
        pivots.append(p)
    return pivots


def quotient_invariants(ambient_rank: int, relations: SubLattice) -> AbelianInvariants:
    """Invariant factors of Z^ambient_rank modulo the relation lattice.

    Checks its arguments, then ``_quotient_invariants`` reads the
    invariants off the relations' canonical columns.
    """
    _check_size("ambient rank", ambient_rank)
    _check_kind("relations", relations, SubLattice)
    if relations.ambient_rank != ambient_rank:
        raise ValueError("relations do not lie in the ambient group")
    return _quotient_invariants(ambient_rank, relations.columns)


def _quotient_invariants(ambient_rank: int, cols) -> AbelianInvariants:
    """``quotient_invariants`` of canonical Hermite columns, as ``kernel.col_hnf`` returns them.

    The canonical columns are independent, so the free rank is
    ambient_rank - rank.  The torsion comes from a column Hermite form
    whose every pivot (a column's first nonzero entry) divides the
    entries below it: row operations clear its columns downward from
    the first, each touching no other column, so its pivots are a
    diagonal form.  The canonical form is tested first (unit pivots
    pass it with no kernel call); until a form passes, column Hermite
    forms of the transpose alternate, each on the rows of the previous
    result.  A round makes the new leading pivot the gcd of the old
    one's column, so it either strictly lowers the leading pivot or
    clears the pivot's row and column; a diagonal form passes, so the
    loop ends.  Replacing each pair of pivots (a, b) by (gcd, lcm) then
    makes a divisibility chain, and the entries above 1 are the torsion.
    """
    rank = len(cols)
    pivots = _dividing_pivots(cols)
    while pivots is None:
        cols = kernel.col_hnf(rank, list(zip(*cols)))
        pivots = _dividing_pivots(cols)
    diag = [p for p in pivots if p != 1]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a // g * b
    return AbelianInvariants._trusted(ambient_rank - rank, tuple(x for x in diag if x > 1))


def relative_quotient_invariants(outer: SubLattice, inner: SubLattice) -> AbelianInvariants:
    """Invariant factors of outer/inner for nested sublattices."""
    _require_same_ambient(outer, inner)
    coords = []
    for col in inner.columns:
        sol = _solve_in_hnf(outer.columns, col)
        if sol is None:
            raise ValueError("inner lattice is not contained in outer lattice")
        coords.append(sol)
    rank = outer.rank
    return quotient_invariants(rank, _span(rank, coords))
