"""Exact integer linear algebra: normal forms, ranks, determinants,
sublattices and quotient groups with coordinates read off a Smith form.

Everything works over Python's arbitrary-precision integers; no floating
point enters any code path.  Vectors are tuples of ints and matrices are
tuples of row tuples, so values are hashable and safe to share between
threads.

Conventions:
  * matrices act on row vectors; the lattice spanned by a matrix is the
    set of integer combinations of its rows;
  * Hermite normal form is row style: U @ M == H with U unimodular;
  * a sublattice is stored as the nonzero rows of its Hermite form, so
    structural equality coincides with equality of lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

Vector = tuple
Matrix = tuple


def vec(values) -> Vector:
    return tuple(map(int, values))


def mat(rows) -> Matrix:
    return tuple(vec(r) for r in rows)


def zero_vector(n: int) -> Vector:
    return (0,) * n


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def vscale(k: int, v: Vector) -> Vector:
    return tuple(k * a for a in v)


def dot(u: Vector, v: Vector) -> int:
    return sum(map(mul, u, v))


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def hermite_normal_form(m: Matrix):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U @ m == H.  Pivots are positive,
    entries below a pivot vanish and entries above it are reduced into
    [0, pivot).  Works for any shape and rank.
    """
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    pr = 0
    for col in range(nc):
        pivot = next((i for i in range(pr, nr) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != pr:
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            u[pr], u[pivot] = u[pivot], u[pr]
        for i in range(pr + 1, nr):
            b = rows[i][col]
            if b == 0:
                continue
            a = rows[pr][col]
            g, x, y = _xgcd(a, b)
            p, q = a // g, b // g
            # the 2x2 block [[x, y], [-q, p]] has determinant 1
            rows[pr], rows[i] = (
                [x * ra + y * ri for ra, ri in zip(rows[pr], rows[i])],
                [-q * ra + p * ri for ra, ri in zip(rows[pr], rows[i])],
            )
            u[pr], u[i] = (
                [x * ra + y * ri for ra, ri in zip(u[pr], u[i])],
                [-q * ra + p * ri for ra, ri in zip(u[pr], u[i])],
            )
        if rows[pr][col] < 0:
            rows[pr] = [-a for a in rows[pr]]
            u[pr] = [-a for a in u[pr]]
        piv = rows[pr][col]
        for i in range(pr):
            q = rows[i][col] // piv
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[pr])]
                u[i] = [a - q * b for a, b in zip(u[i], u[pr])]
        pr += 1
        if pr == nr:
            break
    return mat(rows), mat(u)


def smith_normal_form(m: Matrix):
    """Smith normal form.

    Returns (D, U, V) with U, V unimodular, U @ m @ V == D, and D diagonal
    with nonnegative entries forming a divisibility chain d1 | d2 | ...
    """
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_combine(i, j, col):
        """Make a[j][col] zero using a unimodular row operation on i, j.
        Keeps row i fixed when its entry already divides the other one."""
        p, q = a[i][col], a[j][col]
        if q == 0:
            return
        if p != 0 and q % p == 0:
            f = q // p
            a[j] = [rb - f * ra for ra, rb in zip(a[i], a[j])]
            u[j] = [rb - f * ra for ra, rb in zip(u[i], u[j])]
            return
        g, x, y = _xgcd(p, q)
        pp, qq = p // g, q // g
        a[i], a[j] = (
            [x * ra + y * rb for ra, rb in zip(a[i], a[j])],
            [-qq * ra + pp * rb for ra, rb in zip(a[i], a[j])],
        )
        u[i], u[j] = (
            [x * ra + y * rb for ra, rb in zip(u[i], u[j])],
            [-qq * ra + pp * rb for ra, rb in zip(u[i], u[j])],
        )

    def col_combine(i, j, row):
        """Make a[row][j] zero using a unimodular column operation on i, j.
        Keeps column i fixed when its entry already divides the other one."""
        p, q = a[row][i], a[row][j]
        if q == 0:
            return
        if p != 0 and q % p == 0:
            f = q // p
            for r in a:
                r[j] -= f * r[i]
            for r in v:
                r[j] -= f * r[i]
            return
        g, x, y = _xgcd(p, q)
        pp, qq = p // g, q // g
        for r in a:
            ri, rj = r[i], r[j]
            r[i], r[j] = x * ri + y * rj, -qq * ri + pp * rj
        for r in v:
            ri, rj = r[i], r[j]
            r[i], r[j] = x * ri + y * rj, -qq * ri + pp * rj

    for k in range(min(nr, nc)):
        pivot = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for r in a:
                r[k], r[pj] = r[pj], r[k]
            for r in v:
                r[k], r[pj] = r[pj], r[k]
        while True:
            for i in range(k + 1, nr):
                row_combine(k, i, k)
            for j in range(k + 1, nc):
                col_combine(k, j, k)
            if any(a[i][k] for i in range(k + 1, nr)):
                continue
            # pivot must divide every entry in the remaining block
            piv = a[k][k]
            bad = next(
                ((i, j) for i in range(k + 1, nr) for j in range(k + 1, nc)
                 if a[i][j] % piv != 0),
                None,
            )
            if bad is None:
                break
            bi = bad[0]
            a[k] = [ra + rb for ra, rb in zip(a[k], a[bi])]
            u[k] = [ra + rb for ra, rb in zip(u[k], u[bi])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
    return mat(a), mat(u), mat(v)


def rank(m: Matrix) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) row reduction of
    a copy, with no unimodular transform: every entry stays a minor of m,
    so each division by the previous pivot is exact."""
    rows = [list(r) for r in m]
    r, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        rows[r + 1:] = [[(p * x - row[col] * y) // prev for x, y in zip(row, rows[r])]
                        for row in rows[r + 1:]]
        r, prev = r + 1, p
    return r


def det(m: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^d stored by a canonical (Hermite-form) basis."""

    ambient_rank: int
    basis: Matrix  # () for the zero lattice; rows are independent

    @staticmethod
    def from_vectors(ambient_rank: int, vectors) -> "Sublattice":
        vectors = mat(vectors)
        if not vectors:
            return Sublattice(ambient_rank, ())
        h, _ = hermite_normal_form(vectors)
        rows = tuple(r for r in h if not is_zero_vector(r))
        return Sublattice(ambient_rank, rows)

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class QuotientGroup:
    """Z^d modulo a sublattice, with canonical coordinates.

    project() maps a vector to a tuple whose entries are reduced modulo the
    torsion invariants (trivial invariants collapse to 0, free coordinates
    stay unreduced); two vectors project equally iff they differ by a
    lattice element.  The columns of the coordinate matrix are stored once,
    by quotient(), so a projection is one dot product per coordinate.
    """

    ambient_rank: int
    lattice: Sublattice
    free_rank: int
    torsion_invariants: tuple
    _coord_columns: Matrix
    _moduli: tuple

    def project(self, v: Vector) -> Vector:
        y = (sum(map(mul, v, col)) for col in self._coord_columns)
        return tuple(
            0 if m == 1 else (yi % m if m else yi)
            for yi, m in zip(y, self._moduli)
        )

    def is_torsion_free(self) -> bool:
        return not self.torsion_invariants


def quotient(ambient_rank: int, lattice: Sublattice) -> QuotientGroup:
    """The quotient group Z^ambient_rank / lattice."""
    r = lattice.rank
    if r == 0:
        return QuotientGroup(
            ambient_rank, lattice, ambient_rank, (),
            identity(ambient_rank), (0,) * ambient_rank,
        )
    d_mat, _, v = smith_normal_form(lattice.basis)
    moduli = tuple(d_mat[i][i] for i in range(r)) + (0,) * (ambient_rank - r)
    torsion = tuple(m for m in moduli if m >= 2)
    return QuotientGroup(
        ambient_rank, lattice, ambient_rank - r, torsion, transpose(v), moduli)

