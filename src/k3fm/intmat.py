"""Exact matrix routines over Z and Q: no floating point anywhere.

Matrices are tuples of row tuples with int or Fraction entries.  Arbitrary
precision comes for free from Python integers; rational elimination uses
fractions.Fraction.  `matmul` and `mat_vec` take either kind of entry.
The Smith form carries v only for the callers that read it.  The row
Hermite reduction carries no transform: it folds rows together with the
extended gcd (Cohen, *A Course in Computational Algebraic Number Theory*,
2.4), and a kernel is read off a Hermite basis instead (see
`gluing.verify_overlattice`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .arith import xgcd

Matrix = tuple


def freeze(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    zeros = (0,) * n
    return tuple(zeros[:i] + (1,) + zeros[i + 1 :] for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*m))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(m: Matrix, v) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in m)


def scale(m: Matrix, k) -> Matrix:
    return tuple(tuple(k * x for x in row) for row in m)


def det(m: Matrix) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination;
    a 2x2 one, every rank-2 Gram, is read off as ad - bc."""
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse(m: Matrix) -> Matrix:
    """Exact inverse over Q (Gauss-Jordan).  Raises ValueError on singular input."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def smith_normal_form(m: Matrix, track_v: bool = True) -> tuple[Matrix, Matrix, Matrix | None]:
    """Decompose an integer matrix as u*m*v = d with u, v unimodular and d
    diagonal, nonnegative, each entry dividing the next.  Without track_v,
    v is not carried and is returned as None; u and d do not depend on it.

    Pivots are chosen by smallest absolute value for determinism.  A 2x2
    input, the Gram of every rank-2 lattice and each genus member of a
    `table` row, takes `_smith_2x2`: the same pivots and operations on
    scalars, hence the same (u, d, v), without the lists of the loop.
    """
    if len(m) == 2 and len(m[0]) == 2:
        return _smith_2x2(m, track_v)
    rows = len(m)
    cols = len(m[0])
    a = [list(row) for row in m]
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)] if track_v else None
    for s in range(min(rows, cols)):
        while True:
            pivot = None
            best = None
            for i in range(s, rows):
                for j, x in enumerate(a[i][s:], s):
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            i, j = pivot
            if i != s:
                a[s], a[i] = a[i], a[s]
                u[s], u[i] = u[i], u[s]
            if j != s:
                for row in a:
                    row[s], row[j] = row[j], row[s]
                if track_v:
                    for row in v:
                        row[s], row[j] = row[j], row[s]
            p = a[s][s]
            dirty = False
            top = a[s]
            for i in range(s + 1, rows):
                if a[i][s] != 0:  # row_i -= q * row_s
                    q = a[i][s] // p
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
                    u[i] = [x - q * y for x, y in zip(u[i], u[s])]
                    if a[i][s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if top[j] != 0:  # col_j -= q * col_s
                    q = top[j] // p
                    for row in a:
                        row[j] -= q * row[s]
                    if track_v:
                        for row in v:
                            row[j] -= q * row[s]
                    if top[j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block for the chain property
            violation = next(
                (i for i in range(s + 1, rows) if any(x % p for x in a[i][s + 1 :])), None
            )
            if violation is None:
                break
            a[s] = [x + y for x, y in zip(a[s], a[violation])]
            u[s] = [x + y for x, y in zip(u[s], u[violation])]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]
    return freeze(u), freeze(a), (freeze(v) if track_v else None)


def _smith_2x2(m: Matrix, track_v: bool) -> tuple[Matrix, Matrix, Matrix | None]:
    """`smith_normal_form` of [[a, b], [c, d]] on twelve ints, step for step
    as the loop: the pivot is the first entry of least |x| in row-major
    order, swapped into a; c and b are reduced by it, and when b and c are 0
    but a does not divide d, row 2 is added to row 1.  Once a divides d,
    a and d are made nonnegative."""
    (a, b), (c, d) = m
    u00, u01, u10, u11 = 1, 0, 0, 1
    v00, v01, v10, v11 = 1, 0, 0, 1
    while True:
        pivot = None
        if a:
            pivot, best = 0, abs(a)
        if b and (pivot is None or abs(b) < best):
            pivot, best = 1, abs(b)
        if c and (pivot is None or abs(c) < best):
            pivot, best = 2, abs(c)
        if d and (pivot is None or abs(d) < best):
            pivot = 3
        if pivot is None:
            break
        if pivot > 1:
            a, b, c, d = c, d, a, b
            u00, u01, u10, u11 = u10, u11, u00, u01
        if pivot % 2:
            a, b, c, d = b, a, d, c
            v00, v01, v10, v11 = v01, v00, v11, v10
        dirty = False
        if c:
            q = c // a
            c, d = c - q * a, d - q * b
            u10, u11 = u10 - q * u00, u11 - q * u01
            dirty = c != 0
        if b:
            q = b // a
            b, d = b - q * a, d - q * c
            v01, v11 = v01 - q * v00, v11 - q * v10
            dirty = dirty or b != 0
        if not dirty:
            if d % a == 0:
                break
            b = d
            u00, u01 = u00 + u10, u01 + u11
    if a < 0:
        a, u00, u01 = -a, -u00, -u01
    if d < 0:
        d, u10, u11 = -d, -u10, -u11
    v = ((v00, v01), (v10, v11)) if track_v else None
    return ((u00, u01), (u10, u11)), ((a, 0), (0, d)), v


def hermite_row_basis(m: Matrix) -> Matrix:
    """Canonical basis (row Hermite form) of the lattice spanned by the rows:
    upper triangular, positive pivots, each entry above a pivot in
    [0, pivot).  Column by column, each lower row with a nonzero entry
    there is folded into the pivot row by one unimodular 2x2 step,
    (pivot, row) -> (s pivot + t row, (x/g) row - (y/g) pivot) for
    (g, s, t) = xgcd(x, y), or by one subtraction when x divides y."""
    rows = len(m)
    a = [list(row) for row in m]
    r = 0
    for c in range(len(m[0]) if rows else 0):
        if r == rows:
            break
        top = a[r]
        x = top[c]
        for i in range(r + 1, rows):
            low = a[i]
            y = low[c]
            if not y:
                continue
            if not x:
                a[r], a[i] = low, top
                top, x = low, y
            elif y % x == 0:
                q = y // x
                a[i] = [u - q * v for u, v in zip(low, top)]
            else:
                g, s, t = xgcd(x, y)
                xg, yg = x // g, y // g
                a[i] = [xg * v - yg * u for u, v in zip(top, low)]
                a[r] = top = [s * u + t * v for u, v in zip(top, low)]
                x = g
        if not x:
            continue
        if x < 0:
            a[r] = top = [-u for u in top]
            x = -x
        for i in range(r):
            q = a[i][c] // x
            if q:
                a[i] = [u - q * v for u, v in zip(a[i], top)]
        r += 1
    return freeze(a[:r])
