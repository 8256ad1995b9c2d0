"""Integer matrix routines that only the tests use.  `row_echelon` is the
row Hermite reduction as the package ran it before it folded rows with the
extended gcd: one Euclid step at a time, the least nonzero entry of the
column swapped up and every lower row reduced by it, with the transform w
carried on request.  It is the reference for `intmat.hermite_row_basis`,
and `row_kernel_basis` reads an integer kernel off its transform."""

from k3fm import intmat


def row_echelon(m, track: bool) -> tuple:
    """Row Hermite reduction: returns (h, w, rank) with w*m = h when track,
    else (h, None, rank) with no transform carried."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    w = [list(row) for row in intmat.identity(rows)] if track else None
    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, rows) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                if track:
                    w[r], w[i0] = w[i0], w[r]
            done = True
            for i in range(r + 1, rows):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if track:
                        w[i] = [x - q * y for x, y in zip(w[i], w[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < rows and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                if track:
                    w[r] = [-x for x in w[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q != 0:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if track:
                        w[i] = [x - q * y for x, y in zip(w[i], w[r])]
            r += 1
    return a, w, r


def hermite_row_basis(m) -> tuple:
    """The Hermite basis of the row lattice, by the Euclid reduction."""
    a, _, r = row_echelon(m, False)
    return intmat.freeze(a[:r])


def row_kernel_basis(m) -> tuple:
    """Basis of the integer kernel {x : x*m = 0}."""
    _, w, r = row_echelon(m, True)
    return intmat.freeze(w[r:])
