import random
from fractions import Fraction

from reference_intmat import hermite_row_basis as reference_hermite_row_basis
from reference_intmat import row_echelon, row_kernel_basis

from k3fm import intmat


def random_matrix(rng, n, bound=9):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
    )


def test_det_small():
    assert intmat.det(((2,),)) == 2
    assert intmat.det(((0, 1), (1, 0))) == -1
    assert intmat.det(((2, 1), (1, -2))) == -5
    assert intmat.det(((1, 2), (2, 4))) == 0


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, 6)
        assert intmat.det(m) == cofactor_det(m)


def test_inverse_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        if intmat.det(m) == 0:
            continue
        inv = intmat.inverse(m)
        assert intmat.matmul(m, inv) == intmat.identity(n)


def test_smith_normal_form_properties():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        u, d, v = intmat.smith_normal_form(m)
        assert intmat.matmul(u, intmat.matmul(m, v)) == d
        assert abs(intmat.det(u)) == 1
        assert abs(intmat.det(v)) == 1
        diag = [d[i][i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_smith_examples():
    _, d, _ = intmat.smith_normal_form(((2,),))
    assert d == ((2,),)
    _, d, _ = intmat.smith_normal_form(((0, 1), (1, 0)))
    assert d == ((1, 0), (0, 1))
    _, d, _ = intmat.smith_normal_form(((2, 1), (1, -2)))
    assert d == ((1, 0), (0, 5))


def test_hermite_row_basis_canonical():
    h = intmat.hermite_row_basis(((2, 0), (0, 2), (1, 1)))
    assert h == ((1, 1), (0, 2))
    # generated lattice is basis-independent
    assert intmat.hermite_row_basis(h) == h


def test_hermite_row_basis_is_the_tracked_reduction():
    # the extended-gcd reduction against the Euclid one that carries w,
    # w * m = h
    rng = random.Random(17)
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
            m[i] = [0] * cols
        m = intmat.freeze(m)
        h, w, r = row_echelon(m, True)
        assert intmat.matmul(intmat.freeze(w), m) == intmat.freeze(h)
        assert intmat.hermite_row_basis(m) == intmat.freeze(h[:r])
    assert intmat.hermite_row_basis(((0, 0), (0, 0), (0, 0))) == ()


def test_hermite_row_basis_equals_the_euclid_reference_up_to_1e12():
    # each entry of size up to 10^k, k drawn per entry, with zero rows
    rng = random.Random(30)
    for _ in range(20000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 6)
        m = [
            [rng.randint(-(10 ** k), 10**k) for k in (rng.randint(0, 12) for _ in range(cols))]
            for _ in range(rows)
        ]
        for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
            m[i] = [0] * cols
        m = intmat.freeze(m)
        assert intmat.hermite_row_basis(m) == reference_hermite_row_basis(m), m


def test_hermite_row_basis_equals_the_euclid_reference_on_the_glue_shape():
    # [D * I_n; lifts], as `gluing.glue` stacks them: D * Z^n and one
    # lift row over D per generator of A_T, entries taken mod D
    rng = random.Random(31)
    for _ in range(3000):
        n, lifts = rng.randint(2, 8), rng.randint(1, 4)
        denom = rng.choice((2, 3, 4, 6, 12, 30, 60, 229, 660, 10**6))
        m = intmat.scale(intmat.identity(n), denom) + tuple(
            tuple(rng.randrange(denom) for _ in range(n)) for _ in range(lifts)
        )
        h = intmat.hermite_row_basis(m)
        assert h == reference_hermite_row_basis(m), m
        assert len(h) == n


def test_products_take_fractions():
    half = Fraction(1, 2)
    assert intmat.matmul(((half, 1),), ((2,), (half,))) == ((Fraction(3, 2),),)
    assert intmat.mat_vec(((half, 3),), (4, half)) == (Fraction(7, 2),)


def test_row_kernel_basis():
    m = ((1, 2), (2, 4), (0, 0))
    ker = row_kernel_basis(m)
    assert len(ker) == 2
    for row in ker:
        assert intmat.mat_vec(intmat.transpose(m), row) == (0, 0)


def reference_smith_normal_form(m):
    """The Smith decomposition as it was written before v became optional:
    both u and v always carried, one closure per elementary operation.
    Kept as the reference for the (u, d, v) bytes."""
    rows = len(m)
    cols = len(m[0])
    a = [list(row) for row in m]
    u = [list(row) for row in intmat.identity(rows)]
    v = [list(row) for row in intmat.identity(cols)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for s in range(min(rows, cols)):
        while True:
            pivot = None
            best = None
            for i in range(s, rows):
                for j in range(s, cols):
                    x = abs(a[i][j])
                    if x != 0 and (best is None or x < best):
                        best = x
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != s:
                swap_rows(s, pivot[0])
            if pivot[1] != s:
                swap_cols(s, pivot[1])
            p = a[s][s]
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    row_op(i, s, a[i][s] // p)
                    if a[i][s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    col_op(j, s, a[s][j] // p)
                    if a[s][j] != 0:
                        dirty = True
            if dirty:
                continue
            violation = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % p != 0:
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            a[s] = [x + y for x, y in zip(a[s], a[violation])]
            u[s] = [x + y for x, y in zip(u[s], u[violation])]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]
    return intmat.freeze(u), intmat.freeze(a), intmat.freeze(v)


def test_smith_transforms_on_request_equal_the_reference():
    rng = random.Random(2024)
    shapes = 0
    for _ in range(1500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((1, 3, 12, 200))
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows - 1)):
            m[i] = [0] * cols  # zero rows
        for j in rng.sample(range(cols), rng.randint(0, cols - 1)):
            for row in m:
                row[j] = 0  # zero columns
        m = intmat.freeze(m)
        u, d, v = reference_smith_normal_form(m)
        assert intmat.smith_normal_form(m) == (u, d, v), m
        assert intmat.smith_normal_form(m, track_v=False) == (u, d, None), m
        shapes += rows != cols
    assert shapes > 500


def assert_2x2_path_is_the_loop(m):
    """The scalar 2x2 path against the loop's reference, with and without v."""
    u, d, v = reference_smith_normal_form(m)
    assert intmat.smith_normal_form(m) == (u, d, v), m
    assert intmat.smith_normal_form(m, track_v=False) == (u, d, None), m


def test_smith_2x2_path_on_every_small_matrix():
    # singular, zero and non-symmetric ones included: `gluing` passes
    # non-symmetric 2x2 bases
    small = range(-6, 7)
    for a in small:
        for b in small:
            for c in small:
                for d in small:
                    assert_2x2_path_is_the_loop(((a, b), (c, d)))


def test_smith_2x2_path_on_every_even_gram_up_to_30():
    for a in range(-15, 16):
        for b in range(-30, 31):
            for c in range(-15, 16):
                assert_2x2_path_is_the_loop(((2 * a, b), (b, 2 * c)))


def test_smith_2x2_path_on_random_matrices_up_to_1e12():
    # each entry of size up to 10^k, k drawn per entry, so that small and
    # huge entries meet in one matrix
    rng = random.Random(28)
    for _ in range(20000):
        m = tuple(
            tuple(rng.randint(-(10 ** k), 10**k) for k in (rng.randint(0, 12), rng.randint(0, 12)))
            for _ in range(2)
        )
        assert_2x2_path_is_the_loop(m)
