"""The integer gluing oracle against the `Fraction` code it replaced.

`reference_verify_overlattice` runs the four structural checks on the
rational ambient basis, clearing each matrix of its own denominators, and
asks whether the complement of T is isometric to S with a lattice
classifier (rank 1: the Gram; rank 2: reduced forms, the `bqf` cycle walk,
or c mod f in a basis [[0, f], [f, 2c]] when isotropic; rank 3 and up:
determinant, signature and an isometry of discriminant forms).  The
production `verify_overlattice` runs them on the integer rows B over one
denominator D that the `Overlattice` holds, and asks instead whether S is
primitive in L.  The two agree on every L that contains S + T, so both must
give equal reports on glued overlattices and on hand-built ones that fail
each check.
"""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from reference_intmat import hermite_row_basis, row_kernel_basis
from test_gluing_reference import PAIRS, reference_recovered_gluing_map

from k3fm import (
    diagonal_lattice,
    direct_sum,
    discriminant_form,
    glue,
    hyperbolic_plane,
    isometries_signed,
    make_lattice,
    recovered_gluing_map,
    rescale,
    verify_overlattice,
)
from k3fm import bqf, intmat
from k3fm.gluing import Overlattice, OverlatticeReport, _meets_block_in_itself
from k3fm.lattice import IntegerLattice, signature


def _gauss_reduced_definite(a: int, b: int, c: int) -> tuple:
    """Canonical GL2 representative (a, |b|, c) of a positive definite
    integral form, by Lagrange-Gauss reduction."""
    while True:
        if c < a:
            a, c = c, a
            b = -b
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            shift = (b - r) // (2 * a)
            c = a * shift * shift - b * shift + c
            b = r
            continue
        break
    return (a, abs(b), c)


def _basis_complement(p: int, q: int) -> tuple:
    """A vector w with det [(p, q), w] = 1, for coprime p and q."""
    r0, r1, x0, x1, y0, y1 = p, q, 1, 0, 0, 1
    while r1:  # extended Euclid: p*x0 + q*y0 = r0 throughout
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return (-y0 * r0, x0 * r0)  # r0 = +-1


def _isotropic_invariant(g: tuple) -> int:
    """Complete GL2 invariant, given the determinant -f^2, of an even rank-2
    Gram g with an isotropic vector.  In a basis (v, w) with v primitive
    isotropic the Gram is [[0, +-f], [+-f, 2c]], and c mod f does not depend
    on the choice of w; the invariant is its least value over the two
    isotropic lines."""
    f = isqrt(-intmat.det(g))
    a, b, c = g[0][0] // 2, g[0][1], g[1][1] // 2
    lines = [(1, 0), (-c, b)] if a == 0 else [(f - b, 2 * a), (-f - b, 2 * a)]
    out = []
    for x, y in lines:
        k = gcd(x, y)
        w0, w1 = _basis_complement(x // k, y // k)
        out.append((a * w0 * w0 + b * w0 * w1 + c * w1 * w1) % f)
    return min(out)


def _rank2_isomorphic(g1: tuple, g2: tuple) -> bool:
    """Exact isomorphism test for even rank-2 Gram matrices."""
    det1 = intmat.det(g1)
    det2 = intmat.det(g2)
    if det1 != det2:
        return False
    if det1 < 0 and isqrt(-det1) ** 2 == -det1:
        return _isotropic_invariant(g1) == _isotropic_invariant(g2)
    if det1 < 0:
        f1 = bqf.lattice_to_form(IntegerLattice(g1))
        f2 = bqf.lattice_to_form(IntegerLattice(g2))
        return bqf.is_properly_equivalent(f1, f2) or bqf.is_properly_equivalent(
            f1, bqf.opposite(f2)
        )
    sign = 1 if g1[0][0] > 0 else -1
    if (g2[0][0] > 0) != (g1[0][0] > 0):
        return False
    p1 = intmat.scale(g1, sign)
    p2 = intmat.scale(g2, sign)
    red1 = _gauss_reduced_definite(p1[0][0] // 2, p1[0][1], p1[1][1] // 2)
    red2 = _gauss_reduced_definite(p2[0][0] // 2, p2[0][1], p2[1][1] // 2)
    return red1 == red2


def _grams_match(g_perp: tuple, s: IntegerLattice) -> bool:
    if len(g_perp) != s.rank:
        return False
    if s.rank == 1:
        return g_perp[0][0] == s.gram[0][0]
    if s.rank == 2:
        return _rank2_isomorphic(g_perp, s.gram)
    # rank > 2: genus fingerprint (det, signature, discriminant form)
    perp = IntegerLattice(g_perp)
    if perp.det != s.det or signature(perp) != signature(s):
        return False
    return bool(
        isometries_signed(discriminant_form(perp), discriminant_form(s), 1, _first_only=True)
    )


def _scaled_int_matrix(rows):
    denom = lcm(1, *(Fraction(x).denominator for row in rows for x in row))
    return tuple(tuple(int(Fraction(x) * denom) for x in row) for row in rows), denom


def reference_verify_overlattice(over, s, t):
    n = s.rank + t.rank
    even = all(over.gram[i][i] % 2 == 0 for i in range(n))
    unimodular = abs(intmat.det(over.gram)) == 1
    basis = over.ambient_basis
    b_s = tuple(row[: s.rank] for row in basis)
    b_t = tuple(row[s.rank :] for row in basis)
    s_block, _ = _scaled_int_matrix(b_s)
    kernel = row_kernel_basis(s_block)
    t_part = intmat.matmul(kernel, b_t)
    t_primitive = False
    if len(t_part) == t.rank:
        scaled, denom = _scaled_int_matrix(t_part)
        if denom == 1:
            t_primitive = hermite_row_basis(scaled) == intmat.identity(t.rank)
    gram_st = direct_sum(s, t).gram
    pair_t = intmat.matmul(basis, tuple(row[s.rank :] for row in gram_st))
    pair_scaled, _ = _scaled_int_matrix(pair_t)
    perp = row_kernel_basis(pair_scaled)
    complement_is_s = False
    if len(perp) == s.rank:
        vecs = intmat.matmul(perp, basis)
        gram_frac = intmat.matmul(vecs, intmat.matmul(gram_st, intmat.transpose(vecs)))
        if all(Fraction(x).denominator == 1 for row in gram_frac for x in row):
            g_perp = tuple(tuple(int(x) for x in row) for row in gram_frac)
            complement_is_s = _grams_match(g_perp, s)
    return OverlatticeReport(even, unimodular, t_primitive, complement_is_s)


ISOTROPIC = [make_lattice([[0, f], [f, 0]]) for f in (2, 3, 4)]
ISOTROPIC.append(make_lattice([[0, 3], [3, 2]]))
RANK3 = [
    direct_sum(hyperbolic_plane(), diagonal_lattice(-2)),
    make_lattice([[-2, 1, 0], [1, -2, 0], [0, 0, -2]]),
    diagonal_lattice(-2, -2, -2),
]
EXTRA_PAIRS = [(s, rescale(s, -1)) for s in ISOTROPIC + RANK3]


@pytest.mark.parametrize("s, t", PAIRS + EXTRA_PAIRS, ids=lambda lat: str(list(map(list, lat.gram))))
def test_verify_overlattice_matches_the_fraction_reference(s, t):
    sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
    assert sigmas
    for sigma in sigmas:
        over = glue(s, t, sigma)
        expected = reference_verify_overlattice(over, s, t)
        assert expected.all_ok
        assert verify_overlattice(over, s, t) == expected
        # the same lattice over twice the denominator glue chose
        wide = Overlattice(intmat.scale(over.basis, 2), 2 * over.denom, over.gram, over.index)
        assert verify_overlattice(wide, s, t) == expected


# (S, T, overlattice, the report expected); each fails at least one check
HAND_BUILT = {
    "odd": (
        diagonal_lattice(-1),
        diagonal_lattice(1),
        Overlattice(((1, 0), (0, 1)), 1, ((-1, 0), (0, 1)), 1),
        OverlatticeReport(False, True, True, True),
    ),
    "not_unimodular": (
        diagonal_lattice(-2),
        diagonal_lattice(2),
        Overlattice(((1, 0), (0, 1)), 1, ((-2, 0), (0, 2)), 1),
        OverlatticeReport(True, False, True, True),
    ),
    # L = S + T + (0, 1/2): T = <8> sits in L with index 2
    "t_not_primitive": (
        diagonal_lattice(-2),
        diagonal_lattice(8),
        Overlattice(((2, 0), (0, 1)), 2, ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, False, True),
    ),
    # L = S + T + (1/2, 0): the complement of T is <-2>, not S = <-8>
    "complement_not_s": (
        diagonal_lattice(-8),
        diagonal_lattice(2),
        Overlattice(((1, 0), (0, 2)), 2, ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, True, False),
    ),
    # L meets T x Q in (0, 3/2) Z, which is not even inside T
    "t_part_not_integral": (
        diagonal_lattice(-2),
        diagonal_lattice(2),
        Overlattice(((2, 0), (0, 3)), 2, ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, False, True),
    ),
    # L = 2S + T misses S: the complement of T is (2, 0) Z, of norm -8
    "s_not_in_l": (
        diagonal_lattice(-2),
        diagonal_lattice(2),
        Overlattice(((2, 0), (0, 1)), 1, ((-8, 0), (0, 2)), 1),
        OverlatticeReport(True, False, True, False),
    ),
    # the complement of T is (1/2, 0) Z, of norm -1/4 for S = <-1>
    "complement_gram_not_integral": (
        diagonal_lattice(-1),
        diagonal_lattice(2),
        Overlattice(((1, 0), (0, 2)), 2, ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, True, False),
    ),
    # L = S + T' for T' = <(1, 1), (1, -1)> of index 2 in T = <2>^2: the
    # vectors of L in T x Q are integral rows with determinant -2, so they
    # span T' and not all of T, though each of the two rows is primitive
    "t_block_of_index_2": (
        diagonal_lattice(-2),
        diagonal_lattice(2, 2),
        Overlattice(((1, 0, 0), (0, 1, 1), (0, 1, -1)), 1, ((-2, 0, 0), (0, 4, 0), (0, 0, 4)), 1),
        OverlatticeReport(True, False, False, True),
    ),
    # L = S + T + (1/2, 0) + (0, 1/2) is not integral: the vectors of L in
    # T x Q are (0, 1/2) Z, and the complement of T is (1/2, 0) Z, of norm -1/2
    "not_integral": (
        diagonal_lattice(-2),
        diagonal_lattice(2),
        Overlattice(((1, 0), (0, 1)), 2, ((-1, 0), (0, 1)), 4),
        OverlatticeReport(False, True, False, False),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_overlattices_fail_the_same_checks(case):
    s, t, over, expected = HAND_BUILT[case]
    report = verify_overlattice(over, s, t)
    assert report == reference_verify_overlattice(over, s, t)
    assert report == expected


def test_every_check_is_seen_failing():
    reports = [verify_overlattice(o, s, t) for s, t, o, _ in HAND_BUILT.values()]
    for flag in ("even", "unimodular", "t_primitive", "complement_is_s"):
        assert any(not getattr(r, flag) for r in reports), flag


def test_a_rotated_copy_of_s_is_not_the_complement():
    # L = gS + T for the rotation g = [[3/5, -4/5], [4/5, 3/5]] of S = <-2>^2:
    # the complement of T is gS, isometric to S but not S, so S is not
    # primitive in L; the isometry classifier of the reference accepts it
    s, t = diagonal_lattice(-2, -2), diagonal_lattice(2, 2)
    basis = ((3, -4, 0, 0), (4, 3, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5))
    over = Overlattice(basis, 5, diagonal_lattice(-2, -2, 2, 2).gram, 1)
    assert verify_overlattice(over, s, t) == OverlatticeReport(True, False, True, False)
    assert reference_verify_overlattice(over, s, t).complement_is_s


@pytest.mark.parametrize(
    "basis, denom",
    [
        (((2, 0), (0, 1)), 1),  # 2S + T
        (((1, 1), (0, 4)), 2),  # misses (1, 0)
        (((1, 0), (2, 0)), 1),  # singular
        (((1, 0),), 1),  # too few rows
    ],
)
def test_read_back_refuses_a_basis_that_misses_s_plus_t(basis, denom):
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    over = Overlattice(basis, denom, ((-2, 0), (0, 2)), 2)
    with pytest.raises(ValueError, match="^S \\+ T is not a sublattice of the overlattice$"):
        recovered_gluing_map(over, s, t)


def test_read_back_of_a_basis_over_a_larger_denominator():
    # the same lattice as glue gives, held as (2B, 2D)
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    sigma = isometries_signed(discriminant_form(t), discriminant_form(s), -1)[0]
    over = glue(s, t, sigma)
    wide = Overlattice(intmat.scale(over.basis, 2), 2 * over.denom, over.gram, over.index)
    assert wide == over and hash(wide) == hash(over)
    assert recovered_gluing_map(wide, s, t) == sigma
    assert verify_overlattice(wide, s, t).all_ok
    assert reference_recovered_gluing_map(wide, s, t) == sigma


@pytest.mark.parametrize(
    "s",
    [
        direct_sum(hyperbolic_plane(), hyperbolic_plane()),  # A = 0: no coordinates
        make_lattice([[-4, -2], [-2, -4]]),  # A = Z/2 + Z/6
    ],
    ids=["UxU", "[[-4,-2],[-2,-4]]"],
)
def test_read_back_with_no_coordinates_or_two_generators(s):
    t = rescale(s, -1)
    sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
    assert discriminant_form(s).orders in ((), (2, 6))
    assert sigmas
    for sigma in sigmas:
        over = glue(s, t, sigma)
        recovered = recovered_gluing_map(over, s, t)
        assert recovered == reference_recovered_gluing_map(over, s, t) == sigma


def test_glue_keeps_its_integer_basis():
    s = make_lattice([[-4, -2], [-2, -4]])
    t = rescale(s, -1)
    sigma = isometries_signed(discriminant_form(t), discriminant_form(s), -1)[0]
    over = glue(s, t, sigma)
    assert over.denom == discriminant_form(t).orders[-1]
    assert all(type(x) is int for row in over.basis for x in row)
    assert intmat.scale(over.ambient_basis, over.denom) == over.basis


def kernel_meets_block_in_itself(basis, denom, lo, hi):
    """The block test as a kernel: the integer x with x . basis zero off
    the block give the vectors of L in its span, which must be integral and
    have determinant +-1."""
    m = hi - lo
    kernel = row_kernel_basis(tuple(row[:lo] + row[hi:] for row in basis))
    if len(kernel) != m:
        return False
    part = intmat.matmul(kernel, tuple(row[lo:hi] for row in basis))
    if any(x % denom for row in part for x in row):
        return False
    return abs(intmat.det(part)) == denom**m


def _random_unimodular(rng, n):
    u = [list(row) for row in intmat.identity(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.randint(-3, 3)
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i] = [-x for x in u[i]]
        if rng.random() < 0.3:
            u[i], u[j] = u[j], u[i]
    return intmat.freeze(u)


def test_block_test_is_the_kernel_test_on_unimodular_images_of_glued_bases():
    # the same lattice in bases that are not Hermite forms, negative
    # entries included: every glued L meets both blocks in themselves
    rng = random.Random(30)
    seen = 0
    for s, t in PAIRS + EXTRA_PAIRS:
        n = s.rank + t.rank
        for sigma in isometries_signed(discriminant_form(t), discriminant_form(s), -1)[:3]:
            over = glue(s, t, sigma)
            for _ in range(4):
                basis = intmat.matmul(_random_unimodular(rng, n), over.basis)
                for lo, hi in ((0, s.rank), (s.rank, n)):
                    assert _meets_block_in_itself(basis, over.denom, lo, hi)
                    assert kernel_meets_block_in_itself(basis, over.denom, lo, hi)
                seen += basis != over.basis
    assert seen > 100


def _block_lattice(rng, m, denom, kind):
    """Rows over denom of a lattice M in the block, and whether M = Z^m."""
    rows = [list(row) for row in intmat.scale(intmat.identity(m), denom)]
    i = rng.randrange(m)
    if kind == "index_2":  # a sublattice of index 2
        if m > 1 and rng.random() < 0.5:
            j = (i + 1) % m
            rows[i][j] = denom
            rows[j][j] = -denom
            rows[j][i] = denom
        else:
            rows[i][i] = 2 * denom
    elif kind == "half":  # contains a half-integral vector
        rows[i] = [x // 2 for x in rows[i]]
        rows[i][(i + 1) % m] += denom // 2 if m > 1 else 0
    return rows, kind == "whole"


def test_block_test_is_the_kernel_test_on_seeded_bases():
    # L is spanned by [X | Y] and [0 | M] with X nonsingular, so it meets the
    # block in M / denom exactly; then the block is moved to lo..hi and a
    # unimodular matrix applied, so the basis is no Hermite form
    rng = random.Random(31)
    kinds = {"whole": 0, "index_2": 0, "half": 0}
    for _ in range(1500):
        n = rng.randint(2, 6)
        m = rng.randint(1, n - 1)
        denom = rng.choice((2, 4, 6, 12))
        kind = rng.choice(sorted(kinds))
        block, whole = _block_lattice(rng, m, denom, kind)
        while True:
            x = [[rng.randint(-6, 6) for _ in range(n - m)] for _ in range(n - m)]
            if intmat.det(intmat.freeze(x)):
                break
        rows = [xr + [rng.randint(-9, 9) for _ in range(m)] for xr in x]
        rows += [[0] * (n - m) + br for br in block]
        lo = rng.choice((0, n - m, rng.randint(0, n - m)))
        hi = lo + m
        moved = tuple(tuple(r[:lo] + r[n - m :] + r[lo : n - m]) for r in rows)
        basis = intmat.matmul(_random_unimodular(rng, n), moved)
        assert _meets_block_in_itself(basis, denom, lo, hi) == whole, (basis, denom, lo)
        assert kernel_meets_block_in_itself(basis, denom, lo, hi) == whole, (basis, denom, lo)
        kinds[kind] += 1
    assert min(kinds.values()) > 400


@pytest.mark.parametrize("lo, hi", [(0, 1), (1, 2)])
def test_block_test_reads_false_on_a_singular_basis(lo, hi):
    for basis in (((1, 0), (2, 0)), ((0, 1), (0, 3)), ((0, 0), (0, 0))):
        assert not _meets_block_in_itself(basis, 1, lo, hi)
        assert not kernel_meets_block_in_itself(basis, 1, lo, hi)
