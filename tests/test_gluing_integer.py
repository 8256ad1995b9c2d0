"""The integer gluing oracle against the `Fraction` code it replaced.

`reference_verify_overlattice` runs the four structural checks on the
rational ambient basis, clearing each matrix of its own denominators.  The
production `verify_overlattice` runs them on the integer rows B over one
denominator D kept on the `Overlattice`; both must give equal reports, on
glued overlattices and on hand-built ones that fail each check.
"""

from fractions import Fraction
from math import lcm

import pytest
from test_gluing_reference import PAIRS, reference_recovered_gluing_map

from k3fm import (
    diagonal_lattice,
    direct_sum,
    discriminant_form,
    glue,
    isometries_signed,
    make_lattice,
    recovered_gluing_map,
    rescale,
    trivial_overlattice,
    verify_overlattice,
)
from k3fm import intmat
from k3fm.gluing import Overlattice, OverlatticeReport, _grams_match, _scaled_basis


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
    kernel = intmat.row_kernel_basis(s_block)
    t_part = intmat.matmul(kernel, b_t)
    t_primitive = False
    if len(t_part) == t.rank:
        scaled, denom = _scaled_int_matrix(t_part)
        if denom == 1:
            t_primitive = intmat.hermite_row_basis(scaled) == intmat.identity(t.rank)
    gram_st = direct_sum(s, t).gram
    pair_t = intmat.matmul(basis, tuple(row[s.rank :] for row in gram_st))
    pair_scaled, _ = _scaled_int_matrix(pair_t)
    perp = intmat.row_kernel_basis(pair_scaled)
    complement_is_s = False
    if len(perp) == s.rank:
        vecs = intmat.matmul(perp, basis)
        gram_frac = intmat.matmul(vecs, intmat.matmul(gram_st, intmat.transpose(vecs)))
        if all(Fraction(x).denominator == 1 for row in gram_frac for x in row):
            g_perp = tuple(tuple(int(x) for x in row) for row in gram_frac)
            complement_is_s = _grams_match(g_perp, s)
    return OverlatticeReport(even, unimodular, t_primitive, complement_is_s)


def _unmemoised(over):
    return Overlattice(over.ambient_basis, over.gram, over.index)


ISOTROPIC = [make_lattice([[0, f], [f, 0]]) for f in (2, 3, 4)]
ISOTROPIC.append(make_lattice([[0, 3], [3, 2]]))
EXTRA_PAIRS = [(s, rescale(s, -1)) for s in ISOTROPIC]


@pytest.mark.parametrize("s, t", PAIRS + EXTRA_PAIRS, ids=lambda lat: str(list(map(list, lat.gram))))
def test_verify_overlattice_matches_the_fraction_reference(s, t):
    sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
    assert sigmas
    for sigma in sigmas:
        over = glue(s, t, sigma)
        expected = reference_verify_overlattice(over, s, t)
        assert expected.all_ok
        assert verify_overlattice(over, s, t) == expected
        # the same basis over its least denominator, not the one glue chose
        assert verify_overlattice(_unmemoised(over), s, t) == expected


def _half(*xs):
    return tuple(Fraction(x, 2) for x in xs)


# (S, T, overlattice, the report expected); each fails at least one check
HAND_BUILT = {
    "odd": (
        diagonal_lattice(-1),
        diagonal_lattice(1),
        trivial_overlattice(diagonal_lattice(-1), diagonal_lattice(1)),
        OverlatticeReport(False, True, True, True),
    ),
    "not_unimodular": (
        diagonal_lattice(-2),
        diagonal_lattice(2),
        trivial_overlattice(diagonal_lattice(-2), diagonal_lattice(2)),
        OverlatticeReport(True, False, True, True),
    ),
    # L = S + T + (0, 1/2): T = <8> sits in L with index 2
    "t_not_primitive": (
        diagonal_lattice(-2),
        diagonal_lattice(8),
        Overlattice((_half(2, 0), _half(0, 1)), ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, False, True),
    ),
    # L = S + T + (1/2, 0): the complement of T is <-2>, not S = <-8>
    "complement_not_s": (
        diagonal_lattice(-8),
        diagonal_lattice(2),
        Overlattice((_half(1, 0), _half(0, 2)), ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, True, False),
    ),
    # L meets T x Q in (0, 3/2) Z, which is not even inside T
    "t_part_not_integral": (
        diagonal_lattice(-2),
        diagonal_lattice(2),
        Overlattice(((1, 0), _half(0, 3)), ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, False, True),
    ),
    # the complement of T is (1/2, 0) Z, of norm -1/4 for S = <-1>
    "complement_gram_not_integral": (
        diagonal_lattice(-1),
        diagonal_lattice(2),
        Overlattice((_half(1, 0), (0, 1)), ((-2, 0), (0, 2)), 2),
        OverlatticeReport(True, False, True, False),
    ),
    # L = S + T + (1/2, 0) + (0, 1/2) is not integral: the vectors of L in
    # T x Q are (0, 1/2) Z, and the complement of T is (1/2, 0) Z, of norm -1/2
    "not_integral": (
        diagonal_lattice(-2),
        diagonal_lattice(2),
        Overlattice((_half(1, 0), _half(0, 1)), ((-1, 0), (0, 1)), 4),
        OverlatticeReport(False, True, False, False),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_overlattices_fail_the_same_checks(case):
    s, t, over, expected = HAND_BUILT[case]
    report = verify_overlattice(over, s, t)
    assert report == reference_verify_overlattice(_unmemoised(over), s, t)
    assert report == expected


def test_every_check_is_seen_failing():
    reports = [verify_overlattice(o, s, t) for s, t, o, _ in HAND_BUILT.values()]
    for flag in ("even", "unimodular", "t_primitive", "complement_is_s"):
        assert any(not getattr(r, flag) for r in reports), flag


@pytest.mark.parametrize(
    "basis",
    [
        ((2, 0), (0, 1)),  # 2S + T
        (_half(1, 1), (0, 2)),  # misses (1, 0)
        ((1, 0), (2, 0)),  # singular
        ((1, 0),),  # too few rows
    ],
)
def test_read_back_refuses_a_basis_that_misses_s_plus_t(basis):
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    over = Overlattice(basis, ((-2, 0), (0, 2)), 2)
    with pytest.raises(ValueError, match="^S \\+ T is not a sublattice of the overlattice$"):
        recovered_gluing_map(over, s, t)


def test_read_back_of_a_basis_over_a_larger_denominator():
    # the same lattice as glue gives, held over 4 instead of 2
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    sigma = isometries_signed(discriminant_form(t), discriminant_form(s), -1)[0]
    over = glue(s, t, sigma)
    basis, denom = _scaled_basis(over)
    wide = _unmemoised(over)
    object.__setattr__(wide, "_scaled", (intmat.scale(basis, 2), 2 * denom))
    assert recovered_gluing_map(wide, s, t) == sigma
    assert verify_overlattice(wide, s, t).all_ok
    assert reference_recovered_gluing_map(wide, s, t) == sigma


def test_glue_keeps_its_integer_basis():
    s = make_lattice([[-4, -2], [-2, -4]])
    t = rescale(s, -1)
    sigma = isometries_signed(discriminant_form(t), discriminant_form(s), -1)[0]
    over = glue(s, t, sigma)
    basis, denom = over._scaled
    assert denom == discriminant_form(t).orders[-1]
    assert all(type(x) is int for row in basis for x in row)
    assert intmat.scale(over.ambient_basis, denom) == basis


def test_hand_built_overlattice_derives_its_memo_once():
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    basis = (_half(1, 1), (Fraction(0), Fraction(1)))
    over = Overlattice(basis, ((0, 1), (1, 2)), 2)
    fresh = Overlattice(basis, ((0, 1), (1, 2)), 2)
    assert over._scaled is None
    verify_overlattice(over, s, t)
    assert over._scaled == (((1, 1), (0, 2)), 2)
    memo = over._scaled
    recovered_gluing_map(over, s, t)
    assert over._scaled is memo
    assert over == fresh and fresh._scaled is None
    assert repr(over) == repr(fresh)
    assert "_scaled" not in repr(over)


def test_glued_overlattice_equals_its_copy_without_memo():
    s = make_lattice([[2, 1], [1, -2]])
    t = rescale(s, -1)
    for sigma in isometries_signed(discriminant_form(t), discriminant_form(s), -1):
        over = glue(s, t, sigma)
        copy = _unmemoised(over)
        assert over._scaled is not None and copy._scaled is None
        assert over == copy
        assert repr(over) == repr(copy)
        assert hash(over) == hash(copy)
