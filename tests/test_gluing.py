from fractions import Fraction

import pytest

from k3fm import (
    GluingDatum,
    HodgeGroupSpec,
    IntegerLattice,
    Overlattice,
    diagonal_lattice,
    direct_sum,
    discriminant_form,
    e8_lattice,
    form_to_lattice,
    genus_lattices,
    genus_representative_forms,
    glue,
    gluing_classes,
    hyperbolic_plane,
    isometries_signed,
    make_lattice,
    negation_map,
    orthogonal_group,
    recovered_gluing_map,
    rescale,
    signature,
    verify_gluing_counts,
    verify_overlattice,
)
from k3fm import intmat
from k3fm.finite_qform import FiniteFormMap, trivial_form


def anti_isometries(s, t):
    return isometries_signed(discriminant_form(t), discriminant_form(s), -1)


def test_glue_rank1_example():
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    sigmas = anti_isometries(s, t)
    assert len(sigmas) == 1
    over = glue(s, t, sigmas[0])
    assert over.gram == ((0, 1), (1, 2))
    assert over.index == 2
    assert intmat.det(over.gram) == -1


def test_glue_trivial_discriminants():
    s, t = rescale(e8_lattice(), -1), e8_lattice()
    phi = FiniteFormMap(trivial_form(), trivial_form(), (), -1)
    over = glue(s, t, phi)
    assert over.index == 1
    assert over.gram == direct_sum(s, t).gram
    assert verify_overlattice(over, s, t).all_ok


def test_glue_rank2_hyperbolic():
    s = make_lattice([[2, 1], [1, -2]])
    t = rescale(s, -1)
    sigmas = anti_isometries(s, t)
    assert len(sigmas) == len(orthogonal_group(discriminant_form(s)))
    for sigma in sigmas:
        over = glue(s, t, sigma)
        glued = IntegerLattice(over.gram)
        assert abs(glued.det) == 1
        assert glued.is_even
        assert signature(glued).as_pair() == (2, 2)
        assert over.index == 5
        assert over.index**2 * abs(glued.det) == abs(s.det * t.det)
        assert verify_overlattice(over, s, t).all_ok
        assert recovered_gluing_map(over, s, t) == sigma


def test_glue_rejects_bad_map():
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    a_s, a_t = discriminant_form(s), discriminant_form(t)
    not_anti = FiniteFormMap(a_t, a_s, ((1,),), 1)
    with pytest.raises(ValueError, match="negate"):
        glue(s, t, not_anti)
    with pytest.raises(ValueError, match="A_T to A_S"):
        GluingDatum(s, t, FiniteFormMap(a_s, a_s, ((1,),), -1))


def test_verify_overlattice_negative_case():
    s, t = diagonal_lattice(-4), diagonal_lattice(4)
    over = Overlattice(intmat.identity(2), 1, direct_sum(s, t).gram, 1)  # S + T, unglued
    report = verify_overlattice(over, s, t)
    assert report.even
    assert not report.unimodular


def test_gluing_classes_examples():
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    assert gluing_classes(s, t).count == 1
    s8, t8 = rescale(e8_lattice(), -1), e8_lattice()
    assert gluing_classes(s8, t8).count == 1
    # per genus representative of det -229, the orbit count is 1
    s229 = form_to_lattice(genus_representative_forms(make_lattice([[2, 1], [1, -114]]))[0])
    t229 = rescale(s229, -1)
    assert gluing_classes(s229, t229).count == 1


def test_rank1_family_counts():
    for n in range(1, 21):
        s, t = diagonal_lattice(-2 * n), diagonal_lattice(2 * n)
        report = verify_gluing_counts([s], t)
        assert report.all_equal
        assert report.total_orbits == report.rows[0].orbit_count


def test_incompatible_pair_raises():
    s = diagonal_lattice(-2)
    t = diagonal_lattice(6)
    with pytest.raises(ValueError, match="no gluing exists"):
        verify_gluing_counts([s], t)


def test_definite_pair():
    a2_neg = make_lattice([[-2, 1], [1, -2]])
    a2 = rescale(a2_neg, -1)
    sigmas = anti_isometries(a2_neg, a2)
    assert sigmas
    for sigma in sigmas:
        over = glue(a2_neg, a2, sigma)
        assert abs(intmat.det(over.gram)) == 1
        assert verify_overlattice(over, a2_neg, a2).all_ok
        assert recovered_gluing_map(over, a2_neg, a2) == sigma
    report = verify_gluing_counts([a2_neg], a2)
    assert report.all_equal


def test_definite_genus_lattices():
    a2_neg = make_lattice([[-2, 1], [1, -2]])
    reps = genus_lattices(a2_neg)
    assert len(reps) == 1
    assert reps[0].det == a2_neg.det


def test_gluing_classes_unsupported_rank():
    from k3fm import UnsupportedError, diagonal_lattice as diag

    s = diag(2, -2, -2)
    t = diag(-2, 2, 2)
    with pytest.raises(UnsupportedError, match="rank"):
        gluing_classes(s, t)


def test_multi_genus_verify():
    # det -5 hyperbolic: single genus, one class
    s = make_lattice([[2, 1], [1, -2]])
    t = rescale(s, -1)
    reps = [form_to_lattice(f) for f in genus_representative_forms(s)]
    report = verify_gluing_counts(reps, t)
    assert report.all_equal
    assert report.total_orbits == 1


def test_explicit_action_consistency():
    s = make_lattice([[2, 1], [1, -2]])
    t = rescale(s, -1)
    a_t = discriminant_form(t)
    neg = negation_map(a_t)
    generic = verify_gluing_counts([s], t)
    explicit = verify_gluing_counts([s], t, HodgeGroupSpec(2, neg))
    assert explicit.all_equal
    assert explicit.total_orbits == generic.total_orbits


def test_orbit_coset_sweep_small_discriminants():
    from math import isqrt

    from k3fm import NeronSeveriSpec, fm_number_rank2
    from k3fm.bqf import principal_form

    for d in range(5, 81):
        if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
            continue
        s = form_to_lattice(principal_form(d))
        reps = [form_to_lattice(f) for f in genus_representative_forms(s)]
        report = verify_gluing_counts(reps, rescale(s, -1))
        assert report.all_equal, f"orbit/coset mismatch at D={d}"
        assert fm_number_rank2(NeronSeveriSpec(s)).total == report.total_orbits


def test_engine_matches_oracle_on_composite_discriminants():
    # summands larger than 1 appear for composite square-free determinants,
    # where O(A) is strictly bigger than {+-id}; the counting engine and the
    # orbit enumeration must agree representative by representative
    from k3fm import NeronSeveriSpec, fm_number_rank2, proper_classes
    from k3fm.bqf import principal_form

    expected = {65: (2, [2]), 105: (2, [2]), 205: (2, [1, 1])}
    for d, (total, summands) in expected.items():
        s = form_to_lattice(principal_form(d))
        result = fm_number_rank2(NeronSeveriSpec(s))
        assert result.total == total
        assert [x for _, x in result.breakdown] == summands
        reps = [form_to_lattice(f) for f in genus_representative_forms(s)]
        report = verify_gluing_counts(reps, rescale(s, -1))
        assert report.all_equal
        assert report.total_orbits == result.total
        assert [r.orbit_count for r in report.rows] == summands


def test_isotropic_rank2_isomorphism_matches_brute_force():
    # every even Gram of determinant -f^2 is isometric to [[0, f], [f, 2r]]
    # with 0 <= r < f; join those by integer base changes with entries of
    # size at most 7 and compare the classes with the isomorphism test
    from itertools import product

    from test_gluing_integer import _rank2_isomorphic

    unimodular = [
        ((a, b), (c, d))
        for a, b, c, d in product(range(-7, 8), repeat=4)
        if abs(a * d - b * c) == 1
    ]
    for f in range(1, 8):
        grams = [((0, f), (f, 2 * r)) for r in range(f)]
        cls = list(range(f))
        for mat in unimodular:
            for r, g in enumerate(grams):
                h = intmat.matmul(intmat.transpose(mat), intmat.matmul(g, mat))
                if h[0][0] == 0 and h[0][1] == f and 0 <= h[1][1] < 2 * f:
                    old, new = cls[h[1][1] // 2], cls[r]
                    cls = [new if c == old else c for c in cls]
        for r1, r2 in product(range(f), repeat=2):
            assert _rank2_isomorphic(grams[r1], grams[r2]) == (cls[r1] == cls[r2]), (f, r1, r2)
