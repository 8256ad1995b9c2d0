"""The double-coset count without -I among the generators of O(S), the
determinant test of generation on a p-part, and the walk on a 2-part with
a non-abelian O(A_2), each against a whole-group reference that keeps -I,
or against the Hermite test of generation."""

from itertools import product
from math import isqrt

import pytest

from k3fm import (
    bqf,
    discriminant_form,
    double_coset_count,
    form_to_lattice,
    gluing_classes,
    induced_form_map,
    isometries_signed,
    make_lattice,
    orthogonal_group,
    proper_classes,
    rescale,
)
from k3fm.bqf import fold_classes
from k3fm import intmat
from k3fm.finite_qform import FiniteQuadraticForm, Part, _generates, double_coset_count_by_parts
from k3fm.fm_count import (
    GENERIC_HODGE,
    carried_hodge_generators,
    coset_summand,
    hodge_generators,
    isometry_image_generators,
)

# D = 660: A_S = Z/2 + Z/330, and O(A_2) on (Z/2)^2 has order 6
D660 = ((-3044, -10022), (-10022, -32996))


def o_s_with_minus_identity(s) -> list:
    """The image of O(S) from every generator `bqf` gives, -I included."""
    return [induced_form_map(s, m) for m in bqf.lattice_isometry_generators(s)]


def reference_summand(s) -> int:
    a = discriminant_form(s)
    k_gens = carried_hodge_generators(a, GENERIC_HODGE)
    return double_coset_count(orthogonal_group(a), o_s_with_minus_identity(s), k_gens)


def reference_gluing_orbits(s, t) -> int:
    """Orbits of sigma -> h o sigma o g on the anti-isometries A_T -> A_S, with
    h over the image of O(S), -I included, and g over the Hodge group."""
    sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
    h_maps = o_s_with_minus_identity(s)
    g_maps = hodge_generators(discriminant_form(t), GENERIC_HODGE)
    seen, count = set(), 0
    for start in sigmas:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            sigma = frontier.pop()
            for nxt in [h.compose(sigma) for h in h_maps] + [sigma.compose(g) for g in g_maps]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return count


def hyperbolic_classes(d: int) -> list:
    """One lattice per GL2-class of discriminant d."""
    cgd = proper_classes(d)
    reps = cgd.reps
    return [form_to_lattice(reps[orbit[0]]) for orbit in fold_classes(cgd, range(cgd.h))]


def non_cyclic_members(bound: int) -> list:
    out = []
    for d in range(5, bound + 1):
        if d % 4 in (0, 1) and isqrt(d) ** 2 != d:
            out += [s for s in hyperbolic_classes(d) if discriminant_form(s).ngens > 1]
    return out


def definite_grams(bound: int) -> list:
    """The reduced even definite rank-2 Grams of det <= bound, both signs."""
    out = []
    for a in range(1, isqrt(bound // 3) + 1):
        for b in range(0, a + 1):
            c = a
            while 4 * a * c - b * b <= bound:
                out += [((2 * a, b), (b, 2 * c)), ((-2 * a, -b), (-b, -2 * c))]
                c += 1
    return out


def test_minus_identity_leaves_the_image_generators():
    for gram in (D660, ((4, 2), (2, -112)), ((2, 1), (1, -52)), ((-6,),)):
        s = make_lattice(gram)
        a = discriminant_form(s)
        matrices = bqf.lattice_isometry_generators(s)
        minus = tuple(tuple(-int(i == j) for j in range(s.rank)) for i in range(s.rank))
        assert minus in matrices
        assert len(isometry_image_generators(s, a)) == len(matrices) - 1


def test_counts_without_minus_identity_on_every_non_cyclic_genus_up_to_1500():
    members = non_cyclic_members(1500)
    assert len(members) > 200
    for s in members:
        assert coset_summand(s) == reference_summand(s), s.gram


def test_counts_without_minus_identity_on_definite_rank_two():
    grams = definite_grams(200)
    assert len(grams) > 300
    for gram in grams:
        s = make_lattice(gram)
        assert coset_summand(s) == reference_summand(s), gram


def test_gluing_orbits_without_minus_identity():
    lattices = [make_lattice(g) for g in definite_grams(60)] + non_cyclic_members(300)
    lattices.append(make_lattice(D660))
    for s in lattices:
        t = rescale(s, -1)
        assert gluing_classes(s, t).count == reference_gluing_orbits(s, t), s.gram


def hermite_generates(orders, images) -> bool:
    """Whether the images generate Z/d_1 + ... + Z/d_k: exactly when the rows
    of the images and of diag(orders) span Z^k."""
    diag = intmat.identity(len(orders))
    rows = tuple(images) + tuple(tuple(d * e for e in row) for d, row in zip(orders, diag))
    return intmat.hermite_row_basis(rows) == diag


@pytest.mark.parametrize(
    "orders, p",
    [((2,), 2), ((8,), 2), ((9,), 3), ((2, 2), 2), ((2, 4), 2), ((4, 4), 2), ((2, 2, 2), 2),
     ((3, 3), 3), ((3, 9), 3)],
)
def test_determinant_mod_p_equals_the_hermite_test(orders, p):
    part = Part(p, orders, (0,) * len(orders), ((0,) * len(orders),) * len(orders))
    elements = list(product(*(range(d) for d in orders)))
    generating = 0
    for images in product(elements, repeat=len(orders)):
        expected = hermite_generates(orders, images)
        assert _generates(part, images) == expected, images
        generating += expected
    assert generating > 0


def test_walk_on_the_660_lattice_equals_the_whole_group():
    s = make_lattice(D660)
    a = discriminant_form(s)
    assert a.orders == (2, 330)
    two = FiniteQuadraticForm(*a.parts[0][1:])
    assert two.orders == (2, 2)
    assert len(isometries_signed(two, two, 1)) == 6
    whole = orthogonal_group(a)
    assert len(whole) == 48
    for h in whole:
        for k in whole:
            assert double_coset_count_by_parts(a, [h], [k]) == double_coset_count(whole, [h], [k])
    assert coset_summand(s) == reference_summand(s) == 2
