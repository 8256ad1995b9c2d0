"""The gluing oracle against the plain `Fraction` code it replaced.

`reference_recovered_gluing_map` classifies every coset of L/(S + T) one by
one, and `reference_glue` computes the glued Gram matrix over the rationals,
both in the invariant-factor coordinates of the Smith form.
The production `recovered_gluing_map` reads the map back by linearity and
`glue` computes the Gram on integers; both must give the same results on
every anti-isometry.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import pytest

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
)
from k3fm import intmat
from k3fm.bqf import form_to_lattice, principal_form
from k3fm.finite_qform import map_from_images
from k3fm.gluing import GluingDatum, Overlattice
from k3fm.lattice import discriminant_data
from test_integer_forms import reference_classify, smith_view
from test_isometry_reference import images_of


def _dual_coords(lat, coeffs) -> tuple:
    """The dual vector sum c_i g_i as `Fraction`s, g_i the invariant-factor
    generators read off the Smith form: the rational view of
    `gluing._dual_numerators`."""
    _, _, orders, columns = smith_view(lat)
    vec = [Fraction(0)] * lat.rank
    for ci, col, d in zip(coeffs, columns, orders):
        if ci:
            for r, x in enumerate(col):
                vec[r] += Fraction(ci * x, d)
    return tuple(vec)


def reference_glue(s, t, phi):
    GluingDatum(s, t, phi)
    data_s = discriminant_data(s)
    data_t = discriminant_data(t)
    n = s.rank + t.rank
    rows = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    for k in range(data_t.form.ngens):
        unit = tuple(int(i == k) for i in range(data_t.form.ngens))
        rows.append(_dual_coords(s, images_of(phi)[k]) + _dual_coords(t, unit))
    denom = lcm(1, *(x.denominator for row in rows for x in row))
    scaled = tuple(tuple(int(x * denom) for x in row) for row in rows)
    basis_scaled = intmat.hermite_row_basis(scaled)
    assert len(basis_scaled) == n
    basis = tuple(tuple(Fraction(x, denom) for x in row) for row in basis_scaled)
    gram_st = tuple(
        tuple(
            s.gram[i][j] if i < s.rank and j < s.rank
            else t.gram[i - s.rank][j - s.rank] if i >= s.rank and j >= s.rank
            else 0
            for j in range(n)
        )
        for i in range(n)
    )
    gram_frac = intmat.matmul(basis, intmat.matmul(gram_st, intmat.transpose(basis)))
    assert all(x.denominator == 1 for row in gram_frac for x in row)
    gram = tuple(tuple(int(x) for x in row) for row in gram_frac)
    assert all(gram[i][i] % 2 == 0 for i in range(n))
    assert abs(intmat.det(gram)) == 1
    return Overlattice(basis_scaled, denom, gram, data_t.form.order)


def reference_recovered_gluing_map(over, s, t):
    data_s = discriminant_data(s)
    data_t = discriminant_data(t)
    n = s.rank + t.rank
    inv = intmat.inverse(over.ambient_basis)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("S + T is not a sublattice of the overlattice")
    coeffs = tuple(tuple(int(x) for x in row) for row in inv)
    _, d, v = intmat.smith_normal_form(coeffs)
    v_inv = intmat.inverse(v)
    assert all(x.denominator == 1 for row in v_inv for x in row)
    orders = [d[i][i] for i in range(n)]
    gens = [i for i in range(n) if orders[i] > 1]
    graph = {}
    count = 0
    for combo in product(*(range(orders[i]) for i in gens)):
        count += 1
        x = [0] * n
        for c, i in zip(combo, gens):
            for col in range(n):
                x[col] += c * v_inv[i][col]
        vec = intmat.mat_vec(intmat.transpose(over.ambient_basis), tuple(x))
        cls_s = reference_classify(s, vec[: s.rank])
        cls_t = reference_classify(t, vec[s.rank :])
        if cls_t in graph and graph[cls_t] != cls_s:
            raise ValueError("overlattice quotient is not a gluing graph")
        graph[cls_t] = cls_s
    if len(graph) != data_t.form.order or count != over.index:
        raise ValueError("overlattice quotient has the wrong size")
    units = [
        tuple(int(i == k) for i in range(data_t.form.ngens))
        for k in range(data_t.form.ngens)
    ]
    return map_from_images(data_t.form, data_s.form, tuple(graph[u] for u in units), -1)


def _definite_grams(max_det):
    out = []
    for det in range(3, max_det + 1):
        a = 1
        while 3 * a * a <= det:
            for b in range(0, a + 1):
                if (det + b * b) % (4 * a) == 0 and (det + b * b) // (4 * a) >= a:
                    c = (det + b * b) // (4 * a)
                    out.append(((-2 * a, -b), (-b, -2 * c)))
            a += 1
    return out


def _pairs():
    """(S, T) pairs: T = S(-1) for the families, plus T != S(-1)."""
    grams = [((-2 * n,),) for n in range(1, 51)]
    grams += [
        form_to_lattice(principal_form(d)).gram
        for d in range(5, 101)
        if d % 4 in (0, 1) and isqrt(d) ** 2 != d
    ]
    grams += _definite_grams(60)
    grams += [((-4, -2), (-2, -4)), ((-2, 0), (0, -2)), ((-4, 0), (0, -4))]
    pairs = [(make_lattice(g), rescale(make_lattice(g), -1)) for g in grams]
    pairs.append((diagonal_lattice(-2), direct_sum(diagonal_lattice(2), hyperbolic_plane())))
    pairs.append((diagonal_lattice(-6), direct_sum(hyperbolic_plane(), diagonal_lattice(6))))
    return pairs


PAIRS = _pairs()


@pytest.mark.parametrize("s, t", PAIRS, ids=lambda lat: str(list(map(list, lat.gram))))
def test_glue_and_read_back_match_reference(s, t):
    sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
    assert sigmas
    for sigma in sigmas:
        over = glue(s, t, sigma)
        assert over == reference_glue(s, t, sigma)
        assert all(type(x) is Fraction for row in over.ambient_basis for x in row)
        recovered = recovered_gluing_map(over, s, t)
        assert recovered == reference_recovered_gluing_map(over, s, t)
        assert recovered == sigma


def test_pairs_cover_non_cyclic_groups():
    orders = {discriminant_form(s).orders for s, _ in PAIRS}
    assert {(2, 2), (2, 6), (4, 4)} <= orders


def test_quotient_that_is_not_a_graph_raises():
    # L = S + T + (1/2, 1/2) + (1/2, 0): the second glue vector has a zero
    # T-part and a nonzero S-class, so the T-class 0 meets two S-classes
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    over = Overlattice(((1, 0), (0, 1)), 2, ((-1, 0), (0, 1)), 4)
    for read_back in (recovered_gluing_map, reference_recovered_gluing_map):
        with pytest.raises(ValueError, match="not a gluing graph"):
            read_back(over, s, t)


def test_quotient_of_wrong_size_raises():
    s, t = diagonal_lattice(-2), diagonal_lattice(2)
    over = Overlattice(intmat.identity(2), 1, direct_sum(s, t).gram, 1)
    for read_back in (recovered_gluing_map, reference_recovered_gluing_map):
        with pytest.raises(ValueError, match="wrong size"):
            read_back(over, s, t)
