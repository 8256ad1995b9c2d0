"""The integer-triple reduction walk against the object walk it replaced.

The reference functions below step `BinaryQuadraticForm` objects and multiply
nested-tuple matrices, test reducedness by comparing squares, and sort forms
by their coefficients.  The production walk in `k3fm.bqf` must return the
same forms, transforms, cycles, class data, Pell solutions and lattice
isometry generators.
"""

from math import isqrt

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_arith import divisors

from k3fm import intmat
from k3fm.bqf import (
    BinaryQuadraticForm,
    automorph_matrix,
    cycle,
    enumerate_reduced,
    form_to_lattice,
    genus_key,
    is_properly_equivalent,
    is_reduced,
    lattice_isometry_generators,
    opposite,
    pell_fundamental,
    principal_form,
    proper_classes,
    reduce_form,
)


def ref_is_reduced(f):
    d = f.disc
    b = f.b
    if b <= 0 or b * b >= d:
        return False
    ta = 2 * abs(f.a)
    if (ta + b) ** 2 <= d:
        return False
    if ta > b and (ta - b) ** 2 >= d:
        return False
    return True


def ref_rho(f):
    d = f.disc
    c = f.c
    ac = abs(c)
    if c * c > d:
        bp = (-f.b) % (2 * ac)
        if bp > ac:
            bp -= 2 * ac
    else:
        root = isqrt(d)
        bp = root - (root + f.b) % (2 * ac)
    s, rem = divmod(f.b + bp, 2 * c)
    assert rem == 0
    cp, rem = divmod(bp * bp - d, 4 * c)
    assert rem == 0
    return BinaryQuadraticForm(c, bp, cp), ((0, -1), (1, s))


def ref_reduce_form(f):
    cur = f
    m = intmat.identity(2)
    while not ref_is_reduced(cur):
        cur, step = ref_rho(cur)
        m = intmat.matmul(m, step)
    return cur, m


def ref_cycle(f):
    assert ref_is_reduced(f)
    out = [f]
    cur, _ = ref_rho(f)
    while cur != f:
        out.append(cur)
        cur, _ = ref_rho(cur)
    return tuple(out)


def ref_enumerate_reduced(d):
    out = []
    for b in range(1, isqrt(d) + 1):
        if (b - d) % 2:
            continue
        n = (d - b * b) // 4
        for a in divisors(n):
            g = BinaryQuadraticForm(a, b, -(n // a))
            if ref_is_reduced(g):
                out.append(g)
                out.append(BinaryQuadraticForm(-a, b, n // a))
    return tuple(sorted(out, key=lambda f: f.coefficients()))


def ref_is_properly_equivalent(f, g, witness=False):
    rf, mf = ref_reduce_form(f)
    rg, mg = ref_reduce_form(g)
    cur = rf
    trans = intmat.identity(2)
    while True:
        if cur == rg:
            if not witness:
                return True
            mg_inv = ((mg[1][1], -mg[0][1]), (-mg[1][0], mg[0][0]))
            return True, intmat.matmul(intmat.matmul(mf, trans), mg_inv)
        cur, step = ref_rho(cur)
        trans = intmat.matmul(trans, step)
        if cur == rf:
            return (False, None) if witness else False


def ref_pell_fundamental(d):
    f0 = principal_form(d)
    cur, m = ref_rho(f0)
    while cur != f0:
        cur, step = ref_rho(cur)
        m = intmat.matmul(m, step)
    t = m[0][0] + m[1][1]
    if t < 0:
        m = intmat.scale(m, -1)
        t = -t
    u = m[1][0]
    if u < 0:
        u = -u
    assert u and t * t - d * u * u == 4
    return t, u


def ref_proper_classes(d):
    """(cycles, genus partition, opposite map) from the reference walk."""
    reduced = ref_enumerate_reduced(d)
    remaining = set(reduced)
    cycles = []
    for f in reduced:
        if f in remaining:
            cyc = ref_cycle(f)
            cycles.append(cyc)
            remaining -= set(cyc)
    index_of = {f: i for i, cyc in enumerate(cycles) for f in cyc}
    genera = {}
    for i, cyc in enumerate(cycles):
        genera.setdefault(genus_key(cyc[0]), []).append(i)
    opp = tuple(index_of[ref_reduce_form(opposite(cyc[0]))[0]] for cyc in cycles)
    return tuple(cycles), tuple(tuple(p) for p in genera.values()), opp


def ref_isometry_generators(f):
    g = f.content
    prim = BinaryQuadraticForm(f.a // g, f.b // g, f.c // g)
    gens = [((-1, 0), (0, -1)), automorph_matrix(prim, *ref_pell_fundamental(prim.disc))]
    eq, w = ref_is_properly_equivalent(f, opposite(f), witness=True)
    if eq:
        gens.append(intmat.matmul(w, ((1, 0), (0, -1))))
    return tuple(gens)


def shifted(f, k):
    """f under [[1, k], [0, 1]]: a non-reduced form of the same class."""
    return BinaryQuadraticForm(f.a, f.b + 2 * f.a * k, f.a * k * k + f.b * k + f.c)


def valid_discriminants(bound):
    return [d for d in range(5, bound + 1) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]


def test_walk_matches_reference_for_every_discriminant_up_to_3000():
    for d in valid_discriminants(3000):
        reduced = enumerate_reduced(d)
        assert reduced == ref_enumerate_reduced(d), d
        assert all(is_reduced(f) == ref_is_reduced(f) for f in reduced)
        cgd = proper_classes(d)
        assert (cgd.cycles, cgd.genus_partition, cgd.opposite) == ref_proper_classes(d), d
        assert pell_fundamental(d) == ref_pell_fundamental(d), d
        for cyc in cgd.cycles:
            rep = cyc[0]
            assert cycle(rep) == ref_cycle(rep)
            for g in (opposite(rep), shifted(rep, 7), shifted(opposite(rep), -3)):
                out = reduce_form(g)
                assert (out.form, out.transform) == ref_reduce_form(g), (d, g)
            assert is_properly_equivalent(rep, opposite(rep), witness=True) == (
                ref_is_properly_equivalent(rep, opposite(rep), witness=True)
            )
            lat = form_to_lattice(rep)
            assert lattice_isometry_generators(lat) == ref_isometry_generators(rep), (d, rep)


coefficient = st.integers(min_value=-(10**6), max_value=10**6)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(coefficient, coefficient, coefficient, st.integers(0, 6), st.integers(-40, 40))
def test_reduce_and_witness_match_reference_on_large_forms(a, b, c, k, j):
    d = b * b - 4 * a * c
    assume(d > 0 and isqrt(d) ** 2 != d)
    f = BinaryQuadraticForm(a, b, c)
    out = reduce_form(f)
    assert (out.form, out.transform) == ref_reduce_form(f)
    # a form k steps along the cycle of f, then a non-reduced SL2 image of
    # it: a cycle can have ~sqrt(D) forms, so the target stays near the start
    g = out.form
    for _ in range(k):
        g, _ = ref_rho(g)
    for other in (g, shifted(g, j)):
        assert is_properly_equivalent(f, other, witness=True) == ref_is_properly_equivalent(
            f, other, witness=True
        )
