from math import gcd, isqrt

import pytest

from k3fm import (
    are_isometric,
    cycle,
    discriminant_form,
    form_to_lattice,
    fundamental_automorph,
    hyperbolic_plane,
    improper_automorph,
    is_properly_equivalent,
    is_reduced,
    lattice_to_form,
    make_lattice,
    opposite,
    pell_fundamental,
    proper_classes,
    reduce_form,
)
from k3fm import bqf as bqf_module
from k3fm import intmat
from k3fm.cli import main
from k3fm.errors import UnsupportedError
from k3fm.bqf import (
    BinaryQuadraticForm,
    class_index_of,
    enumerate_reduced,
    fold_classes,
    genus_representative_forms,
    gram_of,
    principal_form,
)

PAPER_H = {
    229: 3, 257: 3, 401: 5, 577: 7, 733: 3, 761: 3, 1009: 7,
    1093: 5, 1129: 9, 1229: 3, 1297: 11, 1373: 3, 1429: 5, 1489: 3,
}


def pell4_brute(d, u_limit=10**7):
    """Exhaustive search over u for the minimal solution of t^2 - d u^2 = 4."""
    for u in range(1, u_limit):
        s = d * u * u + 4
        r = isqrt(s)
        if r * r == s:
            return r, u
    raise AssertionError("brute-force Pell search exhausted")


def test_form_rejects_square_discriminant():
    with pytest.raises(ValueError, match="isotropic"):
        BinaryQuadraticForm(0, 1, 0)  # disc 1
    with pytest.raises(ValueError, match="isotropic"):
        BinaryQuadraticForm(1, 2, -3)  # disc 16
    with pytest.raises(ValueError, match="isotropic"):
        BinaryQuadraticForm(1, 1, 1)  # disc -3 < 0


def test_lattice_to_form_examples():
    assert lattice_to_form(make_lattice([[2, 1], [1, -2]])) == BinaryQuadraticForm(1, 1, -1)
    f = lattice_to_form(make_lattice([[2, 1], [1, -648]]))
    assert f == BinaryQuadraticForm(1, 1, -324)
    assert f.disc == 1297
    with pytest.raises(ValueError, match="isotropic"):
        lattice_to_form(hyperbolic_plane())
    with pytest.raises(ValueError, match="even"):
        lattice_to_form(make_lattice([[1, 0], [0, -1]]))
    with pytest.raises(ValueError, match="hyperbolic"):
        lattice_to_form(make_lattice([[2, 1], [1, 2]]))
    with pytest.raises(ValueError, match="rank"):
        lattice_to_form(make_lattice([[2]]))


def test_form_to_lattice_round_trip():
    assert form_to_lattice(BinaryQuadraticForm(1, 1, -1)).gram == ((2, 1), (1, -2))
    f = BinaryQuadraticForm(1, 1, -324)
    assert lattice_to_form(form_to_lattice(f)) == f
    assert form_to_lattice(BinaryQuadraticForm(3, 1, -19)).det == -229


def test_reduce_examples():
    f = BinaryQuadraticForm(1, 1, -1)
    out = reduce_form(f)
    assert out.form == f and out.transform == intmat.identity(2)
    # (1, 15, -1) of disc 229 is already reduced
    assert is_reduced(BinaryQuadraticForm(1, 15, -1))
    # a non-reduced form: check the recorded transform identity
    g = BinaryQuadraticForm(17, 5, -1)
    assert not is_reduced(g)
    out = reduce_form(g)
    assert is_reduced(out.form)
    m = out.transform
    assert intmat.det(m) == 1
    lhs = intmat.matmul(intmat.transpose(m), intmat.matmul(gram_of(g), m))
    assert lhs == gram_of(out.form)
    assert reduce_form(BinaryQuadraticForm(-1, 1, 1)).form == BinaryQuadraticForm(-1, 1, 1)


def test_cycle_d5():
    cyc = cycle(BinaryQuadraticForm(1, 1, -1))
    assert set(cyc) == {BinaryQuadraticForm(1, 1, -1), BinaryQuadraticForm(-1, 1, 1)}
    with pytest.raises(ValueError, match="not reduced"):
        cycle(BinaryQuadraticForm(17, 5, -1))


def test_cycle_properties_small_d():
    for d in range(5, 201):
        if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
            continue
        reduced = enumerate_reduced(d)
        seen = set()
        for f in reduced:
            assert f.disc == d
            if f in seen:
                continue
            cyc = cycle(f)
            assert len(cyc) % 2 == 0
            assert all(is_reduced(g) for g in cyc)
            seen.update(cyc)
        assert seen == set(reduced)


def test_class_numbers_match_table():
    for p, h in PAPER_H.items():
        assert proper_classes(p).h == h


def test_class_numbers_small():
    assert proper_classes(5).h == 1
    assert proper_classes(13).h == 1
    assert proper_classes(8).h == 1


def test_opposite():
    f = BinaryQuadraticForm(1, 1, -1)
    assert opposite(f) == BinaryQuadraticForm(1, -1, -1)
    assert opposite(opposite(f)) == f
    assert opposite(BinaryQuadraticForm(3, 1, -19)).disc == 229


def test_proper_equivalence():
    f = BinaryQuadraticForm(1, 1, -1)
    g = BinaryQuadraticForm(-1, 1, 1)
    eq, w = is_properly_equivalent(f, g, witness=True)
    assert eq
    assert intmat.det(w) == 1
    assert intmat.matmul(intmat.transpose(w), intmat.matmul(gram_of(f), w)) == gram_of(g)
    cgd = proper_classes(229)
    reps = cgd.reps
    assert not is_properly_equivalent(reps[0], reps[1])
    with pytest.raises(ValueError, match="discriminant"):
        is_properly_equivalent(BinaryQuadraticForm(1, 1, -1), BinaryQuadraticForm(1, 3, -1))


def test_neighbor_equivalence():
    f = BinaryQuadraticForm(1, 1, -1)
    g = cycle(f)[1]
    assert is_properly_equivalent(f, g)


def test_pell_examples():
    assert pell_fundamental(5) == (3, 1)
    auto = fundamental_automorph(BinaryQuadraticForm(1, 1, -1))
    assert auto == ((1, 1), (1, 2))
    assert intmat.det(auto) == 1


def test_pell_minimality_small():
    for d in range(5, 60):
        if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
            continue
        assert pell_fundamental(d) == pell4_brute(d)


def test_automorph_identities():
    for d in (5, 8, 13, 17, 21, 24, 28, 229):
        f = principal_form(d)
        auto = fundamental_automorph(f)
        g = gram_of(f)
        assert intmat.matmul(intmat.transpose(auto), intmat.matmul(g, auto)) == g
        assert intmat.det(auto) == 1
        assert auto not in (intmat.identity(2), intmat.scale(intmat.identity(2), -1))


def test_imprimitive_automorph_generator():
    f = BinaryQuadraticForm(2, 2, -2)  # content 2, disc 20
    gen = fundamental_automorph(f)
    g = gram_of(f)
    assert intmat.matmul(intmat.transpose(gen), intmat.matmul(g, gen)) == g
    # the generator comes from the primitive part (disc 5), a cube root of
    # the minimal disc-20 automorph
    assert gen == ((1, 1), (1, 2))
    t20, u20 = pell_fundamental(20)
    cube = intmat.matmul(gen, intmat.matmul(gen, gen))
    assert cube[0][0] + cube[1][1] == t20 and cube[1][0] == 2 * u20


def test_improper_automorph():
    present = improper_automorph(BinaryQuadraticForm(1, 1, -1))
    assert present is not None
    g = gram_of(BinaryQuadraticForm(1, 1, -1))
    assert intmat.matmul(intmat.transpose(present), intmat.matmul(g, present)) == g
    assert intmat.det(present) == -1

    for d in (5, 8, 13, 17, 229):
        f = principal_form(d)
        assert improper_automorph(f) is not None

    cgd = proper_classes(229)
    non_ambiguous = [i for i in range(cgd.h) if i not in cgd.ambiguous_indices]
    assert len(non_ambiguous) == 2
    rep = cgd.reps[non_ambiguous[0]]
    assert improper_automorph(rep) is None


def test_fold_consistency():
    # the GL2 classes are the proper ones folded under the opposite involution
    gl2 = {}
    for d in (5, 8, 13, 17, 21, 229, 401, 205, 1297):
        cgd = proper_classes(d)
        gl2[d] = len(fold_classes(cgd, range(cgd.h)))
        assert cgd.h == 2 * gl2[d] - len(cgd.ambiguous_indices)
    assert (gl2[229], gl2[1297], gl2[5]) == (2, 6, 1)


def test_genus_partition_prime():
    for p in (229, 401):
        cgd = proper_classes(p)
        assert cgd.genus_partition == (tuple(range(cgd.h)),)


def test_genus_partition_composite():
    cgd = proper_classes(205)  # 5 * 41
    assert len(cgd.genus_partition) == 2
    sizes = {len(p) for p in cgd.genus_partition}
    assert len(sizes) == 1
    assert len(cgd.ambiguous_indices) == 2


def test_genus_representatives_match_disc_form():
    lat = make_lattice([[2, 1], [1, -2]])
    reps = genus_representative_forms(lat)
    assert len(reps) == 1
    target = discriminant_form(lat)
    for rep in reps:
        assert are_isometric(discriminant_form(form_to_lattice(rep)), target)


def test_class_index_of():
    cgd = proper_classes(229)
    f = BinaryQuadraticForm(1, 15, -1)
    idx = class_index_of(cgd, f)
    assert f in cgd.cycles[idx]


def test_proper_classes_invalid_discriminant():
    with pytest.raises(ValueError, match="0 or 1 mod 4"):
        proper_classes(6)
    with pytest.raises(UnsupportedError, match="^unsupported: square discriminant D = 9 "):
        proper_classes(9)
    with pytest.raises(ValueError, match="positive"):
        proper_classes(-4)


def test_genus_partition_function():
    assert proper_classes(229).genus_partition == (tuple(range(3)),)


def window_automorphs(gram, bound):
    """All isometry matrices of a rank-2 Gram with entries in [-bound, bound],
    by column enumeration."""
    p, q, r = gram[0][0], gram[0][1], gram[1][1]
    span = range(-bound, bound + 1)
    cols0 = [(x, y) for x in span for y in span if p * x * x + 2 * q * x * y + r * y * y == p]
    cols1 = [(x, y) for x in span for y in span if p * x * x + 2 * q * x * y + r * y * y == r]
    out = []
    for v in cols0:
        for w in cols1:
            cross = p * v[0] * w[0] + q * (v[0] * w[1] + v[1] * w[0]) + r * v[1] * w[1]
            if cross == q:
                out.append(((v[0], w[0]), (v[1], w[1])))
    return out


def test_isometry_generators_cover_window():
    # every lattice isometry found in a brute-force window must induce a
    # discriminant action inside the subgroup generated by the advertised
    # generators: -I, the proper automorph generator, the improper automorph
    from k3fm import (
        discriminant_form,
        induced_form_map,
        orthogonal_group,
        subgroup_generated,
    )
    from k3fm.bqf import lattice_isometry_generators

    for gram in (((2, 1), (1, -2)), ((2, 2), (2, -2)), ((4, 2), (2, -4)), ((2, 1), (1, -16))):
        lat = make_lattice([list(r) for r in gram])
        group = orthogonal_group(discriminant_form(lat))
        gens = [induced_form_map(lat, m) for m in lattice_isometry_generators(lat)]
        closure = set(subgroup_generated(group, gens))
        found = window_automorphs(gram, 40)
        assert len(found) >= 2
        for m in found:
            assert induced_form_map(lat, m) in closure


def generated_group(gens) -> set:
    """The closure of a set of 2x2 integer matrices under multiplication."""
    group = {intmat.identity(2)}
    frontier = list(group)
    while frontier:
        m = frontier.pop()
        for g in gens:
            p = intmat.matmul(m, g)
            if p not in group:
                group.add(p)
                frontier.append(p)
    return group


def test_definite_isometries_are_the_whole_group():
    # by x^2 <= max(p, r) r / det no isometry entry here exceeds 3, so the
    # window of 6 holds every isometry of |G|; the generators must generate
    # exactly that group, -I first and with at most one improper element
    checked = 0
    for a in range(1, 13):
        for c in range(a, 13):
            for b in range(-2 * a, 2 * a + 1):
                if 4 * a * c - b * b <= 0:
                    continue
                gram = ((2 * a, b), (b, 2 * c))
                expected = set(window_automorphs(gram, 6))
                for sign in (1, -1):
                    lat = make_lattice([[sign * x for x in row] for row in gram])
                    gens = bqf_module.lattice_isometry_generators(lat)
                    assert gens[0] == ((-1, 0), (0, -1)) and len(gens) <= 3, gram
                    assert sum(intmat.det(m) == -1 for m in gens) <= 1, gram
                    assert generated_group(gens) == expected, gram
                checked += 1
    assert checked == 1510


def test_isometry_generators_in_rank_one_and_three():
    assert bqf_module.lattice_isometry_generators(make_lattice([[-6]])) == (((-1,),),)
    with pytest.raises(UnsupportedError, match="rank"):
        bqf_module.lattice_isometry_generators(make_lattice([[2, 0, 0], [0, -2, 0], [0, 0, -2]]))


_TRUE_STEP = bqf_module._step


def _stuck_step(b, c, d, root):
    """The true neighbor step with b' negated: D is kept, but the walk swings
    between two forms that do not contain its start, so it never closes."""
    bp, cp, s = _TRUE_STEP(b, c, d, root)
    return -bp, cp, s


def test_cycle_that_never_closes_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(bqf_module, "_step", _stuck_step)
    assert main(["genus", "205"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "k3fm: internal check failed: cycle of discriminant 205 did not close\n"


def test_equivalence_walk_that_never_closes_raises(monkeypatch):
    f, g = BinaryQuadraticForm(-3, 13, 3), BinaryQuadraticForm(-1, 13, 9)  # both reduced, D = 205
    assert is_reduced(f) and is_reduced(g)
    monkeypatch.setattr(bqf_module, "_step", _stuck_step)
    with pytest.raises(RuntimeError, match="did not close"):
        is_properly_equivalent(f, g)
    with pytest.raises(RuntimeError, match="did not close"):
        cycle(f)
    with pytest.raises(RuntimeError, match="did not close"):
        pell_fundamental(205)


def full_walk(a0, b0, c, d, root):
    """The cycle through (a0, b0, c), walked until it returns to its start."""
    out = [(a0, b0, c)]
    a, (b, c, _) = c, _TRUE_STEP(b0, c, d, root)
    while (a, b) != (a0, b0):
        out.append((a, b, c))
        a, (b, c, _) = c, _TRUE_STEP(b, c, d, root)
    return tuple(out)


# every cycle of a D with N(eps) = -1 meets its negation, and none of a D
# with N(eps) = +1 does: 1000005 = 3 * 5 * 66667 and x^2 - D y^2 = -4 has no
# solution mod 3
@pytest.mark.parametrize(
    "d, halved", [(5, True), (229, True), (32045, True), (12, False), (221, False), (1000005, False)]
)
def test_cycle_triples_are_the_full_walk(monkeypatch, d, halved):
    steps = []

    def counted_step(b, c, d, root):
        steps.append(b)
        return _TRUE_STEP(b, c, d, root)

    monkeypatch.setattr(bqf_module, "_step", counted_step)
    root = isqrt(d)
    seen = set()
    for a0, b0, c0 in bqf_module._reduced_triples(d):
        if (a0, b0, c0) in seen:
            continue
        steps.clear()
        cyc = bqf_module._cycle_triples(a0, b0, c0, d, root)
        assert cyc == full_walk(a0, b0, c0, d, root), (d, a0, b0, c0)
        assert ((-a0, b0, -c0) in cyc) == halved, (d, a0, b0, c0)
        # a halved cycle stops at the negated start, half way round
        assert len(steps) == (len(cyc) // 2 if halved else len(cyc))
        seen.update(cyc)
    assert seen == set(bqf_module._reduced_triples(d))


def test_cycle_walk_limit_bounds_the_walked_steps(monkeypatch):
    # (-9, 7, 5) of D = 229: six forms, three walked; (-7, 3, 7) of
    # D = 205: four forms, all walked
    for (a, b, c), d, walked, size in (((-9, 7, 5), 229, 3, 6), ((-7, 3, 7), 205, 4, 4)):
        monkeypatch.setattr(bqf_module, "_walk_limit", lambda root: walked)
        assert len(bqf_module._cycle_triples(a, b, c, d, isqrt(d))) == size
        monkeypatch.setattr(bqf_module, "_walk_limit", lambda root: walked - 1)
        with pytest.raises(RuntimeError, match=f"cycle of discriminant {d} did not close"):
            bqf_module._cycle_triples(a, b, c, d, isqrt(d))
