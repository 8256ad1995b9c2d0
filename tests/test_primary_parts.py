"""The double cosets counted one p-part at a time against the whole-group
count: `double_coset_count_by_parts` must equal
`double_coset_count(orthogonal_group(A), ...)` wherever both run."""

from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3fm import (
    HodgeGroupSpec,
    NeronSeveriSpec,
    cyclic_form,
    discriminant_form,
    double_coset_count,
    fm_number,
    fm_number_rank1,
    form_to_lattice,
    genus_representative_forms,
    induced_form_map,
    intmat,
    make_lattice,
    negation_map,
    orthogonal_group,
    orthogonal_sum,
    proper_classes,
    rescale,
)
from k3fm.bqf import fold_classes, lattice_isometry_generators
from k3fm.cli import main
from k3fm.errors import CapExceededError
from k3fm.finite_qform import (
    FiniteFormMap,
    double_coset_count_by_parts,
    finite_form,
    isometries_signed,
    primary_parts,
)
from k3fm.fm_count import carried_hodge_generators, coset_summand


def brute_force_summand(s, hodge=HodgeGroupSpec()) -> int:
    a_s = discriminant_form(s)
    h_gens = [induced_form_map(s, m) for m in lattice_isometry_generators(s)]
    k_gens = carried_hodge_generators(a_s, hodge)
    return double_coset_count(orthogonal_group(a_s), h_gens, k_gens)


def valid_discriminants(bound: int) -> list:
    return [d for d in range(5, bound + 1) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]


def genus_lattices(d: int) -> list:
    """One lattice per GL2-class of discriminant d: the proper classes folded
    under the opposite involution, as `genus_representative_forms` folds
    each genus."""
    cgd = proper_classes(d)
    reps = cgd.representatives()
    return [form_to_lattice(reps[orbit[0]]) for orbit in fold_classes(cgd, range(cgd.h))]


def test_parts_of_a_composite_form():
    a = cyclic_form(12000, Fraction(1, 12000))
    parts = primary_parts(a)
    assert [(part.p, part.form.orders) for part in parts] == [(2, (32,)), (3, (3,)), (5, (125,))]
    assert prod(part.form.order for part in parts) == a.order
    # h = m g with m = 12000 / p^e; q(h) = m^2 / 12000 mod 2
    assert parts[2].mult == (96,) and parts[2].form.q_gens == (Fraction(96 * 96, 12000) % 2,)


def test_a_prime_power_form_is_its_own_part():
    a = discriminant_form(make_lattice(((6, 0), (0, -12))))
    assert a.orders == (6, 12)
    two, three = primary_parts(a)
    assert two.form.orders == (2, 4) and three.form.orders == (3, 3)
    b = cyclic_form(229, Fraction(2, 229))
    (only,) = primary_parts(b)
    assert only.form is b and only.p == 229


def test_restriction_of_the_whole_group_is_onto_each_part():
    a = discriminant_form(make_lattice(((6, 0), (0, -12))))
    whole = orthogonal_group(a)
    for part in primary_parts(a):
        images = {part.restrict(f) for f in whole}
        assert images == {f.images for f in isometries_signed(part.form, part.form, 1)}
    assert len(whole) == prod(len(orthogonal_group(part.form)) for part in primary_parts(a))


def test_equals_brute_force_on_every_genus_up_to_2000():
    checked = 0
    for d in valid_discriminants(2000):
        for s in genus_lattices(d):
            assert coset_summand(s) == brute_force_summand(s), (d, s.gram)
            checked += 1
    assert checked > 1000


def test_equals_brute_force_in_rank_one_up_to_500():
    for n in range(1, 501):
        a = cyclic_form(2 * n, Fraction(1, 2 * n))
        neg = negation_map(a)
        whole = double_coset_count(orthogonal_group(a), [neg], [neg])
        assert double_coset_count_by_parts(a, [neg], [neg]) == whole, n
        assert fm_number_rank1(n).total == whole


@pytest.mark.parametrize(
    "gram",
    [((2, 0), (0, -20)), ((4, 2), (2, -4)), ((6, 0), (0, -12)), ((2, 1), (1, -52))],
)
def test_equals_brute_force_with_explicit_hodge_actions(gram):
    s = make_lattice(gram)
    a_t = discriminant_form(rescale(s, -1))
    for u in orthogonal_group(a_t).elements:
        order = 2
        while order % u.map_order():
            order += 2
        hodge = HodgeGroupSpec(order, u)
        for f in genus_representative_forms(s):
            member = form_to_lattice(f)
            assert coset_summand(member, hodge) == brute_force_summand(member, hodge)


def test_equals_brute_force_on_a_non_abelian_orthogonal_group():
    # x^2 + y^2 on (Z/3)^2 is anisotropic, so its O is dihedral of order 8;
    # summed with Z/5 the product has two parts.  With H and K running over
    # all one-generator subgroups, some pairs do not commute, so H must act
    # on the left and K on the right.
    a = orthogonal_sum(
        finite_form((3, 3), (Fraction(2, 3), Fraction(2, 3))), cyclic_form(5, Fraction(2, 5))
    )
    assert a.orders == (3, 15)
    whole = orthogonal_group(a)
    assert len(whole) == 16
    assert any(h.compose(k) != k.compose(h) for h in whole for k in whole)
    for h in whole:
        for k in whole:
            assert double_coset_count_by_parts(a, [h], [k]) == double_coset_count(whole, [h], [k])


def test_count_without_generators_is_the_group_order():
    a = discriminant_form(make_lattice(((6, 0), (0, -12))))
    assert double_coset_count_by_parts(a, [], []) == len(orthogonal_group(a))
    assert double_coset_count_by_parts(finite_form((), ()), [], []) == 1


def test_a_map_outside_the_orthogonal_group_is_an_internal_error():
    a = cyclic_form(15, Fraction(2, 15))
    doubling = FiniteFormMap(a, a, ((2,),), 1)  # x -> 2x: -1 on A_3, but 4 != 1 mod 5
    with pytest.raises(RuntimeError, match=r"O\(A_5\)"):
        double_coset_count_by_parts(a, [doubling], [])
    other = negation_map(cyclic_form(15, Fraction(4, 15)))
    with pytest.raises(RuntimeError, match="self-isometry"):
        double_coset_count_by_parts(a, [], [other])


def test_cap_bounds_the_largest_part(monkeypatch):
    # A_5 = Z/5 + Z/25 is searched; the cyclic A_2 = Z/128 and A_3 = Z/3 have
    # their units in closed form, so A_2 passes a cap below its order
    nc125 = discriminant_form(make_lattice([[10, 5], [5, -10]]))
    a = orthogonal_sum(nc125, cyclic_form(384, Fraction(1, 384)))
    assert [(part.p, part.form.orders) for part in primary_parts(a)] == [
        (2, (128,)), (3, (3,)), (5, (5, 25))
    ]
    neg = negation_map(a)
    monkeypatch.setenv("K3FM_CAP", str(a.order))
    expected = double_coset_count(orthogonal_group(a), [neg], [neg])
    monkeypatch.setenv("K3FM_CAP", "125")
    assert double_coset_count_by_parts(a, [neg], [neg]) == expected == 40
    monkeypatch.setenv("K3FM_CAP", "124")
    with pytest.raises(CapExceededError) as info:
        double_coset_count_by_parts(a, [neg], [neg])
    message = str(info.value)
    assert "finite group too large" in message and "|A| = 48000" in message
    assert "p = 5" in message and "|A_5| = 125" in message and "cap 124" in message


def test_cap_skips_a_cyclic_part_in_closed_form(tmp_path, capsys, monkeypatch):
    # A_S = Z/2 + Z/20018: the searched A_2 has order 4, and A_10009 is
    # cyclic, so the default cap of 10^4 does not stop the count
    monkeypatch.delenv("K3FM_CAP", raising=False)
    lat = tmp_path / "ns.json"
    lat.write_text('{"gram": [[4, 2], [2, -10008]]}')
    assert main(["fm", "--lattice", str(lat)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fm=1"


def test_cli_cap_names_the_part(tmp_path, capsys, monkeypatch):
    lat = tmp_path / "ns.json"
    lat.write_text('{"gram": [[10, 5], [5, -10]]}')  # A_S = Z/5 + Z/25, not cyclic
    monkeypatch.setenv("K3FM_CAP", "100")
    assert main(["fm", "--lattice", str(lat)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("k3fm: finite group too large")
    assert "|A| = 125" in err and "p = 5" in err and "|A_5| = 125" in err
    assert "cap 100" in err and "K3FM_CAP" in err


@pytest.mark.parametrize(
    "argv, fm",
    [
        (["fm", "--rank1", "6000"], 4),
        (["fm", "--rank1", "9699690"], 128),
        (["fm", "--rank1", "10009"], 1),
        (["fm", "--rank1", "16384"], 1),  # |A_2| = 32768
        (["fm", "--rank1", "999999999989"], 1),
    ],
)
def test_past_the_old_wall_with_the_default_cap(capsys, monkeypatch, argv, fm):
    monkeypatch.delenv("K3FM_CAP", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"fm={fm}"


def test_composite_rank_two_past_the_old_wall(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("K3FM_CAP", raising=False)
    lat = tmp_path / "ns.json"
    lat.write_text('{"gram": [[2, 1], [1, -16022]]}')  # D = 32045 = 5 * 13 * 17 * 29
    assert main(["fm", "--lattice", str(lat)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fm=8"


# base change: a word in S = [[0, -1], [1, 0]], T^k = [[1, k], [0, 1]] and
# the reflection R = [[1, 0], [0, -1]] runs over all of GL2(Z)
def base_change(word) -> tuple:
    m = intmat.identity(2)
    for k, reflect in word:
        m = intmat.matmul(m, ((0, -1), (1, 0)))
        m = intmat.matmul(m, ((1, k), (0, 1)))
        if reflect:
            m = intmat.matmul(m, ((1, 0), (0, -1)))
    return m


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.integers(-20, 20),
    st.integers(-45, 45),
    st.integers(-50, 50),
    st.lists(st.tuples(st.integers(-4, 4), st.booleans()), min_size=1, max_size=5),
)
def test_count_is_invariant_under_base_change(a, b, c, word):
    d = b * b - 4 * a * c
    assume(0 < d <= 2000 and isqrt(d) ** 2 != d)
    gram = ((2 * a, b), (b, 2 * c))
    m = base_change(word)
    moved = intmat.matmul(intmat.transpose(m), intmat.matmul(gram, m))
    result = fm_number(NeronSeveriSpec(make_lattice(gram)))
    assert fm_number(NeronSeveriSpec(make_lattice(moved))).total == result.total
    assert result.total == sum(
        brute_force_summand(form_to_lattice(f)) for f, _ in result.breakdown
    )
