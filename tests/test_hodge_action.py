"""A Hodge group larger than {+-1}: the engine and the gluing oracle must
agree when the Hodge action is not -id.

S = [[2, 1], [1, -32]] (D = 65) and S = [[2, 1], [1, -52]] (D = 105), with
T = S(-1).  For each u in O(A_T) other than +-1, G = <-1, u> of order 4.
The engine carries u from A_T onto A_S across an anti-isometry; the oracle
lets u act on A_T directly.  The counts below were measured before the two
Hodge-generator functions were merged into `fm_count.hodge_generators`.

The non-cyclic lattices further down have a genus member whose A_S equals
A_T as a form; the engine must still carry u across an anti-isometry (the
identity A_T -> A_S is an isometry, not a gluing), and the oracle's orbit
count is the reference."""

from math import lcm

import pytest

from k3fm import (
    HodgeGroupSpec,
    NeronSeveriSpec,
    discriminant_form,
    double_coset_count,
    fm_number,
    form_to_lattice,
    genus_representative_forms,
    isometries_signed,
    make_lattice,
    negation_map,
    orthogonal_group,
    rescale,
    verify_gluing_counts,
)
from k3fm.cli import main
from k3fm.fm_count import carried_hodge_generators, hodge_generators
from test_isometry_reference import images_of

# gram of S -> {image of the generator of A_T under u: agreed count}
EXPECTED = {
    ((2, 1), (1, -32)): {14: 1, 51: 1},
    ((2, 1), (1, -52)): {29: 1, 34: 1, 41: 2, 64: 2, 71: 1, 76: 1},
}


def nontrivial_actions(a_t):
    n = a_t.orders[0]
    return [u for u in orthogonal_group(a_t) if images_of(u)[0][0] not in (1, n - 1)]


@pytest.mark.parametrize("gram", sorted(EXPECTED))
def test_generic_count_is_two(gram):
    assert fm_number(NeronSeveriSpec(make_lattice(gram))).total == 2


@pytest.mark.parametrize("gram", sorted(EXPECTED))
def test_engine_and_oracle_agree_on_nontrivial_action(gram):
    s = make_lattice(gram)
    t = rescale(s, -1)
    s_list = [form_to_lattice(f) for f in genus_representative_forms(s)]
    seen = {}
    for u in nontrivial_actions(discriminant_form(t)):
        hodge = HodgeGroupSpec(4, u)
        total = fm_number(NeronSeveriSpec(s), hodge).total
        report = verify_gluing_counts(s_list, t, hodge)
        assert total == report.total_orbits == report.total_cosets, images_of(u)
        seen[images_of(u)[0][0]] = total
    assert seen == EXPECTED[gram]


def test_action_lives_on_a_t_and_is_carried_onto_a_s():
    s = make_lattice(((2, 1), (1, -52)))
    a_s = discriminant_form(s)
    a_t = discriminant_form(rescale(s, -1))
    assert a_s != a_t
    u = nontrivial_actions(a_t)[0]
    hodge = HodgeGroupSpec(4, u)
    assert hodge_generators(a_t, hodge) == [negation_map(a_t), u]
    with pytest.raises(ValueError, match="must act on the discriminant form of T"):
        hodge_generators(a_s, hodge)
    neg, carried = carried_hodge_generators(a_s, hodge)
    assert neg == negation_map(a_s)
    assert carried.source == carried.target == a_s
    assert carried.map_order() == u.map_order() == 2


# S with a non-cyclic A_S equal to A_T -> the totals over all u in O(A_T), sorted
EQUAL_FORMS = {
    ((2, 0), (0, -20)): [1, 1, 2, 2],
    ((4, 2), (2, -4)): [1] * 12,
    ((6, 0), (0, -12)): [1] * 16,
}


@pytest.mark.parametrize("gram", sorted(EQUAL_FORMS))
def test_action_is_carried_even_when_a_s_equals_a_t(gram):
    s = make_lattice(gram)
    t = rescale(s, -1)
    a_t = discriminant_form(t)
    assert a_t.ngens == 2
    s_list = [form_to_lattice(f) for f in genus_representative_forms(s)]
    assert a_t in [discriminant_form(x) for x in s_list]
    totals = []
    for u in orthogonal_group(a_t):
        hodge = HodgeGroupSpec(lcm(2, u.map_order()), u)
        total = fm_number(NeronSeveriSpec(s), hodge).total
        report = verify_gluing_counts(s_list, t, hodge)
        assert total == report.total_orbits == report.total_cosets, images_of(u)
        totals.append(total)
    assert sorted(totals) == EQUAL_FORMS[gram]


def test_action_off_a_t_is_refused(tmp_path, capsys):
    # A_S = Z/21 is not anti-isometric to itself (-1 is no square mod 3), so
    # an action written on A_S describes no A_T
    s = make_lattice(((2, 1), (1, -10)))
    a_s = discriminant_form(s)
    assert not isometries_signed(a_s, a_s, -1)
    u = nontrivial_actions(a_s)[0]
    with pytest.raises(ValueError, match="not anti-isometric to the target"):
        fm_number(NeronSeveriSpec(s), HodgeGroupSpec(4, u))
    lat = tmp_path / "s.json"
    lat.write_text('{"gram": [[2, 1], [1, -10]]}')
    act = tmp_path / "u.json"
    act.write_text('{"orders": [21], "q": ["40/21"], "images": [[%d]]}' % images_of(u)[0][0])
    code = main(["fm", "--lattice", str(lat), "--hodge-order", "4", "--hodge-action", str(act)])
    err = capsys.readouterr().err
    assert (code, err) == (
        2,
        "k3fm: Hodge action lives on a form that is not anti-isometric to the target\n",
    )
