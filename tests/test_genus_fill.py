"""`fm_number_rank2` decides once per genus whether G = {+-1} fills O(A_S);
its breakdown must equal the per-member count, one `coset_summand` per
genus member, on fill and non-fill genera alike."""

from math import gcd, isqrt, prod

from k3fm import HodgeGroupSpec, NeronSeveriSpec, bqf, fm_number_rank2, negate_form, negation_map
from k3fm.finite_qform import orthogonal_parts
from k3fm.fm_count import coset_summand, genus_lattices
from k3fm.lattice import discriminant_form, make_lattice


def class_lattices(bound):
    """The lattice of every class representative of every non-square D up
    to the bound."""
    for d in range(5, bound + 1):
        if d % 4 in (0, 1) and isqrt(d) ** 2 != d:
            for rep in bqf.proper_classes(d).reps:
                yield d, bqf.form_to_lattice(rep)


def per_member(genus, hodge=HodgeGroupSpec()):
    return [(s, coset_summand(s, hodge)) for s in genus]


def fills(genus) -> bool:
    a = discriminant_form(genus[0])
    return prod(map(len, orthogonal_parts(a))) == (1 if a.exponent <= 2 else 2)


def test_the_breakdown_equals_the_per_member_count_up_to_2000():
    reference = {}  # genus Grams -> (per-member breakdown, whether G fills)
    seen = {True: 0, False: 0, "content": 0, "two-part": set()}
    for d, lat in class_lattices(2000):
        genus = genus_lattices(lat)
        key = tuple(s.gram for s in genus)
        if key not in reference:
            reference[key] = (per_member(genus), fills(genus))
        breakdown, filled = reference[key]
        assert list(fm_number_rank2(NeronSeveriSpec(lat)).breakdown) == breakdown, (d, lat.gram)
        seen[filled] += 1
        (a2, b), (_, c2) = lat.gram
        if gcd(a2 // 2, b, c2 // 2) > 1:
            # a part of two generators, which is searched
            assert any(len(part.orders) > 1 for part in discriminant_form(lat).parts)
            seen["content"] += 1
        if d % 2 == 0:
            seen["two-part"].add(d)
    assert seen[True] > 200 and seen[False] > 3000 and seen["content"] > 500
    assert {8, 12, 40} <= seen["two-part"]


def test_fill_and_non_fill_with_a_2_part():
    # A_S = Z/2 + Z/4 for D = 8: O(A_S) = {+-1} = G; D = 12 and 40 are walked
    assert [fills(genus_lattices(lat)) for d, lat in class_lattices(40) if d in (8, 12, 40)] == [
        True,
        False,
        False,
        False,
        False,
    ]


def test_u_fills_without_reading_the_cap(monkeypatch):
    # A_S = 0: O(A_S) and G are trivial, and nothing is searched
    monkeypatch.setenv("K3FM_CAP", "abc")
    u = NeronSeveriSpec(make_lattice([[0, 1], [1, 0]]))
    assert fm_number_rank2(u).total == 1


def test_an_explicit_action_counts_every_member_as_itself():
    checked = set()
    for d, lat in class_lattices(400):
        a_t = negate_form(discriminant_form(lat))
        explicit = HodgeGroupSpec(2, negation_map(a_t))
        got = fm_number_rank2(NeronSeveriSpec(lat), explicit).breakdown
        genus = genus_lattices(lat)
        assert list(got) == per_member(genus, explicit) == per_member(genus), (d, lat.gram)
        checked.add(fills(genus))
    assert checked == {True, False}
