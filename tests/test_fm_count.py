from fractions import Fraction
from math import gcd

import pytest
from reference_arith import tau as _tau

from k3fm import (
    GENERIC_HODGE,
    HodgeGroupSpec,
    NeronSeveriSpec,
    UnsupportedError,
    cyclic_form,
    diagonal_lattice,
    direct_sum,
    discriminant_form,
    e8_lattice,
    even_hyperbolic_prime_lattice,
    fm_number,
    fm_number_nikulin,
    fm_number_rank1,
    fm_number_rank2,
    fm_table,
    gauss_scan,
    hodge_order_candidates,
    hyperbolic_plane,
    make_lattice,
    negate_form,
    negation_map,
    orthogonal_group,
    rescale,
)
from k3fm import bqf
from k3fm.cli import main
from k3fm.arith import euler_phi as _euler_phi

PAPER_TABLE = (
    (229, 3, 2), (257, 3, 2), (401, 5, 3), (577, 7, 4), (733, 3, 2),
    (761, 3, 2), (1009, 7, 4), (1093, 5, 3), (1129, 9, 5), (1229, 3, 2),
    (1297, 11, 6), (1373, 3, 2), (1429, 5, 3), (1489, 3, 2),
)


def test_ns_spec_validation():
    with pytest.raises(ValueError, match="hyperbolic"):
        NeronSeveriSpec(diagonal_lattice(-2))
    with pytest.raises(ValueError, match="even"):
        NeronSeveriSpec(make_lattice([[1]]))
    NeronSeveriSpec(diagonal_lattice(2))


def test_hodge_spec_validation():
    with pytest.raises(ValueError, match="even"):
        HodgeGroupSpec(3)
    HodgeGroupSpec(4, None)


def test_euler_phi():
    known = {1: 1, 2: 1, 4: 2, 6: 2, 8: 4, 12: 4, 22: 10, 44: 20, 50: 20, 66: 20}
    for m, value in known.items():
        assert _euler_phi(m) == value
    for n in range(1, 5001):
        assert _euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n


def test_hodge_order_candidates():
    assert hodge_order_candidates(20) == (2, 4, 6, 8, 10, 12, 22, 44, 50, 66)
    assert hodge_order_candidates(2) == (2, 4, 6)
    for t in range(1, 12):
        candidates = hodge_order_candidates(t)
        assert 2 in candidates
        assert all(m % 2 == 0 for m in candidates)


def test_rank1_examples():
    assert fm_number_rank1(1).total == 1
    assert fm_number_rank1(6).total == 2
    r12 = fm_number_rank1(12)
    assert r12.total == 2
    assert len(orthogonal_group(cyclic_form(24, Fraction(1, 24)))) == 4
    assert r12.method == "rank1"
    with pytest.raises(ValueError):
        fm_number_rank1(0)


def test_rank1_law_range():
    for n in range(1, 40):
        assert fm_number_rank1(n).total == 2 ** (_tau(n) - 1)


def test_nikulin_examples():
    ns = NeronSeveriSpec(direct_sum(hyperbolic_plane(), diagonal_lattice(-2)))
    result = fm_number_nikulin(ns)
    assert result is not None and result.total == 1 and result.method == "nikulin"

    wide = NeronSeveriSpec(
        direct_sum(hyperbolic_plane(), rescale(e8_lattice(), -1), diagonal_lattice(-2, -4))
    )
    assert wide.rank == 12
    assert fm_number_nikulin(wide).total == 1

    # l = 3 at rank 3 falls through
    tight = NeronSeveriSpec(diagonal_lattice(2, -2, -2))
    assert fm_number_nikulin(tight) is None
    with pytest.raises(UnsupportedError, match="out of scope"):
        fm_number(tight)


def test_rank2_paper_rows():
    for p, h, fm in ((229, 3, 2), (1297, 11, 6), (5, 1, 1)):
        lat = even_hyperbolic_prime_lattice(p) if p > 5 else make_lattice([[2, 1], [1, -2]])
        result = fm_number_rank2(NeronSeveriSpec(lat))
        assert result.total == fm
        assert result.method == "rank2"
        assert all(s >= 1 for _, s in result.breakdown)
        assert sum(s for _, s in result.breakdown) == result.total


def test_fm_number_dispatch():
    assert fm_number(NeronSeveriSpec(diagonal_lattice(2))).total == 1
    assert fm_number(NeronSeveriSpec(make_lattice([[2, 1], [1, -2]]))).total == 1
    assert fm_number(NeronSeveriSpec(make_lattice([[2, 1], [1, -114]]))).total == 2
    big = NeronSeveriSpec(direct_sum(hyperbolic_plane(), rescale(e8_lattice(), -1)))
    result = fm_number(big)
    assert result.total == 1 and result.method == "nikulin"
    with pytest.raises(ValueError, match="order 2"):
        fm_number(NeronSeveriSpec(diagonal_lattice(2)), HodgeGroupSpec(4))
    with pytest.raises(ValueError, match="phi"):
        fm_number(NeronSeveriSpec(make_lattice([[2, 1], [1, -2]])), HodgeGroupSpec(14))


def test_square_determinant(tmp_path):
    result = fm_number(NeronSeveriSpec(hyperbolic_plane()))
    assert result.total == 1 and result.method == "nikulin"
    for lat in (make_lattice([[0, 2], [2, 0]]), diagonal_lattice(2, -8)):
        with pytest.raises(UnsupportedError, match="square discriminant"):
            fm_number(NeronSeveriSpec(lat))
    path = tmp_path / "u2.json"
    path.write_text('{"gram": [[0, 2], [2, 0]]}')
    assert main(["fm", "--lattice", str(path)]) == 3


def test_rank2_count_of_u_agrees_with_the_shortcut():
    # U has no binary form (D = 1 is a square): it stands as itself
    u = hyperbolic_plane()
    result = fm_number_rank2(NeronSeveriSpec(u))
    assert result.total == fm_number(NeronSeveriSpec(u)).total == 1
    assert result.breakdown == ((u, 1),)
    assert result.method == "rank2"
    with pytest.raises(UnsupportedError, match="square discriminant"):
        fm_number_rank2(NeronSeveriSpec(make_lattice([[0, 2], [2, 0]])))


def test_table_rows():
    rows = fm_table((229, 401, 1489))
    assert rows == ((229, 3, 2), (401, 5, 3), (1489, 3, 2))
    with pytest.raises(ValueError, match="primes"):
        fm_table((15,))
    with pytest.raises(ValueError, match="primes"):
        fm_table((7,))  # prime but 3 mod 4


def test_a_table_row_enumerates_its_classes_once(monkeypatch):
    # fm_table and fm_number_rank2 both ask for the classes of p; the
    # one-entry memo answers the second ask, and a prime that comes back
    # after another is enumerated again
    calls = []
    original = bqf._reduced_triples

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(bqf, "_reduced_triples", counted)
    bqf.proper_classes.cache_clear()
    assert fm_table((229, 257, 229)) == ((229, 3, 2), (257, 3, 2), (229, 3, 2))
    assert calls == [229, 257, 229]


def test_rank2_composite_determinant():
    # det -20: single-class genus of the content-2 form
    ns = NeronSeveriSpec(make_lattice([[4, 2], [2, -4]]))
    result = fm_number_rank2(ns)
    assert result.total >= 1
    # det -8: h(8) = 1
    ns8 = NeronSeveriSpec(make_lattice([[2, 2], [2, -2]]))
    assert fm_number_rank2(ns8).total == 1


def test_rank2_explicit_action_matches_generic():
    lat = make_lattice([[2, 1], [1, -2]])
    ns = NeronSeveriSpec(lat)
    a_t = negate_form(discriminant_form(lat))
    neg = negation_map(a_t)
    explicit = fm_number_rank2(ns, HodgeGroupSpec(2, neg))
    assert explicit.total == fm_number_rank2(ns).total
    # an order-4 Hodge group whose image is still {+-id} gives the same count
    wider = fm_number_rank2(ns, HodgeGroupSpec(4, neg))
    assert wider.total == explicit.total


def test_rank2_action_incompatible_form():
    ns = NeronSeveriSpec(make_lattice([[2, 1], [1, -2]]))
    wrong = negation_map(cyclic_form(8, Fraction(1, 8)))
    with pytest.raises(ValueError, match="anti-isometric"):
        fm_number_rank2(ns, HodgeGroupSpec(2, wrong))


def test_gauss_scan():
    report = gauss_scan(500)
    assert 5 in report.fm_one_primes
    assert 13 in report.fm_one_primes
    assert 401 not in report.fm_one_primes
    assert report.running_max[0] == (5, 1)
    by_prime = {p: fm for p, _, fm in report.rows}
    assert by_prime[229] == 2 and by_prime[401] == 3
    with pytest.raises(ValueError):
        gauss_scan(4)


def test_two_path_agreement_sample():
    from k3fm import proper_classes

    for p in (229, 257, 577):
        ns = NeronSeveriSpec(even_hyperbolic_prime_lattice(p))
        assert fm_number_rank2(ns).total == (proper_classes(p).h + 1) // 2


def test_scan_running_max_reaches_1297():
    report = gauss_scan(1300)
    assert (1297, 6) in report.running_max
    assert report.running_max == tuple(sorted(report.running_max))


def test_count_is_genus_membership_invariant():
    from k3fm import form_to_lattice, proper_classes

    cgd = proper_classes(229)
    totals = {
        fm_number_rank2(NeronSeveriSpec(form_to_lattice(member))).total
        for cyc in cgd.cycles
        for member in cyc[:2]
    }
    assert totals == {2}


def test_genus_dependent_counts_at_composite_determinant():
    # the two genera of discriminant 205 fold differently: one holds both
    # ambiguous classes (two isomorphism classes), the other is a swapped
    # pair (a single isomorphism class)
    from k3fm import form_to_lattice, proper_classes

    cgd = proper_classes(205)
    assert len(cgd.genus_partition) == 2
    totals = set()
    for part in cgd.genus_partition:
        rep = form_to_lattice(cgd.cycles[part[0]][0])
        totals.add(fm_number_rank2(NeronSeveriSpec(rep)).total)
    assert totals == {1, 2}
