"""The count of a cyclic A: the walk `double_coset_count_by_parts` must equal
the whole-group `double_coset_count`, build O(S) only when it can change the
count, and enumerate no cyclic A.  A rank-1 count factors 2n once, with or
without a Hodge action, and its |O(A)|, `cyclic_orthogonal_order`, equals
the product of the `isometries_signed` counts of the p-parts of A."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from reference_arith import tau

from k3fm import arith, bqf, finite_qform, fm_count
from k3fm.cli import main
from k3fm.finite_qform import (
    FiniteQuadraticForm,
    cyclic_form,
    cyclic_orthogonal_order,
    double_coset_count,
    double_coset_count_by_parts,
    isometries_signed,
    map_from_images,
    negation_map,
    orthogonal_group,
)
from k3fm.errors import LatticeParseError
from k3fm.fm_count import fm_number_rank1, fm_table
from k3fm.lattice import discriminant_form, make_lattice

PAPER_ROWS = ((229, 3, 2), (401, 5, 3), (1009, 7, 4))


def test_equals_the_walk_on_every_cyclic_form_up_to_600():
    # every N <= 600; every nondegenerate q (N Q even, Q prime to N) up to
    # N = 200, above that about eight of them spread over [0, 2N); H and K
    # are random subsets of O(A), empty ones included
    rng = random.Random(16)
    empty_h = empty_k = forms = 0
    for n in range(2, 601):
        admissible = [q for q in range(2 * n) if gcd(q, n) == 1 and n * q % 2 == 0]
        qs = admissible if n <= 200 else admissible[:: len(admissible) // 8 + 1]
        for q in qs:
            a = FiniteQuadraticForm((n,), (q,), ((q % n,),))
            group = isometries_signed(a, a, 1)
            h = [f for f in group if rng.random() < 0.3]
            k = [f for f in group if rng.random() < 0.3]
            whole = double_coset_count(tuple(group), h, k)
            assert double_coset_count_by_parts(a, h, k) == whole, (n, q)
            empty_h += not h
            empty_k += not k
            forms += 1
    assert forms > 15000 and empty_h > 1000 and empty_k > 1000


def test_a_trivial_form_counts_one():
    a = FiniteQuadraticForm((), (), ())
    assert double_coset_count_by_parts(a, [], []) == 1


def test_h_is_read_only_when_k_does_not_fill_the_group():
    def refuse():
        raise AssertionError("O(S) built")

    prime = cyclic_form(229, Fraction(2, 229))  # O(A) = {+-1}
    assert double_coset_count_by_parts(prime, refuse, [negation_map(prime)]) == 1
    a = cyclic_form(15, Fraction(2, 15))  # O(A) = {1, 4, 11, 14}
    neg = negation_map(a)
    calls = []

    def h_gens():
        calls.append(1)
        return [map_from_images(a, a, ((4,),), 1)]

    assert double_coset_count_by_parts(a, h_gens, [neg]) == 1
    assert calls == [1]
    assert double_coset_count_by_parts(a, [], [neg]) == 2


def test_h_is_never_read_when_k_fills_a_non_cyclic_group():
    def refuse():
        raise AssertionError("H read")

    a = discriminant_form(make_lattice([[6, 0], [0, -12]]))  # Z/6 + Z/12
    assert a.orders == (6, 12)
    k = list(orthogonal_group(a))
    assert len(k) == 16
    assert double_coset_count_by_parts(a, refuse, k) == 1


def test_a_map_outside_the_orthogonal_group_is_an_internal_error():
    a = cyclic_form(15, Fraction(2, 15))
    doubling = map_from_images(a, a, ((2,),), 1)  # x -> 2x: -1 on A_3, but 4 != 1 mod 5
    with pytest.raises(RuntimeError, match=r"O\(A_5\)"):
        double_coset_count_by_parts(a, [doubling], [])
    other = negation_map(cyclic_form(15, Fraction(4, 15)))
    with pytest.raises(RuntimeError, match="self-isometry"):
        double_coset_count_by_parts(a, [], [other])
    # a list H is checked even when K fills O(A) and the count needs no H
    whole = list(orthogonal_group(a))
    with pytest.raises(RuntimeError, match="self-isometry"):
        double_coset_count_by_parts(a, [other], whole)
    b = discriminant_form(make_lattice([[6, 0], [0, -12]]))  # Z/6 + Z/12
    doubling_b = map_from_images(b, b, ((2, 0), (0, 1)), 1)  # kills the 2-part of Z/6
    with pytest.raises(RuntimeError, match=r"O\(A_2\)"):
        double_coset_count_by_parts(b, [doubling_b], list(orthogonal_group(b)))


def test_prime_rows_never_build_o_s(monkeypatch):
    def refuse(lat):
        raise AssertionError("O(S) built")

    monkeypatch.setattr(bqf, "lattice_isometry_generators", refuse)
    assert fm_table((229, 401, 1009)) == PAPER_ROWS


def test_o_s_is_built_where_it_can_change_the_count(tmp_path, capsys, monkeypatch):
    # D = 32045 = 5 * 13 * 17 * 29: |O(A_S)| = 16 > |{+-1}|
    calls = []
    real = bqf.lattice_isometry_generators

    def counting(lat):
        calls.append(lat)
        return real(lat)

    monkeypatch.setattr(bqf, "lattice_isometry_generators", counting)
    monkeypatch.delenv("K3FM_CAP", raising=False)
    lat = tmp_path / "ns.json"
    lat.write_text('{"gram": [[2, 1], [1, -16022]]}')
    assert main(["fm", "--lattice", str(lat)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fm=8"
    assert calls


def test_rank_one_factors_2n_once(monkeypatch, capsys):
    n = 999999999989  # a prime past the trial bound: the cofactor is tested, not divided
    calls = []
    real = arith.prime_factors

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (arith, finite_qform, fm_count):
        monkeypatch.setattr(module, "prime_factors", counting)
    assert main(["fm", "--rank1", str(n)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fm=1"
    assert calls == [2 * n]


def test_rank_one_with_an_action_factors_2n_once(monkeypatch, capsys, tmp_path):
    # -id on A_T = (Z/2n, -1/2n): the action file's form is split once, by
    # the primes of 2n, and the count reads them from its parts
    n = 999999999989
    action = tmp_path / "minus_id.json"
    action.write_text('{"orders": [%d], "q": ["%d/%d"], "images": [[%d]]}' % (2 * n, 4 * n - 1, 2 * n, 2 * n - 1))
    calls = []
    real = arith.prime_factors

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (arith, finite_qform, fm_count):
        monkeypatch.setattr(module, "prime_factors", counting)
    assert main(["fm", "--rank1", str(n), "--hodge-action", str(action)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fm=1"
    assert calls == [2 * n]


def test_fm_count_counts_a_cyclic_summand_in_closed_form(monkeypatch):
    # a cap of 2 refuses any enumeration of a group with more than 2 elements
    monkeypatch.setenv("K3FM_CAP", "2")
    assert fm_count.fm_number_rank1(9699690).total == 128
    assert fm_table((229,)) == PAPER_ROWS[:1]


def orthogonal_order_by_parts(n: int) -> int:
    """|O(Z/n, 1/n)| as the rank-1 count once read it: the maps of every
    p-part, listed by `isometries_signed` and counted."""
    a = FiniteQuadraticForm((n,), (1,), ((1,),))
    parts = [FiniteQuadraticForm(part.orders, part.q_table, part.b_table, (part.p,)) for part in a.parts]
    return prod(len(isometries_signed(one, one, 1)) for one in parts)


def test_rank_one_order_equals_the_parts_up_to_3000_and_on_seeded_n():
    rng = random.Random(1980)
    for n in list(range(1, 3001)) + [rng.randrange(1, 10**12) for _ in range(200)]:
        size = cyclic_orthogonal_order(2 * n, arith.prime_factors(2 * n))
        assert size == orthogonal_order_by_parts(2 * n), n
        assert fm_number_rank1(n).total == 2 ** (tau(n) - 1) == max(1, size // 2), n


def test_orthogonal_order_needs_an_even_order_and_reads_the_cap(monkeypatch):
    with pytest.raises(ValueError, match="even n"):
        cyclic_orthogonal_order(15, (3, 5))
    monkeypatch.setenv("K3FM_CAP", "abc")
    with pytest.raises(LatticeParseError, match="K3FM_CAP"):
        cyclic_orthogonal_order(12, (2, 3))
    monkeypatch.setenv("K3FM_CAP", "1")
    assert cyclic_orthogonal_order(2 * 9699690, arith.prime_factors(9699690)) == 256


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441


@pytest.mark.parametrize(
    "n, fm",
    [
        (999999943999999559, 2),  # 999999937 * 1000000007
        (614889782588491410, 16384),  # 2 * 3 * ... * 47
        (100000000000031, 1),
        (3215031751, 4),  # 151 * 751 * 28351, a strong pseudoprime to 2, 3, 5, 7
        (PSI_12, 2),
    ],
)
def test_rank_one_past_trial_division(capsys, n, fm):
    assert main(["fm", "--rank1", str(n)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"fm={fm}", "method: rank1", f"  gram [[{2 * n}]]: {fm}"
    ]


def test_rank_one_refuses_psi_13(capsys):
    psi_13 = 3317044064679887385961981
    assert main(["fm", "--rank1", str(psi_13)]) == 3
    assert capsys.readouterr().err == (
        f"k3fm: unsupported: {psi_13} is a strong probable prime to the bases 2, ..., 41, "
        f"which prove primality only below psi_13 = {psi_13}\n"
    )
