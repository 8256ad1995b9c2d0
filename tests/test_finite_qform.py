from fractions import Fraction
from math import gcd

import pytest

from k3fm import (
    CapExceededError,
    are_isometric,
    cyclic_form,
    diagonal_lattice,
    discriminant_form,
    double_coset_count,
    make_lattice,
    negate_form,
    orthogonal_group,
    isometries_signed,
    subgroup_generated,
    trivial_form,
)
from k3fm import finite_qform
from k3fm.arith import prime_factors
from k3fm.finite_qform import (
    FiniteFormMap,
    all_elements,
    evaluate_q,
    finite_form,
    identity_map,
    negation_map,
    validate_map,
)


def brute_units(n):
    """Units u mod 2n with u^2 = 1 mod 4n: the multiplier maps preserving
    q(x) = x^2/2n on Z/2n."""
    return sorted(u for u in range(1, 2 * n) if (u * u - 1) % (4 * n) == 0)


def test_evaluate_q_examples():
    for n in (1, 3, 12):
        a = cyclic_form(2 * n, Fraction(1, 2 * n))
        assert evaluate_q(a, (1,)) == Fraction(1, 2 * n)
        assert evaluate_q(a, (0,)) == 0
    a8 = cyclic_form(8, Fraction(1, 8))
    assert evaluate_q(a8, (2,)) == Fraction(1, 2)
    with pytest.raises(ValueError, match="length"):
        evaluate_q(a8, (1, 0))


def test_form_validation():
    with pytest.raises(ValueError, match="chain"):
        finite_form((2, 3), (Fraction(1, 2), Fraction(2, 3)))
    with pytest.raises(ValueError, match="incompatible"):
        cyclic_form(5, Fraction(1, 5))  # 25 * (1/5) is odd


def test_orthogonal_group_odd_prime():
    for p, m in ((5, 2), (13, 2), (229, 2)):
        a = cyclic_form(p, Fraction(m, p))
        group = orthogonal_group(a)
        assert len(group) == 2
        images = sorted(f.images[0][0] for f in group)
        assert images == [1, p - 1]


def test_orthogonal_group_z24():
    a = cyclic_form(24, Fraction(1, 24))
    group = orthogonal_group(a)
    assert len(group) == 4
    assert sorted(f.images[0][0] for f in group) == [1, 7, 17, 23]
    assert sorted(f.images[0][0] for f in group) == brute_units(12)


def test_orthogonal_group_trivial():
    assert len(orthogonal_group(trivial_form())) == 1


def test_group_contains_identity_and_negation():
    for a in (
        cyclic_form(24, Fraction(1, 24)),
        discriminant_form(make_lattice([[2, 2], [2, -2]])),
    ):
        group = orthogonal_group(a)
        assert identity_map(a) in group
        assert negation_map(a) in group
        # negation is central
        for f in group:
            assert f.compose(group.negation()) == group.negation().compose(f)


def test_isometries_signed_examples():
    a2 = cyclic_form(2, Fraction(1, 2))
    assert len(isometries_signed(a2, a2, 1)) == 1
    a3 = cyclic_form(3, Fraction(2, 3))
    assert isometries_signed(a2, a3, 1) == []
    assert isometries_signed(a2, a3, -1) == []


def test_torsor_law():
    for a in (
        cyclic_form(5, Fraction(2, 5)),
        cyclic_form(8, Fraction(1, 8)),
        cyclic_form(24, Fraction(1, 24)),
        discriminant_form(make_lattice([[2, 2], [2, -2]])),
    ):
        b = negate_form(a)
        anti = isometries_signed(a, b, -1)
        assert len(anti) == len(orthogonal_group(b))
        assert len(anti) == len(orthogonal_group(a))
        for f in anti:
            validate_map(f)


def test_composition_sign_rule():
    a = cyclic_form(5, Fraction(2, 5))
    b = negate_form(a)
    anti = isometries_signed(a, b, -1)
    for f in anti:
        for g in isometries_signed(b, a, -1):
            assert g.compose(f).sign == 1
        for h in orthogonal_group(a):
            assert f.compose(h).sign == -1


def test_inverse_and_order():
    a = cyclic_form(24, Fraction(1, 24))
    for f in orthogonal_group(a):
        assert f.compose(f.inverse()) == identity_map(a)
        assert f.map_order() in (1, 2)


def test_subgroup_generated():
    a = cyclic_form(24, Fraction(1, 24))
    group = orthogonal_group(a)
    assert subgroup_generated(group, []) == (identity_map(a),)
    closure = subgroup_generated(group, [negation_map(a)])
    assert len(closure) == 2
    seven = next(f for f in group if f.images[0][0] == 7)
    assert len(subgroup_generated(group, [seven])) == 2
    outsider = FiniteFormMap(a, a, ((5,),), 1)
    with pytest.raises(ValueError, match="not an element"):
        subgroup_generated(group, [outsider])


def test_double_coset_examples():
    a = cyclic_form(24, Fraction(1, 24))
    group = orthogonal_group(a)
    neg = negation_map(a)
    assert double_coset_count(group, list(group), list(group)) == 1
    assert double_coset_count(group, [neg], [neg]) == 2
    small = orthogonal_group(cyclic_form(5, Fraction(2, 5)))
    neg5 = small.negation()
    assert double_coset_count(small, [neg5], [neg5]) == 1


def test_double_coset_conjugation_invariance():
    for a in (
        cyclic_form(24, Fraction(1, 24)),
        discriminant_form(make_lattice([[2, 2], [2, -2]])),
    ):
        group = orthogonal_group(a)
        h_gens = [negation_map(a)]
        k_gens = [group.elements[-1]]
        base = double_coset_count(group, h_gens, k_gens)
        for c in group:
            conj = [c.compose(k).compose(c.inverse()) for k in k_gens]
            assert double_coset_count(group, h_gens, conj) == base


def test_are_isometric_examples():
    assert are_isometric(cyclic_form(5, Fraction(2, 5)), cyclic_form(5, Fraction(2, 5)))
    assert not are_isometric(cyclic_form(2, Fraction(1, 2)), cyclic_form(2, Fraction(3, 2)))
    assert are_isometric(trivial_form(), trivial_form())


def test_cap_exceeded(monkeypatch):
    monkeypatch.setenv("K3FM_CAP", "10")
    a = cyclic_form(24, Fraction(1, 24))
    with pytest.raises(CapExceededError, match="finite group too large"):
        orthogonal_group(a)


def test_rank1_group_law_small():
    # |O(Z/2n, q)| = 2^(number of distinct primes of n) for n >= 2
    def tau(n):
        count, m, p = 0, n, 2
        while p * p <= m:
            if m % p == 0:
                count += 1
                while m % p == 0:
                    m //= p
            p += 1
        return count + (1 if m > 1 else 0)

    for n in range(2, 40):
        a = cyclic_form(2 * n, Fraction(1, 2 * n))
        group = orthogonal_group(a)
        assert len(group) == 2 ** tau(n)
        assert sorted(f.images[0][0] for f in group) == brute_units(n)
    # n = 1: negation collapses onto the identity, so the group is trivial
    assert len(orthogonal_group(cyclic_form(2, Fraction(1, 2)))) == 1


def test_maps_well_defined_on_all_elements():
    lat = make_lattice([[2, 2], [2, -2]])
    a = discriminant_form(lat)
    for f in orthogonal_group(a):
        for x in all_elements(a):
            assert evaluate_q(a, f.apply(x)) == evaluate_q(a, x)


def _odd_prime_powers(bound):
    """(N, p) for every odd prime power N = p^e <= bound."""
    out = []
    for n in range(3, bound + 1, 2):
        primes = prime_factors(n)
        if len(primes) == 1:
            out.append((n, primes[0]))
    return out


def _filtered(monkeypatch, a, b, sign):
    """isometries_signed with the cyclic closed form switched off, so every
    cyclic search filters range(N): the reference."""
    with monkeypatch.context() as m:
        m.setattr(finite_qform, "_cyclic_unit_roots", lambda n, q1, t: None)
        return isometries_signed(a, b, sign)


def test_cyclic_closed_form_equals_the_filter(monkeypatch):
    # every odd prime power N <= 2000; every Q_b with p not dividing Q_b/2
    # up to N = 150, above that Q_b/2 in {1, c, N - 1, (N + 1)/2} with c the
    # least non-residue mod p.  Q_a runs over Q_b, 2N - Q_b, a residue and a
    # non-residue multiple of Q_b, and 2p mod 2N (p | Q_a/2); both signs.
    checked = 0
    for n, p in _odd_prime_powers(2000):
        c = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
        halves = range(1, n) if n <= 150 else (1, c, n - 1, (n + 1) // 2)
        for v in halves:
            if v % p == 0:
                continue
            qb = 2 * v
            b = cyclic_form(n, Fraction(qb, n))
            for qa in {qb, 2 * n - qb, 4 * qb % (2 * n), c * qb % (2 * n), 2 * p % (2 * n)}:
                a = cyclic_form(n, Fraction(qa, n))
                for sign in (1, -1):
                    got = isometries_signed(a, b, sign)
                    assert got == _filtered(monkeypatch, a, b, sign), (n, qa, qb, sign)
                    checked += bool(got)
    assert checked > 0


def test_cyclic_unit_roots_solve_every_congruence():
    # x^2 * 2 = t mod 2N for every even t: the units of the filter, in order
    for n, _ in _odd_prime_powers(2000):
        by_value = {}
        for x in range(n):
            by_value.setdefault(x * x * 2 % (2 * n), []).append(x)
        for t in range(0, 2 * n, 2):
            units = [x for x in by_value.get(t, ()) if gcd(x, n) == 1]
            assert finite_qform._cyclic_unit_roots(n, 2, t) == units, (n, t)


@pytest.mark.parametrize("n, q1", [(4, 1), (8, 6), (15, 2), (45, 4), (9, 6), (25, 10)])
def test_cyclic_closed_form_leaves_the_other_cases_to_the_filter(n, q1):
    # p = 2, composite N, and p | Q_1/2
    assert finite_qform._cyclic_unit_roots(n, q1, q1) is None
