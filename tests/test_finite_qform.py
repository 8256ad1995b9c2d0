import random
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
    FiniteQuadraticForm,
    evaluate_q,
    finite_form,
    identity_map,
    map_from_images,
    negation_map,
    validate_map,
)
from test_isometry_reference import all_elements, images_of


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
        images = sorted(images_of(f)[0][0] for f in group)
        assert images == [1, p - 1]


def test_orthogonal_group_z24():
    a = cyclic_form(24, Fraction(1, 24))
    group = orthogonal_group(a)
    assert len(group) == 4
    assert sorted(images_of(f)[0][0] for f in group) == [1, 7, 17, 23]
    assert sorted(images_of(f)[0][0] for f in group) == brute_units(12)


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
            assert f.compose(negation_map(a)) == negation_map(a).compose(f)


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
    seven = next(f for f in group if images_of(f)[0][0] == 7)
    assert len(subgroup_generated(group, [seven])) == 2
    outsider = map_from_images(a, a, ((5,),), 1)
    with pytest.raises(ValueError, match="not an element"):
        subgroup_generated(group, [outsider])


def test_double_coset_examples():
    a = cyclic_form(24, Fraction(1, 24))
    group = orthogonal_group(a)
    neg = negation_map(a)
    assert double_coset_count(group, list(group), list(group)) == 1
    assert double_coset_count(group, [neg], [neg]) == 2
    small = orthogonal_group(cyclic_form(5, Fraction(2, 5)))
    neg5 = negation_map(small[0].source)
    assert double_coset_count(small, [neg5], [neg5]) == 1


def test_double_coset_conjugation_invariance():
    for a in (
        cyclic_form(24, Fraction(1, 24)),
        discriminant_form(make_lattice([[2, 2], [2, -2]])),
    ):
        group = orthogonal_group(a)
        h_gens = [negation_map(a)]
        k_gens = [group[-1]]
        base = double_coset_count(group, h_gens, k_gens)
        for c in group:
            conj = [c.compose(k).compose(c.inverse()) for k in k_gens]
            assert double_coset_count(group, h_gens, conj) == base


def test_are_isometric_examples():
    assert are_isometric(cyclic_form(5, Fraction(2, 5)), cyclic_form(5, Fraction(2, 5)))
    assert not are_isometric(cyclic_form(2, Fraction(1, 2)), cyclic_form(2, Fraction(3, 2)))
    assert are_isometric(trivial_form(), trivial_form())


def test_cap_exceeded(monkeypatch):
    # Z/27 with Q_1 = 6 is degenerate at 3, so it is searched, and the search is capped
    monkeypatch.setenv("K3FM_CAP", "10")
    a = cyclic_form(27, Fraction(6, 27))
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
        assert sorted(images_of(f)[0][0] for f in group) == brute_units(n)
    # n = 1: negation collapses onto the identity, so the group is trivial
    assert len(orthogonal_group(cyclic_form(2, Fraction(1, 2)))) == 1


def test_maps_well_defined_on_all_elements():
    lat = make_lattice([[2, 2], [2, -2]])
    a = discriminant_form(lat)
    for f in orthogonal_group(a):
        for x in all_elements(a):
            image = [sum(c * img[j] for c, img in zip(x, images_of(f))) for j in range(a.ngens)]
            assert evaluate_q(a, image) == evaluate_q(a, x)


def _odd_prime_powers(bound):
    """(N, p) for every odd prime power N = p^e <= bound."""
    out = []
    for n in range(3, bound + 1, 2):
        primes = prime_factors(n)
        if len(primes) == 1:
            out.append((n, primes[0]))
    return out


def _units(a, b, sign):
    """The units x of Z/N, ascending, with x^2 Q_b = sign Q_a mod 2N, for
    cyclic forms a and b of order N, filtered from range(N): the images of
    the maps a -> b with q_b(f(x)) = sign q_a(x)."""
    n = b.exponent
    t = sign * a.q_table[0] % (2 * n)
    return [x for x in range(n) if x * x * b.q_table[0] % (2 * n) == t and gcd(x, n) == 1]


def _filtered(a, b, sign):
    """The maps of isometries_signed(a, b, sign) on cyclic forms of prime
    power order, filtered from range(N) (`_units`): the reference."""
    return [FiniteFormMap(a, b, (((x,),),), sign) for x in _units(a, b, sign)]


def test_cyclic_closed_form_equals_the_filter():
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
                    assert got == _filtered(a, b, sign), (n, qa, qb, sign)
                    checked += bool(got)
    assert checked > 0


def test_cyclic_unit_roots_solve_every_congruence():
    # x^2 * 2 = t mod 2N for every even t: the units of the filter, in order
    for n, p in _odd_prime_powers(2000):
        by_value = {}
        for x in range(n):
            by_value.setdefault(x * x * 2 % (2 * n), []).append(x)
        for t in range(0, 2 * n, 2):
            units = [x for x in by_value.get(t, ()) if gcd(x, n) == 1]
            assert finite_qform._cyclic_unit_roots(n, 2, t, p) == units, (n, t)


def test_two_power_closed_form_equals_the_filter():
    # every N = 2^e <= 2^12 and every t mod 2N; every odd Q up to N = 2^9,
    # above that the odd Q in {1, 3, 5, 7, N - 1, N + 1, 2N - 1}: the units
    # of the filter, in its order
    checked = 0
    for e in range(1, 13):
        n = 2**e
        qs = range(1, 2 * n, 2) if n <= 2**9 else (1, 3, 5, 7, n - 1, n + 1, 2 * n - 1)
        for q in qs:
            by_value = {}
            for x in range(1, n, 2):
                by_value.setdefault(x * x * q % (2 * n), []).append(x)
            for t in range(2 * n):
                got = finite_qform._cyclic_unit_roots(n, q, t, 2)
                assert got == by_value.get(t, []), (n, q, t)
                checked += bool(got)
    assert checked > 0


def test_two_power_isometries_equal_the_filter():
    # isometries_signed on Z/2^e, e <= 6, every odd Q_a and Q_b, both signs
    for e in range(1, 7):
        n = 2**e
        forms = [cyclic_form(n, Fraction(q, n)) for q in range(1, 2 * n, 2)]
        for b in forms:
            for a in forms:
                for sign in (1, -1):
                    expected = _filtered(a, b, sign)
                    assert isometries_signed(a, b, sign) == expected, (n, a, b, sign)


# (N, Q_1, p): Z/N degenerate at p, Q_1 even for p = 2, or p | Q_1 / 2 for odd p
DEGENERATE_CYCLIC = [
    (4, 2, 2), (8, 6, 2), (15, 10, 5), (45, 6, 3), (9, 6, 3), (25, 10, 5), (27, 6, 3), (12, 2, 2)
]


@pytest.mark.parametrize("n, q1, p", DEGENERATE_CYCLIC)
def test_cyclic_closed_form_leaves_the_other_cases_to_the_filter(n, q1, p):
    # degenerate parts only; they are searched like any other part (below)
    (part,) = [part for part in _cyclic(n, q1).parts if part.p == p]
    q = part.q_table[0]
    assert finite_qform._cyclic_unit_roots(part.orders[0], q, q, p) is None


@pytest.mark.parametrize("n, q1, p", DEGENERATE_CYCLIC)
def test_the_search_on_a_degenerate_cyclic_form_equals_the_filter(monkeypatch, n, q1, p):
    # against every form of order N, both signs, with the cap raised
    monkeypatch.setenv("K3FM_CAP", str(10**6))
    b = _cyclic(n, q1)
    for qa in range(2 * n):
        if n * qa % 2 == 0:
            a = _cyclic(n, qa)
            for sign in (1, -1):
                expected = [((x,),) for x in _units(a, b, sign)]
                assert [images_of(f) for f in isometries_signed(a, b, sign)] == expected, qa


def test_every_degenerate_cyclic_form_up_to_40_equals_the_filter(monkeypatch):
    # Q_1 degenerate at some prime of N: gcd(Q_1, N) > 1; against every form
    # of order N, both signs
    monkeypatch.setenv("K3FM_CAP", str(10**6))
    checked = found = 0
    for n in range(2, 41):
        forms = [_cyclic(n, q) for q in range(2 * n) if n * q % 2 == 0]
        for b in forms:
            if gcd(b.q_table[0], n) == 1:
                continue
            for a in forms:
                for sign in (1, -1):
                    expected = [((x,),) for x in _units(a, b, sign)]
                    got = [images_of(f) for f in isometries_signed(a, b, sign)]
                    assert got == expected, (n, a.q_table, b.q_table, sign)
                    checked += 1
                    found += bool(got)
    assert checked > 10000 and found > 1000


def _cyclic(n, q):
    return FiniteQuadraticForm((n,), (q,), ((q % n,),))


def _closed_and_filtered(monkeypatch, pairs):
    """On each pair (a, b) of cyclic forms of order N, with Q_a and Q_b:
    the images of isometries_signed(a, b, 1) in closed form under the cap 1,
    and the units x of Z/N with x^2 Q_b = Q_a mod 2N, filtered from range(N)
    on the whole group; only pairs whose b is nondegenerate at every prime
    of N are taken."""
    pairs = [
        (a, b) for a, b in pairs
        if all(
            finite_qform._cyclic_unit_roots(part.orders[0], part.q_table[0], part.q_table[0], part.p)
            is not None
            for part in b.parts
        )
    ]
    filtered = [[((x,),) for x in _units(a, b, 1)] for a, b in pairs]
    with monkeypatch.context() as m:
        m.setenv("K3FM_CAP", "1")
        closed = [[images_of(f) for f in isometries_signed(a, b, 1)] for a, b in pairs]
    return pairs, closed, filtered


def test_composite_closed_form_equals_the_filter_up_to_40(monkeypatch):
    # every cyclic form with N <= 40, every valid Q_1 and every valid t = Q_a
    pairs = []
    for n in range(2, 41):
        forms = [_cyclic(n, q) for q in range(2 * n) if n * q % 2 == 0]
        pairs += [(a, b) for b in forms for a in forms]
    pairs, closed, filtered = _closed_and_filtered(monkeypatch, pairs)
    assert len(pairs) > 10000
    for pair, got, expected in zip(pairs, closed, filtered):
        assert got == expected, pair
    assert sum(map(bool, closed)) > 1000


def test_composite_closed_form_equals_the_filter_on_seeded_forms(monkeypatch):
    # 300 seeded N < 10^5 with a nondegenerate Q_1; t is x^2 Q_1 for a
    # random unit x in every other case, so that half of them have roots
    rng = random.Random(24)
    pairs = []
    while len(pairs) < 300:
        n = rng.randrange(2, 10**5)
        q1, x = rng.randrange(2 * n), rng.randrange(1, n)
        if gcd(x, n) > 1 or (q1 + n) % 2 == 0:  # Q_1 is odd for even N, even for odd N
            continue
        t = x * x * q1 % (2 * n) if len(pairs) % 2 else rng.randrange(0, 2 * n, 1 + n % 2)
        pairs.append((_cyclic(n, t), _cyclic(n, q1)))
    pairs, closed, filtered = _closed_and_filtered(monkeypatch, pairs)
    assert len(pairs) > 200
    for pair, got, expected in zip(pairs, closed, filtered):
        assert got == expected, pair
    assert sum(map(bool, closed)) >= 150


def test_a_wrong_prime_is_refused_at_once():
    # 25 is a power of 25 but no prime: the non-residue search stops at 25
    # (u = -1 passes Euler's test mod 25, so the square root is looked for)
    with pytest.raises(ValueError, match="not an odd prime"):
        finite_qform._cyclic_unit_roots(25, 2, 48, 25)
    a = cyclic_form(25, Fraction(2, 25))
    assert len(isometries_signed(a, a, -1)) == 2
    b = cyclic_form(1129, Fraction(2, 1129))
    assert len(isometries_signed(b, b, 1)) == 2


def test_cyclic_inverse_is_the_inverse_unit():
    a = cyclic_form(20018, Fraction(3, 20018))
    for f in isometries_signed(a, a, 1):
        back = f.inverse()
        assert f.compose(back) == back.compose(f) == identity_map(a)
        assert images_of(back) == ((pow(images_of(f)[0][0], -1, 20018),),)
    with pytest.raises(ValueError, match="not bijective"):
        map_from_images(a, a, ((2,),), 1).inverse()


def test_the_closed_form_is_not_capped_and_the_filter_is(monkeypatch):
    monkeypatch.setenv("K3FM_CAP", "10")
    big = cyclic_form(2**20, Fraction(1, 2**20))
    assert [images_of(f) for f in isometries_signed(big, big, 1)] == [((1,),), ((2**20 - 1,),)]
    prime = cyclic_form(10009, Fraction(2, 10009))
    assert len(isometries_signed(prime, prime, 1)) == 2
    composite = cyclic_form(20018, Fraction(1, 20018))
    anti = isometries_signed(composite, negate_form(composite), -1)
    assert [images_of(f) for f in anti] == [((1,),), ((20017,),)]
    phi = isometries_signed(prime, prime, -1)[0]
    assert phi.compose(phi.inverse()) == identity_map(prime)
    degenerate = cyclic_form(27, Fraction(6, 27))
    with pytest.raises(CapExceededError, match=r"\|A_3\| = 27, which exceeds the cap 10"):
        isometries_signed(degenerate, degenerate, 1)
    # the inverse enumerates only a part with two or more generators: A_2 of
    # Z/2 + Z/6 has order 4, under the cap, and A_2 of Z/4 + Z/12 has 16
    small = finite_form((2, 6), (Fraction(1, 2), Fraction(1, 6)))
    assert negation_map(small).inverse() == negation_map(small)
    non_cyclic = finite_form((4, 12), (Fraction(1, 4), Fraction(1, 12)))
    with pytest.raises(CapExceededError, match=r"\|A\| = 48; .* \|A_2\| = 16, which exceeds"):
        negation_map(non_cyclic).inverse()


def test_every_enumerated_part_is_within_the_cap_before_any_is_searched(monkeypatch):
    # Z/6 + Z/6: A_2 has order 4, under the cap 5, and A_3 has 9
    a = discriminant_form(diagonal_lattice(6, 6))
    calls = []
    monkeypatch.setattr(finite_qform, "isometries_signed", lambda *args: calls.append(args))
    monkeypatch.setenv("K3FM_CAP", "5")
    message = r"\|A\| = 36; .* \|A_3\| = 9, which exceeds the cap 5"
    with pytest.raises(CapExceededError, match=message):
        finite_qform.double_coset_count_by_parts(a, [], [negation_map(a)])
    assert calls == []
