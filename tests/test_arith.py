"""`k3fm.arith` against naive references for every n <= 5000, and
`prime_factors` for every n <= 10^5, against trial division on seeded
n < 10^12, on products of known primes up to 10^24 and on strong
pseudoprimes.  euler_phi is checked in test_genus_key and test_fm_count.
`xgcd` is checked as a Bezout identity on small and seeded pairs.
`divisors` and `tau`, which only the tests use, live in `reference_arith`
and are checked here too."""

import random
from math import gcd, isqrt, prod

import pytest
from reference_arith import divisors, tau, trial_division_prime_factors

from k3fm import arith
from k3fm.arith import PSI_13, is_prime, prime_factors, primes_one_mod_four, xgcd
from k3fm.errors import UnsupportedError

N = 5000


def naive_is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


NAIVE_PRIMES = [p for p in range(N + 1) if naive_is_prime(p)]


def test_tau_counts_distinct_primes_and_is_one_at_one():
    assert tau(1) == 1
    for n in range(2, N + 1):
        assert tau(n) == sum(1 for p in NAIVE_PRIMES if p <= n and n % p == 0), n


def test_is_prime():
    assert [is_prime(n) for n in (0, 1, 2)] == [False, False, True]
    assert not is_prime(-7)
    for n in range(N + 1):
        assert is_prime(n) == naive_is_prime(n), n


def test_divisors():
    for n in range(1, N + 1):
        assert divisors(n) == [k for k in range(1, n + 1) if n % k == 0], n


def test_primes_one_mod_four():
    for bound in (0, 1, 4, 5, 12, 13, 14, 1000, N):
        expected = [p for p in NAIVE_PRIMES if p <= bound and p % 4 == 1]
        assert primes_one_mod_four(bound) == expected, bound


def test_xgcd_is_a_bezout_identity():
    rng = random.Random(30)
    pairs = [(x, y) for x in range(-12, 13) for y in range(-12, 13)]
    pairs += [(rng.randint(-(10**18), 10**18), rng.randint(-(10**6), 10**6)) for _ in range(2000)]
    for x, y in pairs:
        g, s, t = xgcd(x, y)
        assert g == gcd(x, y) and s * x + t * y == g, (x, y)
    assert xgcd(0, 0) == (0, 1, 0)


def test_prime_factors_up_to_1e5():
    bound = 10**5
    smallest = list(range(bound + 1))  # smallest prime factor, by a sieve
    for p in range(2, isqrt(bound) + 1):
        if smallest[p] == p:
            for m in range(p * p, bound + 1, p):
                if smallest[m] == m:
                    smallest[m] = p
    assert prime_factors(1) == ()
    for n in range(2, bound + 1):
        expected, m = [], n
        while m > 1:
            p = smallest[m]
            expected.append(p)
            while m % p == 0:
                m //= p
        assert prime_factors(n) == tuple(expected), n


@pytest.mark.parametrize(
    "p, q", [(2, 999999999989), (999983, 999983), (999983, 1000003), (1000003, 1000033)]
)
def test_prime_factors_of_two_primes_near_1e6(p, q):
    assert naive_is_prime(p) and naive_is_prime(q)
    assert prime_factors(p * q) == tuple(sorted({p, q}))


def test_prime_factors_equals_trial_division_on_seeded_n_below_1e12():
    rng = random.Random(25)
    for n in [rng.randrange(1, 10**12) for _ in range(300)] + [10**12 - 11, 2 * 999999999989]:
        assert prime_factors(n) == trial_division_prime_factors(n), n


def test_a_cofactor_past_the_trial_bound():
    bound = arith.TRIAL_BOUND
    assert bound >= 100
    # 1009 is the least prime above 1000: 1009^2 is the least composite with no
    # prime factor up to the bound, and the least cofactor that is tested
    assert prime_factors(1009**2) == (1009,)
    assert prime_factors(1009 * 1013) == (1009, 1013)
    assert prime_factors(997 * 1009**2 * 1013**3) == (997, 1009, 1013)
    assert prime_factors(2**40 * 1000003**3) == (2, 1000003)


# primes proved by trial division (`reference_arith`), and 2^61 - 1
SMALL_PRIMES = (1009, 1013, 999983, 1000003, 2147483647, 999999937, 1000000007, 1000000009)
LARGE_PRIMES = (99999999977, 999999999989, 1000000000039, 2**61 - 1)


def test_the_known_primes_are_prime():
    for p in SMALL_PRIMES + LARGE_PRIMES[:-1]:
        assert trial_division_prime_factors(p) == (p,), p
        assert prime_factors(p) == (p,), p
    assert prime_factors(LARGE_PRIMES[-1]) == (LARGE_PRIMES[-1],)


def test_products_of_known_primes_up_to_1e24():
    # one prime above 10^10 at most in a seeded product, so rho meets a
    # smaller factor first; the fixed products have no factor below 10^8
    rng = random.Random(2017)
    seen = 0
    while seen < 60:
        primes = set(rng.sample(SMALL_PRIMES, rng.randint(1, 3))) | {rng.choice(LARGE_PRIMES)}
        primes |= set(rng.choice(((), (2,), (2, 3), (2, 3, 5, 7))))
        n = prod(p ** (rng.randint(1, 3) if p < 10**7 else 1) for p in primes)
        if n < 10**24:
            assert prime_factors(n) == tuple(sorted(primes)), n
            seen += 1
    assert prime_factors(99999999977 * 999999999989) == (99999999977, 999999999989)
    assert prime_factors(999999937 * 1000000007 * 1000000009) == (999999937, 1000000007, 1000000009)


def strong_probable_prime(n: int, base: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@pytest.mark.parametrize(
    "n, primes, fooled",
    [
        (3215031751, (151, 751, 28351), 4),  # the least to the bases 2, 3, 5, 7
        (3825123056546413051, (149491, 747451, 34233211), 11),  # psi_11: bases 2 ... 31
        (318665857834031151167461, (399165290221, 798330580441), 12),  # psi_12: bases 2 ... 37
    ],
)
def test_strong_pseudoprimes_factor(n, primes, fooled):
    assert prod(primes) == n
    assert all(strong_probable_prime(n, a) for a in BASES[:fooled])
    assert not strong_probable_prime(n, BASES[fooled])
    assert prime_factors(n) == primes
    assert prime_factors(2 * n) == (2,) + primes


def test_psi_13_is_refused_with_its_bound():
    assert PSI_13 == 1287836182261 * 2575672364521
    assert arith.MILLER_RABIN_BASES == BASES
    assert all(strong_probable_prime(PSI_13, a) for a in BASES)
    for n in (PSI_13, 2 * PSI_13):
        with pytest.raises(UnsupportedError, match=f"psi_13 = {PSI_13}"):
            prime_factors(n)


def test_every_factor_of_rho_is_checked_by_division(monkeypatch):
    monkeypatch.setattr(arith, "_brent_rho", lambda m: 1009)
    with pytest.raises(RuntimeError, match="not a proper factor"):
        prime_factors(1000003 * 1000033)
