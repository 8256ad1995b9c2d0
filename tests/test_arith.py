"""`k3fm.arith` against naive references for every n <= 5000, and
`prime_factors` for every n <= 10^5 and on products of two primes near 10^6.
euler_phi is checked in test_genus_key and test_fm_count.  `divisors`, which
only the tests use, lives in `reference_arith` and is checked here too."""

from math import isqrt

import pytest
from reference_arith import divisors

from k3fm.arith import is_prime, prime_factors, primes_one_mod_four, tau

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
