"""`k3fm.arith` against naive references for every n <= 5000.  prime_factors
and euler_phi are checked in test_genus_key and test_fm_count."""

from math import isqrt

from k3fm.arith import divisors, is_prime, primes_one_mod_four, tau

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
