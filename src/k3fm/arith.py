"""Elementary number theory: `prime_factors` is the package's one
factorization, and tau, phi and the primality test are read off it.
"""

from __future__ import annotations

from math import isqrt, prod


def prime_factors(n: int) -> tuple:
    """The distinct primes dividing n >= 1, ascending, by trial division by 2
    and the odd numbers."""
    primes = []
    p, step = 2, 1
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p, step = p + step, 2
    if n > 1:
        primes.append(n)
    return tuple(primes)


def tau(n: int) -> int:
    """Distinct prime count of n, by convention 1 for n = 1 (this makes the
    rank-1 partner formula uniform)."""
    return max(1, len(prime_factors(n)))


def euler_phi(n: int) -> int:
    primes = prime_factors(n)
    return n // prod(primes) * prod(p - 1 for p in primes)


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


def primes_one_mod_four(bound: int) -> list:
    """The primes p = 1 mod 4 up to the bound, by a sieve."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(5, bound + 1) if sieve[p] and p % 4 == 1]
