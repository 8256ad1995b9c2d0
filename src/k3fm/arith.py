"""Elementary number theory: `prime_factors` is the package's one
factorization, and phi and the primality test are read off it.

`prime_factors` divides by 2 and the odd numbers up to TRIAL_BOUND; below
TRIAL_BOUND^2 that is all it does.  A cofactor m left past the bound has no
prime factor up to it, so m < TRIAL_BOUND^2 is prime.  A larger m is tested
by Miller-Rabin to the thirteen prime bases 2, ..., 41, which is a proof of
primality below psi_13 = 3317044064679887385961981 (Sorenson and Webster,
*Math. Comp.* 86, 2017): psi_12 = 318665857834031151167461 =
399165290221 * 798330580441 is a strong pseudoprime to the twelve bases
2, ..., 37, so twelve bases prove it only below psi_12.  A composite m is
split by Brent's rho (Brent, *BIT* 20, 1980), and a strong probable prime
at or above psi_13 is refused.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

from .errors import UnsupportedError

TRIAL_BOUND = 1000
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to all the bases


@lru_cache(maxsize=1)
def prime_factors(n: int) -> tuple:
    """The distinct primes dividing n >= 1, ascending: trial division by 2
    and the odd numbers up to TRIAL_BOUND, then `_split_cofactor`.  Raises
    UnsupportedError when a cofactor of at least PSI_13 is a strong probable
    prime to every base.

    The last n factored is kept (a one-entry memo; the tuple is immutable):
    a `table` row asks for the primes of p in `is_prime`, in each class
    representative's genus key and in the split of each genus member's
    A_S = Z/p, and factors p once.  A refusal is not kept."""
    primes = []
    p, step = 2, 1
    while p * p <= n:
        if p > TRIAL_BOUND:
            return tuple(primes) + tuple(sorted(_split_cofactor(n)))
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p, step = p + step, 2
    if n > 1:
        primes.append(n)
    return tuple(primes)


def _split_cofactor(m: int) -> set:
    """The primes of m > TRIAL_BOUND^2, which has no prime factor up to
    TRIAL_BOUND; a factor of m below TRIAL_BOUND^2 is therefore prime."""
    if m < TRIAL_BOUND * TRIAL_BOUND:
        return {m}
    if _strong_probable_prime(m):
        if m >= PSI_13:
            raise UnsupportedError(
                f"unsupported: {m} is a strong probable prime to the bases 2, ..., 41, "
                f"which prove primality only below psi_13 = {PSI_13}"
            )
        return {m}
    d = _brent_rho(m)
    if not 1 < d < m or m % d:
        raise RuntimeError(f"rho returned {d}, which is not a proper factor of {m}")
    return _split_cofactor(d) | _split_cofactor(m // d)


def _strong_probable_prime(m: int) -> bool:
    """Miller-Rabin on odd m > 41 to every base of MILLER_RABIN_BASES."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent_rho(m: int) -> int:
    """A proper factor of the odd composite m, by Brent's cycle finding on
    x -> x^2 + c mod m: the differences are multiplied in batches and one
    gcd taken per batch; a batch whose gcd is m is stepped through again one
    difference at a time, and a cycle that still closes on m is retried
    with the next c."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += batch
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g


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
