"""Number theory that only the tests use.  The package never lists divisors
or counts primes, and it factors by trial division alone only below
`arith.TRIAL_BOUND`^2; `trial_division_prime_factors` is that loop run to
the end, the reference for `arith.prime_factors`."""


def trial_division_prime_factors(n: int) -> tuple:
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
    return max(1, len(trial_division_prime_factors(n)))


def divisors(n: int) -> list:
    """The positive divisors of n >= 1, ascending."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]
