"""Number theory the benchmark computes on its own, without importing k3fm.

These helpers build workload inputs, estimate their cost for stratified
sampling, and give the answer checks a path independent of the program:
trial-division factoring, and the proper classes of indefinite binary
quadratic forms as cycles of reduced forms.
"""

from __future__ import annotations

from math import isqrt


def factorize(n: int) -> dict:
    """Prime -> exponent, by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def tau(n: int) -> int:
    """Number of distinct primes of n, with tau(1) = 1 (the rank-1 law's
    convention)."""
    return 1 if n == 1 else len(factorize(n))


def divisors(n: int) -> list:
    small = [a for a in range(1, isqrt(n) + 1) if n % a == 0]
    return sorted(set(small + [n // a for a in small]))


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def is_discriminant(d: int) -> bool:
    """Positive, non-square and 0 or 1 mod 4."""
    return d > 0 and d % 4 in (0, 1) and isqrt(d) ** 2 != d


def _is_reduced(a: int, b: int, d: int) -> bool:
    """0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b."""
    ta = 2 * abs(a)
    if b <= 0 or b * b >= d:
        return False
    return (ta + b) ** 2 > d and (ta <= b or (ta - b) ** 2 < d)


def reduced_forms(d: int) -> list:
    """All reduced forms (a, b, c) of discriminant d, sorted."""
    out = []
    for b in range(d % 2 or 2, isqrt(d) + 1, 2):
        n = (d - b * b) // 4
        for a in divisors(n):
            for f in ((a, b, -(n // a)), (-a, b, n // a)):
                if _is_reduced(f[0], b, d):
                    out.append(f)
    return sorted(out)


def rho(f: tuple, d: int) -> tuple:
    """The neighbour (c, b', (b'^2 - d) / 4c) of a reduced form, with
    b' = -b mod 2|c| taken as large as possible below sqrt(d)."""
    _, b, c = f
    root = isqrt(d)
    bp = root - (root + b) % (2 * abs(c))
    return (c, bp, (bp * bp - d) // (4 * c))


def proper_cycles(d: int) -> list:
    """The cycles of reduced forms under rho; one cycle per proper class."""
    if not is_discriminant(d):
        raise ValueError(f"{d} is not a positive non-square discriminant")
    remaining = set(reduced_forms(d))
    cycles = []
    for f in sorted(remaining):
        if f not in remaining:
            continue
        cyc = [f]
        cur = rho(f, d)
        while cur != f:
            cyc.append(cur)
            cur = rho(cur, d)
        remaining.difference_update(cyc)
        cycles.append(tuple(cyc))
    return cycles


def class_number(d: int) -> int:
    return len(proper_cycles(d))


def principal_form(d: int) -> tuple:
    """(1, b0, (b0^2 - d) / 4) with b0 the largest integer of d's parity
    below sqrt(d)."""
    root = isqrt(d)
    b0 = root if (root - d) % 2 == 0 else root - 1
    return (1, b0, (b0 * b0 - d) // 4)
