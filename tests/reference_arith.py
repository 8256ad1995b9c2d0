"""Number theory that only the tests use: the package itself never lists
divisors."""


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
