"""Finite quadratic forms (A, q) on finite abelian groups.

A form is stored in invariant-factor coordinates as integers over its
exponent N = d_k: generator orders d_1 | d_2 | ... | d_k (all > 1), the
table Q_i = N*q(g_i) mod 2N of the values in Q/2Z and the table
B_ij = N*b(g_i, g_j) mod N of the pairwise bilinear values in Q/Z.  Every
search and check runs on these integers; `q_gens`, `b_matrix` and
`evaluate_q` show the values as `Fraction`s, and `finite_form` reads them
from `Fraction`s.  Signed isometry enumeration, orthogonal groups,
subgroup closure and `double_coset_count` are brute force over these
coordinates, with one closed form: a cyclic form that is nondegenerate at
every prime of its order N, as every discriminant form is, has its maps
x -> u x straight from the unit square roots u, mod p^e for odd p
(Tonelli-Shanks, then Hensel; none for u = 1) and mod 2^(e+1) for p = 2
(one bit at a time), joined by CRT over the primes of N; no element is
searched.  O(A_p) = {+-1} of each `table` and `scan` row is the case u = 1.
`cyclic_orthogonal_order` counts the maps of (Z/n, 1/n), the rank-1 A, by
the same closed forms, one p-part at a time, and builds no map.

Double cosets H \\ O(A) / K have one count, `double_coset_count_by_parts`,
for every A, cyclic or not: every isometry keeps each p-part A_p, so O(A)
is the product of the O(A_p), and only the A_p are searched, a cyclic one
not at all when its units come in closed form.  The orbits are walked on
the product, each move one permutation of the elements of O(A), numbered
in mixed radix; K is walked first, and when it fills O(A) the count is 1
and a callable H is never called.  The whole-group functions are the
reference for the walk.

The size cap on what is enumerated lives here alone: K3FM_CAP (else
DEFAULT_CAP) is read by every isometry search or count, for the CLI and
library callers alike, and bounds each group that is enumerated: the
range(N) filter of a degenerate cyclic form, a non-cyclic search, each part
the walk searches and the inverse of a map between non-cyclic forms.  A group
that exceeds it raises CapExceededError; the closed forms, and the inverse
u -> u^-1 mod N of a map between cyclic forms, are not capped.

A map between two forms is checked on both tables scaled to the lcm of
their exponents.  Generation is tested by a Hermite basis of the images
stacked on diag(d_1, ..., d_k) rather than by building the span; on a
p-part (a search given its prime) by the determinant of the images mod p.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from . import intmat
from .arith import prime_factors
from .errors import CapExceededError, LatticeParseError

DEFAULT_CAP = 10_000


def _enumeration_cap() -> int:
    """The largest group a search may enumerate: K3FM_CAP if it is set, else
    DEFAULT_CAP.  Read when a search runs, so it binds every caller alike."""
    raw = os.environ.get("K3FM_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise LatticeParseError(f"K3FM_CAP must be an integer, got {raw!r}") from exc
    if value < 1:
        raise LatticeParseError("K3FM_CAP must be positive")
    return value


def _check(orders, q_table, b_table, n: int) -> None:
    """Raise ValueError unless the values q_table[i] / n and b_table[i][j] / n
    on generators of the given orders make a form.  The checks and their
    order are those of the values themselves: each is exact at any scale n
    that makes every value an integer."""
    k = len(orders)
    if len(q_table) != k or len(b_table) != k or any(len(row) != k for row in b_table):
        raise ValueError("generator data lengths disagree")
    last = 1
    for d in orders:
        if not isinstance(d, int) or d <= 1:
            raise ValueError("orders must be integers > 1")
        if d % last != 0:
            raise ValueError("orders must form a divisibility chain")
        last = d
    for i, d in enumerate(orders):
        q = q_table[i]
        if not 0 <= q < 2 * n:
            raise ValueError("q values must be reduced into [0, 2)")
        if d * d * q % (2 * n):
            raise ValueError("q value incompatible with generator order")
        if (b_table[i][i] - q) % n:
            raise ValueError("b(g,g) must agree with q(g) mod Z")
        for j in range(k):
            b = b_table[i][j]
            if not 0 <= b < n:
                raise ValueError("b values must be reduced into [0, 1)")
            if b != b_table[j][i]:
                raise ValueError("b matrix must be symmetric")
            if d * b % n:
                raise ValueError("b value incompatible with generator order")


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """A finite abelian group with a Q/2Z-valued quadratic form, held as
    integer tables over the exponent N: q(g_i) = q_table[i] / N mod 2 and
    b(g_i, g_j) = b_table[i][j] / N mod 1."""

    orders: tuple
    q_table: tuple
    b_table: tuple

    def __post_init__(self):
        _check(self.orders, self.q_table, self.b_table, self.exponent)

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def exponent(self) -> int:
        return self.orders[-1] if self.orders else 1

    @property
    def q_gens(self) -> tuple:
        """q(g_i) in [0, 2), as `Fraction`s."""
        return tuple(Fraction(x, self.exponent) for x in self.q_table)

    @property
    def b_matrix(self) -> tuple:
        """b(g_i, g_j) in [0, 1), as `Fraction`s."""
        return tuple(tuple(Fraction(x, self.exponent) for x in row) for row in self.b_table)


def finite_form(orders, q_gens, b_matrix=None) -> FiniteQuadraticForm:
    """Build a form from rational values, defaulting the bilinear matrix to
    diag(q mod Z).  The values are checked at a common denominator of all of
    them, so a malformed input gets the message of its first failed check,
    and only then scaled to the exponent."""
    orders = tuple(int(d) for d in orders)
    q = [Fraction(x) % 2 for x in q_gens]
    if b_matrix is None:
        b_matrix = [[x if i == j else 0 for j in range(len(q))] for i, x in enumerate(q)]
    b = [[Fraction(x) % 1 for x in row] for row in b_matrix]
    n = orders[-1] if orders else 1
    m = lcm(n, *(x.denominator for x in q), *(x.denominator for row in b for x in row))
    _check(orders, [int(x * m) for x in q], [[int(x * m) for x in row] for row in b], m)
    return FiniteQuadraticForm(
        orders,
        tuple(int(x * n) for x in q),
        tuple(tuple(int(x * n) for x in row) for row in b),
    )


def trivial_form() -> FiniteQuadraticForm:
    return FiniteQuadraticForm((), (), ())


def cyclic_form(n: int, q) -> FiniteQuadraticForm:
    return finite_form((n,), (q,))


def negate_form(a: FiniteQuadraticForm) -> FiniteQuadraticForm:
    n = a.exponent
    q = tuple(-x % (2 * n) for x in a.q_table)
    b = tuple(tuple(-x % n for x in row) for row in a.b_table)
    return FiniteQuadraticForm(a.orders, q, b)


def _scaled_q(q_table, b_table, x) -> int:
    """N*q(x), not yet reduced mod 2N: sum x_i^2 Q_i + 2 sum_{i<j} x_i x_j B_ij."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            total += xi * xi * q_table[i]
            for j in range(i + 1, len(x)):
                total += 2 * xi * x[j] * b_table[i][j]
    return total


def _scaled_b(b_table, x, y) -> int:
    """N*b(x, y), not yet reduced mod N: sum x_i y_j B_ij."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * b_table[i][j]
    return total


# ---------------------------------------------------------------------------
# elements


def all_elements(a: FiniteQuadraticForm):
    """Lexicographic iteration over coefficient vectors mod orders."""
    return product(*(range(d) for d in a.orders))


def element_order(a: FiniteQuadraticForm, x) -> int:
    return lcm(1, *(d // gcd(d, xi) for xi, d in zip(x, a.orders)))


def evaluate_q(a: FiniteQuadraticForm, x) -> Fraction:
    """q(sum c_i g_i) = sum c_i^2 q(g_i) + 2 sum_{i<j} c_i c_j b(g_i, g_j) mod 2Z."""
    if len(x) != a.ngens:
        raise ValueError("coefficient vector length mismatch")
    n = a.exponent
    return Fraction(_scaled_q(a.q_table, a.b_table, x) % (2 * n), n)


def _generates(orders, images, prime: int | None = None) -> bool:
    """Whether the coefficient vectors generate Z/d_1 + ... + Z/d_k: exactly
    when the rows of the images and of diag(orders) span Z^k.  When every
    d_i is a power of `prime` and there are k >= 2 images, exactly when
    their k x k determinant is nonzero mod p: pB is the Frattini subgroup of
    the p-group B, so k elements generate B iff they span B/pB = (Z/p)^k."""
    k = len(orders)
    if k == 1:
        return gcd(orders[0], *(x[0] for x in images)) == 1
    if prime is not None:
        return intmat.det(images) % prime != 0
    diag = intmat.identity(k)
    rows = tuple(images) + tuple(tuple(d * e for e in row) for d, row in zip(orders, diag))
    return intmat.hermite_row_basis(rows) == diag


# ---------------------------------------------------------------------------
# maps


def _after(f_images, g_images, orders) -> tuple:
    """The images of f o g, from the images of f and of g: f, the
    homomorphism that sends generator i to f_images[i], applied to each
    image of g and reduced mod the target orders."""
    cols = tuple(zip(*f_images))
    return tuple(
        tuple(sum(map(mul, y, c)) % d for c, d in zip(cols, orders)) for y in g_images
    )


@dataclass(frozen=True)
class FiniteFormMap:
    """A group homomorphism with q_target(f(x)) = sign * q_source(x) mod 2Z."""

    source: FiniteQuadraticForm
    target: FiniteQuadraticForm
    images: tuple
    sign: int

    def apply(self, x) -> tuple:
        return _after(self.images, (x,), self.target.orders)[0]

    def compose(self, other: "FiniteFormMap") -> "FiniteFormMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("maps are not composable")
        images = _after(self.images, other.images, self.target.orders)
        return FiniteFormMap(other.source, self.target, images, self.sign * other.sign)

    def inverse(self) -> "FiniteFormMap":
        """The inverse map; between cyclic forms of one order N it sends the
        generator to u^-1 mod N, else it is read off every element of A."""
        if self.source.ngens == 1 and self.source.orders == self.target.orders:
            n, u = self.source.orders[0], self.images[0][0]
            if gcd(u, n) != 1:
                raise ValueError("map is not bijective")
            return FiniteFormMap(self.target, self.source, ((pow(u, -1, n),),), self.sign)
        _within_cap(self.source.order)
        back = {self.apply(x): x for x in all_elements(self.source)}
        if len(back) != self.source.order:
            raise ValueError("map is not bijective")
        units = [
            tuple(int(i == j) for j in range(self.target.ngens))
            for i in range(self.target.ngens)
        ]
        images = tuple(back[u] for u in units)
        return FiniteFormMap(self.target, self.source, images, self.sign)

    def map_order(self) -> int:
        ident = identity_map(self.source)
        power = self
        n = 1
        while power != ident:
            power = self.compose(power)
            n += 1
            if n > self.source.order * 2:
                raise RuntimeError("order computation runaway")
        return n


def identity_map(a: FiniteQuadraticForm) -> FiniteFormMap:
    images = tuple(
        tuple(int(i == j) for j in range(a.ngens)) for i in range(a.ngens)
    )
    return FiniteFormMap(a, a, images, 1)


def negation_map(a: FiniteQuadraticForm) -> FiniteFormMap:
    images = tuple(
        tuple((-int(i == j)) % a.orders[j] for j in range(a.ngens))
        for i in range(a.ngens)
    )
    return FiniteFormMap(a, a, images, 1)


def validate_map(f: FiniteFormMap) -> None:
    """Raise ValueError unless f is a bijective sign-twisted isometry.

    q and b are compared on integers, both tables scaled to N = the lcm of
    the two exponents: N*q mod 2N and N*b mod N.
    """
    a, b = f.source, f.target
    if f.sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a.order != b.order:
        raise ValueError("source and target orders differ")
    if len(f.images) != a.ngens:
        raise ValueError("one image per source generator required")
    n = lcm(a.exponent, b.exponent)
    ra, rb = n // a.exponent, n // b.exponent
    for i, img in enumerate(f.images):
        if len(img) != b.ngens:
            raise ValueError("image vector length mismatch")
        if a.orders[i] % element_order(b, img) != 0:
            raise ValueError("image order does not divide generator order")
        if (_scaled_q(b.q_table, b.b_table, img) * rb - f.sign * a.q_table[i] * ra) % (2 * n):
            raise ValueError("map does not rescale q by its sign")
        for j in range(i):
            pairing = _scaled_b(b.b_table, img, f.images[j]) * rb
            if (pairing - f.sign * a.b_table[i][j] * ra) % n:
                raise ValueError("map does not rescale b by its sign")
    if not _generates(b.orders, f.images):
        raise ValueError("images do not generate the target group")


def _sqrt_mod_prime(u: int, p: int) -> int:
    """A square root of the quadratic residue u mod the odd prime p, by
    Tonelli-Shanks (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 1.5.1)."""
    s, m = 0, p - 1
    while m % 2 == 0:
        m //= 2
        s += 1
    z = next((z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), None)
    if z is None:
        raise ValueError(f"no quadratic non-residue below {p}: it is not an odd prime")
    c, t, r = pow(z, m, p), pow(u, m, p), pow(u, (m + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        f = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, f * f % p, t * f * f % p, r * f % p
    return r


def _cyclic_unit_roots(n: int, q1: int, t: int, p: int | None = None):
    """The units x of Z/n with x^2 Q_1 = t mod 2n, ascending, in closed form
    when the form is nondegenerate at every prime of n: p odd not dividing
    Q_1, and Q_1 odd when n is even; None otherwise, and the caller filters
    over range(n).  p is the prime of n when the caller knows n = p^e;
    otherwise n is factored here.  Q_1 and t are reduced mod 2n, and even
    for odd n, as on every form of order n.

    For n = p^e with p odd the congruence reads x^2 = u = (t/2)(Q_1/2)^-1
    mod n.  For u = 1 (t = Q_1) the roots are +-1.  Any other unit u that
    is a residue mod p has exactly the two roots +-r, r found mod p and
    Hensel-lifted to p^e; a non-unit or non-residue u has no unit root.

    For n = 2^e it reads x^2 = u = t Q_1^-1 mod 2n, and x^2 mod 2n depends
    only on x mod n.  An odd square is 1 mod min(8, 2n); such a u has the
    roots +-r and +-r + n mod 2n, r lifted one bit at a time, and these are
    +-r mod n.

    For composite n the congruence holds mod 2n iff it holds mod 2^(a+1)
    for the 2^a exactly dividing n and mod p^e for each odd p^e: each is
    solved by the prime-power case, and the roots are joined by CRT
    (Cohen, *A Course in Computational Algebraic Number Theory*, section 1.3)."""
    if p is None:
        primes = (2,) if n & (n - 1) == 0 else prime_factors(n)
        if len(primes) > 1:
            return _crt_unit_roots(n, q1, t, primes)
        p = primes[0]
    if p == 2:
        if q1 % 2 == 0:
            return None
        two_n = 2 * n
        u = t * pow(q1, -1, two_n) % two_n
        if u % 8 != 1:  # for 2n < 8, u is reduced: this reads u = 1 mod 2n
            return []
        r, m = 1, 8
        while m < two_n:  # r^2 = u mod m; fix the bit that makes it hold mod 2m
            if (r * r - u) % (2 * m):
                r += m // 2
            m *= 2
        return sorted({r % n, -r % n})
    if (q1 // 2) % p == 0:
        return None
    if t == q1:
        return [1, n - 1]
    u = t // 2 * pow(q1 // 2, -1, n) % n
    if u % p == 0 or pow(u, (p - 1) // 2, p) != 1:
        return []
    r, m = _sqrt_mod_prime(u % p, p), p
    while m < n:  # Newton step: a root mod m is a root mod min(m^2, n)
        m = min(m * m, n)
        r = (r - (r * r - u) * pow(2 * r, -1, m)) % m
    return sorted((r, n - r))


def _crt_unit_roots(n: int, q1: int, t: int, primes) -> list | None:
    """`_cyclic_unit_roots` for n with the given primes, two or more: the
    roots mod each prime power p^e of n, joined by CRT.  Mod p^e, for odd p,
    x^2 Q_1 = t is the prime-power case on 2Q_1 and 2t mod 2p^e."""
    roots, m = [0], 1
    for p in primes:
        pe = p
        while n % (pe * p) == 0:
            pe *= p
        if p == 2:
            part = _cyclic_unit_roots(pe, q1 % (2 * pe), t % (2 * pe), 2)
        else:
            part = _cyclic_unit_roots(pe, 2 * q1 % (2 * pe), 2 * t % (2 * pe), p)
        if not part:  # None: degenerate at p; []: no root mod p^e
            return part
        step = m * pow(m, -1, pe)  # 1 mod p^e and 0 mod m
        m *= pe
        roots = [(r + (s - r) * step) % m for r in roots for s in part]
    return sorted(roots)


def cyclic_orthogonal_order(n: int, primes) -> int:
    """|O(A)| for the cyclic form A = (Z/n, q(g) = 1/n), n even, given the
    primes of n, in closed form: the product over p^e exactly dividing n of
    the unit roots of the p-part, generated by m g for m = n/p^e, with
    Q_p = m mod 2p^e (`_cyclic_unit_roots`).  No form, part or map is
    built.  K3FM_CAP is read, as by every isometry search, though nothing
    is enumerated."""
    if n % 2:
        raise ValueError("q(g) = 1/n makes a form only for even n")
    _enumeration_cap()
    size = 1
    for p in primes:
        pe = p
        while n % (pe * p) == 0:
            pe *= p
        q = n // pe % (2 * pe)
        size *= len(_cyclic_unit_roots(pe, q, q, p))
    return size


def _within_cap(order: int) -> None:
    """Raise CapExceededError before a group of this order is enumerated."""
    cap = _enumeration_cap()
    if order > cap:
        raise CapExceededError(
            f"finite group too large: |A| = {order} exceeds the cap {cap}"
            " (raise it with K3FM_CAP)"
        )


def isometries_signed(
    a: FiniteQuadraticForm,
    b: FiniteQuadraticForm,
    sign: int,
    _first_only: bool = False,
    prime: int | None = None,
) -> list:
    """All bijective maps f: A -> B with q_B(f(x)) = sign * q_A(x).

    A cyclic form's maps are g -> x g for the units x with x^2 Q_1 = t, in
    ascending order: `_cyclic_unit_roots` gives them in closed form when the
    form is nondegenerate at every prime of N (every discriminant form of a
    lattice is), and they are returned at once; a degenerate cyclic form
    filters range(N).  A non-cyclic form is searched: generator images are
    tried in lexicographic order of coefficient vectors, so the first entry
    of the result is the canonical choice.  `prime` is p when A and B are
    p-groups (a `PrimaryPart`), so that N is not factored again and
    generation is a determinant mod p (`_generates`); an order that is not
    a power of `prime` raises ValueError.

    K3FM_CAP is read on every call with equal invariant factors, but the cap
    is compared with |A| only before an enumeration: the range(N) filter or
    the search of a non-cyclic form.  The closed form is not capped.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a.orders != b.orders:
        return []
    _enumeration_cap()  # a malformed K3FM_CAP fails every call, searching or not
    orders = b.orders
    k = len(orders)
    if k == 0:
        return [FiniteFormMap(a, b, (), sign)]
    n = orders[-1]
    if prime is not None:
        m = n
        while prime > 1 and m % prime == 0:
            m //= prime
        if m != 1:
            raise ValueError(f"the group order {a.order} is not a power of prime = {prime}")
    two_n = 2 * n

    if k == 1:
        # cyclic: q(x g) = x^2 Q_1 mod 2N, and x g generates iff x is a unit
        q1, t = b.q_table[0], sign * a.q_table[0] % two_n
        roots = _cyclic_unit_roots(n, q1, t, prime)
        if roots is None:
            _within_cap(a.order)
            roots = [x for x in range(n) if x * x * q1 % two_n == t and gcd(x, n) == 1]
        if _first_only:
            roots = roots[:1]
        return [FiniteFormMap(a, b, ((x,),), sign) for x in roots]

    _within_cap(a.order)
    qb, bb = b.q_table, b.b_table
    target_q = [sign * x % two_n for x in a.q_table]
    target_b = [[sign * x % n for x in row] for row in a.b_table]
    # elements of B by q-value, each bucket in lexicographic order
    by_q: dict[int, list] = {}
    for x in all_elements(b):
        by_q.setdefault(_scaled_q(qb, bb, x) % two_n, []).append(x)
    candidates = [
        [
            x
            for x in by_q.get(target_q[i], ())
            if all(d_i * xj % dj == 0 for xj, dj in zip(x, orders))
        ]
        for i, d_i in enumerate(orders)
    ]

    results: list[FiniteFormMap] = []
    images: list[tuple] = []
    # pairing rows of the chosen images: b(x, y) * N = sum_s x_s row_y[s] mod N
    rows: list[list] = []

    def backtrack(i: int) -> bool:
        if i == k:
            if _generates(orders, images, prime):
                results.append(FiniteFormMap(a, b, tuple(images), sign))
                return _first_only
            return False
        want = target_b[i]
        for x in candidates[i]:
            if all(sum(map(mul, x, rows[j])) % n == want[j] for j in range(i)):
                images.append(x)
                rows.append([sum(map(mul, bs, x)) for bs in bb])
                if backtrack(i + 1):
                    return True
                images.pop()
                rows.pop()
        return False

    backtrack(0)
    return results


def are_isometric(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> bool:
    return bool(isometries_signed(a, b, 1, _first_only=True))


# ---------------------------------------------------------------------------
# orthogonal groups and double cosets


@dataclass(frozen=True)
class FiniteOrthogonalGroup:
    """The full group of sign +1 self-isometries of a form, fully enumerated."""

    form: FiniteQuadraticForm
    elements: tuple
    _element_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_element_set", frozenset(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, f) -> bool:
        return f in self._element_set

    def identity(self) -> FiniteFormMap:
        return identity_map(self.form)

    def negation(self) -> FiniteFormMap:
        return negation_map(self.form)


def orthogonal_group(a: FiniteQuadraticForm) -> FiniteOrthogonalGroup:
    elems = isometries_signed(a, a, 1)
    return FiniteOrthogonalGroup(a, tuple(elems))


def subgroup_generated(group: FiniteOrthogonalGroup, gens) -> tuple:
    """Closure of the generators (plus identity) under composition."""
    gens = list(gens)
    for g in gens:
        if g not in group:
            raise ValueError("generator is not an element of the group")
    ident = group.identity()
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g.compose(x)
            if y not in seen:
                seen.add(y)
                out.append(y)
                frontier.append(y)
    return tuple(out)


def double_coset_count(group: FiniteOrthogonalGroup, h_gens, k_gens) -> int:
    """Number of orbits of (h, k) . x = h o x o k^-1 on the group's elements.

    Since H and K are closed under inversion the orbit of x is just the set
    {h o x o k}, computed directly per unvisited element.
    """
    h_sub = subgroup_generated(group, h_gens)
    k_sub = subgroup_generated(group, k_gens)
    visited: set[FiniteFormMap] = set()
    count = 0
    total = 0
    for x in group.elements:
        if x in visited:
            continue
        orbit = {h.compose(x).compose(k) for h in h_sub for k in k_sub}
        visited |= orbit
        total += len(orbit)
        count += 1
    if total != len(group):
        raise RuntimeError("double cosets do not partition the group")
    return count


# ---------------------------------------------------------------------------
# p-parts: A = (+)_p A_p, and every isometry preserves each A_p (Nikulin 1979)


@dataclass(frozen=True)
class PrimaryPart:
    """The p-part A_p of a form A with invariant factors d_1 | ... | d_k.

    Each d_i = m_i p^e_i with p not dividing m_i; for the i with e_i > 0
    (`index`) A_p has the generator h_i = m_i g_i of order p^e_i, and these
    orders again form a chain.  A vector c of A_p written on the g_i has
    c_i = m_i x_i mod d_i, so its A_p coordinates are x_i = c_i / m_i."""

    p: int
    form: FiniteQuadraticForm
    index: tuple
    mult: tuple

    def restrict(self, f: FiniteFormMap) -> tuple:
        """The images of the h_i under f, in A_p coordinates.  A homomorphism
        keeps A_p, so each image must come back unchanged from its A_p
        coordinates; one that does not is a broken invariant."""
        out = []
        for i, m_i in zip(self.index, self.mult):
            c = [m_i * x % d for x, d in zip(f.images[i], f.target.orders)]
            x = tuple(c[j] // m_j for j, m_j in zip(self.index, self.mult))
            back = [0] * len(c)
            for j, m_j, x_j in zip(self.index, self.mult, x):
                back[j] = m_j * x_j
            if back != c:
                raise RuntimeError(f"map does not preserve the {self.p}-part")
            out.append(x)
        return tuple(out)


def primary_parts(a: FiniteQuadraticForm) -> tuple:
    """The p-parts of A, one per prime dividing the exponent d_k, ascending.
    A form whose order is a prime power is its own single part."""
    if a.ngens == 0:
        return ()
    primes = prime_factors(a.orders[-1])
    if len(primes) == 1:
        return (PrimaryPart(primes[0], a, tuple(range(a.ngens)), (1,) * a.ngens),)
    parts = []
    for p in primes:
        index, mult, orders = [], [], []
        for i, d in enumerate(a.orders):
            m = d
            while m % p == 0:
                m //= p
            if m != d:
                index.append(i)
                mult.append(m)
                orders.append(d // m)
        # at the exponent n_p of A_p: n_p q(m_i g_i) = m_i^2 Q_i / r with
        # r = N / n_p, exact because m_i g_i has order dividing n_p
        n_p = orders[-1]
        r = a.exponent // n_p
        pairs = list(zip(index, mult))
        q = tuple(m * m * a.q_table[i] // r % (2 * n_p) for i, m in pairs)
        b = tuple(
            tuple(mi * mj * a.b_table[i][j] // r % n_p for j, mj in pairs) for i, mi in pairs
        )
        form = FiniteQuadraticForm(tuple(orders), q, b)
        parts.append(PrimaryPart(p, form, tuple(index), tuple(mult)))
    return tuple(parts)


def _searched(part: PrimaryPart) -> bool:
    """Whether `isometries_signed` enumerates A_p to find O(A_p): always,
    unless A_p is cyclic and its units come in closed form
    (`_cyclic_unit_roots`)."""
    if part.form.ngens > 1:
        return True
    n, q1 = part.form.orders[0], part.form.q_table[0]
    return _cyclic_unit_roots(n, q1, q1, part.p) is None


def _tables(a: FiniteQuadraticForm, parts, groups, gens, left: bool) -> list:
    """Per generator, its tables of element indices on each O(A_p): left
    composition x -> g o x when `left`, else right composition x -> x o g.
    `groups` holds, per part, the elements of O(A_p) and their index."""
    for g in gens:
        if g.source != a or g.target != a or g.sign != 1:
            raise RuntimeError("generator is not a self-isometry of the form")
    out = []
    for g in gens:
        tables = []
        for part, (elements, where) in zip(parts, groups):
            orders = part.form.orders
            try:
                g_p = elements[where[part.restrict(g)]]
                if left:
                    tables.append(tuple([where[_after(g_p, x, orders)] for x in elements]))
                else:
                    tables.append(tuple([where[_after(x, g_p, orders)] for x in elements]))
            except KeyError:
                raise RuntimeError(f"a generator does not restrict into O(A_{part.p})") from None
        out.append(tuple(tables))
    return out


def _permutations(tables: list, sizes: list) -> list:
    """One permutation of the elements of O(A), numbered by their index
    tuples in mixed radix, per generator whose tables move something new:
    one that repeats another's tables, or fixes every index, is left out."""
    identity = tuple(tuple(range(size)) for size in sizes)
    perms = []
    for per_part in dict.fromkeys(tables):
        if per_part != identity:
            perm = [0]
            for table, size in zip(per_part, sizes):
                perm = [x * size + y for x in perm for y in table]
            perms.append(perm)
    return perms


def _walk_orbit(x: int, perms: list, orbit_of: list, label: int) -> int:
    """Label the orbit of x under the permutations and return its size;
    reaching an element labelled before breaks the partition."""
    orbit_of[x] = label
    frontier = [x]
    size = 1
    while frontier:
        y = frontier.pop()
        for perm in perms:
            z = perm[y]
            if orbit_of[z] != label:
                if orbit_of[z]:
                    raise RuntimeError("double cosets do not partition the group")
                orbit_of[z] = label
                frontier.append(z)
                size += 1
    return size


def double_coset_count_by_parts(a: FiniteQuadraticForm, h_gens, k_gens) -> int:
    """Number of double cosets H \\ O(A) / K, found one p-part at a time.

    This is the one double-coset count of the package; `double_coset_count`
    on the whole group is its reference.  O(A) is the product of the
    O(A_p), each from `isometries_signed` on A_p alone: a cyclic A_p whose
    units come in closed form is not searched, and the cap bounds each A_p
    that is searched, before any is, so the search costs the sum of those
    |A_p|.  Each generator is restricted to every part and must land in
    O(A_p); it then acts on O(A_p) by a table of element indices
    (`_tables`), and on the elements of O(A), numbered by their index
    tuples in mixed radix, by one permutation (`_permutations`).  K is
    walked first: when the orbit of one element under K alone is all of
    O(A), the count is 1 and H is not needed, so `h_gens` may be a callable
    that returns the generators, called only when the orbits of
    x -> h o x o k must be walked; a list of generators is checked all the
    same.
    Agrees with `double_coset_count(orthogonal_group(a), h_gens, k_gens)`.
    """
    cap = _enumeration_cap()
    parts = primary_parts(a)
    for part in parts:
        if part.form.order > cap and _searched(part):
            raise CapExceededError(
                f"finite group too large: |A| = {a.order}; its p-part for p = {part.p} "
                f"has |A_{part.p}| = {part.form.order}, which exceeds the cap {cap}"
                " (raise it with K3FM_CAP)"
            )
    groups = []
    for part in parts:
        elements = [f.images for f in isometries_signed(part.form, part.form, 1, prime=part.p)]
        groups.append((elements, {x: i for i, x in enumerate(elements)}))
    sizes = [len(elements) for elements, _ in groups]
    h_tables = None if callable(h_gens) else _tables(a, parts, groups, h_gens, left=True)
    k_tables = _tables(a, parts, groups, k_gens, left=False)
    k_perms = _permutations(k_tables, sizes)
    orbit_of = [0] * prod(sizes)
    if _walk_orbit(0, k_perms, orbit_of, 1) == len(orbit_of):
        return 1
    if h_tables is None:
        h_tables = _tables(a, parts, groups, h_gens(), left=True)
    perms = k_perms + _permutations([t for t in h_tables if t not in k_tables], sizes)
    orbit_of = [0] * len(orbit_of)
    count = 0
    for x in range(len(orbit_of)):
        if not orbit_of[x]:
            count += 1
            _walk_orbit(x, perms, orbit_of, count)
    return count
