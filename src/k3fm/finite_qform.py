"""Finite quadratic forms (A, q) on finite abelian groups.

A form is stored in invariant-factor coordinates as integers over its
exponent N = d_k: generator orders d_1 | d_2 | ... | d_k (all > 1), the
table Q_i = N*q(g_i) mod 2N of the values in Q/2Z and the table
B_ij = N*b(g_i, g_j) mod N of the pairwise bilinear values in Q/Z.  Every
search and check runs on these integers; `q_gens`, `b_matrix`, `evaluate_q`
and `evaluate_b` show the values as `Fraction`s, and `finite_form` reads
them from `Fraction`s.  Signed isometry enumeration, orthogonal groups,
subgroup closure and `double_coset_count` are brute force over these
coordinates, with one closed form: a nondegenerate cyclic group of
prime-power order p^e gets its candidate images from a square root, mod
p^e for odd p (Tonelli-Shanks, then Hensel) and mod 2^(e+1) for p = 2 (one
bit at a time), not from a filter over the whole group; that is
O(A_p) = {+-1} of each `table` and `scan` row.

Double cosets H \\ O(A) / K are counted on the p-parts A_p of A: every
isometry keeps each A_p, so O(A) is the product of the O(A_p), and only the
A_p are searched.  When every A_p is cyclic (A is cyclic), O(A) is an
abelian group of unit tuples and `cyclic_coset_count` returns
|O(A)| / |<H u K>| without walking orbits; otherwise
`double_coset_count_by_parts` walks the orbits on the product of the
O(A_p).  The walk is also the reference for the closed count, and the
whole-group functions are the reference for the walk.

The size cap on what is enumerated lives here alone: K3FM_CAP (else
DEFAULT_CAP) is read by every isometry search, for the CLI and library
callers alike, and bounds each group that is enumerated: the range(N)
filter of a cyclic form without a closed form, a non-cyclic search, each
part the walk searches and `FiniteFormMap.inverse`.  A group that exceeds
it raises CapExceededError; the closed forms are not capped.

A map between two forms is checked on both tables scaled to the lcm of
their exponents.  Generation is tested by a Hermite basis of the images
stacked on diag(d_1, ..., d_k) rather than by building the span.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

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


def canonical_form(orders_raw, q_raw, b_raw, n: int) -> FiniteQuadraticForm:
    """Rewrite a generator presentation (orders not necessarily a chain),
    given by integer tables over its exponent n = lcm(orders_raw), in
    invariant-factor coordinates via the Smith form of the relation matrix.
    The exponent of the group, hence of the result, is n again."""
    k = len(orders_raw)
    if k == 0:
        return trivial_form()
    rel = tuple(
        tuple(orders_raw[i] if i == j else 0 for j in range(k)) for i in range(k)
    )
    u, d, _ = intmat.smith_normal_form(rel)
    w = intmat.unimodular_inverse(u)
    keep = [i for i in range(k) if d[i][i] > 1]
    gens = []
    for i in keep:
        vec = tuple(w[r][i] % orders_raw[r] for r in range(k))
        gens.append(vec)
    orders = tuple(d[i][i] for i in keep)
    q = tuple(_scaled_q(q_raw, b_raw, g) % (2 * n) for g in gens)
    b = tuple(tuple(_scaled_b(b_raw, gi, gj) % n for gj in gens) for gi in gens)
    return FiniteQuadraticForm(orders, q, b)


def orthogonal_sum(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> FiniteQuadraticForm:
    n = lcm(a.exponent, b.exponent)
    ra, rb = n // a.exponent, n // b.exponent
    ka, kb = a.ngens, b.ngens
    q = tuple(x * ra for x in a.q_table) + tuple(x * rb for x in b.q_table)
    bm = [[0] * (ka + kb) for _ in range(ka + kb)]
    for i in range(ka):
        for j in range(ka):
            bm[i][j] = a.b_table[i][j] * ra
    for i in range(kb):
        for j in range(kb):
            bm[ka + i][ka + j] = b.b_table[i][j] * rb
    return canonical_form(a.orders + b.orders, q, bm, n)


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


def evaluate_b(a: FiniteQuadraticForm, x, y) -> Fraction:
    if len(x) != a.ngens or len(y) != a.ngens:
        raise ValueError("coefficient vector length mismatch")
    n = a.exponent
    return Fraction(_scaled_b(a.b_table, x, y) % n, n)


def _generates(orders, images) -> bool:
    """Whether the coefficient vectors generate Z/d_1 + ... + Z/d_k: exactly
    when the rows of the images and of diag(orders) span Z^k."""
    k = len(orders)
    if k == 1:
        return gcd(orders[0], *(x[0] for x in images)) == 1
    diag = intmat.identity(k)
    rows = tuple(images) + tuple(tuple(d * e for e in row) for d, row in zip(orders, diag))
    return intmat.hermite_row_basis(rows) == diag


# ---------------------------------------------------------------------------
# maps


def _apply(images, x, orders) -> tuple:
    """The image of the vector x under the homomorphism that sends generator
    i to images[i], reduced mod the target orders."""
    out = [0] * len(orders)
    for xi, img in zip(x, images):
        if xi:
            for j, cj in enumerate(img):
                out[j] += xi * cj
    return tuple(c % d for c, d in zip(out, orders))


@dataclass(frozen=True)
class FiniteFormMap:
    """A group homomorphism with q_target(f(x)) = sign * q_source(x) mod 2Z."""

    source: FiniteQuadraticForm
    target: FiniteQuadraticForm
    images: tuple
    sign: int

    def apply(self, x) -> tuple:
        return _apply(self.images, x, self.target.orders)

    def compose(self, other: "FiniteFormMap") -> "FiniteFormMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("maps are not composable")
        orders = self.target.orders
        images = tuple(_apply(self.images, img, orders) for img in other.images)
        return FiniteFormMap(other.source, self.target, images, self.sign * other.sign)

    def inverse(self) -> "FiniteFormMap":
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
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
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
    when n = p^e and the form is nondegenerate: p odd not dividing Q_1/2, or
    p = 2 with Q_1 odd; None in every other case, which the caller filters
    over range(n).  p is the prime of n when the caller knows it; otherwise
    n is factored here.

    For odd n the values Q_1 and t are even, so the congruence reads
    x^2 = u = (t/2)(Q_1/2)^-1 mod n.  A unit u that is a residue mod p has
    exactly the two roots +-r, r found mod p and Hensel-lifted to p^e; a
    non-unit or non-residue u has no unit root.

    For n = 2^e it reads x^2 = u = t Q_1^-1 mod 2n, and x^2 mod 2n depends
    only on x mod n.  An odd square is 1 mod min(8, 2n); such a u has the
    roots +-r and +-r + n mod 2n, r lifted one bit at a time, and these are
    +-r mod n."""
    if p is None:
        primes = (2,) if n & (n - 1) == 0 else prime_factors(n)
        if len(primes) != 1:
            return None
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
    u = t // 2 * pow(q1 // 2, -1, n) % n
    if u % p == 0 or pow(u, (p - 1) // 2, p) != 1:
        return []
    r, m = _sqrt_mod_prime(u % p, p), p
    while m < n:  # Newton step: a root mod m is a root mod min(m^2, n)
        m = min(m * m, n)
        r = (r - (r * r - u) * pow(2 * r, -1, m)) % m
    return sorted((r, n - r))


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

    Enumeration tries generator images in lexicographic order of coefficient
    vectors, so the first entry of the result is the canonical choice.  A
    nondegenerate cyclic form of prime-power order N = p^e takes its
    candidates from `_cyclic_unit_roots` (at most two, in closed form); every
    other cyclic form filters range(N).  Both give the same maps in the same
    order.  `prime` is p when A and B are known to be p-groups (a
    `PrimaryPart`), so that N is not factored again.

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
    two_n = 2 * n
    qb, bb = b.q_table, b.b_table
    target_q = [sign * x % two_n for x in a.q_table]
    target_b = [[sign * x % n for x in row] for row in a.b_table]

    if k == 1:
        # cyclic: q(x) = x^2 Q_1 mod 2N, and every x has order dividing N
        q1, t = qb[0], target_q[0]
        roots = _cyclic_unit_roots(n, q1, t, prime)
        if roots is None:
            _within_cap(a.order)
            roots = [x for x in range(n) if x * x * q1 % two_n == t]
        candidates = [[(x,) for x in roots]]
    else:
        _within_cap(a.order)
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
            if _generates(orders, images):
                results.append(FiniteFormMap(a, b, tuple(images), sign))
                return _first_only
            return False
        want = target_b[i]
        for x in candidates[i]:
            if all(
                sum(xs * rs for xs, rs in zip(x, rows[j])) % n == want[j] for j in range(i)
            ):
                images.append(x)
                rows.append([sum(bst * xt for bst, xt in zip(bs, x)) for bs in bb])
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


def _position(where: dict, images: tuple, p: int) -> int:
    """Index of a map of A_p, given by its images, among the elements of O(A_p)."""
    n = where.get(images)
    if n is None:
        raise RuntimeError(f"a generator does not restrict into O(A_{p})")
    return n


def _searched(part: PrimaryPart) -> bool:
    """Whether `isometries_signed` enumerates A_p to find O(A_p): always,
    unless A_p is cyclic and its units come in closed form."""
    if part.form.ngens > 1:
        return True
    n, q1 = part.form.orders[0], part.form.q_table[0]
    return _cyclic_unit_roots(n, q1, q1, part.p) is None


def double_coset_count_by_parts(a: FiniteQuadraticForm, h_gens, k_gens) -> int:
    """Number of double cosets H \\ O(A) / K, found one p-part at a time.

    O(A) is the product of the O(A_p), each found by `isometries_signed` on
    A_p alone, so the search costs the sum of the |A_p| and the cap bounds
    each A_p that is searched: a cyclic A_p with units in closed form is
    not.  Each generator is restricted to every part and must land in
    O(A_p); it then acts on O(A_p) by a table of element indices (left
    composition for H, right for K), and the orbits of x -> h o x o k on the
    product of the parts are walked on index tuples.
    Agrees with `double_coset_count(orthogonal_group(a), h_gens, k_gens)`.
    """
    cap = _enumeration_cap()
    parts = primary_parts(a)
    for part in parts:
        if _searched(part) and part.form.order > cap:
            raise CapExceededError(
                f"finite group too large: |A| = {a.order}; its p-part for p = {part.p} "
                f"has |A_{part.p}| = {part.form.order}, which exceeds the cap {cap}"
                " (raise it with K3FM_CAP)"
            )
    gens = (*h_gens, *k_gens)
    for g in gens:
        if g.source != a or g.target != a or g.sign != 1:
            raise RuntimeError("generator is not a self-isometry of the form")
    sizes = []
    moves = [[] for _ in gens]  # per generator, one table per part
    for part in parts:
        orders = part.form.orders
        found = isometries_signed(part.form, part.form, 1, prime=part.p)
        elements = [f.images for f in found]
        where = {x: n for n, x in enumerate(elements)}
        sizes.append(len(elements))
        restricted = [elements[_position(where, part.restrict(g), part.p)] for g in gens]
        for n, (tables, g) in enumerate(zip(moves, restricted)):
            if n < len(h_gens):  # x -> h o x
                products = [tuple(_apply(g, y, orders) for y in x) for x in elements]
            else:  # x -> x o k
                products = [tuple(_apply(x, y, orders) for y in g) for x in elements]
            tables.append(tuple(_position(where, y, part.p) for y in products))
    visited: set = set()
    count = 0
    for x in product(*(range(s) for s in sizes)):
        if x in visited:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for tables in moves:
                z = tuple(t[c] for t, c in zip(tables, y))
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        if not visited.isdisjoint(orbit):
            raise RuntimeError("double cosets do not partition the group")
        visited |= orbit
        count += 1
    return count


def cyclic_coset_count(a: FiniteQuadraticForm, h_gens, k_gens) -> int:
    """Number of double cosets H \\ O(A) / K for a cyclic A (at most one
    generator), without walking orbits.

    Every p-part A_p is cyclic, so an isometry acts on it as multiplication
    by a unit u_p, and O(A) is the abelian group of the tuples (u_p) with
    each u_p in O(A_p); each O(A_p) comes from `isometries_signed` on A_p.
    Double cosets of an abelian group are the cosets of <H u K>, so the
    count is |O(A)| / |<H u K>|, closed on unit tuples: at most |O(A)| of
    them, and nothing of size |A_p| is built.  K is closed first; when it
    fills O(A) the count is 1 and H is never read, so `h_gens` may be a
    callable that returns the generators, evaluated only when needed.
    Agrees with `double_coset_count_by_parts(a, h_gens, k_gens)`.
    """
    if a.ngens > 1:
        raise ValueError("cyclic form required")
    parts = primary_parts(a)
    allowed = [
        {f.images[0][0] for f in isometries_signed(part.form, part.form, 1, prime=part.p)}
        for part in parts
    ]
    size = prod(len(units) for units in allowed)
    moduli = [part.form.exponent for part in parts]

    def units_of(g: FiniteFormMap) -> tuple:
        if g.source != a or g.target != a or g.sign != 1:
            raise RuntimeError("generator is not a self-isometry of the form")
        out = []
        for part, units in zip(parts, allowed):
            ((u,),) = part.restrict(g)
            if u not in units:
                raise RuntimeError(f"a generator does not restrict into O(A_{part.p})")
            out.append(u)
        return tuple(out)

    def close(group: set, gens: list) -> set:
        frontier = list(group)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple(xi * gi % m for xi, gi, m in zip(x, g, moduli))
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        return group

    gens = [units_of(g) for g in k_gens]
    group = close({(1,) * len(parts)}, gens)
    if len(group) < size:
        gens += [units_of(g) for g in (h_gens() if callable(h_gens) else h_gens)]
        group = close(group, gens)
    if size % len(group):
        raise RuntimeError("double cosets do not partition the group")
    return size // len(group)
