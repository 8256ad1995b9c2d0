"""Finite quadratic forms (A, q) on finite abelian groups, one p-part at a time.

A form is its invariant-factor tables: generators g_i of orders
d_1 | ... | d_k and the integers Q_i = N*q(g_i) mod 2N and
B_ij = N*b(g_i, g_j) mod N over the exponent N = d_k.  A is the orthogonal
sum of its p-parts A_p, and every isometry keeps each A_p, so O(A) is the
product of the O(A_p) (Nikulin 1979, section 1.7).  The parts are the one
view of a form, cached when first read, one `Part` per prime p of N: the
generator of A_p at g_i is its CRT projection h = e g_i, with e = 1 mod p^e
and 0 mod d_i / p^e, so g_i is the sum of its h, q(g_i) the sum of their q,
and the part coordinates of a vector are its invariant-factor coordinates
mod p^e.  When N is a prime power the split is the identity.  `discform`
reads the tables alone, so it never factors N.  A map holds one image
matrix per part, and every search, check and composition runs on one
part's integers; `map_from_images` splits a map given on the g_i (a
`--hodge-action` file) after checking its shape.

A cyclic part that is nondegenerate at p, as every p-part of a discriminant
form is, has its maps x -> u x straight from the unit square roots u, mod
p^e for odd p (Tonelli-Shanks, then Hensel; none for u = 1) and mod 2^(e+1)
for p = 2 (one bit at a time).  O(A_p) = {+-1} of each `table` and `scan`
row is the case u = 1, and `cyclic_orthogonal_order` counts the maps of the
rank-1 A by the same closed forms.  Any other part is searched over its
elements.  Orthogonal groups, subgroup closure and `double_coset_count` are
brute force over whole maps, the reference for the walk below.

Double cosets H \\ O(A) / K have one count, `double_coset_count_by_parts`:
the O(A_p) are listed once per form (`orthogonal_parts`), so a caller that
needs only |O(A)| and then the count lists them once, and the orbits are
walked on their product, numbered in mixed radix; K is walked first, and
when it fills O(A) the count is 1 and a callable H is never called.

The size cap on what is enumerated lives here alone: K3FM_CAP (else
DEFAULT_CAP) is read once by every isometry search and by every listing of
the O(A_p), and bounds each part that is searched, before any is, and the
inverse of a map on a part of two or more generators.  A part that exceeds
it raises CapExceededError; the closed forms, and the inverse
u -> u^-1 mod p^e on a cyclic part, are not capped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

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


class Part(NamedTuple):
    """The p-part A_p: generators h_i of orders p^e_1 | ... | p^e_k, with
    q(h_i) = q_table[i] / n mod 2 and b(h_i, h_j) = b_table[i][j] / n mod 1
    over n = p^e_k."""

    p: int
    orders: tuple
    q_table: tuple
    b_table: tuple


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """A finite abelian group with a Q/2Z-valued quadratic form, on
    generators g_i of orders d_1 | ... | d_k: the integer tables
    Q_i = N*q(g_i) mod 2N and B_ij = N*b(g_i, g_j) mod N over the exponent
    N = d_k, checked here.  `primes` are those of N, factored when the parts
    are first read if not given; they are no part of the form's value, and
    two forms are equal when their tables are."""

    orders: tuple
    q_table: tuple
    b_table: tuple
    primes: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check(self.orders, self.q_table, self.b_table, self.exponent)

    @cached_property
    def parts(self) -> tuple:
        return _split(self.orders, self.q_table, self.b_table, self.primes)

    @cached_property
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


def _idempotent(d: int, pe: int) -> int:
    """e = 1 mod pe and e = 0 mod d / pe, for the p^e exactly dividing d."""
    m = d // pe
    return m * pow(m, -1, pe)


def _split(orders, q_table, b_table, primes) -> tuple:
    """The p-parts of a form, one per prime of N, ascending.  The part of p
    holds h_i = e_i g_i for the d_i that p divides, of order p^e_i,
    e_i = 1 mod p^e_i and 0 mod m_i = d_i / p^e_i.  Over its exponent n_p,
    n_p q(h_i) = e_i^2 Q_i / r with r = N / n_p, exact because m_i^2 Q_i / r
    is (m_i g_i has order dividing n_p), and b alike.  When N is a power of
    p, every e_i and r are 1 and the part is the form's own tables."""
    n = orders[-1] if orders else 1
    primes = prime_factors(n) if primes is None else primes
    if len(primes) == 1:
        return (Part(primes[0], orders, q_table, b_table),)
    parts = []
    for p in primes:
        index, pes = [], []
        for i, d in enumerate(orders):
            if d % p == 0:
                pe = p
                while d % (pe * p) == 0:
                    pe *= p
                index.append((i, _idempotent(d, pe)))
                pes.append(pe)
        n_p = pes[-1]
        r = n // n_p
        q = tuple([e * e * q_table[i] // r % (2 * n_p) for i, e in index])
        b = tuple([tuple([e * f * b_table[i][j] // r % n_p for j, f in index]) for i, e in index])
        parts.append(Part(p, tuple(pes), q, b))
    return tuple(parts)


def finite_form(orders, q_gens, b_matrix=None) -> FiniteQuadraticForm:
    """Build a form from rational values on invariant-factor generators,
    defaulting the bilinear matrix to diag(q mod Z).  The values are checked
    at a common denominator of all of them, so a malformed input gets the
    message of its first failed check, and only then scaled to the
    exponent."""
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
    return FiniteQuadraticForm(a.orders, q, b, a.primes)


def _scaled_q(q_table, b_table, x) -> int:
    """n*q(x), not yet reduced mod 2n: sum x_i^2 Q_i + 2 sum_{i<j} x_i x_j B_ij."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            total += xi * xi * q_table[i]
            for j in range(i + 1, len(x)):
                total += 2 * xi * x[j] * b_table[i][j]
    return total


def _scaled_b(b_table, x, y) -> int:
    """n*b(x, y), not yet reduced mod n: sum x_i y_j B_ij."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * b_table[i][j]
    return total


def evaluate_q(a: FiniteQuadraticForm, x) -> Fraction:
    """q(sum c_i g_i) in Q/2Z, for c in invariant-factor coordinates."""
    if len(x) != a.ngens:
        raise ValueError("coefficient vector length mismatch")
    return Fraction(_scaled_q(a.q_table, a.b_table, x), a.exponent) % 2


def _generates(part: Part, images) -> bool:
    """Whether the images generate the p-group of `part`.  pA is the
    Frattini subgroup of a p-group A of k generators, so k elements generate
    A iff they span A/pA = (Z/p)^k: for k = 1 iff the image is a unit (its
    gcd with p^e is 1), for k >= 2 iff their k x k determinant is nonzero mod
    p.  Another number of images comes from a part of another rank, and a
    homomorphism onto A from a group of its order would be an isomorphism."""
    k = len(part.orders)
    if len(images) != k:
        return False
    if k == 1:
        return gcd(part.orders[0], images[0][0]) == 1
    return intmat.det(images) % part.p != 0


# ---------------------------------------------------------------------------
# maps


def _after(f_images, g_images, orders) -> tuple:
    """The images of f o g, from the images of f and of g: f, the
    homomorphism that sends generator i to f_images[i], applied to each
    image of g and reduced mod the target orders."""
    cols = tuple(zip(*f_images))
    return tuple(
        [tuple([sum(map(mul, y, c)) % d for c, d in zip(cols, orders)]) for y in g_images]
    )


@dataclass(frozen=True)
class FiniteFormMap:
    """A group homomorphism with q_target(f(x)) = sign * q_source(x) mod 2Z,
    held as parts[s]: the images of the generators of the source's part s,
    in coordinates of the target's part of the same prime."""

    source: FiniteQuadraticForm
    target: FiniteQuadraticForm
    parts: tuple
    sign: int

    def compose(self, other: "FiniteFormMap") -> "FiniteFormMap":
        """self after other, part by part."""
        if other.target != self.source:
            raise ValueError("maps are not composable")
        parts = tuple([
            _after(f, g, part.orders)
            for f, g, part in zip(self.parts, other.parts, self.target.parts)
        ])
        return FiniteFormMap(other.source, self.target, parts, self.sign * other.sign)

    def inverse(self) -> "FiniteFormMap":
        """The inverse map, part by part: on a cyclic part of order p^e the
        generator goes to u^-1 mod p^e; any other part is read off its
        elements."""
        a, b = self.source, self.target
        if a.orders != b.orders:
            raise ValueError("map is not bijective")
        parts = []
        for part, rows in zip(a.parts, self.parts):
            if len(rows) == 1:
                if rows[0][0] % part.p == 0:
                    raise ValueError("map is not bijective")
                parts.append(((pow(rows[0][0], -1, part.orders[0]),),))
                continue
            _within_cap(a, (part,))
            elements = list(product(*(range(d) for d in part.orders)))
            back = {_after(rows, (x,), part.orders)[0]: x for x in elements}
            if len(back) != len(elements):
                raise ValueError("map is not bijective")
            parts.append(tuple(back[u] for u in intmat.identity(len(part.orders))))
        return FiniteFormMap(b, a, tuple(parts), self.sign)

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


def _addends(a: FiniteQuadraticForm, b: FiniteQuadraticForm, s: int, rows) -> list:
    """What the block `rows` of part s of a map A -> B adds to the images of
    the g_i in the coordinates of B, flat in (i, j): e x_l for the image x
    of the part's h at index i, where h_l of B's part is e g_j, and 0 where
    the part reaches neither.  By CRT the images are the sums over parts."""
    k, part = a.ngens, b.parts[s]
    at = b.ngens - len(part.orders)
    idem = [_idempotent(d, pe) for d, pe in zip(b.orders[at:], part.orders)]
    out = [0] * (b.ngens * (k - len(rows)))
    for x in rows:
        out += [0] * at + [e * c for e, c in zip(idem, x)]
    return out


def identity_map(a: FiniteQuadraticForm) -> FiniteFormMap:
    return FiniteFormMap(a, a, tuple(intmat.identity(len(part.orders)) for part in a.parts), 1)


def negation_map(a: FiniteQuadraticForm) -> FiniteFormMap:
    parts = tuple(
        tuple(
            tuple(d - 1 if i == j else 0 for j, d in enumerate(part.orders))
            for i in range(len(part.orders))
        )
        for part in a.parts
    )
    return FiniteFormMap(a, a, parts, 1)


def map_from_images(a: FiniteQuadraticForm, b: FiniteQuadraticForm, images, sign: int):
    """The homomorphism A -> B that sends g_i to images[i], given in the
    invariant-factor coordinates of B, split into its parts: the part
    generator h = e g_i goes to e images[i], read on B's part of the same
    prime.  Raises ValueError unless the images define a homomorphism: one
    per g_i, each of B's length, and each of an order dividing d_i."""
    orders_a, orders_b = a.orders, b.orders
    if len(images) != len(orders_a):
        raise ValueError("one image per source generator required")
    for d, img in zip(orders_a, images):
        if len(img) != len(orders_b):
            raise ValueError("image vector length mismatch")
        if any(d * c % d_b for c, d_b in zip(img, orders_b)):
            raise ValueError("image order does not divide generator order")
    parts = []
    for part, target in zip(a.parts, b.parts):  # by prime, where the orders agree
        rows = []
        for i, pe in enumerate(part.orders, len(orders_a) - len(part.orders)):
            e = _idempotent(orders_a[i], pe)
            tail = images[i][len(orders_b) - len(target.orders):]
            rows.append(tuple(e * c % d for c, d in zip(tail, target.orders)))
        parts.append(tuple(rows))
    return FiniteFormMap(a, b, tuple(parts), sign)


def validate_map(f: FiniteFormMap) -> None:
    """Raise ValueError unless f is a bijective sign-twisted isometry.

    Equal orders pair the parts of source and target off by prime.  On each
    pair q and b are compared on integers, both tables scaled to the lcm n
    of the two part exponents: n*q mod 2n and n*b mod n.  The checks run in
    the order of the g_i, q(g_i) and then b(g_i, g_j) for j < i, each on
    every part that g_i reaches: g_i is the sum of its parts' h, and Q/2Z is
    the direct sum of its p-primary parts, so q(g_i) is rescaled exactly
    when every q(h) is, and b likewise.  Generation is tested part by part.
    """
    a, b = f.source, f.target
    if f.sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a.order != b.order:
        raise ValueError("source and target orders differ")
    k = a.ngens
    pairs = []
    for pa, pb, rows in zip(a.parts, b.parts, f.parts):
        n = lcm(pa.orders[-1], pb.orders[-1])
        pairs.append((k - len(rows), rows, pa, pb, n // pa.orders[-1], n // pb.orders[-1], n))
    for i in range(k):
        for j in (i, *range(i)):
            for off, rows, pa, pb, ra, rb, n in pairs:
                if j < off:
                    continue
                img = rows[i - off]
                if i == j:
                    pairing = _scaled_q(pb.q_table, pb.b_table, img) * rb
                    if (pairing - f.sign * pa.q_table[i - off] * ra) % (2 * n):
                        raise ValueError("map does not rescale q by its sign")
                else:
                    pairing = _scaled_b(pb.b_table, img, rows[j - off]) * rb
                    if (pairing - f.sign * pa.b_table[i - off][j - off] * ra) % n:
                        raise ValueError("map does not rescale b by its sign")
    if not all(_generates(pb, rows) for _, rows, _, pb, *_ in pairs):
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


def _cyclic_unit_roots(n: int, q1: int, t: int, p: int):
    """The units x of Z/n, n = p^e, with x^2 Q_1 = t mod 2n, ascending, in
    closed form when the form is nondegenerate at p: p odd not dividing
    Q_1 / 2, or p = 2 and Q_1 odd; None otherwise, and the caller searches
    the part.  Q_1 and t are reduced mod 2n, and even for odd n, as on every
    form of order n.

    For odd p the congruence reads x^2 = u = (t/2)(Q_1/2)^-1 mod n.  For
    u = 1 (t = Q_1) the roots are +-1.  Any other unit u that is a residue
    mod p has exactly the two roots +-r, r found mod p and Hensel-lifted to
    p^e; a non-unit or non-residue u has no unit root.

    For p = 2 it reads x^2 = u = t Q_1^-1 mod 2n, and x^2 mod 2n depends
    only on x mod n.  An odd square is 1 mod min(8, 2n); such a u has the
    roots +-r and +-r + n mod 2n, r lifted one bit at a time, and these are
    +-r mod n."""
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


def _searched(part: Part) -> bool:
    """Whether the maps onto `part` are searched over its elements: it has
    two or more generators, or it is cyclic and degenerate at p, so
    `_cyclic_unit_roots` gives no closed form."""
    n, q1 = part.orders[0], part.q_table[0]
    return len(part.orders) > 1 or _cyclic_unit_roots(n, q1, q1, part.p) is None


def _within_cap(a: FiniteQuadraticForm, parts) -> None:
    """Read the cap once, and raise CapExceededError before anything is
    enumerated if one of the given parts of A is searched and exceeds it."""
    cap = _enumeration_cap()
    for part in parts:
        size = prod(part.orders)
        if size > cap and _searched(part):
            raise CapExceededError(
                f"finite group too large: |A| = {a.order}; its p-part for p = {part.p} "
                f"has |A_{part.p}| = {size}, which exceeds the cap {cap}"
                " (raise it with K3FM_CAP)"
            )


def _part_maps(pa: Part, pb: Part, sign: int, first: bool) -> list:
    """The image matrices of the maps A_p -> B_p, on one chain of orders,
    with q_B(f(x)) = sign * q_A(x), in lexicographic order of the images;
    only the first of them when `first`.  A cyclic part takes its units in
    closed form when it can (`_cyclic_unit_roots`); any other part is
    searched, images tried in lexicographic order of coefficient vectors,
    and the search stops at its first map when `first`.  The caller has
    checked the part against the cap (`_within_cap`)."""
    orders = pb.orders
    n = orders[-1]
    two_n = 2 * n
    k = len(orders)
    if k == 1:
        # cyclic: q(x h) = x^2 Q_1 mod 2n, and x h generates iff x is a unit
        roots = _cyclic_unit_roots(n, pb.q_table[0], sign * pa.q_table[0] % two_n, pb.p)
        if roots is not None:
            return [((x,),) for x in roots[: 1 if first else None]]

    qb, bb = pb.q_table, pb.b_table
    target_q = [sign * x % two_n for x in pa.q_table]
    target_b = [[sign * x % n for x in row] for row in pa.b_table]
    # elements of B_p by q-value, each bucket in lexicographic order
    by_q: dict[int, list] = {}
    for x in product(*(range(d) for d in orders)):
        by_q.setdefault(_scaled_q(qb, bb, x) % two_n, []).append(x)
    candidates = [
        [
            x
            for x in by_q.get(target_q[i], ())
            if all(d_i * xj % dj == 0 for xj, dj in zip(x, orders))
        ]
        for i, d_i in enumerate(orders)
    ]

    results: list[tuple] = []
    images: list[tuple] = []
    # pairing rows of the chosen images: b(x, y) * n = sum_s x_s row_y[s] mod n
    rows: list[list] = []

    def backtrack(i: int) -> bool:
        if i == k:
            if _generates(pb, images):
                results.append(tuple(images))
                return first
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


def isometries_signed(
    a: FiniteQuadraticForm, b: FiniteQuadraticForm, sign: int, _first_only: bool = False
) -> list:
    """All bijective maps f: A -> B with q_B(f(x)) = sign * q_A(x), the
    product of each part's maps (`_part_maps`), in lexicographic order of
    the images of the g_i, so the first entry is the canonical choice: on a
    form of one part that is the order of the part's list, and on several
    the product is sorted by these images, summed from the parts' addends.
    `_first_only` keeps each part's first map alone, so at most one map is
    made: the first entry of the list on a form of one part, an entry of it
    on several.

    K3FM_CAP is read once on every call with equal invariant factors, so a
    malformed value fails every such call, searching or not; each part that
    is searched is compared with the cap before any is.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a.orders != b.orders:
        return []
    _within_cap(a, b.parts)
    per_part = [_part_maps(pa, pb, sign, _first_only) for pa, pb in zip(a.parts, b.parts)]
    combos = product(*per_part)
    if len(per_part) > 1 and not _first_only:
        mods = b.orders * a.ngens
        adds = [[_addends(a, b, s, rows) for rows in maps] for s, maps in enumerate(per_part)]
        keys = [[sum(x) % d for x, d in zip(zip(*terms), mods)] for terms in product(*adds)]
        combos = [parts for _, parts in sorted(zip(keys, combos))]
    return [FiniteFormMap(a, b, parts, sign) for parts in combos]


def are_isometric(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> bool:
    return bool(isometries_signed(a, b, 1, _first_only=True))


# ---------------------------------------------------------------------------
# orthogonal groups and double cosets


def orthogonal_group(a: FiniteQuadraticForm) -> tuple:
    """O(A), every sign +1 self-isometry, fully enumerated."""
    return tuple(isometries_signed(a, a, 1))


def subgroup_generated(group: tuple, gens) -> tuple:
    """Closure of the generators (plus identity) under composition, inside
    the `orthogonal_group` `group`."""
    gens = list(gens)
    members = frozenset(group)
    for g in gens:
        if g not in members:
            raise ValueError("generator is not an element of the group")
    ident = identity_map(group[0].source)
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


def double_coset_count(group: tuple, h_gens, k_gens) -> int:
    """Number of orbits of (h, k) . x = h o x o k^-1 on the elements of the
    `orthogonal_group` `group`.

    Since H and K are closed under inversion the orbit of x is just the set
    {h o x o k}, computed directly per unvisited element.
    """
    h_sub = subgroup_generated(group, h_gens)
    k_sub = subgroup_generated(group, k_gens)
    visited: set[FiniteFormMap] = set()
    count = 0
    total = 0
    for x in group:
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
# the double-coset walk on the product of the O(A_p)


def _tables(a: FiniteQuadraticForm, groups, gens, left: bool) -> list:
    """Per generator, its tables of element indices on each O(A_p): left
    composition x -> g o x when `left`, else right composition x -> x o g.
    `groups` holds, per part, the elements of O(A_p) and their index."""
    for g in gens:
        if g.source != a or g.target != a or g.sign != 1:
            raise RuntimeError("generator is not a self-isometry of the form")
    out = []
    for g in gens:
        tables = []
        for part, g_p, (elements, where) in zip(a.parts, g.parts, groups):
            if g_p not in where:
                raise RuntimeError(f"a generator does not restrict into O(A_{part.p})")
            if left:
                tables.append(tuple([where[_after(g_p, x, part.orders)] for x in elements]))
            else:
                tables.append(tuple([where[_after(x, g_p, part.orders)] for x in elements]))
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


def orthogonal_parts(a: FiniteQuadraticForm) -> list:
    """Per p-part of A, the image matrices of the maps in O(A_p), in the
    order of `isometries_signed`: O(A) is their product, so its order is the
    product of their lengths.  K3FM_CAP is read once, and each part that is
    searched is within it before any is.  A form of one part is its own
    A_p, and its maps are `isometries_signed` on A; a form of several parts
    reads the cap itself and searches each part alone, building no one-part
    form and no map of A; A = 0 has no part, and reads no cap."""
    if len(a.parts) == 1:
        return [[f.parts[0] for f in isometries_signed(a, a, 1)]]
    if a.parts:
        _within_cap(a, a.parts)
    return [_part_maps(part, part, 1, False) for part in a.parts]


def double_coset_count_by_parts(a: FiniteQuadraticForm, h_gens, k_gens, o_parts=None) -> int:
    """Number of double cosets H \\ O(A) / K, found one p-part at a time.

    This is the one double-coset count of the package; `double_coset_count`
    on the whole group is its reference.  O(A) is the product of the
    O(A_p) of `orthogonal_parts`, or of `o_parts` when the caller has
    listed them for A already.  Each generator's block on a part must lie
    in O(A_p); it then acts on O(A_p) by a table of element indices
    (`_tables`), and on the elements of O(A), numbered by their index tuples
    in mixed radix, by one permutation (`_permutations`).
    K is walked first: when the orbit of one element under K alone is all of
    O(A), the count is 1 and H is not needed, so `h_gens` may be a callable
    that returns the generators, called only when the orbits of
    x -> h o x o k must be walked; a list of generators is checked all the
    same.
    """
    if o_parts is None:
        o_parts = orthogonal_parts(a)
    groups = [(elements, {x: i for i, x in enumerate(elements)}) for elements in o_parts]
    sizes = [len(elements) for elements, _ in groups]
    h_tables = None if callable(h_gens) else _tables(a, groups, h_gens, left=True)
    k_tables = _tables(a, groups, k_gens, left=False)
    k_perms = _permutations(k_tables, sizes)
    orbit_of = [0] * prod(sizes)
    if _walk_orbit(0, k_perms, orbit_of, 1) == len(orbit_of):
        return 1
    if h_tables is None:
        h_tables = _tables(a, groups, h_gens(), left=True)
    perms = k_perms + _permutations([t for t in h_tables if t not in k_tables], sizes)
    orbit_of = [0] * len(orbit_of)
    count = 0
    for x in range(len(orbit_of)):
        if not orbit_of[x]:
            count += 1
            _walk_orbit(x, perms, orbit_of, count)
    return count
