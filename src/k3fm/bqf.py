"""Binary quadratic forms: indefinite classes, and one genus key for both signs.

Reduction convention: (a, b, c) is reduced iff 0 < b < sqrt(D) and
sqrt(D) - b < 2|a| < sqrt(D) + b.  For non-square D every comparison against
sqrt(D) is an integer comparison against isqrt(D), computed once per walk, so
the module never touches floating point.  Proper classes are the cycles of
reduced forms under the neighbor step; the class number, the opposite-class
map (hence the ambiguous classes) and automorphs are all derived from that
enumeration.  Every walk steps integer triples and keeps its transform in
four integers; a `BinaryQuadraticForm` is built only for a form a public
function returns, so `proper_classes` builds the h representatives alone
(its index keyed by triples) and `ClassGroupData.cycles` the rest of
each cycle on first read; `genus` prints the triples themselves.
Genera of either sign of D are keyed by the content and Gauss's assigned
characters of the primitive part (`triple_genus_key`), so nothing here
touches a finite group or the cap.  `lattice_isometry_generators` gives
generators of O(S) for every lattice the program counts, of rank 1 or 2.

`proper_classes` keeps its last result (a one-entry memo; a
`ClassGroupData` is never changed once built, so sharing it is safe): a
`table` row asks for the classes of p twice, in `fm_table` and in
`genus_representative_forms`, and enumerates them once.  The memo can give
way to passing the `ClassGroupData` down once the benchmark's pin on the
number of `proper_classes` calls per row is restated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, isqrt, prod

from . import intmat
from .arith import prime_factors
from .errors import UnsupportedError
from .lattice import IntegerLattice


@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        d = self.disc
        if d <= 0 or isqrt(d) ** 2 == d:
            raise ValueError("isotropic discriminant unsupported")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))

    def coefficients(self) -> tuple:
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class TransformedForm:
    form: BinaryQuadraticForm
    transform: tuple


@dataclass(frozen=True)
class ClassGroupData:
    d: int
    cycle_triples: tuple  # each class's cycle as (a, b, c) triples
    h: int
    genus_partition: tuple
    opposite: tuple  # index of the class of (a, -b, c), for each class
    index: dict = field(compare=False, repr=False)  # reduced triple -> class
    reps: tuple = field(compare=False, repr=False)  # the first form of each cycle

    @cached_property
    def cycles(self) -> tuple:
        """Each class's cycle of reduced forms, built on first read."""
        return tuple(
            (rep, *(BinaryQuadraticForm(*t) for t in cyc[1:]))
            for rep, cyc in zip(self.reps, self.cycle_triples)
        )

    @property
    def ambiguous_indices(self) -> tuple:
        return tuple(i for i, j in enumerate(self.opposite) if i == j)


def gram_of(f: BinaryQuadraticForm) -> tuple:
    return ((2 * f.a, f.b), (f.b, 2 * f.c))


def lattice_to_form(lat: IntegerLattice) -> BinaryQuadraticForm:
    """Read (a, b, c) off the Gram matrix [[2a, b], [b, 2c]] of an even
    hyperbolic rank-2 lattice (a rank-2 lattice is hyperbolic exactly when
    det < 0); the discriminant is -det."""
    if lat.rank != 2:
        raise ValueError("rank-2 lattice required")
    if not lat.is_even:
        raise ValueError("even lattice required")
    if lat.det >= 0:
        raise ValueError("hyperbolic signature (1,1) required")
    g = lat.gram
    return BinaryQuadraticForm(g[0][0] // 2, g[0][1], g[1][1] // 2)


def form_to_lattice(f: BinaryQuadraticForm) -> IntegerLattice:
    return IntegerLattice(gram_of(f))


def _reduced(a: int, b: int, root: int) -> bool:
    """Reducedness of (a, b, c) from root = isqrt(D): for non-square D an
    integer x satisfies x < sqrt(D) iff x <= root, so the window
    0 < b < sqrt(D), sqrt(D) - b < 2|a| < sqrt(D) + b needs no squares."""
    return 0 < b <= root and root - b < 2 * abs(a) <= root + b


def is_reduced(f: BinaryQuadraticForm) -> bool:
    return _reduced(f.a, f.b, isqrt(f.disc))


def _step(b: int, c: int, d: int, root: int) -> tuple:
    """Neighbor step on integers: (a, b, c) -> (c, b', c') with b' = -b mod
    2|c| placed in the reduced window, or normalized into (-|c|, |c|] while
    |c| > sqrt(D).  The new leading coefficient is the old c, so only
    (b', c', s) is returned; s is the entry of the step matrix
    [[0, -1], [1, s]]."""
    ac = abs(c)
    if ac > root:  # |c| > sqrt(D), as D is not a square
        bp = (-b) % (2 * ac)
        if bp > ac:
            bp -= 2 * ac
    else:
        bp = root - (root + b) % (2 * ac)
    s, rem = divmod(b + bp, 2 * c)
    if rem:
        raise RuntimeError("neighbor step congruence failed")
    cp, rem = divmod(bp * bp - d, 4 * c)
    if rem:
        raise RuntimeError("neighbor step discriminant failed")
    return bp, cp, s


def reduce_form(f: BinaryQuadraticForm) -> TransformedForm:
    """Reduce f, accumulating the unimodular transform M with
    M^T G_f M = G_reduced.  M = M * [[0, -1], [1, s]] per step, on four
    integers."""
    a, b, c = f.a, f.b, f.c
    d = f.disc
    root = isqrt(d)
    m00, m01, m10, m11 = 1, 0, 0, 1
    guard = 0
    limit = 64 + 4 * (abs(a).bit_length() + abs(c).bit_length())
    while not _reduced(a, b, root):
        a, (b, c, s) = c, _step(b, c, d, root)
        m00, m01 = m01, s * m01 - m00
        m10, m11 = m11, s * m11 - m10
        guard += 1
        if guard > limit:
            raise RuntimeError("reduction failed to terminate")
    out = f if guard == 0 else BinaryQuadraticForm(a, b, c)
    return TransformedForm(out, ((m00, m01), (m10, m11)))


def _walk_limit(root: int) -> int:
    """More steps than there are reduced forms of discriminant D, with
    root = isqrt(D): a reduced (a, b, c) has 0 < b <= root and |a| <= root."""
    return 2 * root * root


def _cycle_triples(a0: int, b0: int, c: int, d: int, root: int) -> tuple:
    """The cycle through the reduced (a0, b0, c) of discriminant d in walk
    order, root = isqrt(d).  The step commutes with (a, b, c) -> (-a, b, -c),
    so a walk that meets (-a0, b0, -c0), as at every prime d, stops there:
    the rest is the walked half negated.  A walk that outlasts the number of
    reduced forms raises RuntimeError."""
    out = [(a0, b0, c)]
    limit = _walk_limit(root)
    a, (b, c, _) = c, _step(b0, c, d, root)
    while b != b0 or (a != a0 and a != -a0):  # (a, b) fixes c at discriminant d
        out.append((a, b, c))
        if len(out) > limit:
            raise RuntimeError(f"cycle of discriminant {d} did not close")
        a, (b, c, _) = c, _step(b, c, d, root)
    if a != a0:
        out += [(-x, y, -z) for x, y, z in out]
    return tuple(out)


def cycle(f: BinaryQuadraticForm) -> tuple:
    """The full cycle of reduced forms through f (equals its proper class).
    A walk that outlasts the number of reduced forms raises RuntimeError."""
    d = f.disc
    root = isqrt(d)
    if not _reduced(f.a, f.b, root):
        raise ValueError("form is not reduced")
    rest = _cycle_triples(f.a, f.b, f.c, d, root)[1:]
    return (f, *(BinaryQuadraticForm(*t) for t in rest))


def opposite(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    return BinaryQuadraticForm(f.a, -f.b, f.c)


def _validate_disc(d: int) -> None:
    if d <= 0:
        raise ValueError("discriminant must be positive")
    if d % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    if isqrt(d) ** 2 == d:
        raise UnsupportedError(
            f"unsupported: square discriminant D = {d} is isotropic; "
            "its class enumeration is out of scope"
        )


def _reduced_triples(d: int) -> list:
    """All reduced (a, b, c) of discriminant d, sorted: for each b of the
    parity of d in (0, sqrt(d)), the factorizations (d - b^2)/4 = a*c with 2a
    in the window (sqrt(d) - b, sqrt(d) + b), each giving (a, b, -c) and
    (-a, b, c).  As (sqrt(d) - b)(sqrt(d) + b) = 4ac, 2a clears the bottom
    of the window iff 2c stays under its top, so a pair a <= c is found by
    trying a from the bottom of the window up to sqrt(ac) alone, and gives
    both orders."""
    _validate_disc(d)
    root = isqrt(d)
    triples = []
    for b in range(2 - d % 2, root + 1, 2):
        n = (d - b * b) // 4
        for a in range((root - b) // 2 + 1, isqrt(n) + 1):
            if n % a == 0:
                c = n // a
                triples += ((a, b, -c), (-a, b, c))
                if c != a:
                    triples += ((c, b, -a), (-c, b, a))
    triples.sort()
    return triples


def enumerate_reduced(d: int) -> tuple:
    """All reduced forms of discriminant d, sorted by coefficients."""
    return tuple(BinaryQuadraticForm(*t) for t in _reduced_triples(d))


def is_odd_fundamental(d: int) -> bool:
    return d % 4 == 1 and prod(prime_factors(d)) == d


def _value_prime_to(values: tuple, p: int) -> int:
    for m in values:
        if m % p:
            return m
    raise RuntimeError(f"primitive form represents no value prime to {p}")


def triple_genus_key(a: int, b: int, c: int) -> tuple:
    """The content g of (a, b, c) and Gauss's assigned characters of (a, b, c)/g,
    of discriminant D' = (b^2 - 4ac)/g^2 < 0 or > 0 (Cox, *Primes of the form
    x^2 + ny^2*, Thm 3.15): the Legendre symbol (m/p) for each odd p | D',
    then for 4 | D' the 2-adic characters delta = (-1)^((m-1)/2) and/or
    eps = (-1)^((m^2-1)/8) that n = -D'/4 mod 8 selects.  m is the first of
    a, c, a+b+c prime to p, or odd.  Forms of one discriminant, definite or
    not, share the key iff their lattices share a genus, i.e. have isometric
    discriminant forms (Nikulin 1979, Cor. 1.9.4)."""
    g = gcd(gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    d = b * b - 4 * a * c
    values = (a, c, a + b + c)
    key = [g]
    for p in prime_factors(abs(d)):
        if p != 2:
            m = _value_prime_to(values, p)
            key.append(1 if pow(m, (p - 1) // 2, p) == 1 else -1)
    if d % 4 == 0:
        m = _value_prime_to(values, 2)
        delta = 1 if m % 4 == 1 else -1
        eps = 1 if m % 8 in (1, 7) else -1
        n = (-d // 4) % 8
        if n % 4 == 1 or n == 4:
            key.append(delta)
        elif n == 2:
            key.append(delta * eps)
        elif n == 6:
            key.append(eps)
        elif n == 0:
            key += [delta, eps]
    return tuple(key)


def genus_key(f: BinaryQuadraticForm) -> tuple:
    """`triple_genus_key` of f: the one genus key for rank 2 of both signs."""
    return triple_genus_key(f.a, f.b, f.c)


@lru_cache(maxsize=1)
def proper_classes(d: int) -> ClassGroupData:
    """Enumerate the proper (SL2) classes of discriminant d as reduction
    cycles; attach the genus partition (classes grouped by `genus_key` of
    their representatives, in first-seen order) and the opposite-class map
    (the class of (a,-b,c) for each class; its fixed points are the
    ambiguous classes).

    For odd square-free d the classical structure constraints (2^(n-1)
    ambiguous classes and genera, all genera equinumerous) are asserted.
    """
    triples = _reduced_triples(d)
    root = isqrt(d)
    cycles = []
    index_of = {}
    for t in triples:
        if t not in index_of:
            cyc = _cycle_triples(*t, d, root)
            index_of.update(dict.fromkeys(cyc, len(cycles)))
            cycles.append(cyc)
    h = len(cycles)
    reps = tuple(BinaryQuadraticForm(*cyc[0]) for cyc in cycles)

    genera: dict = {}
    for i, rep in enumerate(reps):
        genera.setdefault(genus_key(rep), []).append(i)
    parts = tuple(tuple(p) for p in genera.values())

    # (a, -b, c) is properly equivalent to (c, b, a) by [[0, -1], [1, 0]],
    # and (c, b, a) is reduced with (a, b, c): 2|a| 2|c| = D - b^2
    opp = tuple(index_of[c, b, a] for a, b, c in (cyc[0] for cyc in cycles))
    cgd = ClassGroupData(d, tuple(cycles), h, parts, opp, index_of, reps)

    if is_odd_fundamental(d):
        expected = 2 ** (len(prime_factors(d)) - 1)
        sizes = {len(p) for p in parts}
        if len(cgd.ambiguous_indices) != expected or len(parts) != expected or len(sizes) != 1:
            raise RuntimeError(f"genus structure violated for discriminant {d}")
    return cgd


def class_index_of(cgd: ClassGroupData, f: BinaryQuadraticForm) -> int:
    if f.disc != cgd.d:
        raise ValueError("discriminant mismatch")
    i = cgd.index.get(reduce_form(f).form.coefficients())
    if i is None:
        raise RuntimeError("reduced form missing from cycle enumeration")
    return i


def fold_classes(cgd: ClassGroupData, indices) -> tuple:
    """Orbits of a set of class indices under the opposite involution."""
    opp = cgd.opposite
    seen = set()
    orbits = []
    for i in indices:
        if i in seen:
            continue
        orbit = (i,) if opp[i] == i else (i, opp[i])
        seen.update(orbit)
        orbits.append(orbit)
    return tuple(orbits)


def is_properly_equivalent(f, g, witness: bool = False):
    """True iff f and g reduce into the same cycle.  With witness=True also
    return a determinant +1 matrix W with W^T G_f W = G_g (or None).  A walk
    that outlasts the number of reduced forms raises RuntimeError."""
    if f.disc != g.disc:
        raise ValueError("discriminant mismatch")
    rf = reduce_form(f)
    rg = reduce_form(g)
    d = f.disc
    root = isqrt(d)
    a0, b0, c = rf.form.a, rf.form.b, rf.form.c
    ga, gb = rg.form.a, rg.form.b
    a, b = a0, b0
    t00, t01, t10, t11 = 1, 0, 0, 1
    steps, limit = 0, _walk_limit(root)
    while a != ga or b != gb:
        a, (b, c, s) = c, _step(b, c, d, root)
        t00, t01 = t01, s * t01 - t00
        t10, t11 = t11, s * t11 - t10
        if a == a0 and b == b0:
            return (False, None) if witness else False
        steps += 1
        if steps > limit:
            raise RuntimeError(f"cycle of discriminant {d} did not close")
    if not witness:
        return True
    mg = rg.transform
    mg_inv = ((mg[1][1], -mg[0][1]), (-mg[1][0], mg[0][0]))
    w = intmat.matmul(intmat.matmul(rf.transform, ((t00, t01), (t10, t11))), mg_inv)
    return True, w


def principal_form(d: int) -> BinaryQuadraticForm:
    """The reduced form (1, b0, (b0^2 - d)/4) with b0 maximal of the right
    parity below sqrt(d)."""
    _validate_disc(d)
    root = isqrt(d)
    b0 = root if (root - d) % 2 == 0 else root - 1
    f = BinaryQuadraticForm(1, b0, (b0 * b0 - d) // 4)
    if not is_reduced(f):
        raise RuntimeError("principal form construction failed")
    return f


def pell_fundamental(d: int) -> tuple:
    """Minimal t, u > 0 with t^2 - d*u^2 = 4, read off the accumulated
    transform of one trip around the principal cycle (the matrix form of the
    continued-fraction expansion attached to sqrt(d)).  A walk that outlasts
    the number of reduced forms raises RuntimeError."""
    f0 = principal_form(d)
    root = isqrt(d)
    b0 = b = f0.b
    c = f0.c
    m00, m01, m10, m11 = 1, 0, 0, 1
    steps, limit = 0, _walk_limit(root)
    while True:
        a, (b, c, s) = c, _step(b, c, d, root)
        m00, m01 = m01, s * m01 - m00
        m10, m11 = m11, s * m11 - m10
        if a == 1 and b == b0:
            break
        steps += 1
        if steps > limit:
            raise RuntimeError(f"cycle of discriminant {d} did not close")
    # M = [[(t - b0 u)/2, -c0 u], [u, (t + b0 u)/2]] up to sign and
    # inversion, since the leading coefficient of f0 is 1
    t, u = abs(m00 + m11), abs(m10)
    if u == 0 or t * t - d * u * u != 4:
        raise RuntimeError("automorph walk did not produce a Pell solution")
    return t, u


def automorph_matrix(f: BinaryQuadraticForm, t: int, u: int) -> tuple:
    """[[ (t-bu)/2, -cu ], [ au, (t+bu)/2 ]]; fixes every form of disc d for
    any solution of t^2 - d u^2 = 4."""
    if (t - f.b * u) % 2:
        raise ValueError("t, u do not solve the automorph congruence")
    return (
        ((t - f.b * u) // 2, -f.c * u),
        (f.a * u, (t + f.b * u) // 2),
    )


def fundamental_automorph(f: BinaryQuadraticForm) -> tuple:
    """The matrix of the automorph of f's primitive part from its minimal
    Pell solution, which generates the proper automorphs of f modulo -I; for
    an imprimitive f it can be a proper root of the one for disc(f)."""
    g = f.content
    prim = BinaryQuadraticForm(f.a // g, f.b // g, f.c // g)
    m = automorph_matrix(prim, *pell_fundamental(prim.disc))
    gram = gram_of(f)
    if intmat.matmul(intmat.transpose(m), intmat.matmul(gram, m)) != gram:
        raise RuntimeError("automorph verification failed")
    return m


def improper_automorph(f: BinaryQuadraticForm) -> tuple | None:
    """The matrix of a determinant -1 automorph of f, when f is properly
    equivalent to its opposite; None otherwise."""
    eq, w = is_properly_equivalent(f, opposite(f), witness=True)
    if not eq:
        return None
    j = ((1, 0), (0, -1))
    m = intmat.matmul(w, j)
    gram = gram_of(f)
    if intmat.matmul(intmat.transpose(m), intmat.matmul(gram, m)) != gram:
        raise RuntimeError("improper automorph verification failed")
    if intmat.det(m) != -1:
        raise RuntimeError("improper automorph has wrong determinant")
    return m


def _definite_generators(gram: tuple) -> tuple:
    """-I, a generator of SO(G) unless it is -I, and a determinant -1 element
    if any, of O(G) for a positive definite G = [[p, q], [q, r]].  The columns
    of M in O(G) have norms p and r, and (x, y) of norm m has x^2 <= m r / det
    and y^2 <= m p / det.  SO(G) is cyclic of order 2, 4 or 6, so its
    generator is the element other than I of largest trace: -2, 0 or 1."""
    p, q, r = gram[0][0], gram[0][1], gram[1][1]
    det = p * r - q * q

    def vectors_of_norm(norm: int) -> list:
        out = []
        bx = isqrt(norm * r // det) + 1
        by = isqrt(norm * p // det) + 1
        for x in range(-bx, bx + 1):
            for y in range(-by, by + 1):
                if p * x * x + 2 * q * x * y + r * y * y == norm:
                    out.append((x, y))
        return out

    proper, improper = [], []
    for v in vectors_of_norm(p):
        for w in vectors_of_norm(r):
            cross = p * v[0] * w[0] + q * (v[0] * w[1] + v[1] * w[0]) + r * v[1] * w[1]
            if cross == q:
                m = ((v[0], w[0]), (v[1], w[1]))
                (proper if v[0] * w[1] == v[1] * w[0] + 1 else improper).append(m)
    minus = ((-1, 0), (0, -1))
    rotation = max(proper, key=lambda m: (m != ((1, 0), (0, 1)), m[0][0] + m[1][1]))
    return (minus, *(() if rotation == minus else (rotation,)), *improper[:1])


def lattice_isometry_generators(lat: IntegerLattice) -> tuple:
    """Generators of O(lat): -I in rank 1; in rank 2, -I, a proper generator
    (of order 4 or 6, or the automorph of infinite order) unless it is -I,
    and an improper element if any.  A rank-2 Gram is definite exactly when
    g00 g11 - g01^2 > 0, so no signature is computed to tell."""
    if lat.rank == 1:
        return (((-1,),),)
    if lat.rank != 2:
        raise UnsupportedError("isometry generators available only for rank <= 2")
    g = lat.gram
    if g[0][0] * g[1][1] - g[0][1] * g[0][1] > 0:
        return _definite_generators(g if g[0][0] > 0 else intmat.scale(g, -1))
    f = lattice_to_form(lat)
    gens = [((-1, 0), (0, -1)), fundamental_automorph(f)]
    imp = improper_automorph(f)
    if imp is not None:
        gens.append(imp)
    return tuple(gens)


def genus_representative_forms(lat: IntegerLattice) -> tuple:
    """GL2-class representatives of the genus containing the given even
    hyperbolic rank-2 lattice (proper classes folded under the opposite
    involution), as reduced forms."""
    f = lattice_to_form(lat)
    cgd = proper_classes(f.disc)
    own = class_index_of(cgd, f)
    genus = next(part for part in cgd.genus_partition if own in part)
    reps = cgd.reps
    return tuple(reps[orbit[0]] for orbit in fold_classes(cgd, genus))
