"""Fourier-Mukai partner counting for projective K3 surfaces.

The partner count of X is assembled from the Neron-Severi lattice alone once
the Hodge isometry group of the transcendental lattice is fixed: it is the
sum, over the isomorphism classes S_j in the genus of NS(X), of the number of
double cosets O(S_j) \\ O(A_{S_j}) / G (`coset_summand`).  Each summand,
for every A_S, cyclic or not, is counted by the one walk
`double_coset_count_by_parts` on the p-parts A_p of A_S: every isometry
keeps each A_p (Nikulin), so O(A_S) is the product of the O(A_p).  A cyclic
A_p whose units come in closed form (every p-part of a prime row of `table`
and `scan`) is not searched, so no cap bounds it; the enumeration cap bounds
every A_p that is searched (`finite_qform` owns the cap and reads K3FM_CAP;
nothing here takes one).  O(S) is built only when G alone does not fill
O(A_S).  Rank 1 needs no walk and builds no form: tau(n) and |O(A)| are
read off one factorization of 2n (`cyclic_orthogonal_order`).  O(S)
comes from `bqf` as generators for every lattice, and
`isometry_image_generators` gives their image in O(A_S) to this engine and
the gluing oracle alike, less -id, which G always holds.  The genus, the
sum's index set, is listed by `genus_lattices` alone, for `fm` and
`verify-t14` alike, by one key for rank 2 of both signs (`bqf.genus_key`).

Dispatch: Picard number 1 closes to the 2^(tau(n)-1) formula; every rank >= 2
first tries the surjectivity shortcut (rank >= l + 2, which in rank 2 means
NS = U); otherwise Picard number 2 sums over `genus_lattices`, whose
hyperbolic genus comes from the binary-form class engine (non-square
discriminant only), and rank >= 3 is refused.  A Hodge group of
order 2I > 2 needs phi(2I) | rank T = 22 - rank NS.  The factorization,
phi and the primality test come from `arith`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import bqf, intmat
from .arith import euler_phi, is_prime, prime_factors, primes_one_mod_four
from .errors import UnsupportedError
from .finite_qform import (
    FiniteFormMap,
    FiniteQuadraticForm,
    cyclic_orthogonal_order,
    double_coset_count_by_parts,
    identity_map,
    isometries_signed,
    negation_map,
    validate_map,
)
from .lattice import (
    IntegerLattice,
    diagonal_lattice,
    discriminant_form,
    induced_form_map,
    min_generators,
    signature,
)


@dataclass(frozen=True)
class NeronSeveriSpec:
    """An even hyperbolic lattice of rank at most 20 standing in for NS(X)."""

    lattice: IntegerLattice

    def __post_init__(self):
        if not self.lattice.is_even:
            raise ValueError("Neron-Severi lattice must be even")
        if signature(self.lattice).as_pair() != (1, self.lattice.rank - 1):
            raise ValueError("Neron-Severi lattice must be hyperbolic")
        if self.lattice.rank > 20:
            raise ValueError("Neron-Severi lattice of a projective K3 has rank at most 20")

    @property
    def rank(self) -> int:
        return self.lattice.rank


@dataclass(frozen=True)
class HodgeGroupSpec:
    """The Hodge isometry group of the transcendental lattice: cyclic of even
    order, with -id always present.  Orders above 2 require an explicit
    generator action on the discriminant group."""

    order: int = 2
    action: FiniteFormMap | None = None

    def __post_init__(self):
        if self.order < 2 or self.order % 2:
            raise ValueError("Hodge group order must be a positive even integer")
        if self.action is not None:
            if self.action.source != self.action.target:
                raise ValueError("Hodge action must be a self-map")
            if self.action.sign != 1:
                raise ValueError("Hodge action must preserve the form")
            validate_map(self.action)
            if self.order % self.action.map_order() != 0:
                raise ValueError("Hodge action order must divide the group order")


GENERIC_HODGE = HodgeGroupSpec()


def hodge_generators(a_t, hodge: HodgeGroupSpec) -> list:
    """Generators of the Hodge group's image G inside O(A_T).

    Negation is always included: the Hodge group has even order exactly
    because it contains -id.  An explicit action must act on a_t."""
    if hodge.action is None:
        if hodge.order != 2:
            raise UnsupportedError("explicit Hodge action required")
        return [negation_map(a_t)]
    if hodge.action.source != a_t:
        raise ValueError("Hodge action must act on the discriminant form of T")
    return [negation_map(a_t), hodge.action]


def carried_hodge_generators(a_s, hodge: HodgeGroupSpec) -> list:
    """G carried onto O(A_S) for an S glued to T: `hodge_generators` on the
    form the explicit action lives on (A_T), conjugated by the first
    anti-isometry from that form onto a_s.  With no explicit action G is
    {+-1}, and -id is -id on every form, so nothing is searched."""
    if hodge.action is None:
        return hodge_generators(a_s, hodge)
    a_t = hodge.action.source
    anti = isometries_signed(a_t, a_s, -1, _first_only=True)
    if not anti:
        raise ValueError(
            "Hodge action lives on a form that is not anti-isometric to the target"
        )
    phi, back = anti[0], anti[0].inverse()
    return [phi.compose(g).compose(back) for g in hodge_generators(a_t, hodge)]


def isometry_image_generators(s: IntegerLattice, a_s) -> list:
    """Maps that, together with -id, generate the image of O(S) in O(A_S),
    for a_s the discriminant form of S: none when A_S is trivial, whatever
    the rank of S, else `bqf.lattice_isometry_generators` other than -I,
    acting through `induced_form_map`.  -I induces -id, which every Hodge
    group G here contains (`hodge_generators`, `carried_hodge_generators`)
    and which is central and commutes with every anti-isometry; so it joins
    no two double cosets and no two gluing orbits, and comes from G."""
    if a_s.order == 1:
        return []
    minus = intmat.scale(intmat.identity(s.rank), -1)
    return [induced_form_map(s, m) for m in bqf.lattice_isometry_generators(s) if m != minus]


def coset_summand(s: IntegerLattice, hodge: HodgeGroupSpec = GENERIC_HODGE, h_maps=None) -> int:
    """The Counting Formula's term for one genus member S: the double cosets
    O(S) \\ O(A_S) / G, with O(S) from `isometry_image_generators` and G
    from `carried_hodge_generators`; -id, left out of the former, comes
    from G.  One walk, `double_coset_count_by_parts`, counts every A_S, and
    it builds O(S) only when G alone does not fill O(A_S).  A caller that
    holds the image of O(S) already hands it in as h_maps, and it is used
    instead."""
    a_s = discriminant_form(s)
    h_gens = (lambda: isometry_image_generators(s, a_s)) if h_maps is None else h_maps
    return double_coset_count_by_parts(a_s, h_gens, carried_hodge_generators(a_s, hodge))


def genus_lattices(s: IntegerLattice) -> tuple:
    """Isomorphism-class representatives of the genus of S, the index set of
    the Counting Formula.

    Rank 1 and unimodular S are alone in their genus, except a definite
    unimodular S of rank >= 16 (E8 + E8 and D16+ share one), which is
    refused.  One key, Gauss's characters and the content, decides the genus
    of rank 2 of both signs.  A definite S (det > 0) gives the reduced Grams
    of its determinant and sign with S's `bqf.triple_genus_key`; a hyperbolic
    one gives `bqf.genus_representative_forms`, keyed by `bqf.genus_key`, and
    a square discriminant (isotropic, not U) is refused."""
    if not s.is_even:
        raise ValueError("even lattice required")
    det = s.det
    if s.rank == 1 or abs(det) == 1:
        if s.rank >= 16 and 0 in signature(s).as_pair():
            raise UnsupportedError(
                f"unsupported: definite unimodular S of rank {s.rank} is not alone in "
                "its genus; its genus needs definite class enumeration (out of scope)"
            )
        return (s,)
    if s.rank != 2:
        raise UnsupportedError("genus enumeration available only for rank <= 2")
    if det > 0:
        sign = 1 if s.gram[0][0] > 0 else -1
        (p, q), (_, r) = s.gram
        key = bqf.triple_genus_key(sign * p // 2, sign * q, sign * r // 2)
        out = []
        a = 1
        while 3 * a * a <= det:
            for b in range(0, a + 1):
                num = det + b * b
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c >= a and bqf.triple_genus_key(a, b, c) == key:
                    out.append(IntegerLattice(intmat.scale(((2 * a, b), (b, 2 * c)), sign)))
            a += 1
        return tuple(out)
    if isqrt(-det) ** 2 == -det:
        raise UnsupportedError(
            f"unsupported: rank-2 S with square discriminant D = {-det} is isotropic "
            "but not U; its genus needs isotropic class enumeration (out of scope)"
        )
    return tuple(bqf.form_to_lattice(f) for f in bqf.genus_representative_forms(s))


@dataclass(frozen=True)
class FMCountResult:
    total: int
    breakdown: tuple  # (genus representative lattice, summand)
    method: str

    def __post_init__(self):
        if self.total != sum(s for _, s in self.breakdown) or self.total < 1:
            raise ValueError("breakdown does not sum to the total")


def hodge_order_candidates(t: int) -> tuple:
    """All even orders 2I with phi(2I) dividing t.  The search is complete:
    phi(m) >= sqrt(m/2), so phi(m) <= t forces m <= 2 t^2."""
    if t < 1:
        raise ValueError("rank must be positive")
    return tuple(
        m for m in range(2, 2 * t * t + 1, 2) if t % euler_phi(m) == 0
    )


def fm_number_rank1(n: int, hodge: HodgeGroupSpec = GENERIC_HODGE) -> FMCountResult:
    """Partner count for NS = <2n>: 2^(tau(n)-1), cross-checked against the
    double cosets {+-1} \\ O(A) / {+-1} of the cyclic A = (Z/2n, 1/2n).
    -id is central, so they are the cosets O(A) / {+-1}: |O(A)| / 2, or 1
    for n = 1, where -id = id.  Both sides are read off one factorization
    of 2n: tau(n) is its number of primes, less one for odd n, and |O(A)|
    is `cyclic_orthogonal_order`, the product of the |O(A_p)| in closed
    form, so no cap applies.  The Hodge group must be {+-id}: phi(2I)
    divides rank T = 21, and an explicit action, carried onto A
    (`carried_hodge_generators`), must be +-id there; only then is A built
    as a form."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if hodge.order != 2:
        raise ValueError("Picard number 1 forces a Hodge group of order 2 (phi(2I) | 21)")
    a_t = hodge.action.source if hodge.action is not None else None
    if a_t is not None and a_t.exponent == 2 * n:
        # the form the action lives on was split, when it was read, into one
        # part per prime of 2n, so 2n is not factored again
        primes = [part.p for part in a_t.parts]
    else:
        primes = prime_factors(2 * n)
    if hodge.action is not None:
        a = FiniteQuadraticForm((2 * n,), (1,), ((1,),), primes)  # q(g) = 1/(2n)
        plus_minus = (identity_map(a), negation_map(a))
        if any(g not in plus_minus for g in carried_hodge_generators(a, hodge)):
            raise ValueError("Picard number 1 forces the Hodge action to be +-id (phi(2I) | 21)")
    size = cyclic_orthogonal_order(2 * n, primes)
    counted = size // 2 if n > 1 else size
    expected = 2 ** (max(1, len(primes) - n % 2) - 1)
    if counted != expected:
        raise RuntimeError(
            f"rank-1 cross-check failed for n={n}: cosets {counted}, formula {expected}"
        )
    return FMCountResult(counted, ((diagonal_lattice(2 * n), counted),), "rank1")


def fm_number_nikulin(ns: NeronSeveriSpec) -> FMCountResult | None:
    """Rank >= 2 shortcut: when rank >= l + 2 the genus is a single class and
    the natural map O(S) -> O(A_S) is onto, so the count collapses to 1.  In
    rank 2 this holds only for |det| = 1, i.e. NS = U."""
    if ns.rank < 2:
        raise ValueError("rank >= 2 required")
    if ns.rank >= min_generators(ns.lattice) + 2:
        return FMCountResult(1, ((ns.lattice, 1),), "nikulin")
    return None


def fm_number_rank2(ns: NeronSeveriSpec, hodge: HodgeGroupSpec = GENERIC_HODGE) -> FMCountResult:
    """Partner count for Picard number 2.

    The genus of NS comes from `genus_lattices` (proper classes keyed by
    content and assigned characters, folded to isomorphism classes under the
    opposite involution); each representative contributes its
    `coset_summand`.  U (D = 1, a square) is alone in its genus, with
    summand 1; `genus_lattices` refuses every other square D as out of
    scope.
    """
    if ns.rank != 2:
        raise ValueError("rank-2 lattice required")
    breakdown = [(s, coset_summand(s, hodge)) for s in genus_lattices(ns.lattice)]
    total = sum(s for _, s in breakdown)
    return FMCountResult(total, tuple(breakdown), "rank2")


def fm_number(ns: NeronSeveriSpec, hodge: HodgeGroupSpec = GENERIC_HODGE) -> FMCountResult:
    """Dispatch on the Picard number; see the module docstring."""
    if ns.rank == 1:
        return fm_number_rank1(ns.lattice.gram[0][0] // 2, hodge)
    if hodge.order > 2 and hodge.order not in hodge_order_candidates(22 - ns.rank):
        raise ValueError(f"Hodge group order violates phi(2I) | {22 - ns.rank}")
    result = fm_number_nikulin(ns)
    if result is not None:
        return result
    if ns.rank == 2:
        return fm_number_rank2(ns, hodge)
    raise UnsupportedError(
        "unsupported: rank >= 3 with l(S) > rank - 2 requires general "
        "indefinite genus enumeration (out of scope)"
    )


def even_hyperbolic_prime_lattice(p: int) -> IntegerLattice:
    """The even hyperbolic rank-2 lattice [[2, 1], [1, (1-p)/2]] of
    determinant -p, defined for p = 1 mod 4."""
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4")
    return IntegerLattice(((2, 1), (1, (1 - p) // 2)))


def fm_table(primes) -> tuple:
    """(p, h(p), partner count) rows; the two computations (class-number fold
    and double cosets) must agree at every prime."""
    rows = []
    for p in primes:
        if not is_prime(p) or p % 4 != 1:
            raise ValueError(f"table requires primes p = 1 mod 4, got {p}")
        cgd = bqf.proper_classes(p)
        ns = NeronSeveriSpec(even_hyperbolic_prime_lattice(p))
        result = fm_number_rank2(ns)
        if 2 * result.total != cgd.h + 1:
            raise RuntimeError(
                f"partner count and class number disagree at p={p}: "
                f"{result.total} vs (h+1)/2 with h={cgd.h}"
            )
        rows.append((p, cgd.h, result.total))
    return tuple(rows)


@dataclass(frozen=True)
class ScanReport:
    bound: int
    rows: tuple  # (p, h, fm)
    fm_one_primes: tuple
    running_max: tuple  # (p, fm) where fm first exceeds every earlier value


def gauss_scan(bound: int) -> ScanReport:
    """Partner counts for all primes p = 1 mod 4 up to the bound: the primes
    with a single partner class (h = 1) and the running-maximum subsequence."""
    if bound < 5:
        raise ValueError("bound must be at least 5")
    rows = fm_table(primes_one_mod_four(bound))
    ones = tuple(p for p, _, fm in rows if fm == 1)
    running = []
    best = 0
    for p, _, fm in rows:
        if fm > best:
            best = fm
            running.append((p, fm))
    return ScanReport(bound, rows, ones, tuple(running))
