"""Even unimodular overlattices from anti-isometry gluing data.

Given even lattices S and T and a bijection phi: A_T -> A_S with
q_S(phi(x)) = -q_T(x), the overlattice generated by S + T together with the
lifts phi(a) + a is integral, even and unimodular, contains T primitively,
and has T-orthogonal complement S.  Enumerating all such phi and counting
orbits under O(S) x G provides an independent check of the double-coset
counts used by the partner-counting engine.  The oracle holds no O(S) code
and enumerates no genus: its orbits use `fm_count.isometry_image_generators`
(O(S) from `bqf`) and `fm_count.hodge_generators` on A_T, it is handed the
genus members (`fm_count.genus_lattices`), and it compares their count with
the engine's own summand `fm_count.coset_summand`, so the p-part coset count
is checked against a whole-group orbit walk.

The oracle runs on integers.  An overlattice holds its basis as integer
rows B over one denominator D (`Overlattice.ambient_basis` shows B / D as
`Fraction`s), and every rationality test on it becomes a divisibility test
by D or D^2.  The Gram of L is summed over the two coordinate blocks of B,
since S + T is an orthogonal sum, and, as it is symmetric, once for each
pair j >= i.  "The complement of T equals S" means S is primitive in L: the
complement is L meets S x Q, and it is checked by the same test as the
primitivity of T, with the two coordinate blocks swapped, so no lattice is
classified up to isometry.  That test reads one Hermite basis: with the
block's m columns moved last, the last m rows of the Hermite basis of B
span the vectors of D L in the block, and they must be D I_m there.
Reading a gluing map back from an overlattice is linear: L/(S + T) is read
off the Smith form of B, only its generators are classified, and the
classes of the other cosets are their sums, built column-wise, one list of
ints per coordinate.  Every coset is still checked to lie on the graph of
one bijection A_T -> A_S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from operator import mul

from . import fm_count, intmat
from .finite_qform import FiniteFormMap, isometries_signed, negation_map, validate_map
from .fm_count import GENERIC_HODGE, HodgeGroupSpec, coset_summand, hodge_generators
from .lattice import (
    IntegerLattice,
    discriminant_data,
    discriminant_form,
)


@dataclass(frozen=True)
class GluingDatum:
    """Validated input to glue(): phi must be a bijective anti-isometry from
    the discriminant form of T onto that of S."""

    s: IntegerLattice
    t: IntegerLattice
    phi: FiniteFormMap

    def __post_init__(self):
        a_s = discriminant_form(self.s)
        a_t = discriminant_form(self.t)
        if self.phi.source != a_t or self.phi.target != a_s:
            raise ValueError("gluing map must go from A_T to A_S")
        if self.phi.sign != -1:
            raise ValueError("gluing map must negate the quadratic form")
        if a_s.order != a_t.order:
            raise ValueError("discriminant groups must have equal order")
        validate_map(self.phi)


@dataclass(frozen=True, eq=False)
class Overlattice:
    """An overlattice L of S + T: its basis is the integer rows `basis` over
    `denom`, in S + T coordinates.  Two overlattices are equal when their
    rational bases are, whatever the denominators: (2B, 2D) equals (B, D)."""

    basis: tuple  # integer rows B; the basis of L is B / denom
    denom: int
    gram: tuple  # integral Gram of the saturated lattice
    index: int

    @property
    def ambient_basis(self) -> tuple:
        """The basis B / denom as rows of `Fraction`s."""
        return tuple(tuple(Fraction(x, self.denom) for x in row) for row in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Overlattice):
            return NotImplemented
        return (self.ambient_basis, self.gram, self.index) == (
            other.ambient_basis, other.gram, other.index
        )

    def __hash__(self) -> int:
        return hash((self.ambient_basis, self.gram, self.index))


def _dual_numerators(columns, orders, coeffs, denom: int) -> tuple:
    """Integer numerators over denom of the dual vector sum c_j h_j of one
    part, h_j = columns[j] / p^e_j; denom is a multiple of every p^e_j."""
    vec = [0] * len(columns[0])
    for cj, col, pe in zip(coeffs, columns, orders):
        if cj:
            f = cj * (denom // pe)
            for r, x in enumerate(col):
                vec[r] += f * x
    return tuple(vec)


def glue(s: IntegerLattice, t: IntegerLattice, phi: FiniteFormMap) -> Overlattice:
    """Saturate S + T + {phi(a) + a lifts} to an integral basis and return
    the glued overlattice.

    The lifts, one per generator h of a part of A_T, are integer rows over
    D, the exponent of A_T (= that of A_S), which every generator order
    divides.  The Hermite basis of D * L over D is canonical, whichever
    valid D and whichever generators of A_T are used."""
    GluingDatum(s, t, phi)
    data_s = discriminant_data(s)
    data_t = discriminant_data(t)
    n = s.rank + t.rank
    denom = data_t.form.exponent
    rows = list(intmat.scale(intmat.identity(n), denom))
    for block, cols_s, cols_t, part_s, part_t in zip(
        phi.parts, data_s.columns, data_t.columns, data_s.form.parts, data_t.form.parts
    ):
        for img, col_t, pe in zip(block, cols_t, part_t.orders):
            lift_t = tuple(denom // pe * x for x in col_t)
            rows.append(_dual_numerators(cols_s, part_s.orders, img, denom) + lift_t)
    basis_scaled = intmat.hermite_row_basis(rows)
    if len(basis_scaled) != n:
        raise RuntimeError("glued lattice lost rank")
    # basis_scaled / denom is a basis of L, so B (G_S + G_T) B^T is denom^2
    # times L's Gram; S + T is an orthogonal sum, so row i of B (G_S + G_T)
    # is B_S G_S and B_T G_T side by side, one column block of B each.  The
    # Gram is symmetric: entry (i, j) is summed once, for j >= i, and a row's
    # entries left of i were checked as those of an earlier row
    k = s.rank
    b_g = [
        [sum(map(mul, row[:k], col)) for col in s.gram]
        + [sum(map(mul, row[k:], col)) for col in t.gram]
        for row in basis_scaled
    ]
    denom2 = denom * denom
    gram = [[0] * n for _ in range(n)]
    for i, bg_row in enumerate(b_g):
        for j in range(i, n):
            x, rem = divmod(sum(map(mul, bg_row, basis_scaled[j])), denom2)
            if rem:
                raise RuntimeError("glued pairing is not integral")
            gram[i][j] = gram[j][i] = x
        if gram[i][i] % 2:
            raise RuntimeError("glued lattice is not even")
    gram = intmat.freeze(gram)
    index = data_t.form.order
    det_l = intmat.det(gram)
    if abs(det_l) != 1:
        raise RuntimeError("glued lattice is not unimodular")
    if index * index * abs(det_l) != abs(s.det * t.det):
        raise RuntimeError("glue index identity violated")
    return Overlattice(basis_scaled, denom, gram, index)


@dataclass(frozen=True)
class OverlatticeReport:
    even: bool
    unimodular: bool
    t_primitive: bool
    complement_is_s: bool

    @property
    def all_ok(self) -> bool:
        return self.even and self.unimodular and self.t_primitive and self.complement_is_s


def _meets_block_in_itself(basis: tuple, denom: int, lo: int, hi: int) -> bool:
    """Whether L = basis / denom meets the span of coordinates lo..hi-1 in
    exactly the integer vectors there; basis is any square integer matrix,
    and a singular one reads False.  With the block's m = hi - lo columns moved last, the
    Hermite basis H of the rows is upper triangular with positive pivots,
    so the vectors of denom * L that vanish off the block are spanned by
    the last m rows of H, and those rows are the Hermite basis of
    denom * (L meets the block).  That lattice is denom * Z^m exactly when
    they are denom * I_m on the block."""
    m = hi - lo
    h = intmat.hermite_row_basis(tuple(row[:lo] + row[hi:] + row[lo:hi] for row in basis))
    if len(h) != len(basis):
        return False
    return tuple(row[-m:] for row in h[-m:]) == intmat.scale(intmat.identity(m), denom)


def verify_overlattice(over: Overlattice, s: IntegerLattice, t: IntegerLattice) -> OverlatticeReport:
    """Check the four structural facts about a glued overlattice: evenness,
    unimodularity, primitivity of T, and that the orthogonal complement of T
    is S.

    The complement of T in L is L meets S x Q, so it is S exactly when S is
    primitive in L: one test serves both flags, with the two coordinate
    blocks swapped.  On an L that contains S + T this is the same as the
    complement being isometric to S, since a lattice containing S and
    isometric to it has index 1 over it.  Both tests run on the integer rows
    B over D of the overlattice and read one Hermite basis each
    (`_meets_block_in_itself`): no kernel, product or determinant."""
    n = s.rank + t.rank
    even = all(over.gram[i][i] % 2 == 0 for i in range(n))
    unimodular = abs(intmat.det(over.gram)) == 1
    t_primitive = _meets_block_in_itself(over.basis, over.denom, s.rank, n)
    complement_is_s = _meets_block_in_itself(over.basis, over.denom, 0, s.rank)
    return OverlatticeReport(even, unimodular, t_primitive, complement_is_s)


def recovered_gluing_map(over: Overlattice, s: IntegerLattice, t: IntegerLattice) -> FiniteFormMap:
    """Recompute the gluing map from the saturated basis alone: read
    L/(S + T) off a Smith form and take each coset's S- and T-projections
    in the part coordinates of the discriminant forms.

    With the rows B over D of the overlattice and u B v = diag(d_1, ...,
    d_n), the rows of u B / D are a basis of L, and row i times v is
    (d_i / D) e_i.  So L contains S + T = Z^n exactly when every d_i divides
    D, and then row i of u B / D generates a cyclic summand of L/(S + T) of
    order D / d_i.  Classification is a group homomorphism, so only these
    generators are classified; every coset's classes are sums of theirs,
    kept as one list per coordinate.  Classification is also injective on
    L/(S + T), so the cosets lie on the graph of a map A_T -> A_S exactly
    when their T-parts are distinct.  That graph is the sum of its p-parts,
    and the p-part of L/(S + T) is generated by the p-components of the
    generators, of the p-parts of their orders; their classes are the
    generators' classes on the parts of p.  So the cosets are listed, and
    their T-parts tested, one prime at a time."""
    data_s = discriminant_data(s)
    data_t = discriminant_data(t)
    n = s.rank + t.rank
    basis, denom = over.basis, over.denom
    u, d, _ = intmat.smith_normal_form(basis, track_v=False)
    diag = [d[i][i] for i in range(min(len(d), n))]
    if len(diag) != n or any(x == 0 or denom % x for x in diag):
        raise ValueError("S + T is not a sublattice of the overlattice")
    gens = [
        (denom // d_i, data_t.classify(row[s.rank :], denom), data_s.classify(row[: s.rank], denom))
        for row, d_i in zip(intmat.matmul(u, basis), diag)
        if d_i != denom
    ]
    # equal orders pair the parts of A_T and A_S off by prime, in order
    graphs = []
    for at, (part_t, part_s) in enumerate(zip(data_t.form.parts, data_s.form.parts)):
        k, orders = len(part_t.orders), part_t.orders + part_s.orders
        # a power of p that the order of every p-component divides
        exponent = part_t.orders[-1] * part_s.orders[-1]
        # one list per coordinate, T-classes then S-classes, entry j of every
        # list belonging to coset j; each generator multiplies the count
        cols = [[0] for _ in orders]
        for order, classes_t, classes_s in gens:
            steps = classes_t[at] + classes_s[at]
            multiples = range(gcd(order, exponent))
            cols = [
                [(x + j * st) % m for x in col for j in multiples]
                for col, st, m in zip(cols, steps, orders)
            ]
        graph = dict(zip(zip(*cols[:k]), zip(*cols[k:])))
        if len(graph) != len(cols[0]):
            raise ValueError("overlattice quotient is not a gluing graph")
        graphs.append((k, graph))
    size = prod(order for order, _, _ in gens)
    if size != data_t.form.order or size != data_s.form.order or size != over.index:
        raise ValueError("overlattice quotient has the wrong size")
    images = tuple(tuple(graph[unit] for unit in intmat.identity(k)) for k, graph in graphs)
    return FiniteFormMap(data_t.form, data_s.form, images, -1)


# ---------------------------------------------------------------------------
# orbit counting


@dataclass(frozen=True)
class GluingClasses:
    count: int
    # generators of the image of O(S) in O(A_S), -id left out, as
    # `isometry_image_generators` gives them to the coset count
    o_s_images: tuple = field(default=(), compare=False, repr=False)


def gluing_classes(
    s: IntegerLattice,
    t: IntegerLattice,
    hodge: HodgeGroupSpec = GENERIC_HODGE,
) -> GluingClasses:
    """Partition the full set of anti-isometries A_T -> A_S into orbits under
    sigma -> h o sigma o g, with h running over the image of O(S) and g over
    the image of the Hodge group in O(A_T).  The walk takes -id, the image
    of -I, among the h, though `isometry_image_generators` leaves it out of
    the coset count, so `verify_gluing_counts` checks that it moves nothing
    there.  The generators without -id are kept on the result; none are
    built when there is no anti-isometry."""
    a_s = discriminant_form(s)
    a_t = discriminant_form(t)
    sigmas = isometries_signed(a_t, a_s, -1)
    if not sigmas:
        return GluingClasses(0)
    h_maps = tuple(fm_count.isometry_image_generators(s, a_s))
    walk_maps = (*h_maps, negation_map(a_s))
    g_maps = hodge_generators(a_t, hodge)
    # every map here goes A_T -> A_S with sign -1, so its parts key it
    remaining = {sigma.parts: sigma for sigma in sigmas}
    count = 0
    while remaining:
        start = next(iter(remaining.values()))
        count += 1
        frontier = [start]
        seen = {start.parts}
        while frontier:
            sigma = frontier.pop()
            moves = [h.compose(sigma) for h in walk_maps]
            moves += [sigma.compose(g) for g in g_maps]
            for nxt in moves:
                if nxt.parts not in seen:
                    seen.add(nxt.parts)
                    frontier.append(nxt)
        for key in seen:
            remaining.pop(key, None)
    return GluingClasses(count, h_maps)


@dataclass(frozen=True)
class GluingCountRow:
    s: IntegerLattice
    orbit_count: int
    coset_count: int

    @property
    def equal(self) -> bool:
        return self.orbit_count == self.coset_count


@dataclass(frozen=True)
class GluingCountReport:
    rows: tuple
    total_orbits: int
    total_cosets: int

    @property
    def all_equal(self) -> bool:
        return self.total_orbits == self.total_cosets and all(r.equal for r in self.rows)


def verify_gluing_counts(
    s_list,
    t: IntegerLattice,
    hodge: HodgeGroupSpec = GENERIC_HODGE,
) -> GluingCountReport:
    """For each genus representative S_j compare the number of gluing orbits
    (a walk over every anti-isometry A_T -> A_S) with the engine's summand
    `fm_count.coset_summand` (double cosets counted one p-part at a time);
    both totals must agree.  The image of O(S_j) in O(A_S_j) is built once
    per S_j, by the orbit walk, and handed on to the summand; the walk
    still moves whole maps."""
    rows = []
    for s in s_list:
        classes = gluing_classes(s, t, hodge)
        if classes.count == 0:
            raise ValueError(
                "no gluing exists: discriminant forms of S and T are not anti-isometric"
            )
        rows.append(GluingCountRow(s, classes.count, coset_summand(s, hodge, classes.o_s_images)))
    return GluingCountReport(
        tuple(rows),
        sum(r.orbit_count for r in rows),
        sum(r.coset_count for r in rows),
    )
