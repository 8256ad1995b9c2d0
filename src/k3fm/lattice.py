"""Integer lattices: Gram matrices, signatures, Smith form, discriminant forms.

A lattice is a free Z-module with a nondegenerate symmetric integer pairing,
held as its Gram matrix.  The discriminant group A_L = L*/L with its Q/2Z
quadratic form is computed from the Smith decomposition of the Gram matrix,
on integers: dual generator i is column v_i of the Smith transform v over
d_i, and the form's tables over the exponent N are
N*b_ij = (v_i . G v_j / d_j)(N / d_i), with no `Fraction` on the way.
These tables are the form (`finite_qform.FiniteQuadraticForm`); it is split
into its p-parts when a count or a search first reads them, so `discform`
prints the invariant factors without factoring |det|.
`DiscriminantData.classify` reads a dual vector given as integer numerators
over a denominator straight into part coordinates.  `signature` eliminates
on integers, fraction-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from . import intmat
from .errors import LatticeParseError
from .finite_qform import FiniteFormMap, FiniteQuadraticForm


@dataclass(frozen=True)
class IntegerLattice:
    """A lattice by its Gram matrix, checked square, integral, symmetric and
    nondegenerate.  The determinant that the check computes is kept, so
    `det` is read, not eliminated again; like the memo of
    `discriminant_data`, it is set once, outside equality and repr."""

    gram: tuple
    name: str | None = field(default=None, compare=False)
    _det: int = field(default=0, init=False, repr=False, compare=False)
    _discriminant: DiscriminantData | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = len(self.gram)
        if n == 0:
            raise ValueError("lattice must have positive rank")
        for row in self.gram:
            if len(row) != n:
                raise ValueError("gram must be square")
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError("gram entries must be integers")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram must be symmetric")
        det = intmat.det(self.gram)
        if det == 0:
            raise ValueError("degenerate lattice")
        object.__setattr__(self, "_det", det)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return self._det

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


def make_lattice(rows, name: str | None = None) -> IntegerLattice:
    return IntegerLattice(intmat.freeze(rows), name)


def direct_sum(*lattices: IntegerLattice) -> IntegerLattice:
    """Block-diagonal Gram matrix; rank and determinant multiply up."""
    if not lattices:
        raise ValueError("direct_sum needs at least one summand")
    total = sum(lat.rank for lat in lattices)
    rows = []
    offset = 0
    for lat in lattices:
        for row in lat.gram:
            rows.append((0,) * offset + row + (0,) * (total - offset - lat.rank))
        offset += lat.rank
    return IntegerLattice(tuple(rows))


def rescale(lat: IntegerLattice, k: int) -> IntegerLattice:
    if k == 0:
        raise ValueError("scale factor must be nonzero")
    return IntegerLattice(intmat.freeze(intmat.scale(lat.gram, k)))


def diagonal_lattice(*entries: int) -> IntegerLattice:
    n = len(entries)
    return IntegerLattice(
        tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


def hyperbolic_plane() -> IntegerLattice:
    """The even unimodular lattice of signature (1,1)."""
    return IntegerLattice(((0, 1), (1, 0)), "U")


_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8_lattice() -> IntegerLattice:
    """The even unimodular positive-definite rank-8 lattice (2s on the
    diagonal, -1 on the standard adjacency pattern)."""
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = 2
    for i, j in _E8_EDGES:
        gram[i - 1][j - 1] = -1
        gram[j - 1][i - 1] = -1
    return make_lattice(gram, "E8")


# ---------------------------------------------------------------------------
# signature


@dataclass(frozen=True)
class Signature:
    n_plus: int
    n_minus: int

    def as_pair(self) -> tuple:
        return (self.n_plus, self.n_minus)


def signature(lat: IntegerLattice) -> Signature:
    """Counts of positive and negative squares by fraction-free symmetric
    elimination on integers (Sylvester's law); no floating point.

    A pivot p on the trailing block [[p, b^T], [b, B]] leaves p B - b b^T,
    divided exactly by the pivot before it (Bareiss), so every entry stays a
    minor of the Gram.  The block is then p times the rational Schur
    complement, scaled down by the previous pivot: a negative pivot flips
    the signs of the pivots after it, and the square a pivot stands for has
    the sign of p times the previous pivot.

    A zero diagonal with a nonzero pairing a = (e_i, e_j) is handled by the
    substitution e_i += e_j, which creates the diagonal entry 2a; the
    hyperbolic pair then contributes one square of each sign.
    """
    n = lat.rank
    m = [list(row) for row in lat.gram]
    plus = minus = 0
    prev = 1
    for s in range(n):
        pivot = next((i for i in range(s, n) if m[i][i]), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in range(s, n) for j in range(i + 1, n) if m[i][j]), None
            )
            if pair is None:
                raise ValueError("degenerate lattice")
            i, j = pair
            for c in range(s, n):
                m[i][c] += m[j][c]
            for r in range(s, n):
                m[r][i] += m[r][j]
            pivot = i
        if pivot != s:
            m[s], m[pivot] = m[pivot], m[s]
            for row in m:
                row[s], row[pivot] = row[pivot], row[s]
        top = m[s]
        p = top[s]
        if (p > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        for row in m[s + 1 :]:
            b = row[s]
            for c in range(s + 1, n):
                row[c] = (p * row[c] - b * top[c]) // prev
        prev = p
    return Signature(plus, minus)


# ---------------------------------------------------------------------------
# Smith decomposition and discriminant form


def invariant_factors(lat: IntegerLattice) -> tuple:
    """Nontrivial invariant factors of A_L = L*/L, in divisibility order."""
    _, d, _ = intmat.smith_normal_form(lat.gram, track_v=False)
    return tuple(d[i][i] for i in range(lat.rank) if d[i][i] > 1)


def min_generators(lat: IntegerLattice) -> int:
    """l(L): minimal number of generators of the discriminant group."""
    return len(invariant_factors(lat))


@dataclass(frozen=True)
class DiscriminantData:
    """Discriminant form plus the coordinate bookkeeping needed to map dual
    vectors to the coordinates of its p-parts and back."""

    lattice: IntegerLattice
    form: FiniteQuadraticForm
    # the rows of u that read the g_i, and the columns v_i of v: g_i = v_i / d_i
    _u: tuple = field(repr=False)
    _cols: tuple = field(repr=False)

    @cached_property
    def columns(self) -> tuple:
        """Per part, integer numerators: its generator j is columns[s][j] / p^e.
        The part generator at g_i = v_i / d_i is e g_i = t v_i / p^e, with
        e = t m = 1 mod p^e and 0 mod m = d_i / p^e."""
        orders = self.form.orders
        return tuple(
            tuple([
                tuple([pow(d // pe, -1, pe) * x for x in col])
                for col, d, pe in zip(self._cols[at:], orders[at:], part_orders)
            ])
            for at, part_orders in self._part_slices
        )

    def classify(self, vec, denom: int = 1) -> tuple:
        """Part coordinates of the dual vector vec / denom (original basis),
        one vector per part: its invariant-factor coordinates c_i read mod
        each p^e.  vec / denom is in L* exactly when denom divides
        gram * vec; with integer vec and denom that test is on integers."""
        ints = []
        for x in intmat.mat_vec(self.lattice.gram, vec):
            quot, rem = divmod(x, denom)
            if rem:
                raise ValueError("vector is not in the dual lattice")
            ints.append(int(quot))
        c = intmat.mat_vec(self._u, ints)
        return tuple([
            tuple([x % pe for x, pe in zip(c[at:], orders)]) for at, orders in self._part_slices
        ])

    @cached_property
    def _part_slices(self) -> tuple:
        """Per part, (offset, orders): its coordinates are the invariant-factor
        coordinates from the offset on, read mod its orders."""
        k = len(self._u)
        return tuple((k - len(part.orders), part.orders) for part in self.form.parts)


def discriminant_data(lat: IntegerLattice) -> DiscriminantData:
    """The discriminant data of an even lattice, computed once per lattice
    object and kept on it."""
    data = lat._discriminant
    if data is None:
        data = _compute_discriminant_data(lat)
        object.__setattr__(lat, "_discriminant", data)
    return data


def _compute_discriminant_data(lat: IntegerLattice) -> DiscriminantData:
    if not lat.is_even:
        raise ValueError("even lattice required")
    u, d, v = intmat.smith_normal_form(lat.gram)
    keep = tuple(i for i in range(lat.rank) if d[i][i] > 1)
    orders = tuple(d[i][i] for i in keep)
    # u*G*v = d gives G^-1 u^-1 = v d^-1: dual generator i is column i of v
    # divided by d_i
    cols = [tuple(row[i] for row in v) for i in keep]
    g_cols = [intmat.mat_vec(lat.gram, col) for col in cols]
    n = orders[-1] if orders else 1

    def scaled(i, j) -> int:
        """N (v_i/d_i) G (v_j/d_j) = (v_i . G v_j / d_j) (N / d_i): G v_j / d_j
        is integral, as v_j / d_j lies in L*."""
        return sum(x * y for x, y in zip(cols[i], g_cols[j])) // orders[j] * (n // orders[i])

    idx = range(len(keep))
    q = tuple(scaled(i, i) % (2 * n) for i in idx)
    b = tuple(tuple(scaled(i, j) % n for j in idx) for i in idx)
    form = FiniteQuadraticForm(orders, q, b)
    if form.order != abs(lat.det):
        raise RuntimeError("discriminant group order does not match |det|")
    return DiscriminantData(lat, form, tuple(u[i] for i in keep), tuple(cols))


def discriminant_form(lat: IntegerLattice) -> FiniteQuadraticForm:
    """The finite quadratic form (A_L, q_L)."""
    return discriminant_data(lat).form


def induced_form_map(lat: IntegerLattice, mat) -> FiniteFormMap:
    """The isometry of (A_L, q_L) induced by a lattice isometry matrix."""
    mat = intmat.freeze(mat)
    if intmat.matmul(intmat.transpose(mat), intmat.matmul(lat.gram, mat)) != lat.gram:
        raise ValueError("matrix is not an isometry of the lattice")
    data = discriminant_data(lat)
    # the image of g_i = v_i / d_i, classified once; its part s is the image
    # of the p-component of g_i, the generator of the part at index i
    images = [
        data.classify(intmat.mat_vec(mat, col), d) for col, d in zip(data._cols, data.form.orders)
    ]
    k = len(images)
    parts = tuple(
        tuple(images[i][s] for i in range(k - len(part.orders), k))
        for s, part in enumerate(data.form.parts)
    )
    return FiniteFormMap(data.form, data.form, parts, 1)


# ---------------------------------------------------------------------------
# lattice files


def json_integer(x, what: str) -> int:
    """An integer read from JSON: a JSON integer or a decimal string (for
    values beyond double precision), never a boolean or a float.  A string
    is an optional sign and Unicode decimal digits, the ones `int()` reads;
    `str.isdigit` would also pass superscripts such as "2²"."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        stripped = x.strip()
        body = stripped[1:] if stripped[:1] in "+-" else stripped
        if body.isdecimal():
            return int(stripped)
    raise LatticeParseError(f"{what} must be integers")


def lattice_from_obj(obj) -> IntegerLattice:
    """Validate the JSON object format {"name": ..., "gram": [[...], ...]}.

    Entries follow `json_integer`.  The first violated constraint is
    reported.
    """
    if not isinstance(obj, dict):
        raise LatticeParseError("top-level value must be an object")
    if "gram" not in obj:
        raise LatticeParseError("missing 'gram' key")
    gram = obj["gram"]
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise LatticeParseError("name must be a string")
    if not isinstance(gram, list) or not gram:
        raise LatticeParseError("gram must be a nonempty array of rows")
    n = len(gram)
    rows = []
    for row in gram:
        if not isinstance(row, list) or len(row) != n:
            raise LatticeParseError("gram must be square")
        rows.append(tuple(json_integer(x, "gram entries") for x in row))
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise LatticeParseError("gram must be symmetric")
    if intmat.det(tuple(rows)) == 0:
        raise LatticeParseError("gram must be nondegenerate")
    return IntegerLattice(tuple(rows), name)


def parse_lattice_file(path) -> IntegerLattice:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise LatticeParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LatticeParseError(f"invalid JSON in {path}: {exc}") from exc
    return lattice_from_obj(obj)
