import json
import random
from fractions import Fraction

import pytest

from k3fm import (
    IntegerLattice,
    LatticeParseError,
    are_isometric,
    cyclic_form,
    diagonal_lattice,
    direct_sum,
    discriminant_form,
    e8_lattice,
    hyperbolic_plane,
    induced_form_map,
    invariant_factors,
    lattice_from_obj,
    make_lattice,
    min_generators,
    parse_lattice_file,
    rescale,
    signature,
)
from k3fm import intmat
from k3fm.finite_qform import validate_map


def test_lattice_validation():
    with pytest.raises(ValueError, match="symmetric"):
        make_lattice([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="square"):
        make_lattice([[2, 1], [1, 2], [0, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        make_lattice([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="integers"):
        make_lattice([[True]])


def test_evenness():
    assert hyperbolic_plane().is_even
    assert not make_lattice([[1, 0], [0, -1]]).is_even


def test_signature_examples():
    assert signature(hyperbolic_plane()).as_pair() == (1, 1)
    for n in (1, 2, 5):
        assert signature(diagonal_lattice(2 * n)).as_pair() == (1, 0)
    assert signature(make_lattice([[2, 1], [1, -2]])).as_pair() == (1, 1)
    assert signature(e8_lattice()).as_pair() == (8, 0)


def test_signature_sums():
    rng = random.Random(5)
    for _ in range(20):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        g1 = _random_nondegenerate(rng, n1)
        g2 = _random_nondegenerate(rng, n2)
        s1, s2 = signature(g1), signature(g2)
        s12 = signature(direct_sum(g1, g2))
        assert s12.as_pair() == (s1.n_plus + s2.n_plus, s1.n_minus + s2.n_minus)


def _random_nondegenerate(rng, n):
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = rng.randint(-4, 4)
                rows[i][j] = rows[j][i] = x
        try:
            return make_lattice(rows)
        except ValueError:
            continue


def test_smith_decomposition_contract():
    gram = ((2, 1), (1, -2))
    u, d, v = intmat.smith_normal_form(gram)
    assert intmat.matmul(u, intmat.matmul(gram, v)) == d
    assert (d[0][0], d[1][1]) == (1, 5)


def test_discriminant_form_examples():
    for n in (1, 2, 7):
        a = discriminant_form(diagonal_lattice(2 * n))
        assert a.orders == (2 * n,)
        assert a.q_gens == (Fraction(1, 2 * n),)
    assert discriminant_form(hyperbolic_plane()).orders == ()
    a5 = discriminant_form(make_lattice([[2, 1], [1, -2]]))
    assert a5.orders == (5,)
    # canonical value up to unit squares: the class of 2/5, not of 4/5
    assert are_isometric(a5, cyclic_form(5, Fraction(2, 5)))
    assert not are_isometric(a5, cyclic_form(5, Fraction(4, 5)))


def test_discriminant_form_errors():
    with pytest.raises(ValueError, match="even lattice required"):
        discriminant_form(make_lattice([[1, 0], [0, -1]]))


def test_discriminant_order_matches_det():
    rng = random.Random(17)
    for _ in range(25):
        lat = _random_even(rng, rng.randint(1, 4))
        assert discriminant_form(lat).order == abs(lat.det)


def _random_even(rng, n):
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = rng.randint(-3, 3)
                if i == j:
                    x *= 2
                rows[i][j] = rows[j][i] = x
        try:
            return make_lattice(rows)
        except ValueError:
            continue


def test_min_generators():
    assert min_generators(direct_sum(hyperbolic_plane(), diagonal_lattice(2))) == 1
    assert min_generators(diagonal_lattice(2, 2)) == 2
    assert min_generators(hyperbolic_plane()) == 0
    assert min_generators(e8_lattice()) == 0
    assert invariant_factors(diagonal_lattice(2, 2)) == (2, 2)


def test_direct_sum_examples():
    s = direct_sum(diagonal_lattice(2), diagonal_lattice(-2))
    assert s.gram == ((2, 0), (0, -2))
    l1, l2 = diagonal_lattice(2), hyperbolic_plane()
    assert direct_sum(l1, l2).det == l1.det * l2.det == -2
    assert direct_sum(hyperbolic_plane(), hyperbolic_plane()).rank == 4


def test_direct_sum_discriminant_is_orthogonal_sum():
    l1 = diagonal_lattice(2)
    l2 = make_lattice([[2, 1], [1, -2]])
    combined = discriminant_form(direct_sum(l1, l2))
    # Z/2 with q = 1/2 plus Z/5 with q = 8/5: the sum of the generators has
    # order 10 and q = 1/2 + 8/5 = 1/10 mod 2
    assert discriminant_form(l1).q_gens == (Fraction(1, 2),)
    assert discriminant_form(l2).q_gens == (Fraction(8, 5),)
    assert are_isometric(combined, cyclic_form(10, Fraction(1, 10)))


def test_q_values_stable_under_basis_change():
    lat = make_lattice([[2, 1], [1, -2]])
    p = ((1, 1), (0, 1))  # unimodular change of basis
    gram2 = intmat.matmul(intmat.transpose(p), intmat.matmul(lat.gram, p))
    assert are_isometric(discriminant_form(lat), discriminant_form(IntegerLattice(gram2)))


def test_k3_lattice():
    e8m, u = rescale(e8_lattice(), -1), hyperbolic_plane()
    k3 = direct_sum(e8m, e8m, u, u, u)
    assert k3.rank == 22
    assert signature(k3).as_pair() == (3, 19)
    assert k3.det == -1
    assert k3.is_even


def charpoly_coeffs(gram):
    """Coefficients of det(xI - G), ascending, by exact interpolation of
    Bareiss determinants at integer points."""
    n = len(gram)
    xs = list(range(n + 1))
    ys = []
    for k in xs:
        m = tuple(
            tuple((k if i == j else 0) - gram[i][j] for j in range(n))
            for i in range(n)
        )
        ys.append(intmat.det(m))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t] -= c * xj
                new[t + 1] += c
            basis = new
            denom *= xi - xj
        weight = Fraction(ys[i]) / denom
        for t, c in enumerate(basis):
            coeffs[t] += weight * c
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def descartes_signature(gram):
    """Independent signature oracle: a symmetric matrix has all-real
    eigenvalues, so Descartes' rule on the characteristic polynomial counts
    them exactly."""

    def variations(seq):
        seq = [c for c in seq if c != 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))

    coeffs = charpoly_coeffs(gram)
    pos = variations(coeffs)
    neg = variations([c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return pos, neg


def test_signature_against_charpoly_oracle():
    e8m, u = rescale(e8_lattice(), -1), hyperbolic_plane()
    named = (
        hyperbolic_plane(),
        e8_lattice(),
        direct_sum(e8m, e8m, u, u, u),
        make_lattice([[2, 1], [1, -2]]),
        direct_sum(hyperbolic_plane(), rescale(e8_lattice(), -1)),
    )
    for lat in named:
        assert descartes_signature(lat.gram) == signature(lat).as_pair()
    rng = random.Random(99)
    for _ in range(60):
        lat = _random_nondegenerate(rng, rng.randint(1, 6))
        assert descartes_signature(lat.gram) == signature(lat).as_pair()


def test_induced_form_map():
    lat = make_lattice([[2, 1], [1, -2]])
    neg = induced_form_map(lat, ((-1, 0), (0, -1)))
    validate_map(neg)
    a = discriminant_form(lat)
    # negation has order 2 and fixes q
    assert neg.compose(neg) == induced_form_map(lat, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="isometry"):
        induced_form_map(lat, ((1, 1), (0, 1)))


def test_lattice_json(tmp_path):
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"name": "L", "gram": [[2, 1], [1, -2]]}))
    lat = parse_lattice_file(path)
    assert lat.name == "L"
    assert lat.det == -5

    big = 10**40
    path.write_text(json.dumps({"gram": [[str(2 * big), "1"], ["1", str(-2 * big)]]}))
    lat = parse_lattice_file(path)
    assert lat.gram[0][0] == 2 * big


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"gram": [[2, 1], [1, 2], [0, 0]]}, "square"),
        ({"gram": [[0, 1], [2, 0]]}, "symmetric"),
        ({"gram": [[1, 2], [2, 4]]}, "nondegenerate"),
        ({"gram": [[1.5]]}, "integers"),
        ({"gram": [["1.5"]]}, "integers"),
        ({"gram": [[True]]}, "integers"),
        ({}, "gram"),
        ([], "object"),
    ],
)
def test_lattice_json_errors(obj, message):
    with pytest.raises(LatticeParseError, match=message):
        lattice_from_obj(obj)


def test_discriminant_data_is_computed_once_per_lattice():
    from k3fm.lattice import discriminant_data

    a = make_lattice([[2, 1], [1, -2]], "a")
    b = make_lattice([[2, 1], [1, -2]], "b")
    assert a == b and hash(a) == hash(b)
    text = repr(a)
    assert discriminant_data(a) is discriminant_data(a)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == text
    assert "Discriminant" not in text and "_discriminant" not in text
    # the memo belongs to the object: an equal lattice computes its own
    assert discriminant_data(b) is not discriminant_data(a)
    assert discriminant_data(b).form == discriminant_data(a).form


def reference_signature(gram) -> tuple:
    """(n_plus, n_minus) by symmetric Gaussian elimination over Q, as
    `signature` computed it before it moved to integers; the same pivots,
    the same zero-diagonal substitution e_i += e_j, the same error."""
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    plus = minus = 0
    for s in range(n):
        pivot = next((i for i in range(s, n) if m[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in range(s, n) for j in range(i + 1, n) if m[i][j] != 0), None
            )
            if pair is None:
                raise ValueError("degenerate lattice")
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            pivot = i
        if pivot != s:
            m[s], m[pivot] = m[pivot], m[s]
            for row in m:
                row[s], row[pivot] = row[pivot], row[s]
        p = m[s][s]
        if p > 0:
            plus += 1
        else:
            minus += 1
        for i in range(s + 1, n):
            if m[i][s] != 0:
                f = m[i][s] / p
                for c in range(s, n):
                    m[i][c] -= f * m[s][c]
        for c in range(s + 1, n):
            m[s][c] = Fraction(0)
    return plus, minus


class _Gram:
    """A stand-in that `signature` reads like a lattice, for Grams that
    `IntegerLattice` refuses as degenerate."""

    def __init__(self, gram):
        self.gram = intmat.freeze(gram)
        self.rank = len(gram)


def test_integer_signature_equals_the_rational_reference():
    rng = random.Random(660)
    degenerate = zero_diagonal = 0
    for _ in range(3000):
        n = rng.randint(1, 6)
        bound = rng.choice((1, 2, 5, 40))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        for i in rng.sample(range(n), rng.randint(0, n)):
            rows[i][i] = 0
        zero_diagonal += not any(rows[i][i] for i in range(n))
        try:
            expected = reference_signature(rows)
        except ValueError as exc:
            assert str(exc) == "degenerate lattice"
            with pytest.raises(ValueError, match="^degenerate lattice$"):
                signature(_Gram(rows))
            degenerate += 1
            continue
        assert signature(_Gram(rows)).as_pair() == expected, rows
        if intmat.det(rows):
            assert signature(make_lattice(rows)).as_pair() == expected
    assert degenerate > 100 and zero_diagonal > 300
