"""Integer forms, `DiscriminantData.classify` and `validate_map` against
the `Fraction` code they replaced, in invariant-factor coordinates.

`reference_classify` reads a dual vector of `Fraction`s off the Smith form
of the Gram, as the code did before a form held its p-parts;
`reference_validate_map` compares q and b as `Fraction`s in Q/2Z and Q/Z on
the invariant-factor generators.  The production code runs on integer
numerators and on the integer tables n*q mod 2n and n*b mod n of each
p-part; its coordinates, joined by CRT, and its verdicts must agree, with
the same message.  `reference_discriminant_values` and `reference_parts`
compute a discriminant form and its p-parts as `Fraction`s, and every
malformed input keeps the message it had when forms held `Fraction`s.
"""

import re

import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from test_isometry_reference import (
    _raw_b,
    _raw_q,
    _span_size,
    all_elements,
    b_matrix,
    element_order,
    forms_of,
    images_of,
    join,
)

from k3fm import (
    diagonal_lattice,
    discriminant_form,
    isometries_signed,
    make_lattice,
    negate_form,
)
from k3fm import intmat
from k3fm.arith import prime_factors
from k3fm.finite_qform import (
    FiniteQuadraticForm,
    evaluate_q,
    finite_form,
    map_from_images,
    negation_map,
    validate_map,
)
from k3fm.lattice import discriminant_data, induced_form_map


def smith_view(lat):
    """(u, kept rows, invariant factors, columns) of the Smith form u G v = d:
    the dual generator g_i is columns[i] / d_i."""
    u, d, v = intmat.smith_normal_form(lat.gram)
    keep = [i for i in range(lat.rank) if d[i][i] > 1]
    return u, keep, tuple(d[i][i] for i in keep), [tuple(row[i] for row in v) for i in keep]


def reference_classify(lat, vec):
    """Invariant-factor coordinates of the dual vector vec: u G vec mod d_i."""
    u, keep, orders, _ = smith_view(lat)
    y = intmat.mat_vec(lat.gram, vec)
    if any(Fraction(x).denominator != 1 for x in y):
        raise ValueError("vector is not in the dual lattice")
    c = intmat.mat_vec(u, tuple(int(x) for x in y))
    return tuple(c[i] % d for i, d in zip(keep, orders))


def split(form, coords) -> tuple:
    """Part coordinates of an invariant-factor vector: c_i mod each p^e."""
    k = len(coords)
    return tuple(
        tuple(c % pe for c, pe in zip(coords[k - len(part.orders):], part.orders))
        for part in form.parts
    )


LATTICES = [diagonal_lattice(2 * n) for n in (1, 6, 30)]
LATTICES += [
    make_lattice(g)
    for g in (
        [[2, 1], [1, -2]],
        [[-4, -2], [-2, -4]],
        [[-4, 0], [0, -4]],
        [[0, 2], [2, 0]],
        [[2, 0, 0], [0, -6, 0], [0, 0, 12]],
        [[4, 2, 0], [2, -4, 2], [0, 2, 6]],
    )
]


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: str(list(map(list, lat.gram))))
def test_integer_classify_matches_the_fraction_path(lat):
    data = discriminant_data(lat)
    _, _, orders, columns = smith_view(lat)
    rng = random.Random(str(lat.gram))
    n = orders[-1]
    rank = lat.rank
    for _ in range(200):
        # a random dual vector: generators, plus a lattice vector, over n
        coeffs = [rng.randrange(-3 * d, 3 * d) for d in orders]
        vec = [n * rng.randrange(-5, 6) for _ in range(rank)]
        for c, col, d in zip(coeffs, columns, orders):
            for r, x in enumerate(col):
                vec[r] += c * (n // d) * x
        as_fractions = tuple(Fraction(x, n) for x in vec)
        expected = reference_classify(lat, as_fractions)
        assert expected == tuple(c % d for c, d in zip(coeffs, orders))
        assert data.classify(vec, n) == split(data.form, expected)
        assert join(data.form, data.classify(vec, n)) == expected
        assert data.classify([3 * x for x in vec], 3 * n) == split(data.form, expected)
        assert data.classify(as_fractions) == split(data.form, expected)


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: str(list(map(list, lat.gram))))
def test_integer_classify_refuses_vectors_off_the_dual(lat):
    data = discriminant_data(lat)
    rng = random.Random(str(lat.gram))
    refused = 0
    for _ in range(200):
        denom = rng.randrange(1, 4 * abs(lat.det) + 2)
        vec = [rng.randrange(-50, 51) for _ in range(lat.rank)]
        try:
            expected = reference_classify(lat, tuple(Fraction(x, denom) for x in vec))
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="^vector is not in the dual lattice$"):
                data.classify(vec, denom)
        else:
            assert join(data.form, data.classify(vec, denom)) == expected
    assert refused > 0


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: str(list(map(list, lat.gram))))
def test_induced_form_map_of_minus_identity_is_negation(lat):
    data = discriminant_data(lat)
    _, _, orders, columns = smith_view(lat)
    minus = intmat.scale(intmat.identity(lat.rank), -1)
    f = induced_form_map(lat, minus)
    expected = tuple(
        reference_classify(lat, tuple(Fraction(-x, d) for x in col))
        for col, d in zip(columns, orders)
    )
    assert images_of(f) == expected
    assert f == negation_map(data.form)


def reference_validate_map(a, b, images, sign):
    """The checks of a map given on the invariant-factor generators, as
    `Fraction`s: first that the images define a homomorphism, then the
    sign, the orders, q and b generator by generator, and generation by
    the span of the images."""
    if len(images) != a.ngens:
        raise ValueError("one image per source generator required")
    for i, img in enumerate(images):
        if len(img) != b.ngens:
            raise ValueError("image vector length mismatch")
        if a.orders[i] % element_order(b, img) != 0:
            raise ValueError("image order does not divide generator order")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a.order != b.order:
        raise ValueError("source and target orders differ")
    b_a, b_b = b_matrix(a), b_matrix(b)
    for i, img in enumerate(images):
        if _raw_q(b.orders, b.q_gens, b_b, img) != Fraction(sign * a.q_gens[i]) % 2:
            raise ValueError("map does not rescale q by its sign")
        for j in range(i):
            if _raw_b(b_b, img, images[j]) != Fraction(sign * b_a[i][j]) % 1:
                raise ValueError("map does not rescale b by its sign")
    if _span_size(b, [tuple(c % d for c, d in zip(img, b.orders)) for img in images]) != b.order:
        raise ValueError("images do not generate the target group")


def production_validate_map(a, b, images, sign):
    validate_map(map_from_images(a, b, images, sign))


def _outcome(check, a, b, images, sign):
    try:
        check(a, b, images, sign)
    except ValueError as exc:
        return str(exc)
    return None


def _small_forms():
    """The forms of the isometry reference with |A| <= 12, each once."""
    out = {}
    for family in ("rank1", "rank2", "non_cyclic", "degenerate", "trivial"):
        for a in forms_of(family):
            if a.order <= 12:
                out.setdefault(a)
    return list(out)


SMALL = _small_forms()


def _targets(a):
    """Forms of the order of a: itself, its negative, the others of the
    same order (not always with the same invariant factors)."""
    same = [b for b in SMALL if b.order == a.order and b != a]
    return [a, negate_form(a)] + same[:3]


def _mutations(a, b, images):
    """Images off by one generator, unreduced, too short or too long."""
    if not images:
        return [((),)]
    out = [images[:-1], images + (images[0],)]
    for i, img in enumerate(images):
        for j, d in enumerate(b.orders):
            bumped = list(img)
            bumped[j] += 1
            out.append(images[:i] + (tuple(bumped),) + images[i + 1:])
            bumped[j] += d - 1  # the same class, unreduced
            out.append(images[:i] + (tuple(bumped),) + images[i + 1:])
        out.append(images[:i] + (img[:-1],) + images[i + 1:])
    return out


def test_small_forms_cover_the_families():
    assert len(SMALL) > 20
    assert any(a.ngens == 2 for a in SMALL)
    assert any(a.ngens == 0 for a in SMALL)


@pytest.mark.parametrize("a", SMALL, ids=lambda a: f"{a.orders}-{a.q_gens}")
def test_integer_validate_map_matches_the_fraction_reference(a):
    messages = set()
    for b in _targets(a):
        elements = list(all_elements(b))
        for images in product(elements, repeat=a.ngens):
            for sign in (1, -1, 2):
                expected = _outcome(reference_validate_map, a, b, images, sign)
                got = _outcome(production_validate_map, a, b, images, sign)
                assert got == expected, (a, b, images, sign)
                messages.add(expected)
                if expected is None:
                    for bad in _mutations(a, b, images):
                        assert _outcome(production_validate_map, a, b, bad, sign) == _outcome(
                            reference_validate_map, a, b, bad, sign
                        )
    assert None in messages


def test_validate_map_with_unequal_exponents():
    # Z/4 and Z/2 + Z/2 have one order but different exponents, as have
    # Z/8, Z/2 + Z/4 and (Z/2)^3; a map from Z/2 + Z/4 to (Z/2)^3 checks b
    # on target tables scaled up to the source exponent
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    forms = [
        finite_form((4,), (half,)),
        finite_form((4,), (quarter,)),
        finite_form((2, 2), (half, half)),
        finite_form((2, 2), (0, 0), [[0, half], [half, 0]]),
        finite_form((2, 2), (0, 0)),
        finite_form((8,), (Fraction(1, 8),)),
        finite_form((2, 4), (half, quarter)),
        finite_form((2, 4), (0, quarter), [[0, half], [half, quarter]]),
        finite_form((2, 4), (half, half)),
        finite_form((2, 4), (half, 1), [[half, half], [half, 0]]),
        finite_form((2, 2, 2), (half, half, half)),
        finite_form((2, 2, 2), (0, 0, half), [[0, half, 0], [half, 0, 0], [0, 0, half]]),
    ]
    seen = set()
    for a in forms:
        for b in forms:
            if a.orders == b.orders:
                continue
            for images in product(list(all_elements(b)), repeat=a.ngens):
                for sign in (1, -1):
                    expected = _outcome(reference_validate_map, a, b, images, sign)
                    got = _outcome(production_validate_map, a, b, images, sign)
                    assert got == expected, (a, b, images, sign)
                    seen.add(expected)
    assert seen >= {
        "map does not rescale q by its sign",
        "map does not rescale b by its sign",
        "images do not generate the target group",
    }


def test_every_validate_map_message_is_reached():
    reached = set()
    for a in SMALL:
        for b in _targets(a):
            for images in product(list(all_elements(b)), repeat=a.ngens):
                for sign in (1, -1, 2):
                    outcome = _outcome(production_validate_map, a, b, images, sign)
                    reached.add(outcome)
                    if outcome is None:
                        for bad in _mutations(a, b, images):
                            reached.add(_outcome(production_validate_map, a, b, bad, sign))
    z4 = finite_form((4,), (Fraction(1, 4),))
    reached.add(_outcome(production_validate_map, z4, finite_form((2,), (1,)), ((1,),), 1))
    assert reached >= {
        None,
        "sign must be +1 or -1",
        "source and target orders differ",
        "one image per source generator required",
        "image vector length mismatch",
        "image order does not divide generator order",
        "map does not rescale q by its sign",
        "map does not rescale b by its sign",
        "images do not generate the target group",
    }


def test_equal_forms_built_apart_hash_alike():
    half = Fraction(1, 2)
    first = finite_form((2, 2), (half, half))
    second = finite_form([2, 2], [Fraction(5, 2), Fraction(-3, 2)])
    assert first is not second and first == second
    assert hash(first) == hash(second)
    s1, s2 = make_lattice([[2, 1], [1, -2]]), make_lattice([[2, 1], [1, -2]])
    a1, a2 = discriminant_form(s1), discriminant_form(s2)
    assert a1 is not a2 and a1 == a2 and hash(a1) == hash(a2)
    maps1 = isometries_signed(a1, a1, 1)
    maps2 = isometries_signed(a2, a2, 1)
    assert set(maps1) == set(maps2)
    assert {f: i for i, f in enumerate(maps1)} == {f: i for i, f in enumerate(maps2)}


def reference_discriminant_values(lat):
    """(orders, q, b) of the discriminant form, q and b as `Fraction`s."""
    _, d, v = intmat.smith_normal_form(lat.gram)
    keep = tuple(i for i in range(lat.rank) if d[i][i] > 1)
    orders = tuple(d[i][i] for i in keep)
    cols = [tuple(row[i] for row in v) for i in keep]
    g_cols = [intmat.mat_vec(lat.gram, col) for col in cols]

    def pairing(i, j) -> Fraction:
        """(v_i/d_i) G (v_j/d_j), from the integer v_i G v_j."""
        return Fraction(sum(x * y for x, y in zip(cols[i], g_cols[j])), orders[i] * orders[j])

    idx = range(len(keep))
    q = tuple(pairing(i, i) % 2 for i in idx)
    b = tuple(tuple(pairing(i, j) % 1 for j in idx) for i in idx)
    return orders, q, b


def reference_parts(orders, q_gens, b_matrix):
    """(orders, q, b) of each p-part: d_i = m_i p^e_i gives the generator
    e_i g_i of order p^e_i, e_i = 1 mod p^e_i and 0 mod m_i, with q and b
    scaled by e_i e_j."""
    out = []
    for p in prime_factors(orders[-1]) if orders else ():
        index, idem, part_orders = [], [], []
        for i, d in enumerate(orders):
            m = d
            while m % p == 0:
                m //= p
            if m != d:
                index.append(i)
                idem.append(m * pow(m, -1, d // m))
                part_orders.append(d // m)
        pairs = list(zip(index, idem))
        q = tuple(e * e * q_gens[i] % 2 for i, e in pairs)
        b = tuple(tuple(ei * ej * b_matrix[i][j] % 1 for j, ej in pairs) for i, ei in pairs)
        out.append((tuple(part_orders), q, b))
    return out


def _sweep_lattices():
    """The lattices above, the rank-1 family of the isometry reference, and
    every non-degenerate even rank-2 Gram with entries of size at most 12."""
    grams = [lat.gram for lat in LATTICES] + [((2 * n,),) for n in range(1, 61)]
    grams += [
        ((2 * a, b), (b, 2 * c))
        for a in range(-6, 7)
        for b in range(-12, 13)
        for c in range(-6, 7)
        if 4 * a * c != b * b
    ]
    return [make_lattice(g) for g in grams]


def test_forms_hold_the_values_of_the_fraction_reference():
    for lat in _sweep_lattices():
        orders, q, b = reference_discriminant_values(lat)
        a = discriminant_form(lat)
        parts = [FiniteQuadraticForm(part.orders, part.q_table, part.b_table, (part.p,)) for part in a.parts]
        expected = [(orders, q, b)] + reference_parts(orders, q, b)
        assert [(f.orders, f.q_gens, b_matrix(f)) for f in [a] + parts] == expected, lat.gram
        for f in [a] + parts:
            rebuilt = finite_form(f.orders, f.q_gens, b_matrix(f))
            assert rebuilt == f and hash(rebuilt) == hash(f)
        for x in product(range(3), repeat=a.ngens):
            assert evaluate_q(a, x) == _raw_q(orders, q, b, x)
        assert negate_form(a).q_gens == tuple(-x % 2 for x in q)


def _rank2_forms():
    """The discriminant forms of every non-degenerate even Gram
    [[2a, b], [b, 2c]] with entries of size at most 12."""
    return [
        discriminant_form(make_lattice([[2 * a, b], [b, 2 * c]]))
        for a in range(-6, 7)
        for b in range(-12, 13)
        for c in range(-6, 7)
        if 4 * a * c != b * b
    ]


def test_forms_are_equal_exactly_when_their_parts_are():
    classes = {}
    for a in _rank2_forms():
        classes.setdefault(a.parts, []).append(a)
    for members in classes.values():
        assert all(a == members[0] and hash(a) == hash(members[0]) for a in members)
    reps = [members[0] for members in classes.values()]
    assert len(reps) > 100 and len(reps) < sum(map(len, classes.values()))
    for i, a in enumerate(reps):
        assert all(a != b for b in reps[i + 1:]), a


def test_the_part_of_a_p_group_is_the_group():
    checked = 0
    for a in _rank2_forms():
        if len(a.parts) == 1:
            (part,) = a.parts
            one = FiniteQuadraticForm(part.orders, part.q_table, part.b_table, (part.p,))
            assert one == a and hash(one) == hash(a), a
            checked += 1
    assert checked > 500


@pytest.mark.parametrize(
    "orders, q, b",
    [
        ((3, 9), ("2/3", "2/9"), None),
        ((5, 25), ("2/5", "2/25"), [["2/5", "1/5"], ["1/5", "2/25"]]),
        ((7, 49), ("4/7", "6/49"), None),
        ((2, 4, 8), ("1/2", "1/4", "1/8"), None),
        (
            (2, 4, 8),
            ("3/2", "7/4", "5/8"),
            [["1/2", "1/2", 0], ["1/2", "3/4", "1/4"], [0, "1/4", "5/8"]],
        ),
        ((2, 2), (0, 0), [[0, "1/2"], ["1/2", 0]]),
        ((4, 4), ("1/2", "1/2"), [["1/2", "1/4"], ["1/4", "1/2"]]),
    ],
)
def test_one_prime_forms_are_their_reference_part(orders, q, b):
    a = finite_form(orders, q, b)
    n = a.exponent
    (part,) = a.parts
    assert part.p == prime_factors(n)[0]
    got = (
        part.orders,
        tuple(Fraction(x, n) for x in part.q_table),
        tuple(tuple(Fraction(x, n) for x in row) for row in part.b_table),
    )
    assert [got] == reference_parts(a.orders, a.q_gens, b_matrix(a))


def test_split_and_join_agree_with_the_smith_form_up_to_30():
    """Every nondegenerate even Gram [[2a, b], [b, 2c]] with entries of size
    at most 30: the invariant factors and q values joined from the parts,
    and the part coordinates of each dual generator joined by CRT, are those
    read off the Smith form."""
    checked = 0
    for a in range(-15, 16):
        for b in range(-30, 31):
            for c in range(-15, 16):
                if 4 * a * c == b * b:
                    continue
                lat = make_lattice([[2 * a, b], [b, 2 * c]])
                _, _, orders, columns = smith_view(lat)
                data = discriminant_data(lat)
                assert data.form.orders == orders, lat.gram
                q = tuple(
                    Fraction(sum(map(mul, col, intmat.mat_vec(lat.gram, col))), d * d) % 2
                    for col, d in zip(columns, orders)
                )
                assert data.form.q_gens == q, lat.gram
                for col, d, unit in zip(columns, orders, intmat.identity(len(orders))):
                    assert join(data.form, data.classify(col, d)) == unit, lat.gram
                checked += 1
    assert checked > 50000


# (orders, q, b, message): each malformed input with the message of its
# first failed check, recorded while forms held `Fraction`s.  (4,) with
# q = 1/8 is not integral at the exponent, but its first failed check is b.
MALFORMED = [
    ((2,), ("1/2", "1/2"), None, "generator data lengths disagree"),
    ((2, 2), ("1/2", "1/2"), [["1/2", 0]], "generator data lengths disagree"),
    ((1,), (0,), None, "orders must be integers > 1"),
    ((0,), (0,), None, "orders must be integers > 1"),
    ((-2,), ("1/2",), None, "orders must be integers > 1"),
    ((2, 3), ("1/2", "2/3"), None, "orders must form a divisibility chain"),
    ((4, 2), ("1/4", "1/2"), None, "orders must form a divisibility chain"),
    ((2,), ("1/3",), None, "q value incompatible with generator order"),
    ((3,), ("1/3",), None, "q value incompatible with generator order"),
    ((4,), ("1/16",), None, "q value incompatible with generator order"),
    ((2, 2), ("1/2", "1/3"), None, "q value incompatible with generator order"),
    (
        (2, 4),
        ("1/3", "1/4"),
        [["1/2", "1/4"], ["1/4", "1/4"]],
        "q value incompatible with generator order",
    ),
    ((2,), ("1/2",), [[0]], "b(g,g) must agree with q(g) mod Z"),
    ((4,), ("1/4",), [["3/4"]], "b(g,g) must agree with q(g) mod Z"),
    ((2, 2), (0, 0), [[0, "1/2"], [0, 0]], "b matrix must be symmetric"),
    ((2, 4), ("1/2", "1/4"), [["1/2", "1/4"], ["1/2", "1/4"]], "b matrix must be symmetric"),
    ((4,), ("1/8",), None, "b value incompatible with generator order"),
    ((2, 4), (0, "1/4"), [[0, "1/4"], ["1/4", "1/4"]], "b value incompatible with generator order"),
    (
        (2, 2),
        ("1/2", "1/2"),
        [["1/2", "1/3"], ["1/3", "1/2"]],
        "b value incompatible with generator order",
    ),
    (
        (2, 4),
        ("1/2", "1/4"),
        [["1/2", "1/8"], ["1/8", "1/4"]],
        "b value incompatible with generator order",
    ),
]


@pytest.mark.parametrize("orders, q, b, message", MALFORMED)
def test_malformed_forms_keep_their_messages(orders, q, b, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        finite_form(orders, q, b)


@pytest.mark.parametrize(
    "q_table, b_table, message",
    [
        ((4,), ((0,),), "q values must be reduced into [0, 2)"),
        ((1,), ((3,),), "b values must be reduced into [0, 1)"),
    ],
)
def test_tables_out_of_range_keep_their_messages(q_table, b_table, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteQuadraticForm((2,), q_table, b_table)
