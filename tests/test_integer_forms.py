"""Integer `DiscriminantData.classify` and `validate_map` against the
`Fraction` code they replaced, and the cached hash of a finite form.

`reference_classify` tests a dual vector of `Fraction`s for integrality of
G * vec; `reference_validate_map` compares q and b as `Fraction`s in Q/2Z
and Q/Z.  The production code runs on integer numerators and on the integer
tables N*q mod 2N and N*b mod N; both must accept and reject alike, with
the same message.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from test_isometry_reference import forms_of

from k3fm import (
    diagonal_lattice,
    discriminant_form,
    isometries_signed,
    make_lattice,
    negate_form,
)
from k3fm import intmat
from k3fm.finite_qform import (
    FiniteFormMap,
    _generates,
    all_elements,
    element_order,
    evaluate_b,
    evaluate_q,
    finite_form,
    validate_map,
)
from k3fm.lattice import discriminant_data, induced_form_map


def reference_classify(data, vec):
    y = intmat.mat_vec(data.lattice.gram, vec)
    if any(Fraction(x).denominator != 1 for x in y):
        raise ValueError("vector is not in the dual lattice")
    c = intmat.mat_vec(data._u, tuple(int(x) for x in y))
    return tuple(c[i] % data.form.orders[pos] for pos, i in enumerate(data._keep))


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
    rng = random.Random(str(lat.gram))
    n = data.form.orders[-1]
    rank = lat.rank
    for _ in range(200):
        # a random dual vector: generators, plus a lattice vector, over n
        coeffs = [rng.randrange(-3 * d, 3 * d) for d in data.form.orders]
        vec = [n * rng.randrange(-5, 6) for _ in range(rank)]
        for c, col, d in zip(coeffs, data.columns, data.form.orders):
            for r, x in enumerate(col):
                vec[r] += c * (n // d) * x
        as_fractions = tuple(Fraction(x, n) for x in vec)
        expected = reference_classify(data, as_fractions)
        assert expected == tuple(c % d for c, d in zip(coeffs, data.form.orders))
        assert data.classify(vec, n) == expected
        assert data.classify([3 * x for x in vec], 3 * n) == expected
        assert data.classify(as_fractions) == expected


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: str(list(map(list, lat.gram))))
def test_integer_classify_refuses_vectors_off_the_dual(lat):
    data = discriminant_data(lat)
    rng = random.Random(str(lat.gram))
    refused = 0
    for _ in range(200):
        denom = rng.randrange(1, 4 * abs(lat.det) + 2)
        vec = [rng.randrange(-50, 51) for _ in range(lat.rank)]
        try:
            expected = reference_classify(data, tuple(Fraction(x, denom) for x in vec))
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="^vector is not in the dual lattice$"):
                data.classify(vec, denom)
        else:
            assert data.classify(vec, denom) == expected
    assert refused > 0


@pytest.mark.parametrize("lat", LATTICES, ids=lambda lat: str(list(map(list, lat.gram))))
def test_induced_form_map_of_minus_identity_is_negation(lat):
    data = discriminant_data(lat)
    minus = intmat.scale(intmat.identity(lat.rank), -1)
    images = induced_form_map(lat, minus).images
    expected = tuple(reference_classify(data, tuple(-x for x in g)) for g in data.generators)
    assert images == expected


def reference_validate_map(f):
    a, b = f.source, f.target
    if f.sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a.order != b.order:
        raise ValueError("source and target orders differ")
    if len(f.images) != a.ngens:
        raise ValueError("one image per source generator required")
    for i, img in enumerate(f.images):
        if len(img) != b.ngens:
            raise ValueError("image vector length mismatch")
        if a.orders[i] % element_order(b, img) != 0:
            raise ValueError("image order does not divide generator order")
        if evaluate_q(b, img) != Fraction(f.sign * a.q_gens[i]) % 2:
            raise ValueError("map does not rescale q by its sign")
        for j in range(i):
            if evaluate_b(b, img, f.images[j]) != Fraction(f.sign * a.b_matrix[i][j]) % 1:
                raise ValueError("map does not rescale b by its sign")
    if not _generates(b.orders, f.images):
        raise ValueError("images do not generate the target group")


def _outcome(check, f):
    try:
        check(f)
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
                f = FiniteFormMap(a, b, images, sign)
                expected = _outcome(reference_validate_map, f)
                assert _outcome(validate_map, f) == expected, (a, b, images, sign)
                messages.add(expected)
                if expected is None:
                    for bad in _mutations(a, b, images):
                        g = FiniteFormMap(a, b, bad, sign)
                        assert _outcome(validate_map, g) == _outcome(reference_validate_map, g)
    assert None in messages


def test_validate_map_with_unequal_exponents():
    # Z/4 and Z/2 + Z/2 have one order but different exponents
    half = Fraction(1, 2)
    forms = [
        finite_form((4,), (half,)),
        finite_form((4,), (Fraction(1, 4),)),
        finite_form((2, 2), (half, half)),
        finite_form((2, 2), (0, 0), [[0, half], [half, 0]]),
        finite_form((2, 2), (0, 0)),
    ]
    seen = set()
    for a in forms:
        for b in forms:
            if a.orders == b.orders:
                continue
            for images in product(list(all_elements(b)), repeat=a.ngens):
                for sign in (1, -1):
                    f = FiniteFormMap(a, b, images, sign)
                    expected = _outcome(reference_validate_map, f)
                    assert _outcome(validate_map, f) == expected, (a, b, images, sign)
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
                    outcome = _outcome(validate_map, FiniteFormMap(a, b, images, sign))
                    reached.add(outcome)
                    if outcome is None:
                        for bad in _mutations(a, b, images):
                            reached.add(_outcome(validate_map, FiniteFormMap(a, b, bad, sign)))
    z4 = finite_form((4,), (Fraction(1, 4),))
    reached.add(_outcome(validate_map, FiniteFormMap(z4, finite_form((2,), (1,)), ((1,),), 1)))
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
    assert hash(first) == hash((first.orders, first.q_gens, first.b_matrix))
    assert "_hash" not in repr(first)
    s1, s2 = make_lattice([[2, 1], [1, -2]]), make_lattice([[2, 1], [1, -2]])
    a1, a2 = discriminant_form(s1), discriminant_form(s2)
    assert a1 is not a2 and a1 == a2 and hash(a1) == hash(a2)
    maps1 = isometries_signed(a1, a1, 1)
    maps2 = isometries_signed(a2, a2, 1)
    assert set(maps1) == set(maps2)
    assert {f: i for i, f in enumerate(maps1)} == {f: i for i, f in enumerate(maps2)}
