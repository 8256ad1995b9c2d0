"""The integer isometry search against the plain `Fraction` search it replaced.

`reference_isometries` evaluates q and b as `Fraction`s on every element,
with `_raw_q` and `_raw_b`, the `Fraction` evaluators the integer tables of
a form replaced, on the whole group in invariant-factor coordinates, and
tests each complete candidate map by building the whole span of its images.
The production `isometries_signed` must return the same maps in the same
order, for both signs, and with `_first_only` one of them: the first on a
form of one part.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm

import pytest

from k3fm import (
    diagonal_lattice,
    discriminant_form,
    isometries_signed,
    make_lattice,
    negate_form,
    trivial_form,
)
from k3fm.finite_qform import evaluate_q, finite_form, map_from_images, validate_map


def all_elements(a):
    """Lexicographic iteration over invariant-factor coefficient vectors."""
    return product(*(range(d) for d in a.orders))


def element_order(a, x) -> int:
    return lcm(1, *(d // gcd(d, xi) for xi, d in zip(x, a.orders)))


def join(form, vectors) -> tuple:
    """The invariant-factor coordinates of the element with coordinates
    vectors[s] on part s, by CRT: h_l of a part at index j is e g_j with
    e = 1 mod its order p^e and 0 mod d_j / p^e."""
    y = [0] * form.ngens
    for x, part in zip(vectors, form.parts):
        for j, (c, pe) in enumerate(zip(x, part.orders), form.ngens - len(part.orders)):
            m = form.orders[j] // pe
            y[j] += c * m * pow(m, -1, pe)
    return tuple(c % d for c, d in zip(y, form.orders))


def images_of(f) -> tuple:
    """The images of the invariant-factor generators g_i under f: g_i is the
    sum of the h of the parts that reach index i, the last ones."""
    k, b = f.source.ngens, f.target
    return tuple(
        join(b, [
            rows[i - k + len(rows)] if i >= k - len(rows) else (0,) * len(part.orders)
            for rows, part in zip(f.parts, b.parts)
        ])
        for i in range(k)
    )


@cache
def b_matrix(a) -> tuple:
    """b(g_i, g_j) in [0, 1) on the invariant-factor generators, by
    polarization of q: 2 b(x, y) = q(x + y) - q(x) - q(y) mod 2."""
    units = [tuple(int(i == j) for j in range(a.ngens)) for i in range(a.ngens)]
    q = [evaluate_q(a, u) for u in units]
    return tuple(
        tuple(
            (evaluate_q(a, tuple(x + y for x, y in zip(u, v))) - q[i] - q[j]) / 2 % 1
            for j, v in enumerate(units)
        )
        for i, u in enumerate(units)
    )


def _mod2(x) -> Fraction:
    return Fraction(x) % 2


def _mod1(x) -> Fraction:
    return Fraction(x) % 1


def _raw_q(orders, q_raw, b_raw, coeffs) -> Fraction:
    total = Fraction(0)
    k = len(orders)
    for i in range(k):
        total += coeffs[i] * coeffs[i] * q_raw[i]
        for j in range(i + 1, k):
            total += 2 * coeffs[i] * coeffs[j] * b_raw[i][j]
    return _mod2(total)


def _raw_b(b_raw, x, y) -> Fraction:
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * b_raw[i][j]
    return _mod1(total)


def _span_size(a, elements):
    span = {(0,) * a.ngens}
    for y in elements:
        k = element_order(a, y)
        span = {
            tuple((s_i + m * y_i) % d for s_i, y_i, d in zip(s, y, a.orders))
            for s in span
            for m in range(k)
        }
    return len(span)


def reference_isometries(a, b, sign):
    if a.orders != b.orders:
        return []
    k = a.ngens
    elems = list(all_elements(b))
    q_b, b_b, b_a = b.q_gens, b_matrix(b), b_matrix(a)
    target_q = [Fraction(sign * qi) % 2 for qi in a.q_gens]
    target_b = [[Fraction(sign * b_a[i][j]) % 1 for j in range(k)] for i in range(k)]
    candidates = [
        [
            x
            for x in elems
            if a.orders[i] % element_order(b, x) == 0
            and _raw_q(b.orders, q_b, b_b, x) == target_q[i]
        ]
        for i in range(k)
    ]
    results = []
    images = []

    def backtrack(i):
        if i == k:
            if _span_size(b, images) == b.order:
                results.append(map_from_images(a, b, tuple(images), sign))
            return
        for x in candidates[i]:
            if all(_raw_b(b_b, x, images[j]) == target_b[i][j] for j in range(i)):
                images.append(x)
                backtrack(i + 1)
                images.pop()

    backtrack(0)
    return results


def _rank2_forms():
    """Distinct discriminant forms of the even Grams [[2a, b], [b, 2c]] with
    |a|, |c| <= 6, |b| <= 12 and 0 < |det| <= 60, in first-seen order."""
    forms = {}
    for a in range(-6, 7):
        for c in range(-6, 7):
            for b in range(-12, 13):
                if 0 < abs(4 * a * c - b * b) <= 60:
                    forms.setdefault(discriminant_form(make_lattice([[2 * a, b], [b, 2 * c]])))
    return list(forms)


H = Fraction(1, 2)
NON_CYCLIC = [
    finite_form((2, 2), (0, 0), [[0, H], [H, 0]]),
    finite_form((2, 2), (1, 1), [[0, H], [H, 0]]),
    finite_form((2, 2), (H, H)),
    finite_form((2, 2), (H, Fraction(3, 2))),
    finite_form((2, 4), (H, Fraction(1, 4))),
    finite_form((2, 4), (Fraction(3, 2), Fraction(7, 4))),
    finite_form((2, 4), (1, Fraction(1, 4)), [[0, H], [H, Fraction(1, 4)]]),
    finite_form((3, 3), (Fraction(2, 3), Fraction(2, 3))),
    finite_form((3, 3), (Fraction(2, 3), Fraction(4, 3))),
    finite_form(
        (3, 3),
        (Fraction(2, 3), Fraction(2, 3)),
        [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]],
    ),
]

FAMILIES = {
    "rank1": lambda: [discriminant_form(diagonal_lattice(2 * n)) for n in range(1, 61)],
    "rank2": _rank2_forms,
    "non_cyclic": lambda: NON_CYCLIC,
    "degenerate": lambda: [
        finite_form((2,), (0,)),
        finite_form((4,), (0,)),
        finite_form((2, 2), (0, 0)),
        finite_form((2, 4), (0, 0)),
        finite_form((2, 4), (0, Fraction(1, 4))),
    ],
    "trivial": lambda: [trivial_form()],
}


@cache
def forms_of(family):
    return FAMILIES[family]()


def _pairs(forms):
    """(A, B) pairs: A with itself, with its negative, and with the next form
    of the same invariant factors (often not isometric to A)."""
    for i, a in enumerate(forms):
        yield a, a
        yield a, negate_form(a)
        same = [f for f in forms[i + 1:] if f.orders == a.orders]
        if same:
            yield a, same[0]


def assert_first_only(a, b, sign, expected):
    """`_first_only` gives one of the maps, or none when there are none; on
    a form of one part, the first of them."""
    first = isometries_signed(a, b, sign, _first_only=True)
    assert len(first) == min(1, len(expected)) and set(first) <= set(expected), (a, b, sign)
    if len(a.parts) <= 1:
        assert first == expected[:1], (a, b, sign)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_maps_in_the_same_order_as_the_reference(family):
    checked = 0
    for a, b in _pairs(forms_of(family)):
        for sign in (1, -1):
            expected = reference_isometries(a, b, sign)
            assert isometries_signed(a, b, sign) == expected, (a, b, sign)
            assert_first_only(a, b, sign, expected)
            checked += bool(expected)
    assert checked > 0


@pytest.mark.parametrize("gram", [[[12, 6], [6, -12]], [[4, 2], [2, -4]]])
def test_multi_prime_non_cyclic_forms_give_the_reference_maps_in_order(gram):
    # Z/6 + Z/30 and Z/2 + Z/10: a non-cyclic 2-part beside cyclic or
    # non-cyclic odd parts, so the whole maps are a product of part lists
    a = discriminant_form(make_lattice(gram))
    assert len(a.parts) > 1 and a.ngens == 2
    for b in (a, negate_form(a)):
        for sign in (1, -1):
            expected = reference_isometries(a, b, sign)
            got = isometries_signed(a, b, sign)
            assert [images_of(f) for f in got] == [images_of(f) for f in expected]
            assert got == expected
            assert_first_only(a, b, sign, expected)
    assert len(isometries_signed(negate_form(a), a, -1)) == len(reference_isometries(a, a, 1))


def test_rank2_family_is_not_all_cyclic():
    assert any(f.ngens == 2 for f in forms_of("rank2"))
    assert len(forms_of("rank2")) > 100


@pytest.mark.parametrize(
    "form, images",
    [
        (finite_form((4,), (0,)), ((2,),)),  # g -> 2g on Z/4
        (finite_form((2, 2), (0, 0)), ((1, 0), (1, 0))),
    ],
)
def test_validate_map_rejects_maps_that_do_not_generate(form, images):
    for sign in (1, -1):
        with pytest.raises(ValueError, match="^images do not generate the target group$"):
            validate_map(map_from_images(form, form, images, sign))
