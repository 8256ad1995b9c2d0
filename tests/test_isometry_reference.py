"""The integer isometry search against the plain `Fraction` search it replaced.

`reference_isometries` evaluates q and b as `Fraction`s on every element,
with `_raw_q` and `_raw_b`, the `Fraction` evaluators the integer tables of
a form replaced, and tests each complete candidate map by building the whole
span of its images.  The production `isometries_signed` must return the
same maps in the same order, for both signs and with `_first_only`.
"""

from fractions import Fraction
from functools import cache

import pytest

from k3fm import (
    diagonal_lattice,
    discriminant_form,
    isometries_signed,
    make_lattice,
    negate_form,
    trivial_form,
)
from k3fm.finite_qform import (
    FiniteFormMap,
    all_elements,
    element_order,
    finite_form,
    validate_map,
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
    q_b, b_b = b.q_gens, b.b_matrix
    target_q = [Fraction(sign * qi) % 2 for qi in a.q_gens]
    target_b = [[Fraction(sign * a.b_matrix[i][j]) % 1 for j in range(k)] for i in range(k)]
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
                results.append(FiniteFormMap(a, b, tuple(images), sign))
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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_maps_in_the_same_order_as_the_reference(family):
    checked = 0
    for a, b in _pairs(forms_of(family)):
        for sign in (1, -1):
            expected = reference_isometries(a, b, sign)
            assert isometries_signed(a, b, sign) == expected, (a, b, sign)
            assert isometries_signed(a, b, sign, _first_only=True) == expected[:1], (a, b, sign)
            checked += bool(expected)
    assert checked > 0


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
            validate_map(FiniteFormMap(form, form, images, sign))
