"""Property test: the gluing oracle round-trips under any change of basis.

For an even rank-2 S with |det| <= 60, a random GL2(Z) image S' of S and
T = S'(-1), every anti-isometry sigma: A_T -> A_S' glues to an overlattice
that passes all four structural checks and from which sigma is read back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm import (
    discriminant_form,
    glue,
    isometries_signed,
    make_lattice,
    recovered_gluing_map,
    rescale,
    verify_overlattice,
)
from k3fm import intmat

EVEN_GRAMS = [
    ((2 * a, b), (b, 2 * c))
    for a in range(-6, 7)
    for b in range(-12, 13)
    for c in range(-6, 7)
    if 0 < abs(4 * a * c - b * b) <= 60
]

# generators of GL2(Z): two elementary shears, the swap and a reflection
SHEAR_UP, SHEAR_DOWN, SWAP, FLIP = range(4)


def _step(kind: int, k: int) -> tuple:
    if kind == SHEAR_UP:
        return ((1, k), (0, 1))
    if kind == SHEAR_DOWN:
        return ((1, 0), (k, 1))
    if kind == SWAP:
        return ((0, 1), (1, 0))
    return ((-1, 0), (0, 1))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    gram=st.sampled_from(EVEN_GRAMS),
    steps=st.lists(
        st.tuples(st.sampled_from((SHEAR_UP, SHEAR_DOWN, SWAP, FLIP)), st.integers(-3, 3)),
        max_size=6,
    ),
)
def test_every_anti_isometry_round_trips(gram, steps):
    m = intmat.identity(2)
    for kind, k in steps:
        m = intmat.matmul(m, _step(kind, k))
    s = make_lattice(intmat.matmul(intmat.transpose(m), intmat.matmul(gram, m)))
    t = rescale(s, -1)
    sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
    assert sigmas
    for sigma in sigmas:
        over = glue(s, t, sigma)
        assert recovered_gluing_map(over, s, t) == sigma
        assert verify_overlattice(over, s, t).all_ok
