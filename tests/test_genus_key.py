"""The rank-2 genus partition is keyed by content and assigned characters.

The key partition must equal the partition by discriminant-form isometry of
the associated lattices (kept here as the brute-force reference), for
hyperbolic and definite lattices alike, must not depend on the basis of a
form, and must never reach a finite group.
"""

import random
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm import arith, bqf, finite_qform, fm_count, intmat
from k3fm.cli import main
from k3fm.finite_qform import are_isometric, isometries_signed
from k3fm.fm_count import genus_lattices
from k3fm.lattice import discriminant_form, make_lattice

VALID_D = [d for d in range(5, 2001) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]


def brute_force_partition(cgd) -> tuple:
    """Classes grouped by discriminant-form isometry, in first-seen order."""
    forms = [discriminant_form(bqf.form_to_lattice(r)) for r in cgd.reps]
    parts = []
    for i, fa in enumerate(forms):
        for part in parts:
            if are_isometric(fa, forms[part[0]]):
                part.append(i)
                break
        else:
            parts.append([i])
    return tuple(tuple(p) for p in parts)


def test_key_partition_equals_brute_force_up_to_2000(monkeypatch):
    monkeypatch.setenv("K3FM_CAP", str(10**6))
    for d in VALID_D:
        cgd = bqf.proper_classes(d)
        assert cgd.genus_partition == brute_force_partition(cgd), f"D={d}"


def test_prime_factors_matches_naive_trial_division():
    for n in range(1, 5001):
        naive = tuple(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))
        assert arith.prime_factors(n) == naive, n


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


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    d=st.sampled_from(VALID_D),
    pick=st.integers(0, 10**6),
    steps=st.lists(
        st.tuples(st.sampled_from((SHEAR_UP, SHEAR_DOWN, SWAP, FLIP)), st.integers(-3, 3)),
        max_size=8,
    ),
)
def test_key_is_invariant_under_gl2_base_change(d, pick, steps):
    reduced = bqf.enumerate_reduced(d)
    f = reduced[pick % len(reduced)]
    m = intmat.identity(2)
    for kind, k in steps:
        m = intmat.matmul(m, _step(kind, k))
    g = intmat.matmul(intmat.transpose(m), intmat.matmul(bqf.gram_of(f), m))
    image = bqf.BinaryQuadraticForm(g[0][0] // 2, g[0][1], g[1][1] // 2)
    assert image.disc == d
    assert bqf.genus_key(image) == bqf.genus_key(f)


def test_proper_classes_never_enumerates_a_finite_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite group enumerated")

    monkeypatch.setattr(finite_qform, "isometries_signed", refuse)
    for d in (20, 205, 1105, 20000, 32045):
        assert bqf.proper_classes(d).h >= 1


def test_large_discriminants_pass_the_default_cap(monkeypatch, capsys):
    monkeypatch.delenv("K3FM_CAP", raising=False)
    assert main(["classnum", "20000"]) == 0
    assert main(["genus", "32045"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("genus ") for line in out.splitlines()) == 8


def test_merged_genera_fail_the_structure_check(monkeypatch, capsys):
    monkeypatch.setattr(bqf, "genus_key", lambda f: f.content)
    assert main(["genus", "205"]) == 5
    assert "genus structure violated" in capsys.readouterr().err


def reduced_definite_grams(det: int, sign: int) -> list:
    """The reduced Grams sign * [[2a, b], [b, 2c]], 0 <= b <= a <= c, of
    determinant det, in the order `genus_lattices` lists them."""
    out = []
    a = 1
    while 3 * a * a <= det:
        for b in range(0, a + 1):
            num = det + b * b
            if num % (4 * a) == 0 and num // (4 * a) >= a:
                c = num // (4 * a)
                out.append(((2 * a * sign, b * sign), (b * sign, 2 * c * sign)))
        a += 1
    return out


def reference_definite_genus(s) -> tuple:
    """The genus of a definite rank-2 S by a whole-group search: the reduced
    Grams of its determinant and sign whose discriminant form is isometric
    to S's."""
    sign = 1 if s.gram[0][0] > 0 else -1
    target = discriminant_form(s)
    return tuple(
        gram
        for gram in reduced_definite_grams(s.det, sign)
        if isometries_signed(discriminant_form(make_lattice(gram)), target, 1, _first_only=True)
    )


def listed(gram) -> tuple:
    return tuple(member.gram for member in genus_lattices(make_lattice(gram)))


def test_definite_genus_equals_reference_for_every_reduced_gram_up_to_det_300():
    checked = 0
    for det in range(3, 301):
        for sign in (1, -1):
            for gram in reduced_definite_grams(det, sign):
                assert listed(gram) == reference_definite_genus(make_lattice(gram)), gram
                checked += 1
    assert checked > 1000


def test_definite_genus_equals_reference_once_per_genus_on_a_sample_up_to_3000():
    dets = [d for d in range(301, 3001) if d % 4 in (0, 3)]
    for det in sorted(random.Random(21).sample(dets, 60)):
        for sign in (1, -1):
            covered = set()
            for gram in reduced_definite_grams(det, sign):
                if gram not in covered:
                    reference = reference_definite_genus(make_lattice(gram))
                    assert listed(gram) == reference, gram
                    covered.update(reference)
            assert covered == set(reduced_definite_grams(det, sign)), det


def test_definite_genus_at_large_det_searches_no_finite_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("finite group searched")

    monkeypatch.delenv("K3FM_CAP", raising=False)
    for module in (finite_qform, fm_count):
        monkeypatch.setattr(module, "isometries_signed", refuse)
    monkeypatch.setattr(fm_count, "discriminant_form", refuse)
    for c, members in ((5004, 32), (25002, 85)):
        for sign in (-1, 1):
            gram = ((2 * sign, sign), (sign, 2 * c * sign))
            assert len(listed(gram)) == members, gram
