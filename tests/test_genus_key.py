"""The rank-2 genus partition is keyed by content and assigned characters.

The key partition must equal the partition by discriminant-form isometry of
the associated lattices (kept here as the brute-force reference), must not
depend on the basis of a form, and must never reach a finite group.
"""

from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm import arith, bqf, finite_qform, intmat
from k3fm.cli import main
from k3fm.finite_qform import are_isometric
from k3fm.lattice import discriminant_form

VALID_D = [d for d in range(5, 2001) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]


def brute_force_partition(cgd) -> tuple:
    """Classes grouped by discriminant-form isometry, in first-seen order."""
    forms = [discriminant_form(bqf.form_to_lattice(r)) for r in cgd.representatives()]
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
    image = bqf.form(g[0][0] // 2, g[0][1], g[1][1] // 2)
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

