"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from k3fm import (
    GENERIC_HODGE,
    NeronSeveriSpec,
    cyclic_form,
    diagonal_lattice,
    direct_sum,
    discriminant_form,
    fm_number,
    fm_number_rank1,
    fm_number_rank2,
    form_to_lattice,
    genus_lattices,
    glue,
    hodge_order_candidates,
    hyperbolic_plane,
    isometries_signed,
    make_lattice,
    negation_map,
    orthogonal_group,
    pell_fundamental,
    proper_classes,
    recovered_gluing_map,
    rescale,
    verify_gluing_counts,
    verify_overlattice,
)
from k3fm import double_coset_count, intmat
from k3fm.bqf import principal_form
from k3fm.cli import main

EXPECTED_TABLE = (
    (229, 3, 2), (257, 3, 2), (401, 5, 3), (577, 7, 4), (733, 3, 2),
    (761, 3, 2), (1009, 7, 4), (1093, 5, 3), (1129, 9, 5), (1229, 3, 2),
    (1297, 11, 6), (1373, 3, 2), (1429, 5, 3), (1489, 3, 2),
)


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: PASS{suffix}")


def primes_up_to(n):
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p, hit in enumerate(sieve) if hit]


def test_criterion_01_table_reproduction(capsys):
    start = time.monotonic()
    code = main(["table", "--format", "csv"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,h,fm"
    rows = tuple(tuple(int(x) for x in line.split(",")) for line in lines[1:])
    assert rows == EXPECTED_TABLE
    assert elapsed < 60
    with capsys.disabled():
        report(1, "table reproduction", f"{elapsed:.1f}s")


def test_criterion_02_two_path_agreement():
    start = time.monotonic()
    checked = 0
    for p in primes_up_to(1500):
        if p % 4 != 1:
            continue
        lat = make_lattice([[2, 1], [1, (1 - p) // 2]])
        total = fm_number_rank2(NeronSeveriSpec(lat)).total
        h = proper_classes(p).h
        assert 2 * total == h + 1, f"two paths disagree at p={p}"
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 100
    assert elapsed < 120
    report(2, "two-path agreement p <= 1500", f"{checked} primes, {elapsed:.1f}s")


def tau_oracle(n: int) -> int:
    if n == 1:
        return 1
    count, m, p = 0, n, 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (1 if m > 1 else 0)


def test_criterion_03_rank1_law():
    start = time.monotonic()
    for n in range(1, 201):
        assert fm_number_rank1(n).total == 2 ** (tau_oracle(n) - 1)
        group_size = len(orthogonal_group(cyclic_form(2 * n, Fraction(1, 2 * n))))
        if n == 1:
            # negation coincides with the identity on Z/2, so the brute-force
            # group has a single element; 2^tau(1) = 2 is unattainable there
            # (see the decisions ledger).  The partner count is still 1.
            assert group_size == 1
        else:
            assert group_size == 2 ** tau_oracle(n)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(3, "rank-1 law n <= 200", f"{elapsed:.1f}s; n=1 group size corrected, see ledger")


def _oracle_suite():
    """(S, T) pairs with |A_S| <= 30: rank-1, rank-2 hyperbolic, rank-2
    definite."""
    pairs = []
    for n in range(1, 16):
        pairs.append((diagonal_lattice(-2 * n), diagonal_lattice(2 * n)))
    for d in (5, 13, 17, 21, 29):
        s = form_to_lattice(principal_form(d))
        pairs.append((s, rescale(s, -1)))
    definite_grams = (
        [[-2, 1], [1, -2]],
        [[-2, 0], [0, -2]],
        [[-2, -1], [-1, -4]],
        [[-2, 0], [0, -4]],
        [[-2, 0], [0, -6]],
        [[-4, -1], [-1, -4]],
    )
    for gram in definite_grams:
        s = make_lattice(gram)
        pairs.append((s, rescale(s, -1)))
    return pairs


def test_criterion_04_oracle_equivalence():
    pairs = _oracle_suite()
    assert len(pairs) >= 20
    for s, t in pairs:
        assert discriminant_form(s).order <= 30
        report_rows = verify_gluing_counts(genus_lattices(s), t)
        assert report_rows.all_equal, f"orbit/coset mismatch for {s.gram}"
        for row in report_rows.rows:
            assert row.orbit_count == row.coset_count
    report(4, "gluing-orbit vs double-coset equivalence", f"{len(pairs)} pairs")


def test_criterion_05_gluing_invariants():
    glued_count = 0
    for s, t in _oracle_suite():
        sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
        assert sigmas, f"no anti-isometry for {s.gram}"
        for sigma in sigmas:
            over = glue(s, t, sigma)
            assert abs(intmat.det(over.gram)) == 1
            checks = verify_overlattice(over, s, t)
            assert checks.even and checks.unimodular
            assert checks.t_primitive and checks.complement_is_s
            assert recovered_gluing_map(over, s, t) == sigma
            glued_count += 1
    report(5, "gluing invariants", f"{glued_count} overlattices")


def squarefree(n: int) -> bool:
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


def test_criterion_06_genus_structure():
    checked = 0
    for d in range(5, 501, 4):
        if not squarefree(d):
            continue
        cgd = proper_classes(d)
        n_primes = tau_oracle(d)
        expected = 2 ** (n_primes - 1)
        assert len(cgd.ambiguous_indices) == expected, f"ambiguous count at D={d}"
        assert len(cgd.genus_partition) == expected, f"genus count at D={d}"
        sizes = {len(part) for part in cgd.genus_partition}
        assert len(sizes) == 1, f"unequal genus sizes at D={d}"
        checked += 1
    report(6, "genus structure D <= 500", f"{checked} discriminants")


def test_criterion_07_nikulin_shortcut():
    rng = random.Random(20260808)
    built = 0
    while built < 50:
        rank = rng.randint(3, 12)
        size = rank - 2
        m = tuple(
            tuple(rng.randint(-3, 3) for _ in range(size)) for _ in range(size)
        )
        if intmat.det(m) == 0:
            continue
        gram_n = intmat.scale(intmat.matmul(intmat.transpose(m), m), -2)
        ns = NeronSeveriSpec(direct_sum(hyperbolic_plane(), make_lattice(gram_n)))
        result = fm_number(ns)
        assert result.total == 1
        assert result.method == "nikulin"
        built += 1
    report(7, "Nikulin shortcut", "50 random lattices")


def pell_brute(d: int) -> tuple:
    """Exhaustive search on u, with a quadratic-residue table to skip values
    of u for which d u^2 + 4 cannot be a square."""
    modulus = 16 * 9 * 5 * 7 * 11
    squares = bytearray(modulus)
    for x in range(modulus // 2 + 1):
        squares[(x * x) % modulus] = 1
    u = 1
    while True:
        if squares[(d * u * u + 4) % modulus]:
            s = d * u * u + 4
            r = isqrt(s)
            if r * r == s:
                return r, u
        u += 1


def test_criterion_08_pell_minimality():
    start = time.monotonic()
    checked = 0
    for d in range(5, 101):
        if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
            continue
        assert pell_fundamental(d) == pell_brute(d), f"Pell mismatch at D={d}"
        checked += 1
    elapsed = time.monotonic() - start
    report(8, "Pell minimality D <= 100", f"{checked} discriminants, {elapsed:.1f}s")


def phi_brute(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def test_criterion_09_hodge_orders():
    expected = (2, 4, 6, 8, 10, 12, 22, 44, 50, 66)
    candidates = hodge_order_candidates(20)
    assert candidates == expected
    assert tuple(m for m in candidates if m <= 100) == expected
    assert all(m > 100 or m in expected for m in range(2, 101, 2) if 20 % phi_brute(m) == 0)
    for t in range(1, 22):
        oracle = tuple(
            m for m in range(2, 2 * t * t + 1, 2) if t % phi_brute(m) == 0
        )
        assert hodge_order_candidates(t) == oracle
    report(9, "Hodge order candidates", "t = 1..21 vs phi oracle")


def test_criterion_10_transport_independence():
    instances = [cyclic_form(2 * n, Fraction(1, 2 * n)) for n in (1, 2, 3, 6, 12)]
    instances += [
        discriminant_form(make_lattice([[2, 1], [1, -2]])),
        discriminant_form(make_lattice([[2, 2], [2, -2]])),
        discriminant_form(make_lattice([[2, 1], [1, -8]])),
    ]
    cases = 0
    for a in instances:
        group = orthogonal_group(a)
        h_gens = [negation_map(a)]
        for k_gens in ([negation_map(a)], [group[-1]]):
            base = double_coset_count(group, h_gens, k_gens)
            for c in group:
                conjugated = [c.compose(k).compose(c.inverse()) for k in k_gens]
                assert double_coset_count(group, h_gens, conjugated) == base
                cases += 1
    report(10, "transport conjugation independence", f"{cases} conjugations")
