"""`proper_classes` walks integer triples: its class index, its lazily built
cycles and the forms a `table` row builds, against the public walks."""

import dataclasses
from math import isqrt

import pytest

from k3fm import arith, bqf, finite_qform, fm_count, intmat
from k3fm.fm_count import fm_table


def valid_discriminants(bound):
    return [d for d in range(5, bound + 1) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]


def test_class_index_of_finds_the_cycle_of_every_reduced_form_up_to_2000():
    for d in valid_discriminants(2000):
        cgd = bqf.proper_classes(d)
        owner = {f: i for i, cyc in enumerate(cgd.cycles) for f in cyc}
        reduced = bqf.enumerate_reduced(d)
        assert set(owner) == set(reduced), d
        for f in reduced:
            assert bqf.class_index_of(cgd, f) == owner[f], (d, f)


def test_a_form_missing_from_the_index_raises():
    cgd = bqf.proper_classes(229)
    rep = cgd.reps[0]
    stripped = dataclasses.replace(cgd, index={})
    with pytest.raises(RuntimeError, match="missing from cycle enumeration"):
        bqf.class_index_of(stripped, rep)


def test_lazy_cycles_equal_the_eager_walk_up_to_2000():
    for d in valid_discriminants(2000):
        eager = []
        seen = set()
        for f in bqf.enumerate_reduced(d):
            if f not in seen:
                cyc = bqf.cycle(f)
                seen.update(cyc)
                eager.append(cyc)
        cgd = bqf.proper_classes(d)
        assert "cycles" not in vars(cgd), d  # not built until read
        assert cgd.cycles == tuple(eager), d
        assert cgd.reps == tuple(cyc[0] for cyc in eager), d
        assert cgd.cycle_triples == tuple(
            tuple(f.coefficients() for f in cyc) for cyc in eager
        ), d


def test_a_table_row_builds_few_forms(monkeypatch):
    # the h class representatives, the row's own form and its reduction; the
    # breakdown holds lattices, and the 102 reduced forms of D = 1129 are
    # walked as triples
    built = []
    original = bqf.BinaryQuadraticForm.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(bqf.BinaryQuadraticForm, "__post_init__", counted)
    assert fm_table((1129,)) == ((1129, 9, 5),)
    assert len(built) <= 9 + 2
    assert len(bqf.enumerate_reduced(1129)) == 102


def test_a_table_row_factors_p_once_and_keeps_each_determinant(monkeypatch):
    # every factorization of the row is of p = 1129 (is_prime, the genus
    # keys, the structure check, each member's A_S = Z/p), so the memo's
    # misses count the times p is factored; one determinant per lattice
    # built: NS and its five genus members
    factored = []
    real = arith.prime_factors

    def counting(n):
        factored.append(n)
        return real(n)

    for module in (arith, bqf, finite_qform, fm_count):
        monkeypatch.setattr(module, "prime_factors", counting)
    dets = []
    real_det = intmat.det
    monkeypatch.setattr(intmat, "det", lambda m: dets.append(m) or real_det(m))
    assert fm_table((1129,)) == ((1129, 9, 5),)
    assert set(factored) == {1129}
    assert real.cache_info().misses <= 2
    assert len(dets) <= 6
