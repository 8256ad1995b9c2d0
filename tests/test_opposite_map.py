"""`ClassGroupData.opposite` is the opposite-class map that `proper_classes`
computes while it looks for the ambiguous classes.  The old
`class_index_of(cgd, opposite(rep))` map is kept here as the reference."""

from math import isqrt

from k3fm import bqf


def reference_opposite_map(cgd) -> tuple:
    return tuple(bqf.class_index_of(cgd, bqf.opposite(rep)) for rep in cgd.reps)


def test_opposite_map_equals_reference_up_to_3000():
    for d in range(5, 3001):
        if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
            continue
        cgd = bqf.proper_classes(d)
        assert cgd.opposite == reference_opposite_map(cgd), f"D={d}"
        assert cgd.ambiguous_indices == tuple(
            i for i, j in enumerate(cgd.opposite) if i == j
        ), f"D={d}"
        assert all(cgd.opposite[j] == i for i, j in enumerate(cgd.opposite)), f"D={d}"


def test_fold_classes_pairs_each_class_with_its_opposite():
    cgd = bqf.proper_classes(1297)  # h = 11, one ambiguous class
    orbits = bqf.fold_classes(cgd, range(cgd.h))
    assert sorted(i for orbit in orbits for i in orbit) == list(range(cgd.h))
    assert [orbit for orbit in orbits if len(orbit) == 1] == [(i,) for i in cgd.ambiguous_indices]
    for orbit in orbits:
        assert orbit in ((orbit[0],), (orbit[0], cgd.opposite[orbit[0]]))
