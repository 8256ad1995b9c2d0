"""Seeded workload generation and answer checks.

Each workload has a fixed shape and seeded members. Its population is
grouped into classes of cost twins: inputs with the same structure (say the
class number, or the number of prime factors) and nearly the same size. The
classes are sorted by a cost estimate and cut into equal strata, and the
middle class of each stratum is taken; the seed picks the members of each
class taken. So every seed gets different inputs with the same mix of sizes
and structures, and the end-to-end figures of two seeds stay comparable.
`scan` weighs each class by its size, so that its sample follows the
population of primes; the others weigh classes equally, which spreads their
sizes evenly on a log scale.
Nothing here imports k3fm: the expected values come from numtheory.py or
from the paper.
"""

from __future__ import annotations

import random
from math import floor, gcd, log

import numtheory as nt

WORKLOADS = ("scan", "rank1", "genus", "oracle")

# (p, h(p), partner count) rows of the paper's table
PAPER_TABLE = {
    229: (3, 2), 257: (3, 2), 401: (5, 3), 577: (7, 4), 733: (3, 2),
    761: (3, 2), 1009: (7, 4), 1093: (5, 3), 1129: (9, 5), 1229: (3, 2),
    1297: (11, 6), 1373: (3, 2), 1429: (5, 3), 1489: (3, 2),
}

TWIN_WIDTH = 1.05  # cost twins differ in size by less than this factor
SCAN_BOUND = 3000  # primes p = 1 mod 4 below this; |A| = p
SCAN_ITEMS = 48
RANK1_BOUND = 3000  # n <= this; |A| = 2n
RANK1_QUOTAS = {1: 10, 2: 10, 3: 10, 4: 9, 5: 1}  # items per tau(n)
GENUS_BOUND = 5000  # D <= this
# number of prime factors -> (discriminants drawn, upper end of the cost estimate)
GENUS_QUOTAS = {2: (8, 2500), 3: (6, 2500), 4: (1, 6100)}
ORACLE_ORDER_LIMIT = 100  # |A_S| <= this
ORACLE_QUOTAS = {"rank1": 16, "hyperbolic": 16, "definite": 16}


def twin_classes(pop: list, signature, size) -> list:
    """Group pop into classes of equal signature whose sizes fall in the same
    band [TWIN_WIDTH^k, TWIN_WIDTH^(k+1))."""
    groups = {}
    for x in pop:
        band = floor(log(size(x)) / log(TWIN_WIDTH))
        groups.setdefault((signature(x), band), []).append(x)
    return list(groups.values())


def spread_sample(classes: list, cost, k: int, rng: random.Random, by_size: bool = False) -> list:
    """Sort the classes by the cost of their first member and cut them into k
    strata of equal weight; a class weighs 1, or its size when by_size. The
    class at the middle of each stratum is taken, and the seed picks its
    members, distinct ones while the class has enough."""
    ordered = sorted(classes, key=lambda c: cost(c[0]))
    weights = [len(c) if by_size else 1 for c in ordered]
    hits = [0] * len(ordered)
    i, upto = 0, weights[0]
    for j in range(k):
        while upto <= (j + 0.5) * sum(weights) / k:
            i += 1
            upto += weights[i]
        hits[i] += 1
    picks = []
    for cls, n in zip(ordered, hits):
        picks += rng.sample(cls, min(n, len(cls)))
        picks += [rng.choice(cls) for _ in range(n - len(cls))]
    return picks


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _gram(f: tuple, sign: int = 1) -> list:
    a, b, c = f
    return [[sign * 2 * a, sign * b], [sign * b, sign * 2 * c]]


def _base_change(gram: list, rng: random.Random) -> list:
    """M^T G M for a random M in GL2(Z): three elementary shears and, half of
    the time, the coordinate swap (determinant -1)."""
    m = [[1, 0], [0, 1]]
    for step in range(3):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        e = [[1, k], [0, 1]] if step % 2 == 0 else [[1, 0], [k, 1]]
        m = _mul(m, e)
    if rng.random() < 0.5:
        m = _mul(m, [[0, 1], [1, 0]])
    return _mul(_mul([list(r) for r in zip(*m)], gram), m)


def _mul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# ---------------------------------------------------------------------------
# generators: each returns a list of item dicts (JSON-ready)


def _scan(rng: random.Random) -> list:
    h = {p: nt.class_number(p) for p in range(5, SCAN_BOUND, 4) if nt.is_prime(p)}
    classes = twin_classes(list(h), lambda p: h[p], lambda p: p)
    # one isometry search over Z/p for O(A), two per class in the genus partition
    picks = spread_sample(
        classes, lambda p: p**0.7 * (2 * h[p] - 1) ** 0.9, SCAN_ITEMS, rng, by_size=True)
    return [
        {"kind": "scan", "p": p, "expect": {"h": h[p], "table": PAPER_TABLE.get(p)}}
        for p in picks
    ]


def _rank1(rng: random.Random) -> list:
    by_tau = {}
    for n in range(1, RANK1_BOUND + 1):
        by_tau.setdefault(nt.tau(n), []).append(n)
    items = []
    for t, quota in RANK1_QUOTAS.items():
        classes = twin_classes(by_tau[t], lambda n: min(_v2(n), 2), lambda n: n)
        # the search enumerates Z/2n once per square root of 1 mod 4n,
        # and there are 2^tau(n) of those
        picks = spread_sample(classes, lambda n: n**1.3 * (8 + 2**t), quota, rng)
        items += [{"kind": "rank1", "n": n, "expect": {"fm": 2 ** (t - 1)}} for n in picks]
    return items


def _genus_cost(d: int, h: int, omega: int) -> float:
    """The genus partition runs one isometry search over A (|A| = D) per
    pair (class, genus found so far)."""
    return d**0.7 * h * 2 ** (omega - 1)


def _genus_population() -> dict:
    """omega -> [(D, cycles)] for composite discriminants under the bounds."""
    out = {}
    for d in range(5, GENUS_BOUND + 1):
        if not nt.is_discriminant(d):
            continue
        omega = len(nt.factorize(d))
        if omega not in GENUS_QUOTAS:
            continue
        cycles = nt.proper_cycles(d)
        if _genus_cost(d, len(cycles), omega) <= GENUS_QUOTAS[omega][1]:
            out.setdefault(omega, []).append((d, cycles))
    return out


def _genus(rng: random.Random) -> list:
    items = []
    for omega, pop in sorted(_genus_population().items()):
        classes = twin_classes(
            pop,
            lambda e: (len(e[1]), min(_v2(e[0]), 3), nt.is_squarefree(e[0])),
            lambda e: e[0],
        )
        cost = lambda e: _genus_cost(e[0], len(e[1]), omega)  # noqa: E731
        for d, cycles in spread_sample(classes, cost, GENUS_QUOTAS[omega][0], rng):
            odd_fundamental = d % 4 == 1 and nt.is_squarefree(d)
            items.append({
                "kind": "genus", "d": d,
                "expect": {"h": len(cycles),
                           "genera": 2 ** (omega - 1) if odd_fundamental else None},
            })
            # the first non-principal class: which class it is changes the
            # cost, the base change does not
            principal = nt.principal_form(d)
            rep = next(c for c in cycles if principal not in c)[0]
            items.append({
                "kind": "fm_lattice", "d": d,
                "gram": _base_change(_gram(rep), rng), "rep_gram": _gram(rep),
            })
    return items


def _oracle_population() -> dict:
    """family -> [(|A_S|, gram of S)] with T = S(-1)."""
    limit = ORACLE_ORDER_LIMIT
    rank1 = [(2 * n, [[-2 * n]]) for n in range(1, limit // 2 + 1)]
    hyperbolic = [
        (d, _gram(nt.principal_form(d)))
        for d in range(5, limit + 1) if nt.is_discriminant(d)
    ]
    definite = []
    for det in range(3, limit + 1):
        for a in range(1, det + 1):
            for b in range(0, a + 1):
                if (det + b * b) % (4 * a) == 0 and (det + b * b) // (4 * a) >= a:
                    definite.append((det, _gram((a, b, (det + b * b) // (4 * a)), -1)))
    return {"rank1": rank1, "hyperbolic": hyperbolic, "definite": definite}


def _content(gram: list) -> int:
    """gcd of the Gram entries of a rank-2 lattice; A_S is cyclic when it is
    1. A rank-1 A_S is always cyclic."""
    if len(gram) == 1:
        return 1
    return abs(gcd(gcd(gram[0][0], gram[0][1]), gram[1][1]))


def _oracle_cost(entry: tuple) -> float:
    """One gluing per anti-isometry: about 2^omega(|A|) of them for cyclic A,
    more when A is not cyclic."""
    order, gram = entry
    return order**0.5 * 2 ** len(nt.factorize(order)) * _content(gram)


def _oracle(rng: random.Random) -> list:
    items = []
    for family, pop in _oracle_population().items():
        classes = twin_classes(
            pop,
            lambda e: (_content(e[1]), len(nt.factorize(e[0])), min(_v2(e[0]), 3)),
            lambda e: e[0],
        )
        items += [
            {"kind": "oracle", "gram_s": gram}
            for _, gram in spread_sample(classes, _oracle_cost, ORACLE_QUOTAS[family], rng)
        ]
    return items


GENERATORS = {"scan": _scan, "rank1": _rank1, "genus": _genus, "oracle": _oracle}


def generate(workload: str, seed: int) -> list:
    """The item list of a workload; the same seed gives the same list."""
    items = GENERATORS[workload](_rng(workload, seed))
    for i, item in enumerate(items):
        item["id"] = i
    return items


# ---------------------------------------------------------------------------
# answer checks


def check(item: dict, answer: dict, reference: dict) -> str | None:
    """None when the answer is right, else the reason it is wrong.

    reference maps a genus item's D to the partner count the program gives
    for the untransformed class representative."""
    kind = item["kind"]
    if kind == "scan":
        exp = item["expect"]
        if answer["p"] != item["p"] or answer["h"] != exp["h"]:
            return f"p={item['p']}: h={answer['h']}, expected {exp['h']}"
        if 2 * answer["fm"] != answer["h"] + 1:
            return f"p={item['p']}: 2 fm != h + 1"
        if exp["table"] is not None and (answer["h"], answer["fm"]) != tuple(exp["table"]):
            return f"p={item['p']}: row differs from the paper table"
        return None
    if kind == "rank1":
        if answer["fm"] != item["expect"]["fm"]:
            return f"n={item['n']}: fm={answer['fm']}, expected {item['expect']['fm']}"
        return None
    if kind == "genus":
        exp = item["expect"]
        if answer["h"] != exp["h"]:
            return f"D={item['d']}: h={answer['h']}, expected {exp['h']}"
        sizes = answer["genus_sizes"]
        if sum(sizes) != exp["h"]:
            return f"D={item['d']}: genera do not partition the classes"
        if exp["genera"] is not None and (len(sizes) != exp["genera"] or len(set(sizes)) != 1):
            return f"D={item['d']}: genera {sizes}, expected {exp['genera']} of equal size"
        return None
    if kind == "fm_lattice":
        if item["d"] not in reference:
            return f"D={item['d']}: no count for the class representative"
        if answer["fm"] < 1 or answer["fm"] != reference[item["d"]]:
            return f"D={item['d']}: fm={answer['fm']} changed under base change"
        return None
    if kind == "oracle":
        n = answer["gluings"]
        if not answer["all_equal"]:
            return f"S={item['gram_s']}: gluing orbits differ from double cosets"
        if n < 1 or answer["overlattice_ok"] != n or answer["recovered"] != n:
            return f"S={item['gram_s']}: a gluing failed its overlattice checks"
        return None
    raise ValueError(f"unknown item kind {kind!r}")
