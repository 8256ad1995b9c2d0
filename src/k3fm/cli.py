"""Command-line front end.

Verbs: discform, fm, classnum, genus, table, scan, glue, verify-t14.
Exit codes: 0 success, 1 verify-t14 mismatch, 2 invalid input, 3 unsupported
case, 4 enumeration cap exceeded, 5 internal check failed.  Every error path
prints a single diagnostic line to stderr.
The K3FM_CAP environment variable overrides the finite-group enumeration cap;
`finite_qform` reads it when a search runs, so a malformed value exits 2 only
from a run that searches.
`fm` and `verify-t14` take the genus of S from `fm_count.genus_lattices`;
no verb picks genus members itself.
`main(argv)` may be called repeatedly in one process: the argument parser is
built on the first call and reused, since parsing returns a fresh namespace
each time and argparse looks up sys.stdout and sys.stderr only when it prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bqf, gluing
from .errors import CapExceededError, K3FMError, LatticeParseError, UnsupportedError
from .finite_qform import FiniteFormMap, finite_form, isometries_signed
from .fm_count import (
    HodgeGroupSpec,
    NeronSeveriSpec,
    fm_number,
    fm_number_rank1,
    fm_table,
    gauss_scan,
    genus_lattices,
)
from .lattice import discriminant_data, discriminant_form, json_integer, parse_lattice_file

TABLE_PRIMES = (229, 257, 401, 577, 733, 761, 1009, 1093, 1129, 1229, 1297, 1373, 1429, 1489)


def _emit_table(headers, rows, csv: bool, out) -> None:
    if csv:
        print(",".join(headers), file=out)
        for row in rows:
            print(",".join(str(x) for x in row), file=out)
        return
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)), file=out)
    for row in rows:
        print("  ".join(str(x).rjust(w) for x, w in zip(row, widths)), file=out)


def _parse_fraction(x) -> Fraction:
    if isinstance(x, bool):
        raise LatticeParseError("expected an integer or 'p/q' string")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise LatticeParseError(f"bad rational value {x!r}") from exc
    raise LatticeParseError("expected an integer or 'p/q' string")


def _parse_action_file(path) -> FiniteFormMap:
    """JSON format: {"orders": [...], "q": [...], "b": [[...], ...] (optional),
    "images": [[...], ...]} describing the form acted on and the generator
    images."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise LatticeParseError(f"cannot read action file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "orders" not in obj or "q" not in obj or "images" not in obj:
        raise LatticeParseError("action file needs 'orders', 'q' and 'images'")
    try:
        orders = [json_integer(d, "orders") for d in obj["orders"]]
        q = [_parse_fraction(x) for x in obj["q"]]
        b = None
        if "b" in obj:
            b = [[_parse_fraction(x) for x in row] for row in obj["b"]]
        form = finite_form(orders, q, b)
        images = tuple(tuple(json_integer(c, "images") for c in img) for img in obj["images"])
        return FiniteFormMap(form, form, images, 1)
    except (TypeError, ValueError, LatticeParseError) as exc:
        raise LatticeParseError(f"bad action file: {exc}") from exc


def _hodge_from_args(args) -> HodgeGroupSpec:
    action = _parse_action_file(args.hodge_action) if args.hodge_action else None
    return HodgeGroupSpec(args.hodge_order, action)


def _cmd_discform(args) -> int:
    lattice = parse_lattice_file(args.lattice)
    data = discriminant_data(lattice)
    if data.form.ngens == 0:
        print("invariant factors: (trivial)")
        return 0
    print("invariant factors:", " ".join(str(d) for d in data.form.orders))
    for i, q in enumerate(data.form.q_gens, start=1):
        print(f"q(g{i}) = {q}")
    return 0


def _cmd_fm(args) -> int:
    if args.rank1 is not None:
        result = fm_number_rank1(args.rank1, _hodge_from_args(args))
    else:
        ns = NeronSeveriSpec(parse_lattice_file(args.lattice))
        result = fm_number(ns, _hodge_from_args(args))
    print(f"fm={result.total}")
    print(f"method: {result.method}")
    for item, summand in result.breakdown:
        if isinstance(item, bqf.BinaryQuadraticForm):
            label = f"form {item}"
        else:
            label = f"gram {list(list(r) for r in item.gram)}"
        print(f"  {label}: {summand}")
    return 0


def _cmd_classnum(args) -> int:
    cgd = bqf.proper_classes(args.d)
    if bqf.is_odd_fundamental(args.d):
        print(f"h={cgd.h}")
    else:
        print(f"h={cgd.h} (form class number)")
    return 0


def _cmd_genus(args) -> int:
    cgd = bqf.proper_classes(args.d)
    print(f"D={cgd.d} h={cgd.h}")
    for i, cyc in enumerate(cgd.cycles, start=1):
        print(f"cycle {i}: " + " ".join(str(f) for f in cyc))
    for i, part in enumerate(cgd.genus_partition, start=1):
        print(f"genus {i}: classes " + " ".join(str(j + 1) for j in part))
    print("ambiguous classes: " + " ".join(str(j + 1) for j in cgd.ambiguous_indices))
    return 0


def _cmd_table(args) -> int:
    primes = TABLE_PRIMES
    if args.list is not None:
        try:
            primes = tuple(int(p) for p in args.list.split(","))
        except ValueError as exc:
            raise LatticeParseError(f"bad prime list: {args.list!r}") from exc
    rows = fm_table(primes)
    _emit_table(("p", "h", "fm"), rows, args.format == "csv", sys.stdout)
    return 0


def _cmd_scan(args) -> int:
    report = gauss_scan(args.max)
    print(f"scan up to {report.bound}")
    print("fm=1 primes: " + " ".join(str(p) for p in report.fm_one_primes))
    print("running max: " + " ".join(f"{p}:{fm}" for p, fm in report.running_max))
    return 0


def _cmd_glue(args) -> int:
    s = parse_lattice_file(args.s)
    t = parse_lattice_file(args.t)
    sigmas = isometries_signed(discriminant_form(t), discriminant_form(s), -1)
    print(f"anti-isometries: {len(sigmas)}")
    chosen = sigmas if args.list else sigmas[:1]
    for i, sigma in enumerate(chosen, start=1):
        over = gluing.glue(s, t, sigma)
        gram = [list(row) for row in over.gram]
        print(f"gluing {i}: gram {gram} index={over.index}")
    return 0


def _cmd_verify_t14(args) -> int:
    s = parse_lattice_file(args.s)
    t = parse_lattice_file(args.t)
    hodge = HodgeGroupSpec(args.g_order)
    report = gluing.verify_gluing_counts(genus_lattices(s), t, hodge)
    for i, row in enumerate(report.rows, start=1):
        gram = [list(r) for r in row.s.gram]
        print(f"S_{i} gram {gram}: orbits={row.orbit_count} cosets={row.coset_count} equal={row.equal}")
    print(
        f"total: orbits={report.total_orbits} cosets={report.total_cosets} "
        f"equal={report.all_equal}"
    )
    return 0 if report.all_equal else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="k3fm",
        description="Fourier-Mukai partner counts for K3 surfaces from Neron-Severi lattices",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("discform", help="invariant factors and generator q-values")
    p.add_argument("lattice")
    p.set_defaults(func=_cmd_discform)

    p = sub.add_parser("fm", help="Fourier-Mukai partner count with breakdown")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice")
    group.add_argument("--rank1", type=int)
    p.add_argument("--hodge-order", type=int, dest="hodge_order", default=2)
    p.add_argument("--hodge-action", dest="hodge_action")
    p.set_defaults(func=_cmd_fm)

    p = sub.add_parser("classnum", help="class number h(D)")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_classnum)

    p = sub.add_parser("genus", help="cycles, genus partition, ambiguous classes")
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("table", help="(p, h(p), fm) table")
    p.add_argument("--list")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("scan", help="h(p)=1 and running-maximum report")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("glue", help="gluings of S and T and the glued Gram matrices")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("verify-t14", help="gluing-orbit vs double-coset comparison")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--g-order", type=int, dest="g_order", default=2)
    p.set_defaults(func=_cmd_verify_t14)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LatticeParseError, ValueError) as exc:
        print(f"k3fm: {exc}", file=sys.stderr)
        return 2
    except UnsupportedError as exc:
        print(f"k3fm: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"k3fm: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:  # a broken internal invariant, never bad input
        print(f"k3fm: internal check failed: {exc}", file=sys.stderr)
        return 5
    except K3FMError as exc:
        print(f"k3fm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
