"""Command-line front end.

Verbs: discform, fm, classnum, genus, table, scan, glue, verify-t14.
Exit codes: 0 success, 1 verify-t14 mismatch, 2 invalid input, 3 unsupported
case, 4 enumeration cap exceeded, 5 internal check failed.  Every error path
prints a single diagnostic line to stderr.  A reader that closes stdout early
(`k3fm scan --max 9999 | true`) ends the run with exit 141, the shell's
code for a broken pipe, and nothing on stderr: stdout is flushed before
`main` returns, and on a broken pipe fd 1 is pointed at os.devnull so that
the interpreter's own flush at exit finds nothing to write.
The K3FM_CAP environment variable overrides the finite-group enumeration cap;
`finite_qform` reads it once per isometry search or count, closed form or
not, so a malformed value exits 2 from any run that looks for an isometry,
even one that enumerates nothing (`K3FM_CAP=abc k3fm fm --rank1 6`), and a
run that needs none ignores it.
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
import os
import sys
from fractions import Fraction

from . import bqf, gluing
from .errors import CapExceededError, K3FMError, LatticeParseError, UnsupportedError
from .finite_qform import finite_form, isometries_signed, map_from_images
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


def _array(value, name: str) -> list:
    """The JSON array `value`, or LatticeParseError naming the field."""
    if not isinstance(value, list):
        raise LatticeParseError(f"{name} must be an array")
    return value


def _parse_action_file(path) -> tuple:
    """The form and the generator images of an action file, JSON format:
    {"orders": [...], "q": [...], "b": [[...], ...] (optional),
    "images": [[...], ...]}, in invariant-factor coordinates."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise LatticeParseError(f"cannot read action file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "orders" not in obj or "q" not in obj or "images" not in obj:
        raise LatticeParseError("action file needs 'orders', 'q' and 'images'")
    try:
        orders = [json_integer(d, "orders") for d in _array(obj["orders"], "orders")]
        q = [_parse_fraction(x) for x in _array(obj["q"], "q")]
        b = None
        if "b" in obj:
            rows = _array(obj["b"], "b")
            b = [[_parse_fraction(x) for x in _array(row, "each row of b")] for row in rows]
        form = finite_form(orders, q, b)
        images = tuple(
            tuple(json_integer(c, "images") for c in _array(img, "each image"))
            for img in _array(obj["images"], "images")
        )
    except (TypeError, ValueError, LatticeParseError) as exc:
        raise LatticeParseError(f"bad action file: {exc}") from exc
    return form, images


def _hodge_from_args(args) -> HodgeGroupSpec:
    """The Hodge group of the flags: a file that cannot be read is refused
    first, then a bad order, then a malformed image."""
    if not args.hodge_action:
        return HodgeGroupSpec(args.hodge_order)
    form, images = _parse_action_file(args.hodge_action)
    HodgeGroupSpec(args.hodge_order)  # the order is checked before the images are split
    return HodgeGroupSpec(args.hodge_order, map_from_images(form, form, images, 1))


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
    for s, summand in result.breakdown:
        if result.method == "rank2" and s.det != -1:
            label = f"form {bqf.lattice_to_form(s)}"
        else:
            label = f"gram {list(list(r) for r in s.gram)}"
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
    for i, cyc in enumerate(cgd.cycle_triples, start=1):
        print(f"cycle {i}: " + " ".join(str(t) for t in cyc))
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader is gone: say nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
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
