"""One timed pass: run a list of items against k3fm in this fresh interpreter.

Usage: python3 worker.py --items ITEMS.json --out RESULT.json --src SRC --order N
                         [--trace SPANS.json]

k3fm is imported from PYTHONPATH, which run.py points at the checkout's src/.
Each item is timed on its own; nothing of k3fm runs before the first item,
so any cache the program keeps must pay for itself within the pass. The items run
in an order shuffled by --order, so that a slow spell of the machine hits
items of every size, not a run of neighbours in the list; the results are
written in the order of the list. With --trace the public functions of each
k3fm module are wrapped first (see tracer.py) and the spans are written to
SPANS.json when the pass ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import k3fm
import tracer
from k3fm import cli


def _cli(argv: list) -> str:
    """Run the k3fm command line in-process and return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"k3fm {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _fm_total(text: str) -> int:
    return int(text.splitlines()[0].removeprefix("fm="))


def run_scan(item: dict) -> dict:
    lines = _cli(["table", "--list", str(item["p"]), "--format", "csv"]).splitlines()
    p, h, fm = (int(x) for x in lines[1].split(","))
    return {"p": p, "h": h, "fm": fm}


def run_rank1(item: dict) -> dict:
    return {"fm": _fm_total(_cli(["fm", "--rank1", str(item["n"])]))}


def run_genus(item: dict) -> dict:
    lines = _cli(["genus", str(item["d"])]).splitlines()
    h = int(lines[0].split("h=")[1])
    sizes = [
        len(line.split("classes")[1].split())
        for line in lines if line.startswith("genus ")
    ]
    return {"h": h, "genus_sizes": sizes}


def run_fm_lattice(item: dict) -> dict:
    return {"fm": _fm_total(_cli(["fm", "--lattice", item["path"]]))}


def run_oracle(item: dict) -> dict:
    """verify-t14 on S's genus, then glue every anti-isometry A_T -> A_S,
    check the overlattice and read the gluing map back from it."""
    report = _cli(["verify-t14", "--s", item["path_s"], "--t", item["path_t"]])
    s = k3fm.make_lattice(item["gram_s"])
    t = k3fm.rescale(s, -1)
    sigmas = k3fm.isometries_signed(k3fm.discriminant_form(t), k3fm.discriminant_form(s), -1)
    ok = recovered = 0
    for sigma in sigmas:
        over = k3fm.glue(s, t, sigma)
        ok += k3fm.verify_overlattice(over, s, t).all_ok
        recovered += k3fm.recovered_gluing_map(over, s, t) == sigma
    return {
        "all_equal": report.splitlines()[-1].endswith("equal=True"),
        "gluings": len(sigmas),
        "overlattice_ok": ok,
        "recovered": recovered,
    }


RUNNERS = {
    "scan": run_scan,
    "rank1": run_rank1,
    "genus": run_genus,
    "fm_lattice": run_fm_lattice,
    "oracle": run_oracle,
}


def reference_loop() -> float:
    """Wall time of one run of a fixed pure-Python loop, the gauge of the
    machine's speed at this moment. Like k3fm it is interpreter work on
    small integers and a dict, and it never changes with the program."""
    start = perf_counter()
    acc = 0
    for i in range(30000):
        acc += (i * i + 7) % 13
    counts = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return perf_counter() - start


def run_items(items: list, trace: tracer.Tracer | None) -> list:
    """Run each item once; the reference loop runs just before each item and
    is timed apart from it."""
    results = []
    for item in items:
        runner = RUNNERS[item["kind"]]
        ref = reference_loop()
        start = perf_counter()
        if trace is not None:
            trace.begin_item(item["id"])
        try:
            answer, error = runner(item), None
        except Exception as exc:  # a failed item is reported, and the pass goes on
            answer, error = None, f"{type(exc).__name__}: {exc}"
        if trace is not None:
            trace.end_item()
        latency = perf_counter() - start
        results.append({"id": item["id"], "latency_s": latency, "ref_s": ref,
                        "answer": answer, "error": error})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="the src/ directory k3fm must come from")
    parser.add_argument("--order", type=int, required=True, help="seed of the item order")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    if Path(args.src).resolve() not in Path(k3fm.__file__).resolve().parents:
        print(f"worker: k3fm was imported from {k3fm.__file__}, not {args.src}", file=sys.stderr)
        return 2
    items = json.loads(Path(args.items).read_text())
    order = list(range(len(items)))
    random.Random(args.order).shuffle(order)
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install(k3fm)
    results = [None] * len(items)
    for i, res in zip(order, run_items([items[i] for i in order], trace)):
        results[i] = res
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps({"items": results, "peak_rss_kb": peak_kb}))
    if trace is not None:
        Path(args.trace).write_text(json.dumps(trace.dump()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
