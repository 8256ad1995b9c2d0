"""The k3fm benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Every pass runs the whole item list in a fresh interpreter (worker.py) and
every answer is checked (workloads.check). With --trace 0 the end-to-end
metrics are printed; with --trace 1 untraced and traced passes alternate and
the per-layer metrics are printed. The last line of standard output is one
JSON object; the exit code is 0 only when every answer was right. The
--seconds budget counts from the start, input generation included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# One reference second (ref_s) is this many runs of worker.reference_loop,
# about one wall second on the 2-vCPU VM where the number was set.
REF_LOOPS_PER_S = 250
SETUP_SPAWNS = 7  # at least this many per run
SETUP_PER_PASS = 2
TIMEOUT_S = 170  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list, deadline: float) -> None:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("out of time before the run could finish")
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {proc.stderr.strip()}")


def measure_setup(count: int, deadline: float) -> list:
    """Wall times of `count` fresh interpreters that only import k3fm."""
    times = []
    for _ in range(count):
        start = perf_counter()
        _spawn([sys.executable, "-c", "import k3fm"], deadline)
        times.append(perf_counter() - start)
    return times


def run_pass(items_path: Path, deadline: float, order: int = 0,
             trace_path: Path | None = None) -> dict:
    """Run the items once in a fresh interpreter, in the order shuffled by
    `order`; the results come back in the order of the item list."""
    out = items_path.with_name("result.json")
    argv = [sys.executable, str(HERE / "worker.py"), "--items", str(items_path),
            "--out", str(out), "--src", str(SRC), "--order", str(order)]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    _spawn(argv, deadline)
    return json.loads(out.read_text())


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least ten
    items beyond it (the last item when there are ten or fewer)."""
    return n - 11 if n > 10 else n - 1


def quantile(ordered: list, frac: float) -> float:
    """The value at fraction `frac` of an ascending list, interpolated
    linearly between neighbours."""
    if len(ordered) == 1:
        return ordered[0]
    k = frac * (len(ordered) - 1)
    i = min(int(k), len(ordered) - 2)
    return ordered[i] + (k - i) * (ordered[i + 1] - ordered[i])


def check_pass(items: list, result: dict, reference: dict) -> list:
    """(item id, reason) for every item the pass got wrong."""
    failures = []
    for item, res in zip(items, result["items"]):
        reason = res["error"] or workloads.check(item, res["answer"], reference)
        if reason:
            failures.append((item["id"], reason))
    return failures


def busy_s(result: dict) -> float:
    return sum(r["latency_s"] for r in result["items"])


def prepare(workload: str, seed: int, work: Path) -> tuple:
    """Write the item list and any lattice files it names; return
    (items, items path, reference items path or None)."""
    items = workloads.generate(workload, seed)
    reference = []
    for item in items:
        if item["kind"] == "fm_lattice":
            item["path"] = _write_lattice(work / f"l{item['id']}.json", item["gram"])
            reference.append({"id": item["id"], "kind": "fm_lattice", "d": item["d"],
                              "path": _write_lattice(work / f"r{item['id']}.json", item["rep_gram"])})
        elif item["kind"] == "oracle":
            item["path_s"] = _write_lattice(work / f"s{item['id']}.json", item["gram_s"])
            item["path_t"] = _write_lattice(
                work / f"t{item['id']}.json", [[-x for x in row] for row in item["gram_s"]])
    items_path = work / "items.json"
    items_path.write_text(json.dumps(items))
    ref_path = None
    if reference:
        ref_path = work / "reference" / "items.json"
        ref_path.parent.mkdir()
        ref_path.write_text(json.dumps(reference))
    return items, items_path, ref_path


def _write_lattice(path: Path, gram: list) -> str:
    path.write_text(json.dumps({"gram": gram}))
    return str(path)


END_TO_END = (
    ("setup_s", "s"),
    ("items_per_ref_s", "1/ref_s"),
    ("item_p50_ref_s", "ref_s"),
    ("item_tail_ref_s", "ref_s"),
    ("peak_rss_mb", "MB"),
)


def latency_figures(samples: list, correct: int) -> tuple:
    """(items per second, p50, tail) from one list of latencies per item,
    one latency per pass. Throughput is over the items' median latencies;
    the quantiles are over every answer of the run (items x passes), since
    a quantile of the items' medians jumps when noise reorders two
    neighbouring items of unlike cost."""
    n = len(samples)
    answers = sorted(x for item in samples for x in item)
    return (
        correct / sum(statistics.median(item) for item in samples),
        statistics.median(answers),
        quantile(answers, tail_index(n) / max(n - 1, 1)),
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; return (the result object printed as the last line,
    the number of passes, the wall-clock latency figures or None when
    traced)."""
    if not (SRC / "k3fm" / "__init__.py").is_file():
        raise BenchError(f"no k3fm sources under {SRC}")
    start = perf_counter()
    deadline = start + TIMEOUT_S
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    items, items_path, ref_path = prepare(workload, seed, work)

    reference = {}
    if ref_path is not None:  # the partner count of each untransformed class
        d_of = {item["id"]: item["d"] for item in items}
        for res in run_pass(ref_path, deadline)["items"]:
            if res["error"]:  # the item then fails in every pass
                print(f"reference for item {res['id']}: {res['error']}", file=sys.stderr)
            else:
                reference[d_of[res["id"]]] = res["answer"]["fm"]

    # per item, one entry per untraced pass: wall seconds, reference seconds
    wall, scaled = [[] for _ in items], [[] for _ in items]
    setup, rss, busy, failures = [], [], [], []
    traced_busy, layers = [], []
    while True:
        pass_start = perf_counter()
        order = seed * 1000 + len(busy)
        if not trace:  # spread over the run, like the passes
            setup += measure_setup(SETUP_PER_PASS, deadline)
        result = run_pass(items_path, deadline, order)
        failures += check_pass(items, result, reference)
        for w, r, res in zip(wall, scaled, result["items"]):
            w.append(res["latency_s"])
            r.append(res["latency_s"] / (res["ref_s"] * REF_LOOPS_PER_S))
        rss.append(result["peak_rss_kb"] / 1024)
        busy.append(busy_s(result))
        if trace:
            spans_path = work / "spans.json"
            traced = run_pass(items_path, deadline, order, spans_path)
            failures += check_pass(items, traced, reference)
            traced_busy.append(busy_s(traced))
            layers.append(tracer.summarize(json.loads(spans_path.read_text())))
        spent = perf_counter() - pass_start
        if perf_counter() - start + spent > seconds:
            break

    if trace:
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_busy) - statistics.median(busy)
        units = [(n, u) for n, u, _ in tracer.metric_names()]
        wall_figures = None
    else:
        setup += measure_setup(max(SETUP_SPAWNS - len(setup), 0), deadline)
        # The machine's speed swings by up to 1.8x over minutes, so item
        # times are reported in reference seconds, measured by the loop that
        # runs just before each item; wall seconds are printed beside them.
        correct = len(items) - len({item_id for item_id, _ in failures})
        per_s, p50, tail = latency_figures(scaled, correct)
        values = {
            "setup_s": statistics.median(setup),
            "items_per_ref_s": per_s,
            "item_p50_ref_s": p50,
            "item_tail_ref_s": tail,
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END
        wall_figures = latency_figures(wall, correct)
    for item_id, reason in failures[:10]:
        print(f"FAILED item {item_id}: {reason}", file=sys.stderr)
    passes = len(busy)
    result = {
        "correct": not failures,
        "attempted": len(items) * passes * (2 if trace else 1),
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units},
    }
    return result, passes, wall_figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, passes, wall_figures = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    items = result["attempted"] // passes // (2 if args.trace else 1)
    print(f"workload {args.workload} seed {args.seed}: {items} items, {passes} passes, "
          f"item tail at p{100 * (tail_index(items) + 1) // items}, "
          f"fail_share {result['failed'] / result['attempted']:.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if wall_figures is not None:
        print("  wall clock: items_per_s = {:.6g} 1/s, item_p50_s = {:.6g} s, "
              "item_tail_s = {:.6g} s".format(*wall_figures))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
