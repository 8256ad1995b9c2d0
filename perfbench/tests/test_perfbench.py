"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
import tracer
import workloads

BENCH_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _traced_summary(tmp_path: Path, workload: str, seed: int, count: int) -> tuple:
    """Run the first `count` items of a workload in one traced pass; return
    (per-layer metrics, span dump, worker result)."""
    items, items_path, _ = run.prepare(workload, seed, tmp_path)
    items_path.write_text(json.dumps(items[:count]))
    spans_path = tmp_path / "spans.json"
    result = run.run_pass(items_path, perf_counter() + 120, trace_path=spans_path)
    dump = json.loads(spans_path.read_text())
    return tracer.summarize(dump), dump, result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(workloads.generate(workload, 7))
    assert first == json.dumps(workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs_of_same_size(workload):
    a = workloads.generate(workload, 1)
    b = workloads.generate(workload, 2)
    assert len(a) == len(b)
    assert json.dumps(a) != json.dumps(b)


def test_shuffled_pass_returns_results_in_list_order(tmp_path):
    items, items_path, _ = run.prepare("rank1", 1, tmp_path)
    items = items[:5]
    items_path.write_text(json.dumps(items))
    order = list(range(5))
    random.Random(3).shuffle(order)
    assert order != sorted(order)
    result = run.run_pass(items_path, perf_counter() + 60, order=3)
    assert [r["id"] for r in result["items"]] == [item["id"] for item in items]
    assert all(workloads.check(i, r["answer"], {}) is None for i, r in zip(items, result["items"]))
    assert all(r["ref_s"] > 0 for r in result["items"])


def test_latency_figures():
    # item medians 0.2 and 1.0; answers 0.1 0.2 0.3 1.0 1.0 4.0
    per_s, p50, tail = run.latency_figures([[0.1, 0.3, 0.2], [1.0, 1.0, 4.0]], 2)
    assert per_s == pytest.approx(2 / 1.2)
    assert p50 == pytest.approx(0.65)
    assert tail == 4.0
    assert run.quantile([1.0, 2.0, 3.0, 5.0], 0.5) == 2.5


def test_metric_names_and_benchmark_json_agree():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = [m["name"] for m in BENCH_JSON["end_to_end"]]
    layer = [m["name"] for m in BENCH_JSON["per_layer"]]
    assert e2e == [name for name, _ in run.END_TO_END]
    assert layer == [name for name, _, _ in tracer.metric_names()]
    assert [m["unit"] for m in BENCH_JSON["per_layer"]] == [u for _, u, _ in tracer.metric_names()]
    assert [w["name"] for w in BENCH_JSON["workloads"]] == list(workloads.WORKLOADS)
    for name in e2e + layer:
        assert pattern.fullmatch(name) and len(name) <= 64


def test_self_times_are_nonnegative_and_within_the_traced_wall(tmp_path):
    _, dump, result = _traced_summary(tmp_path, "oracle", 3, 6)
    own = tracer.self_times(dump["spans"])
    assert min(own) >= -1e-9
    wall = sum(r["latency_s"] for r in result["items"])
    assert sum(own) <= wall
    roots = [s for s in dump["spans"] if s[3] == -1]
    assert [s[0] for s in roots] == ["item"] * 6


@pytest.mark.parametrize("workload", ["scan", "rank1", "genus"])
def test_gluing_is_not_called_outside_the_oracle(tmp_path, workload):
    metrics, _, _ = _traced_summary(tmp_path, workload, 5, 6)
    gluing = {k: v for k, v in metrics.items() if k.startswith("gluing.") and k.endswith(".calls")}
    assert gluing and not any(gluing.values())
    if workload == "rank1":
        bqf = [v for k, v in metrics.items() if k.startswith("bqf.") and k.endswith(".calls")]
        assert bqf and not any(bqf)
    else:
        assert metrics["bqf.proper_classes.calls"] > 0


def test_wrapped_functions_are_reached_through_from_imports(tmp_path):
    metrics, _, _ = _traced_summary(tmp_path, "scan", 5, 2)
    # fm_count and cli call these through names bound by `from ... import`
    assert metrics["fm_count.fm_table.calls"] == 2
    assert metrics["bqf.proper_classes.calls"] == 4
    assert metrics["finite_qform.isometries_signed.self_s"] > 0
    assert metrics["cli.main.calls"] == 2


def test_checks_reject_wrong_answers():
    scan = {"kind": "scan", "p": 229, "expect": {"h": 3, "table": [3, 2]}}
    assert workloads.check(scan, {"p": 229, "h": 3, "fm": 2}, {}) is None
    assert workloads.check(scan, {"p": 229, "h": 3, "fm": 3}, {})
    rank1 = {"kind": "rank1", "n": 30, "expect": {"fm": 4}}
    assert workloads.check(rank1, {"fm": 4}, {}) is None
    assert workloads.check(rank1, {"fm": 2}, {})
    genus = {"kind": "genus", "d": 105, "expect": {"h": 4, "genera": 4}}
    assert workloads.check(genus, {"h": 4, "genus_sizes": [1, 1, 1, 1]}, {}) is None
    assert workloads.check(genus, {"h": 4, "genus_sizes": [2, 2]}, {})
    fm = {"kind": "fm_lattice", "d": 105}
    assert workloads.check(fm, {"fm": 2}, {105: 2}) is None
    assert workloads.check(fm, {"fm": 1}, {105: 2})
    oracle = {"kind": "oracle", "gram_s": [[-2]]}
    good = {"all_equal": True, "gluings": 2, "overlattice_ok": 2, "recovered": 2}
    assert workloads.check(oracle, good, {}) is None
    assert workloads.check(oracle, dict(good, recovered=1), {})


def test_wrong_expected_value_fails_the_command(monkeypatch, capsys):
    def corrupted(rng):
        items = [{"kind": "rank1", "n": n, "expect": {"fm": 2 ** (workloads.nt.tau(n) - 1)}}
                 for n in (1, 6, 30)]
        items[2]["expect"]["fm"] += 1
        return items

    monkeypatch.setitem(workloads.GENERATORS, "rank1", corrupted)
    code = run.main(["--workload", "rank1", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
