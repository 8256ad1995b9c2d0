"""Outside-in tracing of k3fm, done entirely from the benchmark's files.

install() replaces each function listed in SPANNED and COUNTED with a
wrapper, in every k3fm.* namespace that binds it: fm_count, bqf, gluing and
cli import names with `from ... import`, so patching the defining module
alone would miss their calls. A spanned call records (name, start, end,
parent span, item id) in memory; a counted call, for the hot leaves, only
bumps a counter. Nothing is recorded outside an item, so the answer checks
stay out of the trace. summarize() turns a dump into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (layer, function) pairs that get a span; Class.method names a method
SPANNED = (
    ("intmat", "smith_normal_form"),
    ("intmat", "hermite_row_basis"),
    ("intmat", "inverse"),
    ("lattice", "discriminant_data"),
    ("lattice", "DiscriminantData.classify"),
    ("lattice", "induced_form_map"),
    ("lattice", "signature"),
    ("finite_qform", "isometries_signed"),
    ("finite_qform", "are_isometric"),
    ("finite_qform", "orthogonal_group"),
    ("finite_qform", "double_coset_count"),
    ("finite_qform", "subgroup_generated"),
    ("finite_qform", "validate_map"),
    ("bqf", "proper_classes"),
    ("bqf", "enumerate_reduced"),
    ("bqf", "pell_fundamental"),
    ("bqf", "lattice_isometry_generators"),
    ("bqf", "improper_automorph"),
    ("fm_count", "fm_table"),
    ("fm_count", "fm_number_rank1"),
    ("fm_count", "fm_number_rank2"),
    ("gluing", "gluing_classes"),
    ("gluing", "glue"),
    ("gluing", "verify_overlattice"),
    ("gluing", "recovered_gluing_map"),
    ("gluing", "verify_gluing_counts"),
    ("cli", "main"),
)

# hot leaves: counted, no span
COUNTED = (
    ("finite_qform", "evaluate_q"),
    ("intmat", "mat_vec"),
    ("intmat", "det"),
    ("bqf", "cycle"),
    ("bqf", "reduce_form"),
)

# spanned functions whose self time is not a metric of its own
_NO_SELF_METRIC = {"finite_qform.are_isometric", "finite_qform.orthogonal_group"}


def metric_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, func in SPANNED:
        name = f"{layer}.{func}"
        out.append((f"{name}.calls", "count", "lower"))
        if name not in _NO_SELF_METRIC:
            out.append((f"{name}.self_s", "s", "lower"))
        if name == "finite_qform.isometries_signed":
            out.append((f"{name}.elements", "count", "lower"))
            out.append((f"{name}.found", "count", "lower"))
        if name == "finite_qform.are_isometric":
            out.append((f"{name}.hit_ratio", "ratio", "higher"))
        if name == "finite_qform.orthogonal_group":
            out.append((f"{name}.group_order", "count", "lower"))
    out += [(f"{layer}.{func}.calls", "count", "lower") for layer, func in COUNTED]
    out.append(("finite_qform.cap_headroom", "ratio", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self.stack = []
        self.counts = {}
        self.item = None
        self.stats = {"elements": 0, "found": 0, "hits": 0, "group_order": 0, "max_order": 0}
        self.cap = None

    def begin_item(self, item_id: int) -> None:
        self.item = item_id
        self._open("item")

    def end_item(self) -> None:
        self._close()
        self.item = None

    def _open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.item])

    def _close(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "finite_qform.isometries_signed":
            a, b = args[0], args[1]
            if a.orders == b.orders:  # otherwise it returns before enumerating
                self.stats["elements"] += b.order
                self.stats["max_order"] = max(self.stats["max_order"], b.order)
            self.stats["found"] += len(result)
        elif name == "finite_qform.are_isometric":
            self.stats["hits"] += bool(result)
        elif name == "finite_qform.orthogonal_group":
            self.stats["group_order"] += len(result)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._observe(name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is not None:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        prefix = package.__name__
        for layer, _ in SPANNED + COUNTED:
            importlib.import_module(f"{prefix}.{layer}")
        self.cap = importlib.import_module(f"{prefix}.finite_qform").DEFAULT_CAP
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, func in table:
                owner = sys.modules[f"{prefix}.{layer}"]
                name = f"{layer}.{func}"
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, make(name, cls.__dict__[attr]))
                    continue
                original = getattr(owner, func)
                wrapper = make(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "stats": self.stats, "cap": self.cap}


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def summarize(dump: dict) -> dict:
    """Per-layer metric values of one traced pass, without trace.overhead_s."""
    calls, self_s = {}, {}
    for span, own in zip(dump["spans"], self_times(dump["spans"])):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + own
    calls.update(dump["counts"])
    stats = dump["stats"]
    extra = {
        "finite_qform.isometries_signed.elements": stats["elements"],
        "finite_qform.isometries_signed.found": stats["found"],
        "finite_qform.are_isometric.hit_ratio":
            stats["hits"] / calls["finite_qform.are_isometric"]
            if calls.get("finite_qform.are_isometric") else 0.0,
        "finite_qform.orthogonal_group.group_order": stats["group_order"],
        "finite_qform.cap_headroom": stats["max_order"] / dump["cap"],
    }
    out = {}
    for metric, _, _ in metric_names():
        base, _, stat = metric.rpartition(".")
        if metric in extra:
            out[metric] = extra[metric]
        elif stat == "calls":
            out[metric] = calls.get(base, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(base, 0.0)
    return out
