"""In-process traced run of one workload, for the benchmark's per-layer metrics.

``run.py`` starts this script with the package snapshot on PYTHONPATH:

    python perfbench/tracer.py REQUEST.json RESULT.json

It runs ``sombor_trees.cli.main`` twice in this process, once plain and once
traced, in the order the request gives.  Tracing replaces the callables that
``verify``, ``enumeration`` and ``cli`` take from other package modules with
wrappers, at the attribute the importing module looks up, and restores them
afterwards.  Spans (name, start, end, parent, run id) and counts stay in memory
until the end.  A target the package no longer has is reported as absent.

Kernel calls that take microseconds each, or whose work happens after the call
returns (generators), are counted but not timed by their wrapper, which would
mostly measure itself.  Their time comes from isolated drains instead: each
recorded stream call is replayed alone, and per-tree stats are charged at the
per-tree cost of an isolated drain at the workload's top order (or the highest
order the request allows for that backend).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, deque
from contextlib import redirect_stdout
from itertools import islice

STREAMS = ("iter_level_sequences", "iter_rooted_level_sequences")
PER_TREE = ("tree_stats_from_levels",)

# (label, module, attribute path, how to wrap)
TARGETS = (
    ("verify.verify_cell", "verify", "verify_cell", "span"),
    ("verify.canonical_code", "verify", "canonical_code", "span"),
    ("verify.construct_t_star", "verify", "construct_t_star", "span"),
    ("verify.closed_form_max", "verify", "closed_form_max", "span"),
    ("verify.ExtremalRecord.passed", "verify", "ExtremalRecord.passed", "property"),
    ("tree.Tree.from_level_sequence", "tree", "Tree.from_level_sequence", "classmethod"),
    ("enumeration.independence_number", "enumeration", "independence_number", "span"),
    ("cli.verify", "cli", "verify", "span"),
    ("cli.enumerate_family", "cli", "enumerate_family", "steps"),
    ("cli.format_edge_list", "cli", "format_edge_list", "span"),
    ("cli.to_csv", "cli", "to_csv", "span"),
    ("cli.render_text", "cli", "render_text", "span"),
)


class Tracer:
    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.stream_calls: list = []  # (kernel name, args, kwargs) to replay
        self.kernel_orders: list[int] = []

    def _open(self, name: str) -> tuple[int, int, float]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[index] = (name, start, end, parent, self.run_id)

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index, parent, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)
        return wrapper

    def steps(self, name, fn):
        """One span per step of a generator, so the consumer's time between steps is excluded."""
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                index, parent, start = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, index, parent, start)
                self.items[name] += 1
                yield item
        return wrapper

    def kernel(self, name, fn):
        label = f"kernels.{name}"
        if name in PER_TREE:
            calls = self.calls

            def count(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)
            return count
        timed = None if name in STREAMS else self.span(label, fn)

        def wrapper(*args, **kwargs):
            if args and isinstance(args[0], int):
                self.kernel_orders.append(args[0])
            if timed is not None:
                return timed(*args, **kwargs)
            self.calls[label] += 1
            self.stream_calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return wrapper


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path, or None when the package lacks it."""
    try:
        owner = importlib.import_module(f"sombor_trees.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def install(tracer: Tracer, kernels) -> tuple[list, list[str]]:
    """Patch every target; returns (saved attributes, absent labels)."""
    saved, absent = [], []
    for label, module, path, how in TARGETS:
        found = _resolve(module, path)
        if found is None:
            absent.append(label)
            continue
        owner, attr = found
        original = vars(owner)[attr]
        if how == "property":
            wrapped = property(tracer.span(label, original.fget))
        elif how == "classmethod":
            wrapped = staticmethod(tracer.span(label, getattr(owner, attr)))
        else:
            wrapped = getattr(tracer, how)(label, original)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    for name in kernel_names(kernels):
        original = getattr(kernels, name)
        saved.append((kernels, name, original))
        setattr(kernels, name, tracer.kernel(name, original))
    return saved, absent


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def kernel_names(kernels) -> list[str]:
    return [n for n in getattr(kernels, "__all__", ()) if callable(getattr(kernels, n, None))]


def run_cli(cli, argv: list[str], stdout_path: str, tracer: Tracer | None) -> dict:
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    with open(stdout_path, "w", encoding="utf-8") as out, redirect_stdout(out):
        start = time.perf_counter()
        try:
            code, error = main(argv), None
        except Exception as exc:  # reported as a failed run, not a crash of the trace
            code, error = -1, repr(exc)
        wall = time.perf_counter() - start
    return {"exit": code, "error": error, "wall_s": wall}


def drain(backend: str, n: int, cap: int) -> dict | None:
    """Isolated generation and stats cost per tree at order n.

    Generation drains the whole stream.  Stats run over every k-th tree of it,
    at most cap trees, because the stream's cost per tree varies along it.
    """
    module = {"pure": "pure", "compiled": "_speedups"}[backend]
    try:
        kern = importlib.import_module(f"sombor_trees._kernels.{module}")
    except ImportError:
        return None
    gen = getattr(kern, "iter_level_sequences", None)
    stats = getattr(kern, "tree_stats_from_levels", None)
    if gen is None or stats is None:
        return None
    start = time.perf_counter()
    last = deque(enumerate(gen(n)), maxlen=1)
    gen_s = time.perf_counter() - start
    trees = last[0][0] + 1 if last else 0
    sample = list(islice(gen(n), 0, None, max(1, -(-trees // cap))))
    start = time.perf_counter()
    deque(map(stats, sample), maxlen=0)
    stats_s = time.perf_counter() - start
    return {
        "order": n,
        "trees": trees,
        "stats_sample": len(sample),
        "gen_ns": gen_s / trees * 1e9,
        "stats_ns": stats_s / len(sample) * 1e9,
    }


def aggregate(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(tracer.spans):
        agg = out.setdefault(name, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
        agg["spans"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[i]
    for name, agg in out.items():
        agg["calls"] = tracer.calls[name]
    return out


def layer_metrics(tracer: Tracer, layers: dict, kernels, walls: dict, drains: dict) -> dict[str, float]:
    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def per_call_ns(name: str) -> float:
        calls = tracer.calls[name]
        return total(name) / calls * 1e9 if calls else 0.0

    m: dict[str, float] = {}
    backend = kernels.BACKEND
    for name in kernel_names(kernels):
        label = f"kernels.{name}"
        m[f"{label}.calls"] = tracer.calls[label]
        if name in STREAMS:
            seconds = 0.0
            for called, args, kwargs in tracer.stream_calls:
                if called == name:
                    start = time.perf_counter()
                    deque(getattr(kernels, name)(*args, **kwargs), maxlen=0)
                    seconds += time.perf_counter() - start
            m[f"{label}.s"] = seconds
        elif name in PER_TREE:
            own = drains.get(backend)
            m[f"{label}.s"] = tracer.calls[label] * own["stats_ns"] * 1e-9 if own else 0.0
        else:
            m[f"{label}.s"] = total(label)
    orders = set(tracer.kernel_orders)
    m["kernels.stream_walks_per_order"] = len(tracer.kernel_orders) / len(orders) if orders else 0.0
    for b in ("pure", "compiled"):
        d = drains.get(b)
        m[f"kernels.gen_ns_per_tree.{b}"] = d["gen_ns"] if d else 0.0
        m[f"kernels.stats_ns_per_tree.{b}"] = d["stats_ns"] if d else 0.0

    names = [s[0] for s in tracer.spans]
    canonicalize = 0.0
    for name, start, end, parent, _ in tracer.spans:
        if (name in ("verify.canonical_code", "tree.Tree.from_level_sequence")
                and parent >= 0 and names[parent] == "verify.verify_cell"):
            canonicalize += end - start
    m["verify.canonicalize_s"] = canonicalize
    m["verify.report_s"] = total("cli.to_csv") + total("cli.render_text")
    m["verify.passed_s"] = total("verify.ExtremalRecord.passed")
    cells = tracer.calls["verify.verify_cell"]
    m["extremal.t_star_calls_per_cell"] = tracer.calls["verify.construct_t_star"] / cells if cells else 0.0
    m["enumeration.family_s"] = total("cli.enumerate_family")
    m["tree.from_levels_ns"] = per_call_ns("tree.Tree.from_level_sequence")
    records = tracer.items["cli.enumerate_family"]
    m["tree.trees_built_per_record"] = (
        tracer.calls["tree.Tree.from_level_sequence"] / records if records else 0.0
    )
    m["invariants.alpha_ns"] = per_call_ns("enumeration.independence_number")
    m["tree.format_s"] = total("cli.format_edge_list")
    m["cli.self_s"] = layers.get("cli.main", {}).get("self_s", 0.0)
    m["trace.overhead_share"] = walls["traced"] / walls["untraced"] - 1
    return m


def main(request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as f:
        req = json.load(f)
    from sombor_trees import _kernels as kernels
    from sombor_trees import cli

    tracer = Tracer(run_id=1)
    runs, absent = {}, []
    for mode in req["order"]:
        run = req["runs"][mode]
        saved = []
        if mode == "traced":
            saved, absent = install(tracer, kernels)
        try:
            runs[mode] = run_cli(cli, run["argv"], run["stdout"], tracer if mode == "traced" else None)
        finally:
            uninstall(saved)
    drains = {
        b: drain(b, min(req["top_order"], req["max_order"][b]), req["sample_cap"])
        for b in ("pure", "compiled")
    }
    absent += [f"drain.{b}" for b, d in drains.items() if d is None]
    drains = {b: d for b, d in drains.items() if d is not None}
    layers = aggregate(tracer)
    metrics = layer_metrics(tracer, layers, kernels, {k: v["wall_s"] for k, v in runs.items()}, drains)
    with open(req["spans_out"], "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    result = {
        "backend": kernels.BACKEND,
        "runs": runs,
        "metrics": metrics,
        "absent": absent,
        "drains": drains,
        "layers": layers,
        "stream_calls": [[n, list(a)] for n, a, _ in tracer.stream_calls],
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
