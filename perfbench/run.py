#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sombor-trees verify pipeline.

    python3 perfbench/run.py --workload verify-pure --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout.  It builds a snapshot of ``src/`` with
the compiled kernels in ``.perfbench/`` (see ``build.py``), then drives the
CLI as a closed loop: one ``python -m sombor_trees`` invocation at a time,
each started after the previous one exits, timed from outside and checked
(see ``workloads.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a run record with the
machine, versions, hashes and every sample goes to ``.perfbench/runs/``.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json.
They are medians over the run's invocations, and their times are in
reference-core seconds.  A shared host's CPUs run the same code up to 1.7
times slower from one second to the next, as other guests load the same
cores, so raw times of the same code spread too far between runs.  Each
invocation is pinned to its own CPUs, and ``launch.py`` times a fixed
calibration loop on those CPUs every 20 ms while it runs.  Every time is
scaled by ``REF_CAL_S / cal_s``: what it would read on a core that runs the
loop in ``REF_CAL_S``.  The raw times are kept in the run record.
``--trace 1`` makes a separate traced run (``tracer.py``) and reports the
per-layer metrics; a metric whose target the package no longer has reads 0
and is listed as absent in the run record.

All workloads are exhaustive, so their inputs do not depend on ``--seed``.
The seed shuffles how the repetitions interleave (set-up probes among
invocations, traced and untraced runs), so that drift on the machine does
not always fall on the same measurement.

``--smoke`` runs every workload at tiny orders in both modes and checks
that each run is correct and reports exactly the metrics BENCHMARK.json
declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import build
from workloads import SMOKE, WORKLOADS, Reference, Workload, cell_seconds, check
from workloads import child_env, run_cli, run_probe, spawn, work_units

BENCHMARK = build.ROOT / "BENCHMARK.json"
PROBES = 15  # fresh-interpreter imports per run, for setup_s
MIN_INVOCATIONS = 3
MAX_INVOCATIONS = 400
TRACE_INVOCATIONS = 1  # untraced CLI runs in a traced run, for the verify.cell_s metrics
SAMPLE_CAP = 50_000  # trees per isolated stats drain
# Isolated drains run at the workload's top order, but the pure backend needs
# over a second for each order above 16 (about 20 s at n=20), so its drains stop at n=16.
DRAIN_MAX_ORDER = {"pure": 16, "compiled": 20}
BUDGET_S = 165.0  # a run must end within 180 s
# launch.calibrate() on an uncontended core of a 2-vCPU Intel Xeon guest with
# CPython 3.11, where the benchmark was defined; the unit of the scaled times.
REF_CAL_S = 0.0006
CPUS = sorted(os.sched_getaffinity(0))  # before Run pins this process


def compiled_failure(w: Workload, b: build.Build) -> str | None:
    """Why compiled invocations must count as failed, or None."""
    if w.backend != "compiled":
        return None
    if b.stale:
        return f"stale _speedups.c: {len(b.stale)} quoted .pyx lines disagree, first: {b.stale[0]}"
    if not b.compiled:
        return f"the extension did not build: {b.error}"
    return None


def split_cpus(jobs: int) -> tuple[list[int], list[int]]:
    """(CPUs for the invocations, CPUs for this driver): the workload gets its own."""
    k = min(jobs, len(CPUS))
    return CPUS[-k:], CPUS[:-k] or CPUS


def scale(inv) -> float:
    """Factor that turns the invocation's times into reference-core seconds."""
    return REF_CAL_S / inv.cal_s if inv.cal_s else 1.0


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "gcc": build.gcc_version(),
    }


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    if not (build.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tail_percentile(values: list[float]) -> dict:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return {"percentile": None, "value": None}


class Run:
    """One benchmark run: its deadline, temporary files, samples and failures."""

    def __init__(self, w: Workload, b: build.Build, ref: Reference, seed: int, seconds: int):
        self.w, self.b, self.ref, self.seconds = w, b, ref, seconds
        self.rng = random.Random(seed)
        self.started = time.perf_counter()
        self.tmp = build.WORK / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[dict] = []
        self.probes: list[dict] = []
        self.loaded: set[str] = set()
        self.cpus, driver_cpus = split_cpus(w.jobs)
        os.sched_setaffinity(0, driver_cpus)

    def timeout(self) -> float:
        return max(1.0, self.started + BUDGET_S - time.perf_counter())

    def fail(self, what: str, why: str | None) -> None:
        self.attempted += 1
        if why:
            self.failures.append(f"{what}: {why}")

    def invoke(self):
        inv, why = run_cli(self.w, self.b.path, self.tmp, self.ref, self.timeout(),
                           compiled_failure(self.w, self.b), self.cpus)
        self.fail(f"invocation {len(self.samples)}", why)
        k = scale(inv)
        self.samples.append({"wall_s": inv.wall_s, "cpu_s": inv.cpu_s, "cal_s": inv.cal_s,
                             "ref_wall_s": inv.wall_s * k, "ref_cpu_s": inv.cpu_s * k,
                             "rss_mb": inv.rss_mb, "exit": inv.exit_code, "failure": why,
                             "cells_s": cell_seconds(inv.stdout)})
        return inv

    def probe(self, timed: bool = True) -> None:
        inv, loaded, why = run_probe(self.w, self.b.path, self.tmp, self.timeout(), self.cpus)
        if loaded:
            self.loaded.add(loaded)
        self.fail(f"probe {len(self.probes)}" if timed else "warm-up probe", why)
        if timed:
            self.probes.append({"wall_s": inv.wall_s, "cal_s": inv.cal_s,
                                "ref_wall_s": inv.wall_s * scale(inv), "failure": why})

    def measure(self) -> dict[str, float]:
        """Closed loop of CLI invocations with set-up probes mixed in; end-to-end metrics."""
        self.probe(timed=False)  # compiles bytecode and warms the file cache
        deadline = time.perf_counter() + self.seconds
        hard_stop = self.started + BUDGET_S - 15
        slots: list[int] | None = None
        while len(self.samples) < MAX_INVOCATIONS:
            if slots is not None:
                for _ in range(slots.count(len(self.samples))):
                    self.probe()
            # Stop when the next invocation and the probes still due would overrun.
            now = time.perf_counter()
            est = statistics.median(s["wall_s"] for s in self.samples) if self.samples else 0.0
            probe_s = statistics.median(p["wall_s"] for p in self.probes) if self.probes else 0.2
            est += (PROBES - len(self.probes)) * probe_s
            if len(self.samples) >= MIN_INVOCATIONS and (now + est > deadline or now > hard_stop):
                break
            inv = self.invoke()
            if slots is None:
                expected = max(2, int((deadline - time.perf_counter()) / max(inv.wall_s, 1e-3)) + 1)
                slots = [self.rng.randrange(1, expected) for _ in range(PROBES)]
        while len(self.probes) < PROBES:
            self.probe()
        wall = statistics.median(s["ref_wall_s"] for s in self.samples)
        return {
            "wall_s": wall,
            "trees_per_s": work_units(self.w, self.ref) / wall,
            "cpu_s": statistics.median(s["ref_cpu_s"] for s in self.samples),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in self.samples),
            "setup_s": statistics.median(p["ref_wall_s"] for p in self.probes),
            "success_rate": sum(s["failure"] is None for s in self.samples) / len(self.samples),
        }

    def trace(self) -> tuple[dict[str, float], dict]:
        """A traced in-process run plus untraced CLI invocations; per-layer metrics."""
        build_s, error = build.timed_compile()
        self.fail("timed build", error if self.w.backend == "compiled" else None)
        steps = ["cli"] * TRACE_INVOCATIONS + ["tracer"]
        self.rng.shuffle(steps)
        result: dict = {}
        for step in steps:
            if step == "cli":
                self.invoke()
            else:
                result = self.run_tracer()
        m = dict(result.get("metrics", {}))
        m["kernels.build_s"] = build_s
        cells = [s["cells_s"] for s in self.samples]
        if self.w.is_verify:
            m["verify.cell_s.sum"] = statistics.median(sum(c) for c in cells)
            m["verify.cell_s.max"] = statistics.median(max(c, default=0.0) for c in cells)
            m["verify.pool_busy_share"] = statistics.median(
                sum(c) / (self.w.jobs * s["wall_s"]) for c, s in zip(cells, self.samples))
        else:
            m["verify.cell_s.sum"] = m["verify.cell_s.max"] = m["verify.pool_busy_share"] = 0.0
        return m, result

    def run_tracer(self) -> dict:
        """Start tracer.py on the snapshot and check the output of both of its runs."""
        order = ["untraced", "traced"]
        self.rng.shuffle(order)
        runs = {
            mode: {
                "argv": self.w.argv_with(self.tmp / f"trace-{mode}-{os.getpid()}.csv", jobs=1),
                "stdout": str(self.tmp / f"trace-{mode}-{os.getpid()}.out"),
            }
            for mode in order
        }
        runs_dir = build.WORK / "runs"
        runs_dir.mkdir(parents=True, exist_ok=True)
        request = {
            "order": order,
            "runs": runs,
            "top_order": self.w.orders[1],
            "sample_cap": SAMPLE_CAP,
            "max_order": DRAIN_MAX_ORDER,
            "spans_out": str(runs_dir / f"spans-{self.w.name}.jsonl"),
        }
        req_path = self.tmp / f"trace-request-{os.getpid()}.json"
        res_path = self.tmp / f"trace-result-{os.getpid()}.json"
        req_path.write_text(json.dumps(request), encoding="utf-8")
        res_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(req_path), str(res_path)]
        inv = spawn(cmd, child_env(self.b.path, self.w.backend), self.timeout(), self.tmp, self.cpus)
        result: dict = {}
        if inv.exit_code != 0 or not res_path.exists():
            self.fail("tracer", f"exit code {inv.exit_code}: {inv.stderr.strip()[-500:]}")
        else:
            result = json.loads(res_path.read_text(encoding="utf-8"))
        for mode, run in runs.items():
            got = result.get("runs", {}).get(mode)
            csv_path = Path(run["argv"][run["argv"].index("--csv") + 1]) if "--csv" in run["argv"] else None
            out_path = Path(run["stdout"])
            if got is not None:
                stdout = out_path.read_bytes() if out_path.exists() else b""
                csv = csv_path.read_text(encoding="utf-8") if csv_path and csv_path.exists() else None
                why = got["error"] or check(self.w, self.ref, got["exit"], stdout, csv)
                if why is None and result.get("backend") != self.w.backend:
                    why = f"loaded the {result.get('backend')} backend"
                self.fail(f"{mode} in-process run", why or compiled_failure(self.w, self.b))
            for p in (csv_path, out_path):
                if p is not None:
                    p.unlink(missing_ok=True)
        for p in (req_path, res_path):
            p.unlink(missing_ok=True)
        return result


def declared() -> dict[str, dict[str, str]]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }


def run_once(w: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; (result line, run record)."""
    spec = declared()["per_layer" if trace else "end_to_end"]
    load_start = loadavg()
    b = build.prepare()
    ref = Reference()
    run = Run(w, b, ref, seed, seconds)
    detail: dict = {}
    if trace:
        measured, detail = run.trace()
    else:
        measured = run.measure()
    absent = sorted(set(spec) - set(measured)) + detail.get("absent", [])
    metrics = {
        name: {"value": measured.get(name, 0.0), "unit": unit} for name, unit in spec.items()
    }
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    n = len(run.samples)
    if trace:  # one traced run, except what is parsed from the untraced invocations
        samples = {m: n if m.startswith(("verify.cell_s", "verify.pool")) else 1 for m in spec}
    else:
        samples = {m: len(run.probes) if m == "setup_s" else n for m in spec}
    record = {
        "workload": w.name,
        "argv": list(w.argv),
        "backend": w.backend,
        "loaded_backend": sorted(run.loaded) or detail.get("backend"),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_key": b.tree_key,
        "sha256": {"_speedups.c": b.sha256_c, "_speedups.pyx": b.sha256_pyx},
        "build": {"compiled": b.compiled, "build_s": b.build_s, "error": b.error,
                  "stale_markers": b.stale},
        "machine": machine(),
        "loadavg": {"start": load_start, "end": loadavg()},
        "samples": samples,
        "cpus": run.cpus,
        "ref_cal_s": REF_CAL_S,
        "raw_medians": raw_medians(run),
        "wall_s_tail": tail_percentile([s["ref_wall_s"] for s in run.samples]),
        "metrics": metrics,
        "unreported": sorted(set(measured) - set(spec)),
        "absent": absent,
        "failures": run.failures,
        "invocations": run.samples,
        "probes": run.probes,
        "trace_detail": {k: v for k, v in detail.items() if k != "metrics"},
    }
    return result, record


def raw_medians(run: Run) -> dict[str, float | None]:
    """Unscaled medians, for comparison with the reported reference-core times."""
    def med(rows, key):
        values = [r[key] for r in rows if r[key] is not None]
        return statistics.median(values) if values else None
    return {"wall_s": med(run.samples, "wall_s"), "cpu_s": med(run.samples, "cpu_s"),
            "setup_s": med(run.probes, "wall_s"),
            "cal_s": med(run.samples + run.probes, "cal_s")}


def write_record(record: dict) -> Path:
    runs = build.WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-trace{int(record['trace'])}-seed{record['seed']}-{time.time_ns()}.json"
    path = runs / name
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return path


def summarize(record: dict) -> str:
    lines = [f"{record['workload']} (seed {record['seed']}, trace {int(record['trace'])}, "
             f"{len(record['invocations'])} invocations, {len(record['probes'])} set-up probes)"]
    for name, m in record["metrics"].items():
        mark = "  (absent)" if name in record["absent"] else ""
        lines.append(f"  {name:38s} {m['value']:<14.6g} {m['unit']}{mark}")
    raw = ", ".join(f"{k} {v:.4g}" for k, v in record["raw_medians"].items() if v is not None)
    if raw:
        lines.append(f"  unscaled medians: {raw}")
    for f in record["failures"]:
        lines.append(f"  FAILED {f}")
    return "\n".join(lines)


def smoke() -> int:
    """Tiny orders, both modes, every workload: correct and exactly the declared metrics."""
    ok = True
    for seed, w in enumerate(SMOKE.values()):
        for trace in (False, True):
            _, record = run_once(w, seed, 2, trace)
            write_record(record)
            print(summarize(record), file=sys.stderr)
            problems = list(record["failures"])
            if record["absent"] or record["unreported"]:
                problems.append(f"absent {record['absent']}, unreported {record['unreported']}")
            print(f"smoke {w.name} trace={int(trace)}: {'ok' if not problems else problems}")
            ok = ok and not problems
    print("smoke: PASS" if ok else "smoke: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result, record = run_once(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (build.SourceMissing, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_record(record)
    print(summarize(record), file=sys.stderr)
    print(f"run record: {path.relative_to(build.ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
