"""Every committed BENCH_*.json is one parent/change summary in the one
schema, keyed by the workloads and end-to-end metrics BENCHMARK.json
declares.  A record keeps medians, quartiles and per-pair values only; the
raw run records stay in the commit named by its ``raw`` field."""

import json
import re

import pytest

from conftest import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
METRICS = {m["name"] for m in DECLARED["end_to_end"]}
RECORDS = sorted(p.name for p in ROOT.glob("BENCH_*.json"))

TOP = {"note", "parent", "change", "raw", "same_directory", "summary"}
PER_WORKLOAD = {"pairs", "seeds", "failed", "attempted"}
PER_METRIC = {
    "parent_median",
    "change_median",
    "parent_quartiles",
    "change_quartiles",
    "change_better_pairs",
    "change_worse_by",
    "per_pair",
}


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _counts(x):
    return (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(k, int) and not isinstance(k, bool) and k >= 0 for k in x)
    )


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("name", RECORDS)
def test_record_has_the_one_schema(name):
    rec = json.loads((ROOT / name).read_text())
    assert set(rec) == TOP, name
    assert isinstance(rec["note"], str) and rec["note"], name
    for key in ("parent", "change", "raw"):
        assert isinstance(rec[key], str), (name, key)
        assert re.fullmatch(r"[0-9a-f]{7,40}", rec[key]), (name, key, rec[key])
    assert rec["same_directory"] in (True, False, None), name
    assert rec["summary"] and set(rec["summary"]) <= WORKLOADS, (name, set(rec["summary"]))
    for workload, w in rec["summary"].items():
        where = (name, workload)
        assert set(w) == PER_WORKLOAD | METRICS, (where, set(w) ^ (PER_WORKLOAD | METRICS))
        pairs = w["pairs"]
        assert isinstance(pairs, int) and not isinstance(pairs, bool) and pairs >= 1, where
        assert len(w["seeds"]) == pairs, where
        assert _counts(w["failed"]) and _counts(w["attempted"]), where
        for metric in METRICS:
            m = w[metric]
            where = (name, workload, metric)
            assert set(m) == PER_METRIC, (where, set(m) ^ PER_METRIC)
            assert _number(m["change_worse_by"]), where
            for side in ("parent", "change"):
                median, q = m[f"{side}_median"], m[f"{side}_quartiles"]
                assert _number(median) and len(q) == 2 and all(map(_number, q)), where
                assert q[0] <= median <= q[1], (where, side, q, median)
            better = m["change_better_pairs"]
            assert isinstance(better, int) and 0 <= better <= pairs, where
            assert len(m["per_pair"]) == pairs, where
            assert all(len(pc) == 2 and all(map(_number, pc)) for pc in m["per_pair"]), where
