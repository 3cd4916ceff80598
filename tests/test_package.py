"""The package's public surface, and the rule that every function in src/
serves a subcommand."""

import ast
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sombor_trees
from sombor_trees import _kernels
from sombor_trees._kernels import pure
from sombor_trees.cli import build_parser, main
from sombor_trees.tree import Tree
from sombor_trees.verify import VerificationReport, verify

from conftest import ROOT, bind_backend

PACKAGE = Path(sombor_trees.__file__).resolve().parent

# What no subcommand reaches, by module or module:qualname, and why it stays.
UNREACHED = {
    "transforms.py": "D10 pending: the proof replay will run every move",
    "tree.py:Tree._check_vertex": "D10 pending",
    "tree.py:Tree.from_level_sequence": (
        "perfbench/tracer.py wraps it, but no subcommand calls it, so "
        "tree.from_levels_ns reads 0 until ROADMAP D4a drops that metric"
    ),
    "_kernels/__init__.py:_stream_fold": "compiled fold: the compiled backend's order_fold",
    "_kernels/pure.py:iter_level_sequences": "the compiled export's mirror, until D6",
    "cli.py:entry": "console entry of the installed sombor-trees script",
}


def test_root_answers_the_benchmark_probe():
    # perfbench's probe, read from its source: the benchmark fails every run
    # when the root stops binding what the probe prints
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    (probe,) = [
        ast.literal_eval(node.value)
        for node in workloads.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_PROBE"
    ]
    src = ROOT / "src"
    env = dict(os.environ, SOMBOR_TREES_BACKEND="pure")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    backend, origin = done.stdout.decode().splitlines()
    assert backend == "pure"
    assert Path(origin).resolve().is_relative_to(src)
    # and the root binds nothing else but its submodules
    names = {n for n, v in vars(sombor_trees).items() if not isinstance(v, types.ModuleType)}
    assert {n for n in names if not n.startswith("_")} == {"KERNEL_BACKEND"}


@pytest.mark.parametrize(
    "make",
    [
        lambda: verify(5, 5).records[0],
        lambda: VerificationReport(records=verify(5, 5).records, order_seconds=(0.0,)),
        lambda: Tree.from_edges(3, [(0, 1), (1, 2)]),
    ],
    ids=["ExtremalRecord", "VerificationReport", "Tree"],
)
def test_value_types_are_immutable(make):
    value = make()
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0  # no instance __dict__ either
    assert value == make() and hash(value) == hash(make())


def _functions(code, prefix=""):
    """(qualname, code) of every named function compiled into code."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # not a class body
                yield name, const
                yield from _functions(const, name + ".<locals>.")
            else:
                yield from _functions(const, name + ".")


def test_every_function_in_src_serves_a_subcommand(tmp_path, monkeypatch, capsys):
    # pure kernels bound, so the answer does not depend on a built extension
    bind_backend(monkeypatch, pure)
    monkeypatch.setattr(_kernels, "order_fold", pure.order_fold)
    monkeypatch.chdir(tmp_path)
    Path("bicentral.txt").write_text("4\n0 1\n1 2\n2 3\n")
    Path("malformed.txt").write_text("3\n0 1\n")
    Path("not_a_tree.txt").write_text("3\n1 1\n0 2\n")
    runs = [
        "verify --n-max 6 --jobs 1 --csv verify.csv",
        "verify --n-max 6 --jobs 2 --csv verify2.csv",
        "table --n-max 5 --output table.csv",
        "construct --n 7 --alpha 4 --output t_star.txt",
        "enumerate --n 6",
        "enumerate --n 6 --alpha 4",
        "compute --input bicentral.txt",
        "compute --input malformed.txt",
        "compute --input not_a_tree.txt",
    ]
    build_parser.cache_clear()  # so that the parser is built inside the trace
    called = set()  # the code of every Python frame that ran
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code))
    try:
        assert [main(run.split()) for run in runs] == [0, 0, 0, 0, 0, 0, 0, 2, 2]
    finally:
        sys.setprofile(previous)
    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in called}
    unreached = [
        f"{path.relative_to(PACKAGE).as_posix()}:{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, fn in _functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
        if (path, fn.co_firstlineno) not in reached
    ]
    allowed_by = {u: {u, u.split(":")[0]} & UNREACHED.keys() for u in unreached}
    assert [u for u, keys in allowed_by.items() if not keys] == []
    # no stale entry: each still names something that no subcommand reaches
    assert UNREACHED.keys() - set().union(*allowed_by.values()) == set()
