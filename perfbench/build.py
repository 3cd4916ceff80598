"""Build the package snapshot that the benchmark times.

The checkout's ``src/sombor_trees`` is copied into ``.perfbench/build/<key>``
and the committed ``_speedups.c`` is compiled next to it with the machine's C
compiler.  Nothing is written under ``src/``.  The key hashes every source
file plus the compiler and interpreter, so an unchanged tree reuses its
snapshot and any edit produces a fresh one.

The stale-C guard compares every ``"..._speedups.pyx":N`` marker that Cython
left in the ``.c``, and the source lines it quotes, with the current ``.pyx``.  A ``.c`` that no
longer matches its ``.pyx`` would time code the repository does not contain,
so the compiled workloads count every invocation as failed when it is stale.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sombor_trees"
KERNELS = PACKAGE / "_kernels"
WORK = ROOT / ".perfbench"
CFLAGS = ["-O2", "-shared", "-fPIC"]

_MARKER = re.compile(r'^\s*/\* "[^"]*_speedups\.pyx":(\d+)$')
_ARROW = "# <<<<<<<<<<<<<<"


class SourceMissing(RuntimeError):
    """The checkout holds no package source to build."""


@dataclass(frozen=True)
class Build:
    """A ready snapshot: put ``path`` on PYTHONPATH to import it."""

    path: Path
    compiled: bool
    build_s: float
    error: str | None
    stale: list[str]
    sha256_c: str
    sha256_pyx: str
    tree_key: str


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_files() -> list[Path]:
    return sorted(
        p
        for p in PACKAGE.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".so"
    )


def gcc_version() -> str | None:
    try:
        out = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.splitlines()[0] if out else None


def stale_markers(c_path: Path, pyx_path: Path) -> tuple[int, list[str]]:
    """(markers checked, mismatches) between the generated C and the .pyx.

    Each marker block quotes a few .pyx lines around line N, with line N
    flagged by an arrow; every quoted line must equal the current .pyx line.
    """
    pyx = pyx_path.read_text(encoding="utf-8").splitlines()
    lines = c_path.read_text(encoding="utf-8").splitlines()
    checked = 0
    bad: list[str] = []
    for i, line in enumerate(lines):
        m = _MARKER.match(line)
        if not m:
            continue
        checked += 1
        n = int(m.group(1))
        block = []
        for follow in lines[i + 1 :]:
            if follow.startswith("*/"):
                break
            block.append(follow[3:])
        arrows = [j for j, q in enumerate(block) if q.endswith(_ARROW)]
        if len(arrows) != 1:
            bad.append(f"_speedups.c:{i + 1}: marker for .pyx line {n} flags {len(arrows)} lines")
            continue
        for j, quoted in enumerate(block):
            quoted = quoted.removesuffix(_ARROW).rstrip()
            k = n + j - arrows[0]
            current = pyx[k - 1].rstrip() if 0 < k <= len(pyx) else None
            if quoted != current:
                bad.append(f"_speedups.c:{i + 2 + j} quotes .pyx line {k} as {quoted!r}, "
                           f"the .pyx has {current!r}")
    if checked == 0:
        bad.append("no _speedups.pyx markers in _speedups.c")
    return checked, bad


def _compile(c_path: Path, out_dir: Path) -> tuple[float, str | None]:
    """Compile the extension into out_dir; (seconds, error or None)."""
    target = out_dir / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [
        "gcc", *CFLAGS, f"-I{sysconfig.get_paths()['include']}",
        str(c_path), "-o", str(target),
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return time.perf_counter() - start, f"compiler did not run: {exc}"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return elapsed, f"gcc exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return elapsed, None


def timed_compile() -> tuple[float, str | None]:
    """Compile the committed .c into a throwaway directory, for build_s."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK / "tmp") as tmp:
        return _compile(KERNELS / "_speedups.c", Path(tmp))


def prepare() -> Build:
    """Return the snapshot for the current source tree, building it if needed."""
    c_path, pyx_path = KERNELS / "_speedups.c", KERNELS / "_speedups.pyx"
    if not (PACKAGE / "__init__.py").is_file() or not c_path.is_file() or not pyx_path.is_file():
        raise SourceMissing(f"no package source under {PACKAGE.relative_to(ROOT)}")
    digest = hashlib.sha256()
    for p in _source_files():
        digest.update(str(p.relative_to(PACKAGE)).encode() + b"\0" + p.read_bytes() + b"\0")
    digest.update(f"{sys.version}\0{gcc_version()}\0{CFLAGS}".encode())
    key = digest.hexdigest()[:20]
    _, stale = stale_markers(c_path, pyx_path)

    final = WORK / "build" / key
    stamp = final / "build.json"
    if not stamp.is_file():
        staging = WORK / "build" / f"{key}.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        shutil.copytree(
            PACKAGE, staging / "sombor_trees",
            ignore=shutil.ignore_patterns("__pycache__", "*.so"),
        )
        build_s, error = _compile(c_path, staging / "sombor_trees" / "_kernels")
        (staging / "build.json").write_text(
            json.dumps({"build_s": build_s, "error": error}), encoding="utf-8"
        )
        try:
            staging.rename(final)
        except OSError:  # another run finished the same snapshot first
            shutil.rmtree(staging, ignore_errors=True)
    info = json.loads(stamp.read_text(encoding="utf-8"))
    return Build(
        path=final,
        compiled=info["error"] is None,
        build_s=info["build_s"],
        error=info["error"],
        stale=stale,
        sha256_c=_sha256(c_path),
        sha256_pyx=_sha256(pyx_path),
        tree_key=key,
    )
