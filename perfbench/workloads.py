"""The benchmark's workloads, how one invocation is run, and how it is checked.

Every workload is one ``python -m sombor_trees`` command line.  ``run.py``
starts it through ``launch.py``, drains its stdout through a pipe and checks
what it printed and wrote.  The launcher pins it to the workload's CPUs and
reaps it with ``wait4``, which gives the user and system time of the
invocation together with the pool workers it reaped, and the peak RSS of the
largest of those processes.  It also reports how fast those CPUs ran a fixed
calibration loop meanwhile (``cal_s``), which ``run.py`` uses to correct the
times for the speed the shared host gave them.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

# Free trees of order n (OEIS A000055), n = 0..20.
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
           19320, 48629, 123867, 317955, 823065)

_CELL_TIME = re.compile(rb" time=([0-9.]+)s ")


@dataclass(frozen=True)
class Workload:
    """One CLI command line; ``{csv}`` in argv is replaced by a temporary path."""

    name: str
    backend: str
    argv: tuple[str, ...]
    orders: tuple[int, int]
    alpha: int | None = None
    jobs: int = 1

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"

    def argv_with(self, csv: Path | None, jobs: int | None = None) -> list[str]:
        out = [str(csv) if a == "{csv}" else a for a in self.argv]
        if jobs is not None and "--jobs" in out:
            out[out.index("--jobs") + 1] = str(jobs)
        return out


def _verify(name: str, backend: str, n_max: int, jobs: int) -> Workload:
    argv = ["verify", "--n-min", "2", "--n-max", str(n_max)]
    if n_max > 16:
        argv += ["--cap", str(n_max)]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return Workload(name, backend, (*argv, "--csv", "{csv}"), (2, n_max), jobs=jobs)


def _enumerate(name: str, backend: str, n: int, alpha: int) -> Workload:
    argv = ("enumerate", "--n", str(n), "--alpha", str(alpha))
    return Workload(name, backend, argv, (n, n), alpha=alpha)


WORKLOADS = {
    w.name: w
    for w in (
        _verify("verify-pure", "pure", 16, 1),
        _verify("verify-compiled", "compiled", 20, 2),
        _enumerate("enumerate-family", "compiled", 17, 11),
    )
}

# The same command lines at tiny orders, for --smoke.
SMOKE = {
    w.name: w
    for w in (
        _verify("verify-pure", "pure", 8, 1),
        _verify("verify-compiled", "compiled", 9, 2),
        _enumerate("enumerate-family", "compiled", 8, 5),
    )
}


class Reference:
    """Outputs recorded once from the commit that defined the benchmark.

    ``verify.csv`` is the compiled ``verify --n-max 20`` table; the pure
    backend's table for n <= 16 must equal its first rows byte for byte.
    ``enumerate.json`` holds the sha256 of ``enumerate`` stdout per (n, alpha).
    """

    def __init__(self) -> None:
        lines = (REFERENCE / "verify.csv").read_text(encoding="utf-8").splitlines()
        self.header = lines[0]
        self.rows = lines[1:]
        self.enumerate = json.loads((REFERENCE / "enumerate.json").read_text(encoding="utf-8"))

    def csv(self, n_min: int, n_max: int) -> str:
        rows = [r for r in self.rows if n_min <= int(r.split(",", 1)[0]) <= n_max]
        return "\n".join([self.header, *rows]) + "\n"

    def family_size(self, n: int, alpha: int) -> int:
        for r in self.rows:
            cols = r.split(",")
            if int(cols[0]) == n and int(cols[1]) == alpha:
                return int(cols[2])
        raise KeyError((n, alpha))


def work_units(w: Workload, ref: Reference) -> int:
    """Trees verified, or records emitted, by one invocation."""
    if w.is_verify:
        return sum(A000055[w.orders[0] : w.orders[1] + 1])
    return ref.family_size(w.orders[0], w.alpha)


def check(w: Workload, ref: Reference, exit_code: int, stdout: bytes, csv: str | None) -> str | None:
    """Why the invocation's output is wrong, or None when it is correct."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if w.is_verify:
        tail = stdout.rstrip().rsplit(b"\n", 1)[-1]
        if not tail.startswith(b"overall: PASS"):
            return f"summary line reads {tail[:80]!r}"
        if csv is None:
            return "no CSV written"
        rows = [line.split(",") for line in csv.splitlines()[1:]]
        if any(r[-1] != "true" for r in rows):
            return "a CSV row has pass other than true"
        for n in range(w.orders[0], w.orders[1] + 1):
            total = sum(int(r[2]) for r in rows if int(r[0]) == n)
            if total != A000055[n]:
                return f"family sizes for n={n} sum to {total}, expected {A000055[n]}"
        if csv != ref.csv(*w.orders):
            return "CSV differs from the reference table"
        return None
    n, alpha = w.orders[0], w.alpha
    records = stdout.count(b"\n\n") + 1 if stdout else 0
    if records != ref.family_size(n, alpha):
        return f"{records} records, expected {ref.family_size(n, alpha)}"
    expected = ref.enumerate.get(f"{n},{alpha}")
    if expected is None:
        return f"no reference digest for n={n}, alpha={alpha}"
    if hashlib.sha256(stdout).hexdigest() != expected:
        return "stdout differs from the reference digest"
    return None


def cell_seconds(stdout: bytes) -> list[float]:
    """The per-cell ``time=`` column of ``verify`` stdout."""
    return [float(m) for m in _CELL_TIME.findall(stdout)]


def child_env(build_path: Path, backend: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(build_path)
    env["SOMBOR_TREES_BACKEND"] = backend
    return env


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    cal_s: float | None  # mean calibration-loop time on its CPUs while it ran
    exit_code: int
    stdout: bytes
    stderr: str


def spawn(cmd: list[str], env: dict[str, str], timeout: float, tmp: Path,
          cpus: list[int] | None = None) -> Invocation:
    """Run cmd to completion through launch.py on cpus, draining its stdout; kill it on timeout."""
    report = tmp / f"launch-{os.getpid()}.json"
    report.unlink(missing_ok=True)
    with tempfile.TemporaryFile(dir=tmp) as err:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCH), str(report),
             ",".join(map(str, cpus)) if cpus else "-", *cmd],
            env=env, stdout=subprocess.PIPE, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            chunks = []
            while chunk := proc.stdout.read(1 << 16):
                chunks.append(chunk)
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    try:
        measured = json.loads(report.read_text(encoding="utf-8"))
        report.unlink()
    except (OSError, ValueError):  # the launcher was killed before it reported
        measured = {"exit": proc.returncode or -1, "wall_s": timeout, "cpu_s": 0.0,
                    "rss_mb": 0.0, "cal_s": None}
    return Invocation(
        wall_s=measured["wall_s"],
        cpu_s=measured["cpu_s"],
        rss_mb=measured["rss_mb"],
        cal_s=measured["cal_s"],
        exit_code=measured["exit"],
        stdout=b"".join(chunks),
        stderr=stderr,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(w: Workload, build_path: Path, tmp: Path, ref: Reference, timeout: float,
            compiled_failure: str | None, cpus: list[int] | None = None) -> tuple[Invocation, str | None]:
    """One untraced invocation of the workload; (measurement, failure or None)."""
    csv_path = tmp / f"out-{os.getpid()}.csv"
    csv_path.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "sombor_trees", *w.argv_with(csv_path)]
    inv = spawn(cmd, child_env(build_path, w.backend), timeout, tmp, cpus)
    csv = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
    csv_path.unlink(missing_ok=True)
    failure = check(w, ref, inv.exit_code, inv.stdout, csv)
    if failure is None and w.backend == "compiled" and compiled_failure:
        failure = compiled_failure
    if failure and inv.stderr.strip():
        failure += f" (stderr: {inv.stderr.strip()[-300:]})"
    return inv, failure


_PROBE = ("import sombor_trees, sombor_trees.cli; "
          "print(sombor_trees.KERNEL_BACKEND); print(sombor_trees.__file__)")


def run_probe(w: Workload, build_path: Path, tmp: Path, timeout: float,
              cpus: list[int] | None = None) -> tuple[Invocation, str | None, str | None]:
    """Time a fresh interpreter importing the package under the workload's backend.

    Returns (measurement, loaded backend, failure or None).  The import must
    come from the snapshot and load the backend the workload asks for.
    """
    inv = spawn([sys.executable, "-c", _PROBE], child_env(build_path, w.backend), timeout, tmp, cpus)
    lines = inv.stdout.decode("utf-8", "replace").splitlines()
    if inv.exit_code != 0 or len(lines) != 2:
        return inv, None, f"import failed with exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"
    loaded, origin = lines
    if loaded != w.backend:
        return inv, loaded, f"loaded the {loaded} backend, expected {w.backend}"
    if not Path(origin).resolve().is_relative_to(build_path.resolve()):
        return inv, loaded, f"imported {origin}, not the benchmark's snapshot"
    return inv, loaded, None
