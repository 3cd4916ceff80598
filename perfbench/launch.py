"""Run one command; write its exit status, times, resource use and CPU speed as JSON.

    python -I -S perfbench/launch.py REPORT.json CPUS PROGRAM [ARG...]

The command inherits this process's environment, stdin, stdout and stderr,
and runs on the comma-separated CPUS (``-`` leaves it unpinned).  On Linux
the peak RSS that ``wait4`` reports for a child is never below the peak RSS
of the process that started it, and ``run.py`` is larger than the CLI it
measures.  So ``run.py`` starts each invocation through this small
interpreter, which also times it from spawn to exit without counting its own
start-up.  User and system time include the pool workers the command reaped.

The speed of a shared host's CPUs changes from one second to the next, with
the load that other guests put on the same cores.  So while the command
runs, one thread per CPU it runs on wakes every ``PERIOD`` seconds and times
a fixed pure-Python loop in its own CPU time, on that CPU.  ``cal_s`` is the
mean of those samples: the time the loop took while the command ran.
"""

import json
import os
import sys
import threading
import time

PERIOD = 0.02
CAL_LOOPS = 3000


def calibrate() -> float:
    """CPU seconds this thread takes for a fixed dict-heavy Python loop."""
    start = time.thread_time()
    d = {}
    for i in range(CAL_LOOPS):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.thread_time() - start


def sample(cpu, offset, stop, out) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # this thread only
    out.append(calibrate())
    if stop.wait(offset):
        return
    while True:
        out.append(calibrate())
        if stop.wait(PERIOD):
            return


def main() -> int:
    report, cpus, cmd = sys.argv[1], sys.argv[2], sys.argv[3:]
    pinned = [int(c) for c in cpus.split(",")] if cpus != "-" else [None]
    if pinned != [None]:
        os.sched_setaffinity(0, pinned)  # inherited by the command
    stop = threading.Event()
    samples = []
    threads = [
        threading.Thread(target=sample, args=(cpu, PERIOD * i / len(pinned), stop, samples))
        for i, cpu in enumerate(pinned)
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    for t in threads:
        t.start()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    stop.set()
    for t in threads:
        t.join()
    with open(report, "w", encoding="utf-8") as f:
        json.dump({
            "exit": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "cal_s": sum(samples) / len(samples),
            "cal_samples": len(samples),
        }, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
