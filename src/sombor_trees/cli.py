"""Command-line front end.

Subcommands: verify (run the exhaustive check over a range of orders),
compute (invariants of a tree from an edge-list file), construct (write the
extremal tree), table (CSV of all cells), enumerate (stream a family to
stdout).  Exit codes: 0 success, 1 verification found a violation, 2 usage
or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from . import _kernels
from .errors import SomborTreesError
from .extremal import classify, construct_t_star
from .tree import canonical_levels, format_edge_list, parse_edge_list
from .verify import DEFAULT_VERIFY_CAP, check_orders, render_text, to_csv, verify


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# Characters gathered per stdout write: under PYTHONUNBUFFERED every
# write is its own syscall, so a stream of short records writes in batches.
_WRITE_BATCH = 1 << 16


def _write_stdout(chunks, sep: str = "") -> int:
    """Every subcommand's stdout: write chunks, sep between them, in batches
    of about _WRITE_BATCH characters, and flush; return how many chunks there
    were.  A reader that closes the pipe early is no error: the first failed
    write ends the output, and stdout is pointed at devnull so the flush at
    interpreter exit raises nothing."""
    write = sys.stdout.write
    count = 0
    batch = []
    size = 0
    lead = ""  # sep before every batch but the first
    try:
        for count, chunk in enumerate(chunks, 1):
            batch.append(chunk)
            size += len(chunk)
            if size >= _WRITE_BATCH:
                write(lead + sep.join(batch))
                batch, size, lead = [], 0, sep
        if batch:
            write(lead + sep.join(batch))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return count


def _open_output(path: Path | None):
    """path opened for writing text, or a null context giving None.  A
    subcommand checks its arguments, then opens its output file before the
    fold: a rejected range leaves an existing file untouched, and a path that
    cannot be written fails before any work and before anything is printed."""
    if path is None:
        return contextlib.nullcontext()
    return path.open("w", encoding="utf-8")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sombor-trees",
        description="Maximum Sombor index over trees with a fixed independence number.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="brute-force check of the closed form over a range of orders")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (orders are independent)")
    p.add_argument("--csv", type=Path, default=None, help="also write the table as CSV")
    p.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP,
                   help=f"raise the order cap beyond {DEFAULT_VERIFY_CAP} (slow)")

    p = sub.add_parser("compute", help="invariants of a tree read from an edge-list file")
    p.add_argument("--input", type=Path, required=True)

    p = sub.add_parser("construct", help="write the extremal tree for (n, alpha)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--output", type=Path, required=True)

    p = sub.add_parser("table", help="CSV of every feasible cell up to n-max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP)

    p = sub.add_parser("enumerate", help="stream the trees of one order, optionally alpha-filtered")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, default=None)
    return ap


def _check_orders(n_min: int, n_max: int, cap: int) -> None:
    """verify.check_orders, then a warning on stderr when the range it accepted
    has a cap raised above the default."""
    check_orders(n_min, n_max, cap)
    if cap > DEFAULT_VERIFY_CAP:
        print(f"warning: cap raised to {cap}; family sizes grow quickly", file=sys.stderr)


def _cmd_verify(args) -> int:
    _check_orders(args.n_min, args.n_max, args.cap)
    with _open_output(args.csv) as csv:
        report = verify(args.n_min, args.n_max, jobs=args.jobs, cap=args.cap)
        _write_stdout([render_text(report)])
        if csv is not None:
            csv.write(to_csv(report))
    return 0 if report.overall else 1


def _cmd_compute(args) -> int:
    t = parse_edge_list(args.input.read_text(encoding="utf-8"))
    levels = canonical_levels(t)
    so, alpha = _kernels.tree_stats_from_levels(levels)
    label = classify(t)
    _write_stdout([f"SO={so:.9f} alpha={alpha} class={label.value}\n"
                   f"levels={','.join(map(str, levels))}\n"])
    return 0


def _cmd_construct(args) -> int:
    t = construct_t_star(args.n, args.alpha)
    args.output.write_text(format_edge_list(t), encoding="utf-8")
    return 0


def _cmd_table(args) -> int:
    _check_orders(2, args.n_max, args.cap)
    with _open_output(args.output) as out:
        report = verify(2, args.n_max, cap=args.cap)
        out.write(to_csv(report))
    print(f"wrote {len(report.records)} rows to {args.output}", file=sys.stderr)
    return 0 if report.overall else 1


def _cmd_enumerate(args) -> int:
    # imported here: the record generator runs the pure walk on either
    # backend, and the other subcommands of a compiled run never load it
    from .enumeration import enumerate_family

    if not _write_stdout(enumerate_family(args.n, args.alpha), sep="\n"):
        print("family empty", file=sys.stderr)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "compute": _cmd_compute,
    "construct": _cmd_construct,
    "table": _cmd_table,
    "enumerate": _cmd_enumerate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SomborTreesError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())

