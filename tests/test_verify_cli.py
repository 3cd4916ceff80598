"""Verification driver records/CSV and the CLI surface end to end."""

import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from sombor_trees._kernels import pure
from sombor_trees import _kernels, cli
from sombor_trees.cli import main
from sombor_trees.errors import SizeLimitError, WorkerError
from sombor_trees.extremal import construct_t_star
from sombor_trees.tree import Tree, format_edge_list
from sombor_trees.verify import (
    VerificationReport,
    _float_error,
    render_text,
    to_csv,
    verify,
)

from conftest import (
    ROOT,
    IsoClassInterner,
    random_tree,
    relabel,
    star_of_order,
)

B = cli._WRITE_BATCH  # characters per batched stdout write


def _record(order, alpha):
    """The (order, alpha) row of verify(order, order)."""
    (rec,) = [r for r in verify(order, order).records if r.alpha == alpha]
    return rec


class TestVerifyDriver:
    def test_n5_cells(self):
        report = verify(5, 5)
        assert [(r.order, r.alpha) for r in report.records] == [(5, 3), (5, 4)]
        assert report.overall
        star_cell = report.records[1]
        assert star_cell.family_size == 1
        assert star_cell.brute_force_max == pytest.approx(4 * math.sqrt(17), abs=1e-9)
        assert math.isinf(star_cell.margin_to_second)

    def test_n2_single_cell(self):
        report = verify(2, 2)
        (rec,) = report.records
        assert (rec.order, rec.alpha, rec.family_size) == (2, 1, 1)
        assert rec.brute_force_max == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_6_4_unique_maximizer(self):
        rec = _record(6, 4)
        assert rec.family_size == 3
        assert rec.maximizer_count == 1
        assert rec.brute_force_max == pytest.approx(
            3 * math.sqrt(17) + math.sqrt(20) + math.sqrt(5), abs=1e-9
        )
        assert rec.maximizer_levels == (0, 1, 2, 1, 1, 1)
        interner = IsoClassInterner()
        assert interner.class_id_of_tree(Tree.from_level_sequence(rec.maximizer_levels)) == (
            interner.class_id_of_tree(construct_t_star(6, 4))
        )

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            verify(2, 17)
        with pytest.raises(SizeLimitError):
            verify(2, 11, cap=10)
        assert verify(10, 11, cap=11).overall  # explicit override works

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            verify(5, 3)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            verify(2, 5, jobs=jobs)

    def test_parallel_matches_serial(self):
        serial = verify(2, 9)
        parallel = verify(2, 9, jobs=2)
        assert to_csv(serial) == to_csv(parallel)

    def test_csv_invariant_under_jobs(self):
        # orders fan out largest first; the report must not show it
        texts = [to_csv(verify(2, 11, jobs=j)) for j in (1, 2, 3)]
        assert texts[0] == texts[1] == texts[2]

    def test_one_timing_per_order(self):
        report = verify(3, 7)
        assert len(report.order_seconds) == 5
        assert all(secs >= 0.0 for secs in report.order_seconds)

    def test_report_fails_on_doctored_record(self):
        rec = _record(6, 4)
        assert rec.passed
        wrong_value = rec._replace(closed_form=rec.closed_form + 1.0)
        wrong_tree = rec._replace(maximizer_levels=(0, 1, 2, 3, 1, 2))  # P6
        near_tie = rec._replace(
            margin_to_second=_float_error(rec.order, rec.brute_force_max) / 2
        )
        exact_tie = rec._replace(maximizer_count=2)
        for bad in (wrong_value, wrong_tree, near_tie, exact_tie):
            assert not bad.passed
            assert not VerificationReport(records=(bad,), order_seconds=(0.0,)).overall

    def test_exact_tie_that_rounds_apart_fails_safe(self, monkeypatch, capsys):
        # two classes of equal exact Sombor index whose sums round one ulp
        # apart: a single maximizer, and a margin far below the bound
        real = _kernels.order_fold

        def fold(order):
            cells = real(order)
            size, best, _, _, first = cells[4]
            cells[4] = (size, best, math.nextafter(best, -math.inf), 1, first)
            return cells

        monkeypatch.setattr(_kernels, "order_fold", fold)
        (rec,) = [r for r in verify(6, 6).records if r.alpha == 4]
        assert rec.formula_matches and rec.maximizer_count == 1
        assert rec.margin_to_second > 0
        assert not rec.passed
        assert main(["verify", "--n-min", "6", "--n-max", "6"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1e-1, 1e3])
    def test_verdict_does_not_hang_on_the_bound(self, monkeypatch, scale):
        default = to_csv(verify(2, 14))
        # the package's attribute verify is the function, not the module
        module = importlib.import_module("sombor_trees.verify")
        monkeypatch.setattr(module, "_float_error", lambda n, s: scale * _float_error(n, s))
        assert to_csv(verify(2, 14)) == default

    def test_a_bound_below_the_closed_forms_rounding_fails_only_those_cells(
        self, monkeypatch
    ):
        # closed and brute differ by up to 8.4% of the bound at n <= 14; cut
        # to 1e-3 of it, the bound fails exactly the cells where they differ,
        # and every margin still clears it
        report = verify(2, 14)
        gaps = {(r.order, r.alpha) for r in report.records if r.closed_form != r.brute_force_max}
        assert gaps and report.overall
        module = importlib.import_module("sombor_trees.verify")
        monkeypatch.setattr(module, "_float_error", lambda n, s: 1e-3 * _float_error(n, s))
        failed = {(r.order, r.alpha) for r in report.records if not r.passed}
        assert failed == gaps

    def test_reference_margins_clear_the_bound_by_far(self):
        # the benchmark's reference table (n <= 20), read, never written; the
        # active backend's pipeline gives its header and n <= 14 rows byte
        # for byte
        text = (ROOT / "perfbench" / "reference" / "verify.csv").read_text(encoding="utf-8")
        header, *lines = text.splitlines(keepends=True)
        rows = [line.split(",") for line in lines]
        finite = [(int(r[0]), float(r[4]), float(r[6])) for r in rows if r[6] != "inf"]
        assert len(rows) == 100 and finite
        for n, best, margin in finite:
            assert margin >= 1e12 * 2 * _float_error(n, best), (n, best, margin)
        head = "".join(line for line, r in zip(lines, rows) if int(r[0]) <= 14)
        assert to_csv(verify(2, 14)) == header + head


class TestCsv:
    def test_header_and_star_row(self):
        text = to_csv(verify(2, 6))
        lines = text.splitlines()
        assert lines[0] == (
            "n,alpha,family_size,closed_form,brute_force_max,"
            "maximizer_count,margin_to_second,pass"
        )
        assert "6,5,1,25.495097568,25.495097568,1,inf,true" in lines

    def test_row_count_matches_feasible_cells(self):
        lines = to_csv(verify(2, 8)).splitlines()
        expected = sum((n - 1) - (n + 1) // 2 + 1 for n in range(2, 9))
        assert len(lines) - 1 == expected == 16

    def test_render_text_mentions_overall(self):
        assert "overall: PASS" in render_text(verify(2, 6))

    def test_render_text_rows_carry_no_timing(self):
        *rows, summary = render_text(verify(2, 6)).splitlines()
        assert rows and not any("time=" in row for row in rows)
        assert summary.startswith("overall: PASS") and "total " in summary


class TestCliCompute:
    def test_star_output(self, tmp_path, capsys):
        path = tmp_path / "s5.txt"
        path.write_text(format_edge_list(star_of_order(5)))
        assert main(["compute", "--input", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["SO=16.492422502 alpha=4 class=Star", "levels=0,1,1,1,1"]

    def test_t_star_output(self, tmp_path, capsys):
        path = tmp_path / "t64.txt"
        path.write_text(format_edge_list(construct_t_star(6, 4)))
        assert main(["compute", "--input", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["SO=19.077520809 alpha=4 class=TStar", "levels=0,1,2,1,1,1"]

    def test_relabeled_input_gives_the_same_lines(self, tmp_path, capsys):
        path = tmp_path / "t64.txt"
        path.write_text(format_edge_list(relabel(construct_t_star(6, 4), [5, 2, 0, 4, 1, 3])))
        assert main(["compute", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "SO=19.077520809 alpha=4 class=TStar\nlevels=0,1,2,1,1,1\n"

    def test_self_loop_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 1\n0 2\n")
        assert main(["compute", "--input", str(path)]) == 2
        assert "line 2: self-loop" in capsys.readouterr().err

    def test_cycle_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "cyc.txt"
        path.write_text("4\n0 1\n1 2\n2 0\n")
        assert main(["compute", "--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["compute", "--input", str(tmp_path / "nope.txt")]) == 2

    def test_mutated_inputs_exit_0_or_2(self, tmp_path, capsys):
        # seeded fuzz: valid edge lists with a few byte edits each; every run
        # succeeds or is an input error with exactly one diagnostic line
        rng = random.Random(1414)
        alphabet = b"0123456789 \n\t-+x\xff"
        path = tmp_path / "fuzz.txt"
        for case in range(3000):
            t = random_tree(rng.randrange(1, 13), rng)
            data = bytearray(format_edge_list(t), "ascii")
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(len(data) + 1)
                edit = rng.randrange(4)
                if edit == 0 and i < len(data):
                    del data[i]
                elif edit == 1:
                    data.insert(i, rng.choice(alphabet))
                elif edit == 2 and i < len(data):
                    data[i] = rng.choice(alphabet)
                else:  # repeat a line
                    lines = data.split(b"\n")
                    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
                    data = bytearray(b"\n".join(lines))
            path.write_bytes(bytes(data))
            code = main(["compute", "--input", str(path)])
            captured = capsys.readouterr()
            assert code in (0, 2), (case, bytes(data))
            if code == 2:
                assert not captured.out, (case, bytes(data))
                assert len(captured.err.splitlines()) == 1, (case, bytes(data))
                assert captured.err.startswith("error: "), (case, bytes(data))


class TestCliConstruct:
    def test_star_file_bytes(self, tmp_path):
        out = tmp_path / "star.txt"
        assert main(["construct", "--n", "6", "--alpha", "5", "--output", str(out)]) == 0
        assert out.read_text() == "6\n0 1\n0 2\n0 3\n0 4\n0 5\n"

    def test_infeasible_alpha_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = main(["construct", "--n", "6", "--alpha", "2", "--output", str(out)])
        assert code == 2
        assert "alpha must be in [3, 5]" in capsys.readouterr().err
        assert not out.exists()

    def test_round_trip_through_compute(self, tmp_path, capsys):
        out = tmp_path / "t85.txt"
        assert main(["construct", "--n", "8", "--alpha", "5", "--output", str(out)]) == 0
        assert main(["compute", "--input", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "alpha=5" in stdout and "class=TStar" in stdout


class TestCliEnumerate:
    def test_two_records_for_order_4(self, capsys):
        assert main(["enumerate", "--n", "4"]) == 0
        records = capsys.readouterr().out.strip().split("\n\n")
        assert len(records) == 2

    def test_family_filter(self, capsys):
        assert main(["enumerate", "--n", "7", "--alpha", "4"]) == 0
        records = capsys.readouterr().out.strip().split("\n\n")
        assert len(records) == 6

    def test_empty_family_notice(self, capsys):
        # an alpha out of range is an empty family too: exit 0, where an
        # IndexError would exit 1, the exit code of a violation
        for alpha in ["2", "7", "-1", "1000000000"]:
            assert main(["enumerate", "--n", "6", f"--alpha={alpha}"]) == 0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "family empty" in captured.err

    @pytest.mark.parametrize("sep", ["", "\n"], ids=["no-sep", "newline"])
    @pytest.mark.parametrize(
        "chunks, writes",
        [
            pytest.param(["3\n0 1\n", "", "2\n0 1\n"], 1, id="never-fills"),
            pytest.param(["x" * (B - 1), "y", "z" * 5, "w"], 2, id="fills-mid-stream"),
            pytest.param(["x" * (B // 2), "y" * (B - B // 2)], 1, id="fills-at-last-chunk"),
            pytest.param([chr(97 + i) * (B // 3 + i) for i in range(16)], 6, id="several-batches"),
            pytest.param([], 0, id="empty"),
        ],
    )
    def test_batched_writes_keep_the_bytes(self, monkeypatch, chunks, writes, sep):
        calls = []

        class Stdout(io.StringIO):
            def write(self, text):
                calls.append(len(text))
                return super().write(text)

        out = Stdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli._write_stdout(iter(chunks), sep=sep) == len(chunks)
        assert out.getvalue() == sep.join(chunks)
        assert len(calls) == writes

    def test_cap_is_a_usage_error(self, capsys):
        assert main(["enumerate", "--n", "21"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_stdout_matches_reference_digests(self, backend, request, monkeypatch, capsys):
        # the benchmark's reference bytes with either backend bound.  enumerate
        # runs the pure walk on both and calls no backend callable
        reference = json.loads(
            (ROOT / "perfbench" / "reference" / "enumerate.json").read_text(encoding="utf-8")
        )
        kern = pure if backend == "pure" else request.getfixturevalue("compiled")
        calls = []

        def spy(fn):
            def wrapped(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(_kernels, "iter_level_sequences", spy(kern.iter_level_sequences))
        monkeypatch.setattr(_kernels, "tree_stats_from_levels", spy(kern.tree_stats_from_levels))
        for n, alpha in [(8, 5), (17, 11)]:
            assert main(["enumerate", "--n", str(n), "--alpha", str(alpha)]) == 0
            out = capsys.readouterr().out.encode("utf-8")
            assert hashlib.sha256(out).hexdigest() == reference[f"{n},{alpha}"], (n, alpha)
        assert calls == []

    def test_reader_closing_the_pipe_is_no_error(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, "-m", "sombor_trees"]
        proc = subprocess.Popen(
            cmd + ["enumerate", "--n", "14"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"14\n"
        proc.stdout.close()  # far more output than the pipe buffer is still to come
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""

        # The reader is gone before the first write; verify still writes its
        # CSV and exits by its verdict.
        csv_path = tmp_path / "report.csv"
        edges_path = tmp_path / "tree.txt"
        edges_path.write_text(format_edge_list(construct_t_star(9, 6)))
        for argv in (
            ["verify", "--n-max", "12", "--csv", str(csv_path)],
            ["compute", "--input", str(edges_path)],
        ):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(
                    cmd + argv, stdout=write_end, stderr=subprocess.PIPE,
                    env=env, timeout=120,
                )
            finally:
                os.close(write_end)
            assert (done.returncode, done.stderr) == (0, b""), argv
        assert csv_path.read_text(encoding="utf-8") == to_csv(verify(2, 12))


class TestCliVerifyAndTable:
    def test_verify_passes_and_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        code = main(
            ["verify", "--n-min", "2", "--n-max", "8", "--csv", str(csv_path)]
        )
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert csv_path.read_text().startswith("n,alpha,")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--n-max", "3", "--csv"], ["table", "--n-max", "3", "--output"]],
        ids=["verify", "table"],
    )
    def test_unwritable_output_fails_before_the_fold(self, argv, tmp_path, monkeypatch, capsys):
        def no_fold(n):
            raise AssertionError("folded before opening the output")

        monkeypatch.setattr(_kernels, "order_fold", no_fold)
        path = tmp_path / "missing" / "x.csv"
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory") and str(path) in err
        assert not path.parent.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n-max", "17", "--csv"],
            ["verify", "--n-min", "6", "--n-max", "3", "--csv"],
            ["table", "--n-max", "1", "--output"],
            ["table", "--n-max", "11", "--cap", "10", "--output"],
            # a raised cap warns only once the range is accepted
            ["verify", "--n-max", "40", "--cap", "30", "--csv"],
            ["table", "--n-max", "40", "--cap", "30", "--output"],
        ],
        ids=["verify-cap", "verify-range", "table-range", "table-cap",
             "verify-raised-cap", "table-raised-cap"],
    )
    def test_rejected_range_leaves_the_output_untouched(self, argv, tmp_path, capsys):
        path = tmp_path / "old.csv"
        old = to_csv(verify(2, 4)).encode("utf-8")
        path.write_bytes(old)
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert path.read_bytes() == old

    def test_verify_cap_error(self, capsys):
        assert main(["verify", "--n-max", "17"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--n-max", "5", "--cap", "17", "--csv"],
         ["table", "--n-max", "5", "--cap", "17", "--output"]],
        ids=["verify", "table"],
    )
    def test_raised_cap_warns(self, argv, tmp_path, capsys):
        assert main([*argv, str(tmp_path / "x.csv")]) == 0
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "warning: cap raised to 17; family sizes grow quickly"

    def test_table_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["table", "--n-max", "10", "--output", str(a)]) == 0
        assert main(["table", "--n-max", "10", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify"])  # missing required --n-max
        assert info.value.code == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line itself
        return exc.code


USAGE_ERRORS = {
    "verify": [
        ["verify", "--n-min", "1", "--n-max", "5"],
        ["verify", "--n-min", "0", "--n-max", "0"],
        ["verify", "--n-max", "1"],
        ["verify", "--n-min", "6", "--n-max", "3"],
        ["verify", "--n-max", "17"],
        ["verify", "--n-max", "five"],
        ["verify", "--n-max", "3", "--jobs", "0"],
        ["verify", "--n-max", "3", "--jobs", "-1"],
        ["verify", "--n-max", "3", "--jobs", "x"],
        # orders beyond a C int fail before any kernel call or allocation
        ["verify", "--n-max", "2147483648", "--cap", "2147483648"],
        ["verify", "--n-max", str(10**20), "--cap", str(10**20)],
    ],
    "compute": [
        ["compute", "--input", "{tmp}/missing.txt"],
        ["compute", "--input", "{tmp}/bad.txt"],
        ["compute", "--input", "{tmp}/not_utf8.txt"],
    ],
    "construct": [
        ["construct", "--n", "0", "--alpha", "0", "--output", "{tmp}/t.txt"],
        ["construct", "--n", "6", "--alpha", "6", "--output", "{tmp}/t.txt"],
    ],
    "table": [
        ["table", "--n-max", "1", "--output", "{tmp}/t.csv"],
        ["table", "--n-max", "-4", "--output", "{tmp}/t.csv"],
        ["table", "--n-max", "17", "--output", "{tmp}/t.csv"],
        ["table", "--n-max", "2147483648", "--cap", "2147483648",
         "--output", "{tmp}/t.csv"],
        ["table", "--n-max", str(10**20), "--cap", str(10**20),
         "--output", "{tmp}/t.csv"],
    ],
    "enumerate": [
        ["enumerate", "--n", "0"],
        ["enumerate", "--n", "-3", "--alpha", "1"],
        ["enumerate", "--n", "21"],
    ],
}


def _raise_in_worker(order):
    raise RuntimeError(f"order {order}")


class TestExitCodeContract:
    """0 pass, 1 theorem violation, 2 usage or input error: never 1 for bad input."""

    @pytest.mark.parametrize("command", sorted(USAGE_ERRORS))
    def test_usage_error_cannot_exit_1(self, command, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("3\n0 1\n")
        (tmp_path / "not_utf8.txt").write_bytes(b"\xff\xfe\n")
        for argv in USAGE_ERRORS[command]:
            argv = [a.format(tmp=tmp_path) for a in argv]
            assert _exit_code(argv) == 2, argv
            assert "error" in capsys.readouterr().err, argv

    def test_worker_failure_is_an_error(self, monkeypatch, capsys):
        # every worker exits at once, with its first order as the exit code
        module = importlib.import_module("sombor_trees.verify")
        monkeypatch.setattr(module, "_verify_order", os._exit)
        with pytest.raises(WorkerError):
            verify(2, 6, jobs=2)
        assert main(["verify", "--n-max", "6", "--jobs", "2"]) == 2
        assert "error: worker process failed" in capsys.readouterr().err

    def test_worker_exception_is_an_error(self, monkeypatch, capsys):
        # a worker's exception exits 2 like its death, never 1 like a violation
        module = importlib.import_module("sombor_trees.verify")
        monkeypatch.setattr(module, "_verify_order", _raise_in_worker)
        with pytest.raises(WorkerError, match="exit code 1"):
            verify(2, 6, jobs=2)
        assert main(["verify", "--n-max", "6", "--jobs", "2"]) == 2
        assert "error: worker process failed" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)


class TestForkFanOut:
    @pytest.mark.parametrize(
        "jobs, shares",
        [
            (2, [[20], list(range(19, 1, -1))]),
            (3, [[20], [19], list(range(18, 1, -1))]),
        ],
    )
    def test_largest_orders_alone_then_the_rest_in_one_child(self, monkeypatch, jobs, shares):
        # each order reports the process that folded it in place of its seconds
        module = importlib.import_module("sombor_trees.verify")
        monkeypatch.setattr(module, "_verify_order", lambda n: ([], os.getpid()))
        pids = verify(2, 20, jobs=jobs, cap=20).order_seconds
        by_child = {}
        for n, pid in zip(range(20, 1, -1), reversed(pids)):
            by_child.setdefault(pid, []).append(n)
        assert os.getpid() not in by_child
        assert list(by_child.values()) == shares

    def test_a_failed_worker_stops_the_others(self, monkeypatch):
        # the child of order 6 fails at once while the other sleeps: the parent
        # kills and reaps it instead of waiting
        def fail_or_sleep(order):
            if order == 6:
                raise RuntimeError("order 6")
            time.sleep(60)

        module = importlib.import_module("sombor_trees.verify")
        monkeypatch.setattr(module, "_verify_order", fail_or_sleep)
        start = time.perf_counter()
        with pytest.raises(WorkerError, match=r"share \[6\], exit code 1"):
            verify(2, 6, jobs=2)
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_never_flushes_the_parents_stdout(self):
        # a child that left through sys.exit would flush the unwritten line again
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys\n"
            "from sombor_trees.verify import verify\n"
            "sys.stdout.write('before the fan-out\\n')\n"
            "assert verify(2, 8, jobs=2).overall\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"before the fan-out\n"


POOL_MODULES = {"concurrent.futures", "multiprocessing"}


def _imports(*args, backend=None):
    """(exit code, names of the modules imported) of ``python -X importtime
    args`` in a fresh interpreter with the package's source first on the path,
    under SOMBOR_TREES_BACKEND=backend when one is given."""
    env = dict(os.environ)
    if backend is not None:
        env["SOMBOR_TREES_BACKEND"] = backend
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    return done.returncode, names


class TestPoolImport:
    def test_no_run_imports_a_pool(self):
        code, names = _imports("-c", "import sombor_trees, sombor_trees.cli")
        assert code == 0 and "sombor_trees.cli" in names
        assert not names & POOL_MODULES
        for run, fans_out in (
            (["--n-max", "6"], False),
            (["--n-min", "6", "--n-max", "6", "--jobs", "2"], False),  # one order
            (["--n-max", "6", "--jobs", "2"], True),
        ):
            code, names = _imports("-m", "sombor_trees", "verify", *run)
            assert code == 0 and "sombor_trees.verify" in names, run
            assert not names & POOL_MODULES, run
            assert ("sombor_trees._fanout" in names) == fans_out, run
        # the control: an import of a pool module shows in the list
        code, names = _imports("-c", "import multiprocessing")
        assert code == 0 and "multiprocessing" in names


# dataclasses pulls in inspect, and with it ast, dis, tokenize and linecache;
# transforms holds the proof's moves, which no subcommand runs
STARTUP_HEAVY = {"dataclasses", "inspect", "sombor_trees.transforms"}


def _starts(tmp_path):
    """The benchmark's import probe and one start of each subcommand, as
    interpreter arguments by name."""
    tree = tmp_path / "tree.txt"
    tree.write_text(format_edge_list(construct_t_star(7, 4)))
    return {
        "probe": ("-c", "import sombor_trees, sombor_trees.cli"),
        "verify": ("-m", "sombor_trees", "verify", "--n-max", "6"),
        "table": ("-m", "sombor_trees", "table", "--n-max", "5",
                  "--output", str(tmp_path / "table.csv")),
        "enumerate": ("-m", "sombor_trees", "enumerate", "--n", "6", "--alpha", "4"),
        "compute": ("-m", "sombor_trees", "compute", "--input", str(tree)),
        "construct": ("-m", "sombor_trees", "construct", "--n", "7", "--alpha", "4",
                      "--output", str(tmp_path / "t_star.txt")),
    }


def _compiled_loads():
    try:
        from sombor_trees._kernels import _speedups  # noqa: F401
    except ImportError:
        return False
    return True


class TestStartupImports:
    def test_no_command_imports_dataclasses(self, tmp_path):
        for args in _starts(tmp_path).values():
            code, names = _imports(*args)
            assert code == 0 and "sombor_trees.cli" in names, args
            assert not names & STARTUP_HEAVY, args
        # the controls: the guard sees these modules when they are imported
        code, names = _imports("-c", "import dataclasses")
        assert code == 0 and names >= {"dataclasses", "inspect"}
        code, names = _imports("-c", "import sombor_trees.transforms")
        assert code == 0 and "sombor_trees.transforms" in names

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_only_compute_and_construct_load_the_tree_layer(self, tmp_path, backend):
        # under PYTHONDONTWRITEBYTECODE every start compiles what it imports;
        # the walk, the fold and the records build no Tree, so no verify,
        # table or enumerate start, nor the benchmark's probe, loads tree.py
        if backend == "compiled" and not _compiled_loads():
            pytest.skip("the compiled extension does not load")
        starts = _starts(tmp_path)
        kernel = {"pure": "pure", "compiled": "_speedups"}[backend]
        for name in ("probe", "verify", "table", "enumerate"):
            code, names = _imports(*starts[name], backend=backend)
            assert code == 0 and "sombor_trees.cli" in names, name
            assert f"sombor_trees._kernels.{kernel}" in names, name
            assert "sombor_trees.tree" not in names, name
        # the controls: the two subcommands that build a Tree do load it
        for name in ("compute", "construct"):
            code, names = _imports(*starts[name], backend=backend)
            assert code == 0 and "sombor_trees.tree" in names, name

    def test_a_compiled_start_loads_no_pure_kernels(self, tmp_path):
        # under PYTHONDONTWRITEBYTECODE every start compiles what it imports;
        # only enumerate, which runs the pure walk on either backend, needs
        # the pure module
        if _kernels.BACKEND != "compiled":
            pytest.skip("the pure backend is the pure module")
        starts = _starts(tmp_path)
        for name in ("probe", "verify", "compute"):
            code, names = _imports(*starts[name])
            assert code == 0 and "sombor_trees._kernels._speedups" in names, name
            assert "sombor_trees._kernels.pure" not in names, name
        # the control: enumerate does load it
        code, names = _imports(*starts["enumerate"])
        assert code == 0 and "sombor_trees._kernels.pure" in names
