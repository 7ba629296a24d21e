import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmparareal import analysis, cli, engine
from mmparareal.cli import CSV_HEADER, main
from mmparareal.engine import AlgorithmVariant, worker_pool
from mmparareal.propagators import EulerMicro, NonFiniteStateError
from mmparareal.systems import builtin_quadratic, builtin_toy

TOY_U0 = np.array([1.0, 0.0, 0.0])

# argv -> sha256 of the CSV on stdout, recorded before any change it guards.
CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def _no_run(*args, **kwargs):
    raise AssertionError("engine.run called")


def _blown_up_reference(prop, u0, n):
    # Module level, so that a pool task pickles it by name.
    raise NonFiniteStateError("non-finite state in the reference")


_fine_slab = engine._fine_slab


def _exit_in_worker(prop, states):
    # Module level, so that a pool task pickles it by name. A pool worker
    # running it dies; the calling process steps its own slab as usual.
    if multiprocessing.parent_process() is not None:
        os._exit(9)
    return _fine_slab(prop, states)


def run_to_file(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text()


class TestCsvShape:
    def test_header_and_row_layout(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "a.csv", "sweep-epsilon",
            "--epsilons", "1e-3", "--kmax", "2", "--workers", "1",
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3  # one epsilon, k = 0, 1, 2, final time only
        rows = rows_of(text)
        assert [r["k"] for r in rows] == ["0", "1", "2"]
        assert all(r["n"] == "100" for r in rows)
        assert all(r["system"] == "toy" for r in rows)
        assert all(r["algorithm"] == "2" for r in rows)

    def test_all_times_emits_every_endpoint(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "b.csv", "sweep-epsilon",
            "--epsilons", "1e-2", "--dt", "0.5", "--T", "1", "--kmax", "1",
            "--all-times", "--workers", "1",
        )
        assert code == 0
        rows = rows_of(text)
        assert len(rows) == 2 * 3  # (K+1) x (N+1)
        assert [r["n"] for r in rows] == ["0", "1", "2"] * 2

    def test_values_round_trip_against_library(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "c.csv", "sweep-dt", "--algorithm", "2",
            "--epsilons", "1e-4", "--dts", "0.2,0.1", "--kmax", "1",
            "--all-times", "--workers", "1",
        )
        assert code == 0
        expected = [CSV_HEADER]
        for dt in (0.2, 0.1):
            table = analysis.experiment_table(
                builtin_toy(1e-4), "toy", AlgorithmVariant.MATCHING,
                coarse="exact", fine="exact", dt=dt, t_final=10.0, kmax=1,
                u0=TOY_U0,
            )
            text_fields = (table.system, table.variant, table.coarse, table.fine)
            float_fields = (table.epsilon, table.dt, table.t_final)
            for k in range(len(table.abs_micro)):
                for n in range(table.n_intervals + 1):
                    errors = (
                        table.rel_macro[k, n], table.rel_micro[k, n],
                        table.abs_macro[k, n], table.abs_micro[k, n],
                    )
                    expected.append(",".join(
                        [str(v) for v in text_fields]
                        + [repr(float(v)) for v in float_fields]
                        + [str(k), str(n)]
                        + [repr(float(v)) for v in errors]
                    ))
        assert text == "\n".join(expected) + "\n"


def test_rk4_coarse_writes_the_library_rows(tmp_path):
    code, text = run_to_file(
        tmp_path, "rk4.csv", "sweep-epsilon", "--system", "quadratic",
        "--coarse", "rk4", "--epsilons", "1e-2", "--T", "1", "--kmax", "2",
        "--workers", "1",
    )
    assert code == 0
    table = analysis.experiment_table(
        builtin_quadratic(1.0, 1e-2), "quadratic", AlgorithmVariant.MATCHING,
        coarse="rk4", fine="euler", dt=0.1, t_final=1.0, kmax=2,
        u0=np.array([1.0, 0.0]), substep=1e-5,
    )
    rows = rows_of(text)
    assert [r["coarse"] for r in rows] == ["rk4"] * 3
    for k, r in enumerate(rows):
        assert r["k"] == str(k)
        assert float(r["rel_micro_error"]) == table.rel_micro[k, -1]
        assert float(r["rel_macro_error"]) == table.rel_macro[k, -1]
        assert float(r["abs_micro_error"]) == table.abs_micro[k, -1]
        assert float(r["abs_macro_error"]) == table.abs_macro[k, -1]


class TestDeterminism:
    ARGS = (
        "sweep-epsilon", "--epsilons", "1e-3,1e-4", "--kmax", "2",
        "--algorithm", "2",
    )

    def test_byte_stable_across_repeats(self, tmp_path):
        _, first = run_to_file(tmp_path, "r1.csv", *self.ARGS, "--workers", "1")
        _, second = run_to_file(tmp_path, "r2.csv", *self.ARGS, "--workers", "1")
        assert first == second

    def test_byte_stable_across_worker_counts(self, tmp_path):
        _, one = run_to_file(tmp_path, "w1.csv", *self.ARGS, "--workers", "1")
        _, two = run_to_file(tmp_path, "w2.csv", *self.ARGS, "--workers", "2")
        assert one == two

    def test_sweep_dt_groups_share_one_pool(self, tmp_path, monkeypatch):
        # Three dt groups, three engine runs: one pool serves them all, and
        # it is shut down, its workers joined, before main returns.
        pools = []

        def counted(workers):
            pools.append(workers)
            return worker_pool(workers)

        monkeypatch.setattr(engine, "worker_pool", counted)
        args = ("sweep-dt", "--dts", "0.2,0.1,0.05", "--epsilons", "1e-3",
                "--kmax", "2", "--all-times")
        _, one = run_to_file(tmp_path, "w1.csv", *args, "--workers", "1")
        assert pools == []
        _, two = run_to_file(tmp_path, "w2.csv", *args, "--workers", "2")
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert one == two
        assert {r["dt"] for r in rows_of(one)} == {"0.2", "0.1", "0.05"}

    def test_sweep_k_and_sweep_epsilon_write_identical_bytes(self, tmp_path):
        args = (*self.ARGS[1:], "--all-times", "--workers", "1")
        code_k, by_k = run_to_file(tmp_path, "k.csv", "sweep-k", *args)
        code_eps, by_eps = run_to_file(tmp_path, "e.csv", "sweep-epsilon", *args)
        assert code_k == code_eps == 0
        assert by_k == by_eps

    @pytest.mark.parametrize("command", list(CORPUS))
    def test_corpus_bytes_pinned(self, capsys, command):
        # Every accepted (system, fine, coarse, algorithm) through sweep-epsilon
        # and sweep-dt, one sweep-dt per system through a pool, and the longer
        # sweeps of the nonlinear systems and the toy's linear Euler fine
        # loop at 1 and 2 workers. Euler fine and coarse on the nonlinear
        # systems are elementwise IEEE-754 arithmetic only, so those digests
        # hold on any host. Like the verify report below, the toy's bits are
        # set by BLAS's matrix-vector product and scipy's exponential, so a
        # different BLAS build may move them.
        assert main(command.split()) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == CORPUS[command]

    def test_verify_report_bytes_pinned(self, capsys):
        # Unlike the CSVs above, the report prints round-off figures of
        # BLAS and LAPACK calls, so a different BLAS build may move them.
        assert main(["verify"]) == 0
        report = capsys.readouterr().out.encode()
        assert hashlib.sha256(report).hexdigest() == (
            "858c2662dbe372d641f86460e7423aca9194e76687f838b56fb2386f068a0830"
        )

    def test_metadata_stays_on_stderr(self, capsys):
        assert main(["sweep-epsilon", "--epsilons", "1e-3", "--kmax", "1",
                     "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)
        assert "#" not in captured.out
        assert "# system=toy" in captured.err

    def test_metadata_names_the_grid_that_runs(self, capsys):
        assert main(["sweep-dt", "--dts", "0.2", "--epsilons", "1e-3,1e-2",
                     "--T", "1", "--kmax", "1", "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert "dts=[0.2]" in captured.err
        assert "dt=0.1" not in captured.err
        # sweep-dt runs every dt at the first epsilon only.
        assert "epsilons=[0.001]\n" in captured.err
        assert "#" not in captured.out

    def test_metadata_names_the_epsilon_grid(self, capsys):
        assert main(["sweep-k", "--epsilons", "1e-3,1e-2", "--T", "1",
                     "--kmax", "1", "--workers", "1"]) == 0
        err = capsys.readouterr().err
        assert "dt=0.1 " in err
        assert "epsilons=[0.001, 0.01]\n" in err

    @pytest.mark.parametrize("extra", [[], ["--delta-t-fine", "0.03"]],
                             ids=["no-substep", "substep-given"])
    def test_exact_fine_metadata_shows_no_substep(self, capsys, extra):
        # An exact fine propagator steps no substeps, so a given one is not
        # echoed as if it ran; the CSV bytes are those without the option.
        assert main(["sweep-k", "--fine", "exact", *extra, "--epsilons", "1e-2",
                     "--T", "1", "--kmax", "1", "--workers", "1"]) == 0
        captured = capsys.readouterr()
        assert " substep=None kmax=1\n" in captured.err
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "2233e99d9a1629bb0a1c102b98b7a280e08b66755e6d6767df013b5bf336bdcd"
        )


def _emit_tables_rowwise(tables, all_times):
    # The row-by-row writer that cli._emit_tables replaced, kept as its oracle.
    lines = [CSV_HEADER]
    for t in tables:
        lead = (
            f"{t.system},{t.variant},{t.coarse},{t.fine},"
            f"{t.epsilon!r},{t.dt!r},{t.t_final!r}"
        )
        ns = range(t.n_intervals + 1) if all_times else [t.n_intervals]
        errors = np.stack(
            [t.rel_macro, t.rel_micro, t.abs_macro, t.abs_micro], axis=-1
        )[:, ns]
        for k, row in enumerate(errors):
            for n, cells in zip(ns, row.tolist()):
                lines.append(f"{lead},{k},{n}," + ",".join(map(repr, cells)))
    return "\n".join(lines) + "\n"


def _crafted_table(epsilon, lattices):
    n1 = lattices[0].shape[1]
    return analysis.ErrorTable(
        system="toy", variant=2, coarse="exact", fine="exact", epsilon=epsilon,
        dt=0.5, t_final=0.5 * (n1 - 1), n_intervals=n1 - 1,
        rel_macro=lattices[0], rel_micro=lattices[1],
        abs_macro=lattices[2], abs_micro=lattices[3],
        macro_denominator=1.0, micro_denominator=1.0,
    )


# Float64 bit patterns that random patterns seldom hit: +-0.0, the smallest
# and largest subnormals, +-inf, NaNs of either sign and with a payload, and
# ordinary values that repeat.
SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
    0x800FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
    0x7FF0000000000001, 0x3FF0000000000000, 0x3FB999999999999A,
]


@st.composite
def bit_pattern_tables(draw):
    """1-3 tables of random K and N whose cells are float64 bit patterns."""
    cell = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))
    tables = []
    for i in range(draw(st.integers(1, 3))):
        shape = (4, draw(st.integers(1, 4)), draw(st.integers(2, 6)))
        bits = draw(st.lists(cell, min_size=math.prod(shape),
                             max_size=math.prod(shape)))
        cells = np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)
        tables.append(_crafted_table(10.0 ** -i, list(cells)))
    return tables


class TestEmitTables:
    def _captured(self, monkeypatch, argv):
        seen = []

        def record(tables, all_times):
            seen.append(tables)
            return ""

        monkeypatch.setattr(cli, "_emit_tables", record)
        assert main([*argv, "--workers", "1"]) == 0
        monkeypatch.undo()
        tables, = seen
        return tables

    @pytest.mark.parametrize("all_times", [False, True])
    def test_sweep_k_tables_match_rowwise_writer(self, monkeypatch, all_times):
        tables = self._captured(monkeypatch, [
            "sweep-k", "--epsilons", "1e-4,1e-3,1e-2", "--T", "2", "--kmax", "4",
        ])
        expected = _emit_tables_rowwise(tables, all_times)
        assert cli._emit_tables(tables, all_times) == expected
        assert expected.count("\n") == 1 + 3 * 5 * (21 if all_times else 1)

    def test_sweep_dt_tables_of_mixed_n_match_rowwise_writer(self, monkeypatch):
        tables = self._captured(monkeypatch, [
            "sweep-dt", "--dts", "0.5,0.25,0.2", "--epsilons", "1e-3",
            "--T", "1", "--kmax", "2", "--all-times",
        ])
        assert [t.n_intervals for t in tables] == [2, 4, 5]
        for all_times in (False, True):
            assert cli._emit_tables(tables, all_times) == _emit_tables_rowwise(
                tables, all_times
            )

    def test_special_values_keep_their_own_repr(self):
        nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
        special = [0.0, -0.0, np.nan, -np.nan, nan_payload, np.inf, -np.inf,
                   5e-324, -5e-324, 0.1, 1e300, 2.0 ** -1074 * 3]
        values = np.array(special * 4).reshape(4, 3, 4)
        first = _crafted_table(1e-3, [values[:, :, j].copy() for j in range(4)])
        # The same values again, moved across columns, rows and tables.
        second = _crafted_table(1e-2, [np.roll(values[:, :, j], j) for j in range(4)])
        third = _crafted_table(1e-1, [np.zeros((2, 3)), np.full((2, 3), -0.0),
                                      np.full((2, 3), np.nan), values[:2, :, 0]])
        # A one-row table (K = 0, N = 1): the take on one row of cells.
        fourth = _crafted_table(1.0, [values[:1, :2, j].copy() for j in range(4)])
        tables = [first, second, third, fourth]
        for all_times in (False, True):
            text = cli._emit_tables(tables, all_times)
            assert text == _emit_tables_rowwise(tables, all_times)
        assert ",-0.0," in text and ",0.0," in text and ",nan," in text
        assert ",5e-324" in text and ",-inf" in text

    @settings(max_examples=50)
    @given(tables=bit_pattern_tables(), all_times=st.booleans())
    def test_any_bit_patterns_match_rowwise_writer(self, tables, all_times):
        assert cli._emit_tables(tables, all_times) == _emit_tables_rowwise(
            tables, all_times
        )

    def test_text_is_held_at_most_about_twice(self, monkeypatch):
        # The default toy sweep-k --all-times on its first 7 epsilons. The
        # writer holds the text in its buffer and in the returned copy, with
        # one table's block and cells beside them. A writer that also kept a
        # list of the blocks and their join read 3.4 times the text here.
        epsilons = ",".join(map(repr, cli.DEFAULT_EPS_GRID[:7]))
        tables = self._captured(monkeypatch, ["sweep-k", "--all-times",
                                              "--epsilons", epsilons])
        tracemalloc.start()
        try:
            text = cli._emit_tables(tables, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.9 * len(text)


class TestPackageEntryPoint:
    """`python -m mmparareal`, the package's __main__, as CI and the
    README run it: a fresh interpreter, its stdout and its exit code."""

    def _run(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run(
            [sys.executable, "-m", "mmparareal", "sweep-k", *argv,
             "--workers", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )

    def test_sweep_exits_0_with_the_csv_header(self):
        proc = self._run("--epsilons", "1e-3", "--T", "1", "--kmax", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == CSV_HEADER

    def test_config_error_exits_1(self):
        proc = self._run("--kmax", "-1")
        assert proc.returncode == 1
        assert "error: kmax must be >= 0" in proc.stderr


class TestValidationErrors:
    def test_unknown_algorithm(self, capsys):
        assert main(["sweep-epsilon", "--algorithm", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_epsilon_list(self, capsys):
        assert main(["sweep-epsilon", "--epsilons", ","]) == 1
        assert "at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--T", "inf"],
            ["--T", "1", "--fine", "euler", "--delta-t-fine", "1e-320"],
        ],
        ids=["T-inf", "substep-underflow"],
    )
    def test_nonfinite_step_ratio_exits_1_without_traceback(self, argv):
        # round() of an infinite t_final/dt or dt/substep raised
        # OverflowError; it must be a one-line config error.
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "mmparareal", "sweep-k", *argv,
             "--epsilons", "1e-2", "--workers", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_lattice_too_large_exits_1_without_traceback(self, capsys, workers):
        # N = 10^15 intervals: numpy refuses the 661 PiB lattice outright,
        # past any address space, so no memory is touched. A fresh
        # interpreter shows what a user sees; the in-process run checks
        # that the pool is shut down.
        argv = ["sweep-k", "--T", "1e12", "--dt", "1e-3", "--epsilons", "1e-2",
                "--workers", workers]
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "mmparareal", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("error: out of memory: Unable to allocate")
        assert "PiB" in last
        # Refused with the config, before the metadata and any pool.
        assert proc.stderr == last + "\n"
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: out of memory" in captured.err
        assert multiprocessing.active_children() == []

    def test_lost_pool_worker_exits_1_without_traceback(self, capsys, monkeypatch):
        # A worker that dies mid-task ends the command with one error line
        # after the metadata, and every worker is reaped.
        monkeypatch.setattr(engine, "_fine_slab", _exit_in_worker)
        argv = ["sweep-dt", "--system", "quadratic", "--dts", "0.1", "--kmax", "1",
                "--T", "1", "--workers", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        *metadata, last = captured.err.splitlines()
        assert metadata and all(line.startswith("# ") for line in metadata)
        assert last == (
            "error: a pool worker exited with code 9 before it returned its task"
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-k", "--dt", "1e-300", "--epsilons", "1e-2"],
            ["sweep-k", "--T", "1e15", "--dt", "1e-3", "--epsilons", "1e-2",
             "--kmax", "1"],
            ["sweep-dt", "--dts", "1e-300"],
            ["speedup", "--dt", "1e-300"],
        ],
        ids=["sweep-k-dt", "sweep-k-T", "sweep-dt", "speedup"],
    )
    def test_lattice_numpy_cannot_represent_exits_1(self, capsys, argv):
        # Rejected with the config, before the metadata and any pool.
        assert main([*argv, "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: t_final/dt = ")

    @pytest.mark.parametrize("system", ["toy", "quadratic"])
    def test_infinite_epsilon_exits_1(self, capsys, system):
        argv = ["sweep-k", "--system", system, "--epsilons", "1e-2,inf",
                "--T", "1", "--kmax", "1", "--workers", "1"]
        assert main(argv) == 1
        assert "error: --epsilons entries must be positive and finite" in (
            capsys.readouterr().err
        )

    def test_dt_not_dividing_t(self, capsys):
        assert main(["sweep-dt", "--dts", "0.3", "--epsilons", "1e-4",
                     "--kmax", "1", "--workers", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_dae_variant_needs_linear_model(self, capsys):
        assert main(["sweep-epsilon", "--system", "quadratic",
                     "--algorithm", "3"]) == 1
        assert "linear" in capsys.readouterr().err

    def test_exact_propagator_needs_linear_model(self, capsys):
        assert main(["sweep-epsilon", "--system", "brusselator",
                     "--fine", "exact"]) == 1
        assert "linear" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-dir", "dir"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, monkeypatch, target):
        # Rejected before any run, and nothing is created.
        monkeypatch.setattr(engine, "run", _no_run)
        out = tmp_path / target
        argv = ["sweep-k", "--T", "1", "--kmax", "1", "--workers", "1",
                "--epsilons", "1e-3", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: could not write --out" in err
        assert str(out) in err
        assert not (tmp_path / "missing").exists()

    def test_writable_out_is_not_created_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # The run fails after the --out check: no file is left behind.
        monkeypatch.setattr(engine, "_member_reference", _blown_up_reference)
        out = tmp_path / "x.csv"
        argv = ["sweep-k", "--T", "1", "--kmax", "1", "--epsilons", "1e-3",
                "--workers", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "NonFiniteStateError: non-finite state in the reference" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_sweep_dt_checks_every_group_before_running(self, capsys, monkeypatch):
        # dt = 0.1 is fine, dt = 0.3 does not divide T = 1.
        monkeypatch.setattr(engine, "run", _no_run)
        assert main(["sweep-dt", "--system", "brusselator", "--T", "1",
                     "--dts", "0.1,0.3", "--epsilons", "1e-3",
                     "--workers", "1"]) == 1
        assert "t_final/dt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep-dt", "speedup"])
    @pytest.mark.parametrize(
        "argv, config, match",
        [
            (["--system", "brusselator", "--T", "1.2", "--dts", "0.12,0.1",
              "--delta-t-fine", "6e-5", "--epsilons", "1e-3"], None, "dt/substep"),
            (["--system", "quadratic", "--algorithm", "3"], None, "linear"),
            (["--system", "brusselator", "--fine", "exact"], None, "linear"),
            ([], {"coarse": "rk7"}, "kind"),
            (["--kmax", "-1"], None, "kmax must be >= 0"),
            # An exact fine propagator steps no substep, but one given is
            # still checked.
            (["--fine", "exact", "--delta-t-fine", "-1"], None,
             "delta-t-fine must be positive"),
            (["--dt", "0"], None, "dt and T must be positive"),
            (["--T", "-1"], None, "dt and T must be positive"),
            ([], {"system": "foo"}, "unknown system 'foo' (choose from"),
            ([], [1, 2], "config file must hold a JSON object"),
        ],
        ids=["inexact-substep", "dae-nonlinear", "exact-fine-nonlinear",
             "unknown-coarse", "negative-kmax", "exact-fine-negative-substep",
             "zero-dt", "negative-T", "unknown-system-in-config",
             "config-not-an-object"],
    )
    def test_config_rejected_before_metadata_and_runs(
        self, tmp_path, capsys, monkeypatch, command, argv, config, match
    ):
        # Every config of the command is built, and so checked, before the
        # run metadata is printed and before any run.
        monkeypatch.setattr(engine, "run", _no_run)
        argv = [command, *argv, "--workers", "1"]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert match in err
        assert "# system=" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_exits_1_before_any_run(
        self, tmp_path, capsys, monkeypatch, source
    ):
        monkeypatch.setattr(engine, "run", _no_run)
        argv = ["sweep-k", "--T", "1", "--kmax", "1", "--epsilons", "1e-3",
                "--workers", "1"]
        if source == "flag":
            argv += ["--out", ""]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"out": ""}))
            argv += ["--config", str(path)]
        assert main(argv) == 1
        assert "error: could not write --out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kmax", "1.5"], "error: argument --kmax: invalid int value"),
            (["--bogus"], "error: unrecognized arguments: --bogus"),
            (["--system", "foo"], "error: argument --system: invalid choice"),
            (["--workers", "0"], "error: workers must be >= 1"),
        ],
        ids=["kmax-not-int", "unknown-flag", "unknown-system", "zero-workers"],
    )
    def test_rejected_flag_exits_1_with_one_error_line(
        self, capsys, monkeypatch, argv, message
    ):
        # An argparse error is a config error, exit 1, not argparse's own
        # exit 2, which is the numerical-failure code.
        monkeypatch.setattr(engine, "run", _no_run)
        assert main(["sweep-k", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(message)

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"stepsize": 0.1}))
        assert main(["sweep-epsilon", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["sweep-epsilon", "--config", str(cfg)]) == 1
        assert "could not read config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"dt": [0.1]},
            {"u0": 5},
            {"epsilons": 0.001},
            {"all_times": "false"},
            {"kmax": 1.7},
            {"workers": 2.5},
            {"algorithm": "2"},
            {"out": 3},
            {"out": None},
        ],
        ids=[
            "dt-list",
            "u0-number",
            "epsilons-number",
            "all-times-string",
            "kmax-float",
            "workers-float",
            "algorithm-string",
            "out-number",
            "out-null",
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, config):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(config))
        argv = ["sweep-k", "--config", str(cfg)]
        # A flag would win over the config value under test.
        for key, value in (("kmax", "1"), ("workers", "1"), ("epsilons", "1e-3")):
            if key not in config:
                argv += [f"--{key}", value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        (key,) = config
        assert key in err


class TestNumericalFailure:
    def test_unstable_fine_substep_exits_1(self, capsys):
        # delta-t-fine far beyond the fast-block stability limit is rejected
        # before any stepping, naming the largest stable substep.
        code = main([
            "sweep-epsilon", "--fine", "euler", "--delta-t-fine", "0.05",
            "--epsilons", "1e-5", "--kmax", "1", "--workers", "1",
        ])
        assert code == 1
        assert "stable substeps are below 4.00016e-05" in capsys.readouterr().err

    def test_grid_guard_fires_before_any_step(self, monkeypatch, capsys):
        # The stable epsilon comes first, but one run builds the propagator
        # of every grid member before its first step, so 5e-6 is rejected
        # without stepping 1e-3.
        def no_step(self, u):
            raise AssertionError("stepped before the stiffness guard")

        monkeypatch.setattr(EulerMicro, "step", no_step)
        code = main([
            "sweep-epsilon", "--fine", "euler", "--delta-t-fine", "2.5e-5",
            "--epsilons", "1e-3,5e-6", "--T", "1", "--workers", "1",
        ])
        assert code == 1
        assert "stable substeps are below 2.00004e-05" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("epsilon", ["5e-6", "4e-6"])
    def test_substep_at_stability_edge_exits_1(self, capsys, epsilon, workers):
        # The default substep 1e-5 is 2 epsilon at 5e-6: explicit Euler's
        # edge, where the reference itself was wrong (rel_micro_error 0.94
        # at k=0) and the run exited 0. At 4e-6 it overflowed, exit 2.
        code = main([
            "sweep-epsilon", "--system", "quadratic", "--epsilons", epsilon,
            "--T", "0.1", "--workers", workers, "--out", os.devnull,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"stable substeps are below {2 * float(epsilon):g}" in err

    def test_fine_blow_up_exits_2_without_warning(self, tmp_path):
        # From u0 = (-2, 4) the quadratic's slow model blows up at t = ln 2:
        # with T = 0.8 the Euler coarse orbit stays finite for its 8 steps,
        # and the fine reference overflows in interval 8, at a substep the
        # stability guard admits.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": [-2.0, 4.0]}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "mmparareal", "sweep-epsilon",
             "--system", "quadratic", "--epsilons", "1e-3", "--T", "0.8",
             "--kmax", "1", "--workers", "1", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "NonFiniteStateError: non-finite state in Euler micro step" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_blow_up_names_iteration_stage_and_dt(self, capsys):
        # At dt = 0.2 the Brusselator's single-step Euler coarse sweep stays
        # finite in the init sweep and overflows in iteration 0's corrected
        # sweep.
        code = main(["sweep-dt", "--system", "brusselator", "--dts", "0.2",
                     "--workers", "1"])
        assert code == 2
        assert (
            "NonFiniteStateError: non-finite state in Euler macro step; "
            "iteration 0, stage 2c (corrected sweep), dt=0.2"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [[], ["--workers", "1"]],
                             ids=["default", "workers-1"])
    def test_brusselator_sweep_dt_defaults_fail_at_dt_0_2(
        self, capsys, monkeypatch, workers
    ):
        # The README's known failure, with every other flag at its default.
        # Without a pool the run fails before its reference is stepped.
        references = []
        real_reference = engine._member_reference

        def spy(*args):
            references.append(args)
            return real_reference(*args)

        monkeypatch.setattr(engine, "_member_reference", spy)
        assert main(["sweep-dt", "--system", "brusselator", *workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "numerical failure: NonFiniteStateError: non-finite state in Euler "
            "macro step; iteration 0, stage 2c (corrected sweep), dt=0.2\n"
        )
        if workers:
            assert references == []
        assert multiprocessing.active_children() == []

    def test_coarse_blow_up_exits_2_without_warning(self, tmp_path):
        # From u0 = (-2, 4) the quadratic's Euler coarse orbit overflows in
        # the init sweep. Run in a fresh interpreter, whose stderr shows any
        # RuntimeWarning the way a user sees it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": [-2.0, 4.0]}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "mmparareal", "sweep-epsilon",
             "--system", "quadratic", "--epsilons", "1e-3", "--kmax", "1",
             "--workers", "1", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "numerical failure" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"epsilons": [1e-3], "kmax": 1, "algorithm": 1}
        ))
        code, text = run_to_file(
            tmp_path, "cfg.csv", "sweep-epsilon",
            "--config", str(cfg), "--kmax", "2", "--workers", "1",
        )
        assert code == 0
        rows = rows_of(text)
        assert all(r["algorithm"] == "1" for r in rows)  # from config
        assert all(float(r["epsilon"]) == 1e-3 for r in rows)
        assert [r["k"] for r in rows] == ["0", "1", "2"]  # flag overrode kmax

    def test_config_u0_and_lambda_reach_metadata(self, tmp_path, capsys):
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({
            "system": "quadratic", "epsilons": [1e-3], "kmax": 0,
            "T": 0.1, "dt": 0.1, "u0": [0.5, 0.25], "quadratic_lambda": 2.0,
        }))
        assert main(["sweep-epsilon", "--config", str(cfg), "--out",
                     str(tmp_path / "q.csv"), "--workers", "1"]) == 0
        err = capsys.readouterr().err
        assert "u0=[0.5, 0.25]" in err
        assert "quadratic_lambda=2.0" in err


    # One valid value per config key: every option of the sweep parsers
    # except --config, plus the config-only keys.
    VALID_VALUES = {
        "system": "toy", "algorithm": 1, "coarse": "exact", "fine": "exact",
        "epsilons": [1e-3], "dt": 0.2, "dts": [0.1], "T": 2.0, "kmax": 1,
        "delta_t_fine": 1e-4, "out": "-", "workers": 1, "all_times": True,
        "u0": [1.0, 0.5, 0.0], "quadratic_lambda": 2.0,
    }

    def test_valid_values_cover_every_option(self):
        args = cli.build_parser().parse_args(["sweep-k"])
        keys = set(vars(args)) - {"command", "config"} | cli.CONFIG_ONLY_KEYS
        assert set(self.VALID_VALUES) == keys

    @pytest.mark.parametrize("key", sorted(VALID_VALUES))
    def test_each_option_is_a_config_key(self, tmp_path, key):
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({key: self.VALID_VALUES[key]}))
        args = cli.build_parser().parse_args(["sweep-k", "--config", str(cfg)])
        cli.resolve_spec(args)
        assert getattr(args, key) == self.VALID_VALUES[key]

    @pytest.mark.parametrize("key", ["bogus", "command", "config"])
    def test_other_keys_are_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: 1}))
        assert main(["sweep-k", "--config", str(cfg), "--workers", "1"]) == 1
        assert f"error: unknown config keys: [{key!r}]" in capsys.readouterr().err


class TestDtsParsedForEveryCommand:
    ARGV = ["sweep-k", "--T", "1", "--kmax", "1", "--epsilons", "1e-3",
            "--workers", "1"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_dts_exits_1(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(engine, "run", _no_run)
        if source == "flag":
            extra = ["--dts", "abc"]
        else:
            cfg = tmp_path / "dts.json"
            cfg.write_text(json.dumps({"dts": "abc"}))
            extra = ["--config", str(cfg)]
        assert main([*self.ARGV, *extra]) == 1
        assert "error: could not parse --dts" in capsys.readouterr().err

    def test_valid_dts_leaves_sweep_k_bytes_unchanged(self, tmp_path):
        code, plain = run_to_file(tmp_path, "plain.csv", *self.ARGV)
        assert code == 0
        code, with_dts = run_to_file(
            tmp_path, "dts.csv", *self.ARGV, "--dts", "0.1"
        )
        assert code == 0
        assert with_dts == plain


class TestSweepExamples:
    def test_lifting_curves_overlap_beyond_first_iteration(self, tmp_path):
        # Variant 1 stalls at its epsilon^2 macro accuracy: the k=1 and k=2
        # curves coincide pointwise within 5% for small epsilon.
        code, text = run_to_file(
            tmp_path, "lift.csv", "sweep-epsilon",
            "--algorithm", "1", "--kmax", "2", "--workers", "1",
        )
        assert code == 0
        rows = rows_of(text)
        small = [
            eps for eps in sorted({float(r["epsilon"]) for r in rows})
            if eps <= 1e-3
        ]
        assert len(small) >= 10
        for eps in small:
            by_k = {
                r["k"]: float(r["rel_macro_error"])
                for r in rows if float(r["epsilon"]) == eps
            }
            assert abs(by_k["1"] - by_k["2"]) / by_k["1"] <= 0.05

    def test_matching_sweep_k_monotone_to_machine_precision(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "k.csv", "sweep-k", "--algorithm", "2",
            "--epsilons", "1e-4", "--workers", "1",
        )
        assert code == 0
        errs = [
            float(r["rel_micro_error"])
            for r in sorted(rows_of(text), key=lambda r: int(r["k"]))
        ]
        assert len(errs) == 31  # default kmax 30 for this sweep
        first_small = next(k for k, e in enumerate(errs) if e <= 1e-12)
        for k in range(1, first_small):
            assert errs[k + 1] < errs[k]

    def test_k0_row_is_variant_independent(self, tmp_path):
        args = ("sweep-dt", "--epsilons", "1e-4", "--dts", "0.2,0.1",
                "--kmax", "1", "--workers", "1")
        _, v1 = run_to_file(tmp_path, "v1.csv", *args, "--algorithm", "1")
        _, v2 = run_to_file(tmp_path, "v2.csv", *args, "--algorithm", "2")
        k0 = lambda text: [
            (r["dt"], r["rel_macro_error"], r["rel_micro_error"],
             r["abs_macro_error"], r["abs_micro_error"])
            for r in rows_of(text) if r["k"] == "0"
        ]
        assert k0(v1) == k0(v2)


class TestSpeedup:
    def test_ideal_ratio_printed_truncated(self, capsys):
        code = main(["speedup", "--kmax", "6", "--fine", "exact",
                     "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N = 100 intervals, K = 6 iterations" in out
        assert "ideal speed-up N/K = 16.6" in out
        assert "workers=1" in out
        assert "measured ratio" in out

    def test_a_slowdown_reads_as_one(self, capsys, monkeypatch):
        # Fine-stage walls of 0.2 s at 1 worker and 0.37 s at 2.
        def timed_run(config, workers):
            wall = {1: 0.2, 2: 0.37}[workers]
            timings = engine.RunTimings([wall], [0.2])
            return engine.PararealRun(config, None, None, timings=timings)

        monkeypatch.setattr(engine, "run", timed_run)
        code = main(["speedup", "--kmax", "1", "--T", "1", "--workers", "2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "workers=1  fine-stage wall 0.200 s  x1.00 of 1 worker  "
            "task-sum 0.200 s  measured ratio 1.00",
            "workers=2  fine-stage wall 0.370 s  x1.85 of 1 worker  "
            "task-sum 0.200 s  measured ratio 0.54",
        ]

    def test_as_many_iterations_as_intervals(self, capsys):
        code = main(["speedup", "--kmax", "10", "--T", "1", "--fine", "exact",
                     "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N = 10 intervals, K = 10 iterations" in out
        assert "ideal speed-up N/K = 1.0" in out

    def test_single_worker_ratio_near_one(self, capsys):
        # Euler fine at the speedup substep, so loop overhead stays small
        # next to the slab's work.
        code = main(["speedup", "--kmax", "1", "--T", "2", "--fine", "euler",
                     "--workers", "1"])
        assert code == 0
        (line,) = [
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("workers=1")
        ]
        ratio = float(line.rsplit("measured ratio ", 1)[1])
        assert 0.3 <= ratio <= 1.1

    def test_zero_iterations_undefined(self, capsys):
        code = main(["speedup", "--kmax", "0", "--fine", "exact",
                     "--workers", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "N = 100 intervals; no iterations, ideal speed-up undefined" in (
            captured.out
        )
        assert "dt=0.1 " in captured.err
        assert "epsilons=[0.01]\n" in captured.err

    def test_report_goes_to_out(self, tmp_path, capsys):
        out = tmp_path / "sp.txt"
        code = main(["speedup", "--kmax", "0", "--workers", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == (
            "N = 100 intervals; no iterations, ideal speed-up undefined\n"
        )

    def test_unwritable_out_exits_1_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(engine, "run", _no_run)
        out = tmp_path / "missing" / "x"
        code = main(["speedup", "--kmax", "1", "--T", "1", "--workers", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: could not write --out" in err
        assert "# system=" not in err


class TestVerifySubcommand:
    def test_fresh_build_passes_all_checks(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        lines = [l for l in out.splitlines() if l.startswith("[ ok ]")]
        assert len(lines) >= 18
        assert out.splitlines()[-1].endswith("checks passed")
        # The effective slow rate of the built-in system is printed.
        assert "toy macro rate lambda = -1.0" in out
