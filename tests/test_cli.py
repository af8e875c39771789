"""End-to-end tests of the command-line interface.

Every test drives ``hhtscale.cli.run`` in process: artifacts land in tmp
directories, exit codes and stderr messages are asserted directly, and
reproducibility claims (same seed, thread count, manifest replay) are
checked byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhtscale
from hhtscale import RunManifest, ingest_prices
from hhtscale._kernels import available_backends, get_backend
from hhtscale.cli import COMMANDS, _cells, _fmt, _write_csv, build_parser, run

from conftest import build_price_csv, fresh_interpreter


def read_csv(path):
    """(comments, header, rows) of one artifact; rows stay strings."""
    comments, header, rows = [], None, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
                continue
            break
        fh.seek(0)
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        rows = list(reader)
    return comments, header, rows


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = run(["decompose", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["transmogrify"]) == 2

    def test_bad_flag_value(self, capsys):
        assert run(["simulate", "--length", "ten"]) == 2

    def test_missing_required_parameter(self, capsys):
        assert run(["table"]) == 2
        assert "--process" in capsys.readouterr().err

    def test_simulate_requires_process_parameter(self, capsys):
        assert run(["simulate", "--length", "64"]) == 2

    def test_process_specific_parameter_enforced(self, capsys):
        assert run(["simulate", "--process", "fbm", "--length", "64"]) == 2
        assert "--h" in capsys.readouterr().err

    def test_intraday_rejects_values_col(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_text("v\n" + "\n".join(str(float(i)) for i in range(64)) + "\n")
        code = run(
            ["intraday", str(path), "--values-col", "v", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "dated price rows" in capsys.readouterr().err

    def test_corrupt_price_row_is_a_data_error(self, tmp_path, capsys):
        build_price_csv(tmp_path / "bad.csv", bad_row=7)
        code = run(["decompose", str(tmp_path / "bad.csv"), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "row 7" in capsys.readouterr().err

    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys):
        build_price_csv(tmp_path / "bad.csv", bad_row=7)
        runs = {
            "threads": (["simulate", "--process", "bm", "--threads", "0"], "threads must be >= 1"),
            "missing": (["decompose", str(tmp_path / "nope.csv")], "nope.csv"),
            "corrupt": (["decompose", str(tmp_path / "bad.csv")], "row 7"),
        }
        for name, (argv, message) in runs.items():
            assert run(argv + ["--out-dir", str(tmp_path / name / "out")]) == 1, name
            assert message in capsys.readouterr().err, name
            assert not (tmp_path / name).exists(), name

    def _assert_one_line_exit_1(self, argv, capsys, message):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"hhtscale {argv[0]}: {message}"]
        assert "Traceback" not in err

    def test_mirror_padding_failure_is_a_data_error(self, tmp_path, price_csv, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("mirror padding failed to cover the series")

        # the NumPy backend sifts through the composed step, which calls the
        # mirror padding and the spline kernel one by one
        monkeypatch.setenv("HHTSCALE_BACKEND", "python")
        monkeypatch.setattr(hhtscale._kernels.common, "mirror_extrema", fail)
        argv = ["decompose", str(price_csv), "--out-dir", str(tmp_path / "out")]
        self._assert_one_line_exit_1(argv, capsys, "mirror padding failed to cover the series")

    def test_spline_allocation_failure_is_a_data_error(self, tmp_path, price_csv, capsys, monkeypatch):
        def fail(*args):
            raise MemoryError("spline_eval could not allocate its scratch space")

        monkeypatch.setenv("HHTSCALE_BACKEND", "python")
        monkeypatch.setattr(hhtscale.emd.get_backend(), "spline_eval", fail)
        argv = ["scaling", str(price_csv), "--out-dir", str(tmp_path / "out")]
        self._assert_one_line_exit_1(
            argv, capsys, "spline_eval could not allocate its scratch space"
        )

    @pytest.mark.skipif("compiled" not in available_backends(), reason="no compiled kernels")
    @pytest.mark.parametrize(
        "status, command, message",
        [
            (-1, "decompose", "mirror padding failed to cover the series"),
            (-2, "spectral", "mirror padding produced non-increasing knots"),
            (-3, "scaling", "sift_component could not allocate its workspace"),
        ],
    )
    def test_fused_step_failure_is_a_data_error(
        self, status, command, message, tmp_path, price_csv, capsys, monkeypatch
    ):
        # the compiled backend's one call per component sift reports each
        # failure by its status
        monkeypatch.setenv("HHTSCALE_BACKEND", "compiled")
        monkeypatch.setattr(get_backend("compiled"), "_component", lambda *args: status)
        argv = [command, str(price_csv), "--out-dir", str(tmp_path / "out")]
        self._assert_one_line_exit_1(argv, capsys, message)

    def test_session_gap_below_the_bar_step_is_a_data_error(self, tmp_path, price_csv, capsys):
        # 3 days of 40 bars 30 s apart: a 10 s session gap would split every
        # bar from the next, and ffill used to make 3,426 samples of 120 rows
        argv = [
            "decompose", str(price_csv), "--session-gap", "10", "--fill", "ffill",
            "--out-dir", str(tmp_path / "out"),
        ]
        self._assert_one_line_exit_1(
            argv, capsys,
            "day 2026-01-05: all 39 within-day gaps are >= the session gap of 10s; "
            "it must exceed the bar step",
        )

    def test_timestamps_mixing_utc_offsets_are_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "tz.csv"
        path.write_text("date,time,price\n2024-01-02,09:00:00+01:00,100\n2024-01-02,09:00:30,101\n")
        argv = ["decompose", str(path), "--out-dir", str(tmp_path / "out")]
        self._assert_one_line_exit_1(
            argv, capsys,
            "row 2: timestamp '2024-01-02 09:00:30' has no UTC offset, unlike the row before",
        )

    def test_cell_past_the_header_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "extra.csv"
        path.write_text("date,time,price\n2024-01-02,09:30:30,100.4\n2024-01-02,09:31:00,100.5,\n")
        argv = ["decompose", str(path), "--out-dir", str(tmp_path / "out")]
        self._assert_one_line_exit_1(argv, capsys, "row 2: 4 fields, header has 3")

    def test_row_short_of_its_date_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("price,date\n100.4,2024-01-02\n100.5\n")
        argv = ["decompose", str(path), "--time-col", "", "--out-dir", str(tmp_path / "out")]
        self._assert_one_line_exit_1(argv, capsys, "row 2: fewer fields than the header")

    @pytest.mark.parametrize(
        "rows, argv, message",
        [
            (8000, [], "row 1: field larger than field limit (131072)"),
            (8000, ["--values-col", "price"], "row 1: field larger than field limit (131072)"),
            (98, [], "row 1: unparseable price '100.00\\n2024-01-02,09:00:00,100.00\\n202...'"),
            (
                98, ["--values-col", "price"],
                "row 1: bad value '100.00\\n2024-01-02,09:00:00,100.00\\n202...' in column 'price'",
            ),
            (0, ["--delimiter", ";;"], "delimiter must be one character, got ';;'"),
            (0, ["--values-col", "price", "--delimiter", ";;"], "delimiter must be one character, got ';;'"),
            (0, ["--session-gap", "0"], "session_gap must be a positive number of seconds, got 0.0"),
            (0, ["--session-gap", "-5"], "session_gap must be a positive number of seconds, got -5.0"),
            (0, ["--session-gap", "nan"], "session_gap must be a positive number of seconds, got nan"),
        ],
    )
    def test_reader_faults_are_data_errors(self, tmp_path, capsys, rows, argv, message):
        # an unterminated quote in the first row's price swallows the rows after it
        lines = ["date,time,price", '2024-01-02,09:00:30,"100.00']
        lines += [f"2024-01-02,09:{k // 60 % 60:02d}:{k % 60:02d},100.00" for k in range(rows)]
        path = tmp_path / "quote.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = ["decompose", str(path), *argv, "--out-dir", str(tmp_path / "out")]
        self._assert_one_line_exit_1(argv, capsys, message)

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "hhtscale" in capsys.readouterr().out


class TestSimulate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        args = ["simulate", "--process", "bm", "--length", "128", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", str(a)]) == 0
        assert run(args + ["--out-dir", str(b)]) == 0
        assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()

    def test_values_round_trip_exactly(self, tmp_path):
        assert (
            run(
                [
                    "simulate", "--process", "fbm", "--h", "0.7",
                    "--length", "64", "--paths", "2", "--seed", "5",
                    "--out-dir", str(tmp_path),
                ]
            )
            == 0
        )
        _, header, rows = read_csv(tmp_path / "paths.csv")
        assert header == ["t", "path_0", "path_1"]
        assert len(rows) == 64
        from hhtscale import SimConfig, simulate

        cfg = SimConfig(process="fbm", length=64, seed=5, paths=2, hurst=0.7)
        for i in range(2):
            exact = simulate(cfg, path_index=i).values
            parsed = np.array([float(r[1 + i]) for r in rows])
            assert np.array_equal(parsed, exact)  # repr round-trip is lossless

    def test_slm_takes_any_length(self, tmp_path):
        args = ["simulate", "--process", "slm", "--alpha", "1.5", "--length", "10000"]
        assert run(args + ["--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "paths.csv")
        assert len(rows) == 10_000

    def test_manifest_replay_reproduces_output(self, tmp_path, price_csv):
        # every subcommand goes through one runner; each of its CSVs must
        # come back byte for byte from the command line its manifest records
        runs = [
            ["simulate", "--process", "arfima", "--d=-0.2", "--length", "96", "--seed", "11"],
            ["decompose", str(price_csv), "--max-imfs", "5"],
            ["spectral", str(price_csv), "--trim-fraction", "0.02"],
            ["scaling", str(price_csv), "--rolling-window", "50", "--trim-fraction", "0.1"],
            ["complexity", str(price_csv), "--weight", "linear"],
            ["intraday", str(price_csv), "--band-sims", "10", "--measure", "cstar"],
            [
                "table", "--process", "fbm", "--h-grid", "0.6",
                "--paths", "2", "--length", "256", "--seed", "4",
            ],
            [
                "table", "--process", "arfima", "--d-grid=-0.2:0.2:0.2",
                "--paths", "2", "--length", "256", "--seed", "3",
            ],
        ]
        for i, argv in enumerate(runs):
            first, replay_dir = tmp_path / f"first{i}", tmp_path / f"replay{i}"
            assert run(argv + ["--out-dir", str(first)]) == 0, argv
            outputs = sorted(p.name for p in first.glob("*.csv"))
            assert outputs, argv
            for name in outputs:
                manifest = RunManifest.load(first / (name + ".manifest"))
                assert manifest.subcommand == argv[0]
                # later --out-dir wins, steering the replay away from the original
                assert run(manifest.to_argv() + ["--out-dir", str(replay_dir)]) == 0
                assert (first / name).read_bytes() == (replay_dir / name).read_bytes(), argv
        simulated = RunManifest.load(tmp_path / "first0" / "paths.csv.manifest")
        assert (simulated.seed, simulated.rng) == (11, "philox")


class TestSeriesSubcommands:
    def test_decompose_reconstructs_input(self, tmp_path, price_csv):
        out = tmp_path / "dec"
        assert run(["decompose", str(price_csv), "--out-dir", str(out)]) == 0
        comments, header, rows = read_csv(out / "imfs.csv")
        assert header[0] == "t" and header[-1] == "residue"
        assert any(c.startswith("# sift_counts=") for c in comments)
        series, _ = ingest_prices(price_csv)
        data = np.array([[float(v) for v in row[1:]] for row in rows])
        total = data.sum(axis=1)
        scale = float(np.abs(series.values).max())
        assert len(rows) == series.values.shape[0]
        assert np.abs(total - series.values).max() <= 1e-10 * max(scale, 1.0)

    def test_dates_only_input_loads(self, tmp_path, price_csv):
        argv = ["decompose", str(price_csv), "--time-col", "", "--out-dir", str(tmp_path)]
        assert run(argv) == 0
        comments, _, rows = read_csv(tmp_path / "imfs.csv")
        assert len(rows) == 120
        assert "# dt=1.0" in comments

    def test_spectral_writes_two_matrices(self, tmp_path, price_csv):
        out = tmp_path / "spe"
        assert run(["spectral", str(price_csv), "--out-dir", str(out)]) == 0
        amp_comments, amp_header, amp_rows = read_csv(out / "spectral_amplitude.csv")
        _, freq_header, freq_rows = read_csv(out / "spectral_frequency.csv")
        assert amp_header == freq_header
        assert len(amp_rows) == len(freq_rows)
        assert any("frequency_units=radians_per_sample" in c for c in amp_comments)
        assert all(float(v) >= 0.0 for v in amp_rows[0][1:])

    def test_scaling_from_values_column(self, tmp_path):
        rng = np.random.default_rng(3)
        walk = np.cumsum(rng.standard_normal(512))
        path = tmp_path / "vals.csv"
        path.write_text("v\n" + "\n".join(repr(float(x)) for x in walk) + "\n")
        out = tmp_path / "sca"
        assert (
            run(["scaling", str(path), "--values-col", "v", "--out-dir", str(out)])
            == 0
        )
        comments, header, rows = read_csv(out / "scaling.csv")
        assert header == ["t", "h_star", "r2", "points_used"]
        assert len(rows) == 512
        assert any(c.startswith("# ghe_q1=") for c in comments)
        finite = [float(r[1]) for r in rows if r[1] != "nan"]
        assert len(finite) > 400

    def test_complexity_track_bounds(self, tmp_path, price_csv):
        out = tmp_path / "com"
        assert run(["complexity", str(price_csv), "--out-dir", str(out)]) == 0
        _, header, rows = read_csv(out / "complexity.csv")
        assert header == ["t", "c_star"]
        vals = [float(r[1]) for r in rows if r[1] != "nan"]
        assert vals and min(vals) >= 0.0


    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["spectral"], ["spectral_amplitude.csv", "spectral_frequency.csv"]),
            (["complexity"], ["complexity.csv"]),
            (["intraday", "--measure", "cstar", "--band-sims", "10"], ["intraday_panel.csv"]),
        ],
        ids=["spectral", "complexity", "intraday-cstar"],
    )
    def test_trim_fraction_blanks_only_the_margin(self, tmp_path, price_csv, argv, outputs):
        # 3 days x 40 bars: trim 0.2 leaves samples 24..95 inside the margin
        def cells(trim):
            out = tmp_path / f"trim{trim}"
            cmd = [argv[0], str(price_csv), *argv[1:], "--trim-fraction", str(trim)]
            assert run([*cmd, "--out-dir", str(out)]) == 0
            return [np.array(read_csv(out / name)[2])[:, 1:].reshape(-1) for name in outputs]

        margin = np.ones(120, dtype=bool)
        margin[24:96] = False
        for full, trimmed in zip(cells(0.0), cells(0.2)):
            per_sample = full.size // 120
            in_margin = np.repeat(margin, per_sample)
            assert not (full == "nan").any()
            assert (trimmed[in_margin] == "nan").all()
            assert np.array_equal(trimmed[~in_margin], full[~in_margin])

    def test_rolling_trim_blanks_both_margins(self, tmp_path, price_csv):
        # 3 days x 40 bars, trim 0.2: no component is valid in samples 0..23
        # and 96..119, so no trailing window may define H* there
        out = tmp_path / "roll"
        cmd = ["scaling", str(price_csv), "--rolling-window", "10", "--trim-fraction", "0.2"]
        assert run([*cmd, "--out-dir", str(out)]) == 0
        h_star = np.array(read_csv(out / "scaling.csv")[2])[:, 1]
        assert h_star.size == 120
        assert (h_star[:24] == "nan").all()
        assert (h_star[96:] == "nan").all()
        assert (h_star[33:96] != "nan").any()


class TestIntraday:
    def test_panel_and_profile(self, tmp_path):
        src = tmp_path / "prices.csv"
        build_price_csv(src, n_days=8, per_session=96, seed=4)
        out = tmp_path / "intr"
        assert (
            run(
                [
                    "intraday", str(src), "--band-sims", "10",
                    "--seed", "2", "--out-dir", str(out),
                ]
            )
            == 0
        )
        _, panel_header, panel_rows = read_csv(out / "intraday_panel.csv")
        assert panel_header[:2] == ["day_id", "c_0"]
        assert len(panel_rows) == 8
        _, prof_header, prof_rows = read_csv(out / "intraday_profile.csv")
        assert prof_header == ["index", "day_mean", "band_lo", "band_hi", "likelihood"]
        assert len(prof_rows) == 96
        likes = [float(r[4]) for r in prof_rows if r[4] != "nan"]
        assert likes and all(0.0 <= v <= 1.0 for v in likes)
        lo_hi = [
            (float(r[2]), float(r[3]))
            for r in prof_rows
            if r[2] != "nan" and r[3] != "nan"
        ]
        assert all(lo <= hi for lo, hi in lo_hi)

    def test_two_session_days_note_the_gap(self, tmp_path, two_session_csv):
        out = tmp_path / "intr2"
        assert (
            run(
                [
                    "intraday", str(two_session_csv), "--band-sims", "10",
                    "--session-gap", "3600", "--out-dir", str(out),
                ]
            )
            == 0
        )
        comments, _, _ = read_csv(out / "intraday_profile.csv")
        assert any(c.startswith("# lunch_gap=") for c in comments)


class TestTable:
    def test_grid_expansion(self, tmp_path):
        out = tmp_path / "tab"
        assert (
            run(
                [
                    "table", "--process", "fbm", "--h-grid", "0.3:0.7:0.2",
                    "--paths", "2", "--length", "256", "--seed", "3",
                    "--out-dir", str(out),
                ]
            )
            == 0
        )
        _, header, rows = read_csv(out / "table.csv")
        assert header == ["H", "mean_Hstar", "std_Hstar", "mean_R2", "mean_HG", "std_HG"]
        assert [float(r[0]) for r in rows] == [0.3, 0.5, 0.7]

    def test_comma_grid_and_manifest(self, tmp_path):
        out = tmp_path / "tab2"
        assert (
            run(
                [
                    "table", "--process", "arfima", "--d-grid=-0.2,0.2",
                    "--paths", "2", "--length", "256", "--seed", "3",
                    "--out-dir", str(out),
                ]
            )
            == 0
        )
        _, _, rows = read_csv(out / "table.csv")
        assert [float(r[0]) for r in rows] == [0.3, 0.7]  # nominal H = d + 1/2
        manifest = RunManifest.load(out / "table.csv.manifest")
        assert manifest.params["d_grid"] == "-0.2,0.2"

    @pytest.mark.parametrize("grid", ["-0.2:0.2:0.2", "-0.2,0.2"])
    def test_grid_may_start_below_zero(self, tmp_path, grid):
        # "--d-grid -0.2:..." is the flag's value, as "--d-grid=-0.2:..." is
        base = ["table", "--process", "arfima", "--paths", "2", "--length", "256"]
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert run(base + ["--d-grid", grid, "--out-dir", str(spaced)]) == 0
        assert run(base + [f"--d-grid={grid}", "--out-dir", str(joined)]) == 0
        assert (spaced / "table.csv").read_bytes() == (joined / "table.csv").read_bytes()
        manifest = RunManifest.load(spaced / "table.csv.manifest")
        assert f"--d-grid={grid}" in manifest.to_argv()

    def test_nominal_exponent_of_each_process(self, tmp_path):
        # H = alpha^-1 for slm, 1/2 for bm (fbm and arfima are checked above)
        for process, grid, nominal in (
            ("slm", ["--alpha-grid", "1.6,2.0"], [0.625, 0.5]),
            ("bm", [], [0.5]),
        ):
            out = tmp_path / process
            argv = ["table", "--process", process, *grid, "--paths", "2", "--length", "256"]
            assert run(argv + ["--out-dir", str(out)]) == 0
            _, _, rows = read_csv(out / "table.csv")
            assert [float(r[0]) for r in rows] == nominal

    def test_thread_count_is_immaterial(self, tmp_path):
        base = [
            "table", "--process", "fbm", "--h-grid", "0.5",
            "--paths", "3", "--length", "256", "--seed", "8",
        ]
        one, two = tmp_path / "one", tmp_path / "two"
        assert run(base + ["--threads", "1", "--out-dir", str(one)]) == 0
        assert run(base + ["--threads", "2", "--out-dir", str(two)]) == 0
        assert (one / "table.csv").read_bytes() == (two / "table.csv").read_bytes()

    def test_zero_threads_is_one_error_everywhere(self, tmp_path, price_csv, capsys):
        errors = []
        for argv in (["table", "--process", "bm"], ["intraday", str(price_csv)],
                     ["simulate", "--process", "bm"]):
            assert run(argv + ["--threads", "0", "--out-dir", str(tmp_path / argv[0])]) == 1
            errors.append(capsys.readouterr().err.split(": ", 1)[1])
            assert not list((tmp_path / argv[0]).glob("*.manifest"))
        assert errors == ["threads must be >= 1\n"] * 3


class TestArtifactHygiene:
    def test_every_output_has_a_manifest(self, tmp_path, price_csv):
        out = tmp_path / "spe"
        assert run(["spectral", str(price_csv), "--out-dir", str(out)]) == 0
        for name in ("spectral_amplitude.csv", "spectral_frequency.csv"):
            sidecar = out / (name + ".manifest")
            assert sidecar.exists()
            loaded = RunManifest.load(sidecar)
            assert loaded.subcommand == "spectral"
            assert "input" in loaded.inputs and len(loaded.inputs["input"]) == 64
            assert loaded.rng is None  # the run draws no random numbers

    def test_schema_comment_leads_every_csv(self, tmp_path, price_csv):
        out = tmp_path / "dec"
        assert run(["decompose", str(price_csv), "--out-dir", str(out)]) == 0
        first = (out / "imfs.csv").read_text().splitlines()[0]
        assert first.startswith("# schema: imf-matrix v1")


class TestCsvBytes:
    """Every subcommand's CSVs, byte for byte.

    Manifest replay runs the same writer on both sides, so it cannot see a
    change in how cells become text; these SHA-256 digests can.  They were
    recorded on x86-64 Linux with the compiled backend, whose bits the NumPy
    backend shares.
    """

    RUNS = {
        "decompose": (
            ["decompose", "{prices}"],
            {"imfs.csv": "1fa65e62a073de4a8a7fe49927e760abad01acb3fcc990be48337349513e95b4"},
        ),
        "decompose-values-col": (
            ["decompose", "{values}", "--values-col", "x", "--max-imfs", "4"],
            {"imfs.csv": "869e52ab7b810043f56222ac0bba036968694745985c14877e6e1067068f3875"},
        ),
        "spectral-trim": (
            ["spectral", "{prices}", "--trim-fraction", "0.05"],
            {
                "spectral_amplitude.csv": "041780b023d5a45f3cb4aa3209cfca0f136c45e536a4b7f2de45632be7fab6cb",
                "spectral_frequency.csv": "cbc69b859a43b14819492a4482c72cef75f4d05ebf4106ea25cac7e83e2a44f4",
            },
        ),
        "scaling": (
            ["scaling", "{prices}"],
            {"scaling.csv": "0a318146dbe5cd211a05ed3dc7beeee20d65e19bb222a4afdc48ea9694662d77"},
        ),
        "scaling-rolling": (
            ["scaling", "{prices}", "--rolling-window", "30"],
            {"scaling.csv": "3a88c4a9b293e6e7a016a6d4b62028ce0452d5cfc4cd414397902eddfa19faa5"},
        ),
        "complexity-linear": (
            ["complexity", "{prices}", "--weight", "linear"],
            {"complexity.csv": "969fbf283b12b4040ecfc2fbe3ca8c8c5d99ed89dd77340480892fe4129721af"},
        ),
        "intraday-cstar": (
            ["intraday", "{prices}", "--measure", "cstar", "--band-sims", "10"],
            {
                "intraday_panel.csv": "04399a8773281b6b37441b12969b048b196a1fafaf0fd67eb0d796aaa905e59e",
                "intraday_profile.csv": "17ca2de3fd8b6ce53b53f24f5421d4b23d5bf9e5eb71d3fc75230ea5eaf0bd7e",
            },
        ),
        "simulate-fbm": (
            ["simulate", "--process", "fbm", "--h", "0.7", "--length", "64", "--paths", "2",
             "--seed", "5"],
            {"paths.csv": "0bfe677c9d48fd94d2eef1b756223fb068c89adbfc054ccd8cf4bce7319c1753"},
        ),
        "table-arfima": (
            ["table", "--process", "arfima", "--d-grid=-0.2,0.2", "--paths", "2",
             "--length", "256", "--seed", "3"],
            {"table.csv": "b9e78f723eaee0c004d665d7991c8283941fa87634585c0ddc7dba806dc1a3bd"},
        ),
        "table-bm": (
            ["table", "--process", "bm", "--paths", "2", "--length", "256"],
            {"table.csv": "8f92d634feffce8fc0514f3057ea64eb6466e9fe64c1b57798adfe5bc7d8adf0"},
        ),
    }

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        prices, values = root / "prices.csv", root / "values.csv"
        build_price_csv(prices, n_days=4, per_session=60, seed=19)
        walk = np.cumsum(np.random.default_rng(7).standard_normal(300))
        values.write_text("x\n" + "\n".join(repr(float(v)) for v in walk) + "\n")
        return {"{prices}": str(prices), "{values}": str(values)}

    def test_short_column_raises_and_writes_nothing(self, tmp_path):
        path = tmp_path / "short.csv"
        table = {"t": range(3), "x": np.zeros(3), "y": [1.5, 2.5]}
        with pytest.raises(ValueError):
            _write_csv(path, "short", table)
        assert not path.exists()

    @pytest.mark.parametrize("argv, digests", RUNS.values(), ids=RUNS)
    def test_digests(self, tmp_path, inputs, argv, digests):
        argv = [inputs.get(a, a) for a in argv]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(digests)
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


_INGEST_OPTIONS = {
    "--values-col", "--date-col", "--time-col", "--price-col", "--delimiter",
    "--session-gap", "--fill",
}
_COMMON_OPTIONS = {"-h", "--help", "--out-dir"}
_SEED_THREADS = {"--seed", "--threads"}


class TestCliSurface:
    """The flags, positionals and exit codes every subcommand accepts."""

    EXPECTED = {
        "simulate": (
            {"--process", "--length", "--paths", "--h", "--alpha", "--d"} | _SEED_THREADS,
            [],
        ),
        "decompose": (_INGEST_OPTIONS | {"--max-imfs"}, ["input"]),
        "spectral": (_INGEST_OPTIONS | {"--trim-fraction"}, ["input"]),
        "scaling": (
            _INGEST_OPTIONS | {"--rolling-window", "--tau-max", "--trim-fraction"},
            ["input"],
        ),
        "complexity": (_INGEST_OPTIONS | {"--weight", "--trim-fraction"}, ["input"]),
        "intraday": (
            _INGEST_OPTIONS | {"--measure", "--band-sims", "--trim-fraction"} | _SEED_THREADS,
            ["input"],
        ),
        "table": (
            {"--process", "--h-grid", "--alpha-grid", "--d-grid", "--paths", "--length",
             "--tau-max", "--trim-fraction"} | _SEED_THREADS,
            [],
        ),
    }

    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == set(self.EXPECTED)
        for name, sub in subparsers.choices.items():
            options, positionals = self.EXPECTED[name]
            got = {s for action in sub._actions for s in action.option_strings}
            assert got == options | _COMMON_OPTIONS, name
            assert [a.dest for a in sub._actions if not a.option_strings] == positionals

    @pytest.mark.parametrize("only", list(EXPECTED))
    def test_parser_for_one_subcommand_adds_only_its_flags(self, only):
        parser = build_parser(only)
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(subparsers.choices) == list(self.EXPECTED)
        for name, sub in subparsers.choices.items():
            options, positionals = self.EXPECTED[name] if name == only else (set(), [])
            got = {s for action in sub._actions for s in action.option_strings}
            assert got == options | (_COMMON_OPTIONS if name == only else {"-h", "--help"})
            assert [a.dest for a in sub._actions if not a.option_strings] == positionals

    def test_top_level_help_lists_every_subcommand(self, capsys):
        assert run(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: hhtscale ") and err == ""
        for name, command in COMMANDS.items():
            assert f"    {name}" in out and command.help in out, name

    # test id -> (argv, exit code); the first eighteen ids are the ones
    # these rows have always run under.  Every row's stderr is one line of
    # the CLI's own, argparse's rejections (a bad choice or type, an unknown
    # flag) included.
    BAD_VALUES = {
        "argv0-measure=bogus-2": (["intraday", "{csv}", "--measure", "bogus"], 2),
        "argv1-None-2": (["table", "--h-grid", "0.5"], 2),
        "argv2-process=bogus-2": (["simulate", "--process", "bogus"], 2),
        "argv3-length=ten-2": (["simulate", "--process", "bm", "--length", "ten"], 2),
        "argv4-table=maybe-2": (["simulate", "--process", "bm", "--table", "maybe"], 2),
        "argv5-None-2": (["decompose", "{csv}", "--max-imfs", "0"], 2),
        "argv6-fill=bogus-2": (["decompose", "{csv}", "--fill", "bogus"], 2),
        "argv7-weight=bogus-2": (["complexity", "{csv}", "--weight", "bogus"], 2),
        "argv8-None-1": (["spectral", "{csv}", "--trim-fraction", "0.7"], 1),
        "argv9-band_sims=5-1": (["intraday", "{csv}", "--band-sims", "5"], 1),
        "argv10-None-2": (["table", "--process", "fbm", "--h-grid", "0.1:inf:0.1"], 2),
        "argv11-None-2": (["table", "--process", "fbm", "--h-grid", "nan:1:0.1"], 2),
        "argv12-trim_fration=0.2-2": (["decompose", "{csv}", "--trim-fration", "0.2"], 2),
        "argv13-None-2": (["table", "--process", "fbm", "--h-grid", ","], 2),
        "argv14-None-2": (["table", "--process", "fbm", "--h-grid", "0:1e308:1e-308"], 2),
        "argv15-None-2": (["table", "--process", "fbm", "--h-grid", "0:1:1e-12"], 2),
        "argv16-None-2": (["table", "--process", "fbm", "--h-grid", "0.5:0.5000000001:1e-13"], 2),
        "argv17-None-2": (["table", "--process", "fbm", "--h-grid", "0.5,0.5,0.50"], 2),
        "scaling-tau-max-1": (["scaling", "{csv}", "--tau-max", "1"], 2),
        "table-tau-max-1": (["table", "--process", "bm", "--tau-max", "1"], 2),
        "decompose-seed": (["decompose", "{csv}", "--seed", "1"], 2),
        "spectral-threads": (["spectral", "{csv}", "--threads", "2"], 2),
        # the SD test and its flag are gone: the sift stops at the gate or the cap
        "decompose-sd-threshold": (["decompose", "{csv}", "--sd-threshold", "0.2"], 2),
    }

    @pytest.mark.parametrize("argv, code", BAD_VALUES.values(), ids=BAD_VALUES)
    def test_bad_values_exit_codes(self, tmp_path, price_csv, capsys, argv, code):
        argv = [a.replace("{csv}", str(price_csv)) for a in argv]
        assert run(argv + ["--out-dir", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"hhtscale {argv[0]}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, line", [
        ([], "hhtscale: the following arguments are required: subcommand"),
        (["bogus"], "hhtscale: argument subcommand: invalid choice: 'bogus'"),
        (["--bogus"], "hhtscale: the following arguments are required: subcommand"),
        (["decompose"], "hhtscale decompose: the following arguments are required: input"),
    ])
    def test_missing_or_unknown_subcommand_is_one_line(self, capsys, argv, line):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith(line)

    def test_help_keeps_argparse_usage(self, capsys):
        assert run(["simulate", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: hhtscale simulate ") and err == ""


_MUTATIONS = ("trailing comma", "truncated row", "blank line", "zero price",
              "extra header column", "wrong delimiter", "utc offset")


@st.composite
def price_files(draw):
    """Small tick-quantized price files (with plateaus), then a few damaged
    rows: ``(text, damaged)``."""
    rows = []
    ticks = 0
    for day in range(draw(st.integers(1, 3))):
        bars = draw(st.integers(1, 40))
        steps = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, -2)), min_size=bars, max_size=bars))
        lunch = draw(st.integers(0, len(steps)))  # the bar a 2 h break precedes; 0: no break
        seconds = 9 * 3600
        for k, step in enumerate(steps):
            seconds += 7200 if k == lunch else 30
            ticks += step
            hh, mm, ss = seconds // 3600, seconds // 60 % 60, seconds % 60
            rows.append(f"2024-01-{2 + day:02d},{hh:02d}:{mm:02d}:{ss:02d},{100 + 0.01 * ticks:.2f}")
    header, delimiter = "date,time,price", ","
    mutations = draw(
        st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10**6)), max_size=3)
    )
    for mutation, where in mutations:
        i = where % len(rows)
        if mutation == "trailing comma":
            rows[i] += ","
        elif mutation == "truncated row":
            rows[i] = rows[i][: where % (len(rows[i]) + 1)]
        elif mutation == "blank line":
            rows.insert(i, "")
        elif mutation == "zero price":
            rows[i] = rows[i].rsplit(",", 1)[0] + ",0"
        elif mutation == "extra header column":
            header += ",volume"
        elif mutation == "utc offset":  # on one row's time, none on the others
            date, *rest = rows[i].split(",", 2)
            if rest:
                rows[i] = ",".join([date, rest[0] + "+01:00", *rest[1:]])
        else:
            delimiter = ";"
    return "\n".join([header, *rows]).replace(",", delimiter) + "\n", bool(mutations)


class TestCliContract:
    """Any price file gives exit 0, 1 or 2, never a traceback, and on 1 or 2
    one line of the CLI's own on stderr."""

    @staticmethod
    def _run(text, subcommand, flags):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prices.csv"
            path.write_text(text)
            argv = [subcommand, str(path), *flags, "--out-dir", tmp]
            if subcommand == "intraday":
                argv += ["--band-sims", "10"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                # a Python warning reaches the user's terminal: one stderr line each
                warnings.simplefilter("always")
                code = run(argv)
        shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        return code, shown + err.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(
        file=price_files(),
        subcommand=st.sampled_from(("decompose", "spectral", "scaling", "complexity", "intraday")),
        flags=st.sampled_from(
            ((), ("--time-col", ""), ("--fill", "ffill"), ("--session-gap", "600"),
             ("--values-col", "price"))
        ),
    )
    def test_exit_code_and_message(self, file, subcommand, flags):
        text, damaged = file
        code, err = self._run(text, subcommand, flags)
        assert code in (0, 1, 2)
        lines = err.splitlines()
        own = [line for line in lines if not line.startswith("ingest:")]
        if code == 0:
            assert own == []
        else:
            assert own == lines[-1:]
            assert lines[-1].startswith(f"hhtscale {subcommand}: ")
        if not damaged and flags == ("--time-col", "") and code != 0:
            # an intact file read by date alone gives the same samples as
            # with its times, so it fails only where that read fails too
            assert self._run(text, subcommand, ())[0] != 0, err


class TestImportFootprint:
    def test_cli_runs_without_scipy(self, tmp_path, price_csv):
        # SciPy is only a test oracle: importing the package and running
        # subcommands in a fresh interpreter must not load it
        script = f"""
import sys
import hhtscale
from hhtscale import cli
assert cli.run(["decompose", {str(price_csv)!r}, "--out-dir", {str(tmp_path / "dec")!r}]) == 0
assert cli.run(["simulate", "--process", "arfima", "--d", "0.2", "--length", "256",
                "--out-dir", {str(tmp_path / "sim")!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        assert fresh_interpreter(script) == "[]"

    def test_intraday_runs_without_numpy_ma(self, tmp_path, price_csv):
        # the reference band's percentiles come from a sort, not from
        # np.nanpercentile, which imports numpy.ma
        script = f"""
import sys
from hhtscale import cli
assert cli.run(["intraday", {str(price_csv)!r}, "--band-sims", "10",
                "--out-dir", {str(tmp_path / "out")!r}]) == 0
print("numpy.ma" in sys.modules)
"""
        assert fresh_interpreter(script) == "False"

    # modules a decompose run has no use for: the other subcommands' layers,
    # the numpy backend, the compiler machinery and the log machinery
    DECOMPOSE_UNLOADED = (
        "hhtscale.intraday", "hhtscale.simulate", "hhtscale.measures", "hhtscale.spectral",
        "hhtscale._kernels.numpy_backend", "subprocess", "shlex", "logging",
    )

    def test_decompose_loads_only_what_it_calls(self, tmp_path, price_csv):
        script = f"""
import sys
from hhtscale import cli
assert cli.run(["decompose", {str(price_csv)!r}, "--out-dir", {str(tmp_path / "dec")!r}]) == 0
print(sorted(m for m in {self.DECOMPOSE_UNLOADED!r} if m in sys.modules))
"""
        assert fresh_interpreter(script) == "[]"

    def test_lazy_loads_show_in_importtime(self):
        # python -X importtime, the tool that measures this footprint, lists
        # modules loaded through __import__ but not through importlib
        script = "from hhtscale import cli; cli._bind(['emd']); import hhtscale; hhtscale.spectral_track"
        report = fresh_interpreter(script, "-X", "importtime", stream="stderr")
        listed = {line.rsplit("|", 1)[-1].strip() for line in report.splitlines()}
        assert {"hhtscale.spectral", "hhtscale.emd"} <= listed

    def test_version_loads_no_compute_module(self):
        script = """
import sys
from hhtscale import cli
assert cli.run(["--version"]) == 0
print(sorted(m for m in sys.modules if m.startswith("hhtscale")))
"""
        assert fresh_interpreter(script).splitlines()[-1] == "['hhtscale', 'hhtscale.cli']"

    def test_simulate_swapped_before_intraday_loads_is_restored_there(self):
        # a tracer swaps hhtscale.simulate.simulate for a wrapper before it
        # first imports hhtscale.intraday, which binds simulate at its
        # import; once the swap is undone, intraday calls the function again
        script = """
import importlib
module = importlib.import_module("hhtscale.simulate")
original = module.simulate
module.simulate = lambda *args, **kwargs: None
import hhtscale.intraday
module.simulate = original
print(hhtscale.intraday.simulate is original)
"""
        assert fresh_interpreter(script) == "True"

    def test_subcommand_names_bind_on_first_use(self):
        # looked up from outside before any run, a compute name is the
        # function of the module that lends it
        from hhtscale import cli, measures, spectral

        assert cli.spectral_track is spectral.spectral_track
        assert cli.scaling_exponent is measures.scaling_exponent
        with pytest.raises(AttributeError):
            cli.no_such_name

    def test_choices_match_the_library(self):
        # the parser is built with no compute module loaded, so these two
        # choice lists are spelled out in cli
        from hhtscale import cli, intraday
        from hhtscale.simulate import PROCESSES

        assert cli.PARAMS["measure"].choices == intraday.MEASURES
        assert cli.PARAMS["process"].choices == PROCESSES


class TestCells:
    """The bulk cell text of a numeric array or a range is ``_fmt``'s, cell by cell."""

    COLUMNS = {
        "floats": np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5e-300,
                            1.7976931348623157e308, 123456789.125]),
        "int64": np.array([0, -1, 2**62, -(2**63), 7], dtype=np.int64),
        "uint8": np.array([0, 255], dtype=np.uint8),
        "bool": np.array([True, False, True]),
        "float32": np.array([0.1, -2.5, np.nan], dtype=np.float32),
        "empty": np.array([], dtype=np.float64),
    }

    @pytest.mark.parametrize("column", COLUMNS.values(), ids=COLUMNS)
    def test_arrays(self, column):
        assert _cells(column) == [_fmt(v) for v in column.tolist()]

    @pytest.mark.parametrize("column", [range(0), range(1), range(5), range(3, 1950)])
    def test_ranges(self, column):
        assert _cells(column) == [_fmt(v) for v in column]

    def test_lists_of_numpy_scalars_keep_fmt(self):
        # repr(np.float64(0.5)) is "np.float64(0.5)" under NumPy 2
        column = [np.float64(0.5), np.float64(np.nan), np.int64(3), 0.25, 4]
        assert _cells(column) == ["0.5", "nan", "3.0", "0.25", "4"]
        assert _cells(column) == [_fmt(v) for v in column]
