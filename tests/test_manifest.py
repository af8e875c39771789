"""Tests for the run-manifest sidecar format."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from hhtscale import RunManifest, file_digest
from hhtscale.cli import run


def sample_manifest() -> RunManifest:
    return RunManifest(
        subcommand="decompose",
        params={
            "input": "prices.csv",
            "max_imfs": "8",
            "price_col": "close",
            "table": "true",
            "verbose": "false",
        },
        inputs={"prices.csv": "ab" * 32},
        seed=42,
        threads=4,
        duration_s=1.25,
    )


class TestRoundTrip:
    def test_text_round_trip(self):
        m = sample_manifest()
        again = RunManifest.from_text(m.to_text())
        assert again == m

    def test_file_round_trip(self, tmp_path):
        m = sample_manifest()
        path = tmp_path / "out.csv.manifest"
        m.write(path)
        assert RunManifest.load(path) == m

    def test_none_seed_survives(self):
        m = RunManifest(subcommand="table", seed=None)
        assert RunManifest.from_text(m.to_text()).seed is None

    def test_rng_is_empty_unless_given(self):
        m = RunManifest(subcommand="decompose")
        assert "rng=\n" in m.to_text()
        assert RunManifest.from_text(m.to_text()).rng is None
        named = RunManifest(subcommand="simulate", rng="philox")
        assert RunManifest.from_text(named.to_text()).rng == "philox"

    def test_older_manifest_with_rng_loads(self):
        # manifests of every subcommand once recorded rng=philox
        text = "subcommand=decompose\nversion=0.1.0\nrng=philox\nseed=\nthreads=\n"
        m = RunManifest.from_text(text)
        assert (m.subcommand, m.rng, m.seed, m.threads) == ("decompose", "philox", None, None)

    def test_header_and_ordering(self):
        text = sample_manifest().to_text()
        lines = text.splitlines()
        assert lines[0] == "# hhtscale run manifest v1"
        param_lines = [l for l in lines if l.startswith("param.")]
        assert param_lines == sorted(param_lines)
        assert text.endswith("\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            RunManifest.from_text("subcommand=x\nnot a key value line\n")

    def test_newline_in_value_rejected(self):
        m = RunManifest(subcommand="x", params={"label": "two\nlines"})
        with pytest.raises(ValueError, match="newline"):
            m.to_text()


class TestToArgv:
    def test_positional_flags_seed_threads(self):
        argv = sample_manifest().to_argv()
        assert argv[0] == "decompose"
        assert argv[1] == "prices.csv"  # positional input leads
        assert argv[-4:] == ["--seed", "42", "--threads", "4"]
        assert "--max-imfs" in argv and argv[argv.index("--max-imfs") + 1] == "8"

    def test_true_and_false_are_plain_values(self, tmp_path):
        # a column named "false" is passed on like any other value, so the
        # replay reads the same column and writes the same bytes
        values = tmp_path / "v.csv"
        x = np.cumsum(np.random.default_rng(3).standard_normal(300))
        values.write_text("false\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        first, replay = tmp_path / "first", tmp_path / "replay"
        argv = ["decompose", str(values), "--values-col", "false"]
        assert run(argv + ["--out-dir", str(first)]) == 0
        manifest = RunManifest.load(first / "imfs.csv.manifest")
        replayed = manifest.to_argv()
        assert replayed[replayed.index("--values-col") + 1] == "false"
        assert run(replayed + ["--out-dir", str(replay)]) == 0
        assert (first / "imfs.csv").read_bytes() == (replay / "imfs.csv").read_bytes()
        # and "true" is a value too, not a bare flag
        argv = RunManifest(subcommand="x", params={"values_col": "true"}).to_argv()
        assert argv == ["x", "--values-col", "true", "--threads", "1"]

    def test_underscores_become_dashes(self):
        argv = RunManifest(subcommand="x", params={"day_length": "256"}).to_argv()
        assert argv == ["x", "--day-length", "256", "--threads", "1"]

    def test_no_seed_emits_no_flag(self):
        argv = RunManifest(subcommand="table").to_argv()
        assert "--seed" not in argv

    def test_no_threads_round_trips_and_emits_no_flag(self):
        m = RunManifest(subcommand="decompose", params={"input": "p.csv"}, threads=None)
        text = m.to_text()
        assert "threads=\n" in text
        again = RunManifest.from_text(text)
        assert again == m
        assert again.to_argv() == ["decompose", "p.csv"]

    def test_negative_values_use_equals_form(self):
        argv = RunManifest(subcommand="table", params={"d_grid": "-0.2,0.2"}).to_argv()
        assert "--d-grid=-0.2,0.2" in argv  # a separate token would misparse


class TestFileDigest:
    def test_matches_hashlib(self, tmp_path):
        payload = b"alpha\nbeta\n" * 1000
        path = tmp_path / "data.bin"
        path.write_bytes(payload)
        assert file_digest(path) == hashlib.sha256(payload).hexdigest()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert file_digest(path) == hashlib.sha256(b"").hexdigest()
