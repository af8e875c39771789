"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every input derives from the workload seed given on the command line; the
program under test only ever sees the generated files and configs.  An
operation runs either *cold* (the CLI in a fresh interpreter, as a user
runs it) or *warm* (the same work in this process, where the traced run
can look inside it).  The ensemble workload calls the library API, so its
cold and warm forms are the same call.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sizes are per workload; "tiny" exists only for selftest.py.
SIZES = {
    "full": {
        "length": 10_000,
        # SimConfig accepts slm only where 128 * (6000 + length) is a power of
        # two; 10,384 is the acceptance suite's length for the same reason.
        "slm_length": 10_384,
        "days": 5,
        "bars": 390,
        "band_sims": 10,  # the fewest bm_reference_band accepts
    },
    "tiny": {
        "length": 2_048,
        "slm_length": 2_192,
        "days": 2,
        "bars": 195,
        "band_sims": 10,
    },
}

# A child that runs longer than this is killed and its op counts as failed.
CHILD_TIMEOUT_S = 150.0


def op_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for operation ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


def write_prices(path: Path, days: int, bars: int, seed: int) -> int:
    """Write ``days`` x ``bars`` one-minute bars of a log-price random walk.

    Columns are ``date,time,price``; days are consecutive weekdays from
    2024-01-02 and each starts at 09:30.  Returns the number of rows.
    """
    rng = np.random.default_rng(seed)
    log_price = math.log(100.0) + np.cumsum(5e-4 * rng.standard_normal(days * bars))
    prices = np.exp(log_price).tolist()
    lines = ["date,time,price"]
    day = datetime.date(2024, 1, 2)
    k = 0
    for _ in range(days):
        while day.weekday() >= 5:
            day += datetime.timedelta(days=1)
        stamp = day.isoformat()
        for minute in range(bars):
            hour, mins = divmod(9 * 60 + 30 + minute, 60)
            lines.append(f"{stamp},{hour:02d}:{mins:02d}:00,{prices[k]!r}")
            k += 1
        day += datetime.timedelta(days=1)
    path.write_text("\n".join(lines) + "\n")
    return days * bars


@dataclass
class OpResult:
    """What one operation returned, before its output is checked."""

    index: int
    label: str
    wall_s: float
    exit_code: int = 0
    error: str = ""
    rss_kb: int = 0  # peak RSS of the child, cold CLI ops only
    payload: object = None  # EnsembleStats, or the CLI output directory
    # filled in by the check
    ok: bool = False
    reason: str = ""
    digest: str = ""
    output_bytes: int = 0


class Workload:
    """One operation mix; ``prepare`` writes its inputs for one seed."""

    def __init__(self, name: str, why: str, cycle: int):
        self.name, self.why = name, why
        self.cycle = cycle  # ops per full cycle of the operation mix

    def prepare(self, work: Path, seed: int, size: str) -> None:
        self.work, self.seed, self.size = work, seed, SIZES[size]


# ---------------------------------------------------------------------------
# ensemble_t10k: one-path monte_carlo_ensemble calls through the library API

ENSEMBLE_MIX = (
    ("bm", {}),
    ("fbm", {"hurst": 0.7}),
    ("slm", {"alpha": 1.5}),
    ("arfima", {"d": 0.2}),
)


class EnsembleWorkload(Workload):
    def config(self, index: int):
        from hhtscale import SimConfig

        process, shape = ENSEMBLE_MIX[index % len(ENSEMBLE_MIX)]
        length = self.size["slm_length" if process == "slm" else "length"]
        return SimConfig(process, length, seed=op_seed(self.seed, index), paths=1, **shape)

    def run(self, index: int, cold: bool, out_dir: Path, env) -> OpResult:
        from hhtscale import monte_carlo_ensemble

        config = self.config(index)
        start = time.perf_counter()
        stats = monte_carlo_ensemble(config, threads=1)
        wall = time.perf_counter() - start
        return OpResult(index, config.process, wall, payload=stats)

    def corrupt(self, result: OpResult) -> None:
        result.payload.mean_hstar_t = result.payload.mean_hstar_t[:-1]

    def check(self, result: OpResult) -> None:
        stats = result.payload
        length = stats.config.length
        if not (math.isfinite(stats.grand_mean) and math.isfinite(stats.mean_r2)):
            result.reason = f"non-finite grand_mean {stats.grand_mean} / mean_r2 {stats.mean_r2}"
        elif stats.mean_hstar_t.shape != (length,):
            result.reason = f"mean_hstar_t has shape {stats.mean_hstar_t.shape}, want ({length},)"
        else:
            result.ok = True
        digest = hashlib.sha256(np.ascontiguousarray(stats.mean_hstar_t).tobytes())
        digest.update(struct.pack("<4d", stats.grand_mean, stats.grand_std, stats.mean_r2, stats.ghe_mean))
        result.digest = digest.hexdigest()
        result.payload = None


# ---------------------------------------------------------------------------
# cli_cold: fresh CLI runs of the subcommands that read a price file


def expected_outputs(subcommand: str, rows: int, days: int, bars: int) -> dict[str, int]:
    """Files a subcommand writes, with the data rows each must hold."""
    if subcommand == "decompose":
        return {"imfs.csv": rows}
    if subcommand == "spectral":
        return {"spectral_amplitude.csv": rows, "spectral_frequency.csv": rows}
    if subcommand == "intraday":
        return {"intraday_panel.csv": days, "intraday_profile.csv": bars}
    return {f"{subcommand}.csv": rows}


def check_cli_outputs(out_dir: Path, subcommand: str, input_arg: str, expected: dict[str, int]):
    """Check one CLI run's files; returns (reason or "", digest, bytes).

    Every CSV must start with its ``# schema:`` line, end with a newline and
    hold the expected number of rows, each as wide as the header; every
    manifest must load and replay the same subcommand on the same input.
    The digest covers the CSV bytes only, since manifests record wall time.
    """
    from hhtscale.manifest import RunManifest

    digest = hashlib.sha256()
    total = 0
    for name, rows in sorted(expected.items()):
        path = out_dir / name
        try:
            data = path.read_bytes()
            manifest = RunManifest.load(out_dir / (name + ".manifest"))
        except (OSError, ValueError) as exc:
            return f"{name}: {exc}", "", total
        total += len(data)
        digest.update(name.encode() + b"\0" + data)
        text = data.decode("utf-8", "replace")
        if not text.startswith("# schema: ") or not text.endswith("\n"):
            return f"{name}: missing schema line or final newline", "", total
        body = [line for line in text.splitlines() if not line.startswith("#")]
        if len(body) - 1 != rows:
            return f"{name}: {len(body) - 1} data rows, want {rows}", "", total
        width = body[0].count(",")
        if any(line.count(",") != width for line in body[1:]):
            return f"{name}: a row differs in width from the header", "", total
        argv = manifest.to_argv()
        if argv[:2] != [subcommand, input_arg]:
            return f"{name}.manifest replays {argv[:2]}, want {[subcommand, input_arg]}", "", total
    return "", digest.hexdigest(), total


def run_child(argv: list[str], env: dict, cwd: Path, stderr_path: Path):
    """Run one child to completion; returns (wall s, exit code, peak RSS KB).

    The RSS is the child's own, read from ``os.wait4``; RUSAGE_CHILDREN
    would be a running maximum over every child reaped so far.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, proc.returncode, usage.ru_maxrss


class CliColdWorkload(Workload):
    """Fresh CLI runs of every subcommand that reads a price file, in turn."""

    SUBCOMMANDS = ("decompose", "spectral", "scaling", "complexity", "intraday")
    MEASURES = ("hstar", "cstar")

    def prepare(self, work: Path, seed: int, size: str) -> None:
        super().prepare(work, seed, size)
        self.days, self.bars = self.size["days"], self.size["bars"]
        self.csv = work / f"prices_{self.days}d.csv"
        # spawn keys from 2**20 up are inputs; below that, operations
        self.rows = write_prices(self.csv, self.days, self.bars, op_seed(seed, 1 << 20))

    def argv(self, index: int) -> tuple[str, list[str]]:
        cycle, position = divmod(index, len(self.SUBCOMMANDS))
        subcommand = self.SUBCOMMANDS[position]
        args = [subcommand, str(self.csv)]
        if subcommand == "intraday":
            args += [
                "--band-sims", str(self.size["band_sims"]),
                "--measure", self.MEASURES[cycle % len(self.MEASURES)],
                "--seed", str(op_seed(self.seed, index)),
            ]
        return subcommand, args

    def run(self, index: int, cold: bool, out_dir: Path, env) -> OpResult:
        subcommand, args = self.argv(index)
        args = args + ["--out-dir", str(out_dir)]
        if cold:
            stderr = out_dir.with_suffix(".stderr")
            wall, code, rss = run_child([sys.executable, "-m", "hhtscale.cli", *args], env, self.work, stderr)
            error = stderr.read_text(errors="replace")[-300:] if code != 0 else ""
            return OpResult(index, subcommand, wall, code, error, rss, payload=out_dir)
        from hhtscale import cli

        start = time.perf_counter()
        code = cli.run(args)
        wall = time.perf_counter() - start
        return OpResult(index, subcommand, wall, code, payload=out_dir)

    def corrupt(self, result: OpResult) -> None:
        subcommand, _ = self.argv(result.index)
        path = result.payload / sorted(self.expected(subcommand))[0]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    def expected(self, subcommand: str) -> dict[str, int]:
        return expected_outputs(subcommand, self.rows, self.days, self.bars)

    def check(self, result: OpResult) -> None:
        subcommand, args = self.argv(result.index)
        if result.exit_code != 0:
            result.reason = f"exit code {result.exit_code}: {result.error.strip()}"
            return
        reason, digest, nbytes = check_cli_outputs(result.payload, subcommand, args[1], self.expected(subcommand))
        result.ok, result.reason = not reason, reason
        result.digest, result.output_bytes = digest, nbytes


WORKLOADS = {
    "ensemble_t10k": lambda: EnsembleWorkload(
        "ensemble_t10k",
        "one-path ensembles of bm, fbm, slm and arfima at T=10k: sifting is most of "
        "each op and slm paths, which hit the iteration cap, form the tail",
        cycle=len(ENSEMBLE_MIX),
    ),
    "cli_cold": lambda: CliColdWorkload(
        "cli_cold",
        "fresh CLI decompose/spectral/scaling/complexity/intraday on 1,950 rows: "
        "interpreter start and import are most of each op, so a kernel speed-up barely moves it",
        cycle=len(CliColdWorkload.SUBCOMMANDS),
    ),
}
