import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import hhtscale

# The suite runs Hypothesis unseeded, so a failure prints the
# ``@reproduce_failure`` line that replays it; generation is unchanged.
settings.register_profile("reproducible", print_blob=True)
settings.load_profile("reproducible")


def build_price_csv(
    path,
    n_days: int = 3,
    per_session: int = 40,
    sessions: int = 1,
    seed: int = 0,
    bad_row: int | None = None,
):
    """Write a synthetic intraday price CSV; returns the row count."""
    rng = np.random.default_rng(seed)
    rows = ["date,time,price"]
    logp = 4.0
    hours = (9,) if sessions == 1 else (9, 13)
    for day in range(n_days):
        date = f"2026-01-{5 + day:02d}"
        for hour in hours:
            for k in range(per_session):
                minute, second = divmod(30 * k, 60)
                logp += 0.002 * rng.standard_normal()
                price = float(np.exp(logp))
                rows.append(f"{date},{hour:02d}:{minute:02d}:{second:02d},{price!r}")
    if bad_row is not None:
        parts = rows[bad_row].split(",")
        parts[-1] = "0"
        rows[bad_row] = ",".join(parts)
    path.write_text("\n".join(rows) + "\n")
    return len(rows) - 1


@pytest.fixture
def price_csv(tmp_path):
    path = tmp_path / "prices.csv"
    build_price_csv(path)
    return path


@pytest.fixture
def two_session_csv(tmp_path):
    path = tmp_path / "prices2.csv"
    build_price_csv(path, n_days=2, per_session=30, sessions=2)
    return path


def fresh_interpreter(script, *options, stream="stdout"):
    """What ``script`` prints to ``stream``, run in a fresh interpreter on
    this package with the interpreter ``options``."""
    package_root = str(Path(hhtscale.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *options, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return getattr(done, stream).strip()
