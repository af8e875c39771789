"""The A/B tools in ``bench/``: ``ab.py`` over every stage, with this tree
loaded twice under two names, its one-value statistics, and ``pairs.py``'s
refusal of a run that wrote no record."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import ab  # noqa: E402
import pairs  # noqa: E402


def test_ab_runs_every_stage_with_equal_digests_on_one_tree():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ab.py"), str(ROOT), str(ROOT), "--rounds", "1",
         "--repeats", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    block = json.loads(done.stdout)
    assert block["digests_equal"] is True
    series = [*ab.PROCESSES, "ticks_0.01", "ticks_0.05", "cli"]
    assert list(block["stages"]) == list(ab.STAGES)
    for stage, per in block["stages"].items():
        names = list(ab.PROCESSES) if stage in ("simulate", "path") else series
        assert list(per) == [*names, "sum"], stage
        for name in names:
            assert per[name]["digests_equal"] is True, (stage, name)
    assert block["stages"]["scan"]["cli"]["inputs"]["calls"] > 0
    assert block["stages"]["path"]["bm"]["minflt_per_call"]["a"]["runs"]


def test_statistics_of_one_value():
    assert ab.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "runs": [2.5]}
    one = ab.compare([2.0], [1.0], passes=[0.5])
    assert one["rounds_b_lower"] == "1/1"
    assert one["paired_b_over_a"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert ab.quartiles([1.0, 2.0, 3.0])["q1"] == 1.5


def test_pairs_refuses_a_run_that_wrote_no_record(tmp_path):
    # a tree whose run.py dies before it writes a record, beside the record
    # of an earlier run
    (tmp_path / "perfbench" / "results").mkdir(parents=True)
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit(1)\n")
    stale = tmp_path / "perfbench" / "results" / "ensemble_t10k-seed3-trace0.json"
    stale.write_text(json.dumps({"metrics": {}}))
    with pytest.raises(RuntimeError, match=r"ensemble_t10k exited 1") as caught:
        pairs.run_once(tmp_path, "ensemble_t10k", 3, 1.0, 0)
    assert str(tmp_path) in str(caught.value)
    assert not stale.exists()
