#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about two minutes).

    python3 perfbench/selftest.py

For every workload it checks that the untraced and the traced run each
print every metric BENCHMARK.json names, with its unit, and pass their
output checks; and that a run whose first output is deliberately damaged
(a truncated CSV, a shortened H* track) reports that op as failed and
exits non-zero, instead of counting it as a fast op.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, *extra: str):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--size", "tiny", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(argv)} printed nothing:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    problems = []
    for name in WORKLOADS:
        if why.get(name) != WORKLOADS[name]().why:
            problems.append(f"{name}: BENCHMARK.json gives another reason than workloads.py")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(name, "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: exit {code}, result {result}\n{err}")
        code, result, _ = run(name, "--trace", "0", "--inject-fault")
        if code == 0 or result["correct"] or result["failed"] != 1:
            problems.append(f"{name}: a damaged output was not counted as a failed op: {result}")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
