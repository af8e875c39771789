"""Alternated parent/change pairs of ``perfbench/run.py``, folded into a
BENCH file.

Both trees are checkouts of committed files (``git archive`` of each
commit), each with its own ``perfbench/`` and ``src/``.  Pair i (from 1)
runs each workload on the parent first when i is odd and on the change
first when i is even, with ``--trace 0``; then each side makes one
``--trace 1`` run per workload.  Per end-to-end metric the file gets each
side's median, quartiles and runs, the pairs the change won, the relative
change of the median and the parent's IQR; beside them, per pair, the raw
``op_ms_p50``, ``op_ms_tail``, ``ops_per_s`` and ``reference_ms`` of both
sides.  Op
digests of the same op index are compared within each pair.

    python3 bench/pairs.py PARENT_TREE CHANGE_TREE --pairs 10 --seed 18 \\
        --commits PARENT_SHA CHANGE_SHA --lever c_loop.json --out BENCH_18.json

``--lever`` adds a JSON block written by ``bench/ab.py`` (one per file,
keyed by the file's stem) under ``levers_in_process``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from ab import quartiles

WORKLOADS = ("ensemble_t10k", "cli_cold")
TRACED = (
    "emd.sift_iterations", "emd.n_imfs", "emd.cap_stop_share", "kernels.find_extrema_calls",
    "kernels.spline_eval_calls", "emd.decompose_ms", "kernels.find_extrema_us.default",
    "trace.overhead_share",
)
RAW = ("op_ms_p50", "op_ms_tail", "ops_per_s", "reference_ms")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its run record.  The last
    run's record is deleted first, so that a run which dies before writing
    its own is an error, not a copy of the last one."""
    record = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.DEVNULL, check=False, timeout=3600,
    )
    if not record.exists():
        raise RuntimeError(
            f"{tree}: perfbench/run.py --workload {workload} exited {done.returncode} "
            "without writing its run record"
        )
    return json.loads(record.read_text())


def fold(records: dict, bounds: dict) -> dict:
    """Per-metric comparison of the parent's and the change's run records."""
    out = {}
    for name, spec in bounds.items():
        sides = {side: [r["metrics"][name]["value"] for r in records[side]] for side in records}
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": change,
            "change_wins": f"{wins}/{len(sides['parent'])}",
            "median_change": (change["median"] - parent["median"]) / parent["median"]
            if parent["median"] else 0.0,
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def compare_digests(records: dict) -> dict:
    compared = equal = 0
    for parent, change in zip(records["parent"], records["change"]):
        theirs = {op["index"]: op["digest"] for op in parent["ops"] if op["ok"]}
        for op in change["ops"]:
            if op["ok"] and op["index"] in theirs:
                compared += 1
                equal += op["digest"] == theirs[op["index"]]
    return {"compared": compared, "equal": equal, "different": compared - equal}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--lever", type=Path, action="append", default=[])
    parser.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="the trees' commits, for trees made by git archive")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in declared["end_to_end"]}

    records = {w: {"parent": [], "change": []} for w in WORKLOADS}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                records[workload][side].append(
                    run_once(trees[side], workload, args.seed, args.seconds, 0)
                )
        print(f"pair {pair}/{args.pairs} done", file=sys.stderr)

    commits = args.commits or [records[WORKLOADS[0]][side][0]["commit"] for side in trees]
    bench = {
        "what": "End-to-end metrics from `python3 perfbench/run.py --workload W "
                f"--seed {args.seed} --seconds {args.seconds:g} --trace 0`, run in a copy of "
                "each commit's files, parent and change alternated; traced runs are one "
                "`--trace 1` run per side.",
        "parent_commit": commits[0],
        "change_commit": commits[1],
        "workloads": {},
    }
    for workload in WORKLOADS:
        rec = records[workload]
        first = rec["change"][0]
        traced = {
            side: run_once(trees[side], workload, args.seed, args.seconds, 1) for side in trees
        }
        bench["workloads"][workload] = {
            "seed": args.seed, "run_seconds": args.seconds, "pairs": args.pairs,
            "order": "pair i runs the parent first when i is odd, the change first when i is even",
            "backend": first["backend"], "nproc": first["nproc"], "python": first["python"],
            "numpy": first["numpy"],
            "end_to_end": fold(rec, bounds),
            "raw_per_pair": [
                {side: {key: r[key] for key in RAW} for side, r in (("parent", p), ("change", c))}
                for p, c in zip(rec["parent"], rec["change"])
            ],
            "op_digests": compare_digests(rec),
            "correct": {side: all(r["failed"] == 0 and not r["failures"] for r in rec[side])
                        for side in rec},
            "traced_run": {
                side: {"correct": not t["failures"], "failures": t["failures"],
                       **{k: t["metrics"][k]["value"] for k in TRACED}}
                for side, t in traced.items()
            },
        }
    if args.lever:
        bench["levers_in_process"] = {
            path.stem: json.loads(path.read_text()) for path in args.lever
        }
    bench["harness_machine"] = {
        "python": platform.python_version(), "platform": platform.platform(),
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
