"""Alternated A/B of ``decompose`` and of a whole ensemble path between two
source trees.

Each round runs one fresh process per tree, in alternating order (tree A
first in even rounds).  A process imports ``hhtscale`` from its tree's
``src`` (building that tree's ``sift.c`` on first import), simulates path 0
of ``--seed`` for bm, fBm H = 0.7, ARFIMA d = 0.2 (T = 10,000) and SLM
alpha = 1.5 (T = 10,384), sifts each path once to warm up, then times
``--repeats`` calls of ``decompose`` per path on the compiled backend and
reports their median.  It then runs the same path as a one-path
``monte_carlo_ensemble`` (``threads=1``: simulate, sift, spectral track,
``H*`` and GHE) once to warm up and ``--repeats`` times more, and reports
that median too.  From the warm-up ``decompose`` it reports, per process,
the sift steps of the path (``sum(sift_counts)``) and the share of its
components that stopped at the step cap (stop reason
``"max-iterations"``).  Last it reports its own peak resident set
(``ru_maxrss``).  The per-round ``sum`` is the four medians added.

Prints one JSON block: per process and for the sum, for ``decompose``
(``<name>_ms``) and for the whole path (``<name>_path_ms``), each tree's
median, quartiles and runs, the rounds B was lower, and the paired B/A
ratios; the same for each side's ``peak_rss_mb``; and whether every output
digest (components, residue, sift counts, stop reasons, and the path's
``mean_hstar_t``) was equal on both sides; and each tree's sift steps and
cap share per process, which every round of a tree reproduces.  A lever is
kept when B wins at least 9 of 10 rounds of the sum.

    python3 bench/ab_decompose.py TREE_A TREE_B --rounds 10 --a "..." --b "..."
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PROCESSES = {
    "bm": ({}, 10_000),
    "fbm": ({"hurst": 0.7}, 10_000),
    "arfima": ({"d": 0.2}, 10_000),
    "slm": ({"alpha": 1.5}, 10_384),
}

CHILD = r"""
import hashlib, json, resource, statistics, sys, time
from hhtscale import SimConfig, monte_carlo_ensemble, simulate
from hhtscale._kernels import get_backend
from hhtscale.emd import decompose

seed, repeats, processes = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])
backend = get_backend("compiled")
out = {"ms": {}, "path_ms": {}, "digest": {}, "sift_steps": {}, "cap_share": {}}
for name, (shape, length) in processes.items():
    config = SimConfig(process=name, length=length, seed=seed, paths=1, **shape)
    x = simulate(config, 0).values
    result = decompose(x, backend=backend)
    digest = hashlib.sha256(result.imfs.tobytes() + result.residue.tobytes())
    digest.update(repr((result.sift_counts, result.stop_reasons)).encode())
    out["digest"][name] = digest.hexdigest()
    out["sift_steps"][name] = sum(result.sift_counts)
    reasons = result.stop_reasons
    out["cap_share"][name] = reasons.count("max-iterations") / len(reasons) if reasons else 0.0
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        decompose(x, backend=backend)
        walls.append(time.perf_counter() - start)
    out["ms"][name] = statistics.median(walls) * 1e3
    stats = monte_carlo_ensemble(config, threads=1)
    out["digest"][name + "_path"] = hashlib.sha256(stats.mean_hstar_t.tobytes()).hexdigest()
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        monte_carlo_ensemble(config, threads=1)
        walls.append(time.perf_counter() - start)
    out["path_ms"][name] = statistics.median(walls) * 1e3
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(out))
"""


def run_side(tree: Path, seed: int, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), HHTSCALE_BACKEND="compiled")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(seed), str(repeats), json.dumps(PROCESSES)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(done.stdout)


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(a: list, b: list) -> dict:
    """Both sides' per-round values, and how B's compare with A's."""
    ratios = [vb / va for va, vb in zip(a, b)]
    paired = quartiles(ratios)
    del paired["runs"]
    return {
        "a": quartiles(a),
        "b": quartiles(b),
        "b_over_a_median": statistics.median(b) / statistics.median(a),
        "rounds_b_lower": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
        "paired_b_over_a": paired,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--a", default="tree A", help="what tree A is")
    parser.add_argument("--b", default="tree B", help="what tree B is")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    runs = {"a": [], "b": []}
    for index in range(args.rounds):
        order = ("a", "b") if index % 2 == 0 else ("b", "a")
        for side in order:
            tree = args.tree_a if side == "a" else args.tree_b
            runs[side].append(run_side(tree.resolve(), args.seed, args.repeats))
        print(f"round {index + 1}/{args.rounds} done", file=sys.stderr)

    block = {
        "a": args.a, "b": args.b, "rounds": args.rounds, "repeats": args.repeats,
        "seed": args.seed,
        "digests_equal": all(
            ra["digest"] == rb["digest"] for ra in runs["a"] for rb in runs["b"]
        ),
    }
    for key in ("ms", "path_ms"):
        for name in [*PROCESSES, "sum"]:
            per = {
                side: [
                    sum(r[key].values()) if name == "sum" else r[key][name] for r in runs[side]
                ]
                for side in ("a", "b")
            }
            block[f"{name}_{key}"] = compare(per["a"], per["b"])
    block["peak_rss_mb"] = compare(*([r["peak_rss_mb"] for r in runs[side]] for side in "ab"))
    for key in ("sift_steps", "cap_share"):
        block[key] = {side: runs[side][0][key] for side in "ab"}
        block[key]["same_every_round"] = all(
            r[key] == runs[side][0][key] for side in "ab" for r in runs[side]
        )
    print(json.dumps(block, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
