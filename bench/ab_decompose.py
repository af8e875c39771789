"""Alternated A/B of ``decompose`` and of a whole ensemble path between two
source trees.

Each round runs one fresh process per tree, in alternating order (tree A
first in even rounds).  A process imports ``hhtscale`` from its tree's
``src`` (building that tree's ``sift.c`` on first import), simulates path 0
of ``--seed`` for bm, fBm H = 0.7, ARFIMA d = 0.2 (T = 10,000) and SLM
alpha = 1.5 (T = 10,384), sifts each path once to warm up, then times
``--repeats`` calls of each stage per path on the compiled backend and
reports their medians:
  - ``sim_ms``: ``simulate`` of the path;
  - ``ms``: ``decompose``;
  - ``spectral_ms``: ``spectral_track`` of the decomposition, and
    ``track_ms``: that plus ``scaling_exponent`` of the track;
  - ``path_ms``: the same path as a one-path ``monte_carlo_ensemble``
    (``threads=1``: simulate, sift, spectral track, ``H*`` and GHE), after
    one more warm-up run, with ``path_minflt``, the minor page faults
    (``ru_minflt``) the process took during each of those runs.
From the warm-up ``decompose`` it reports, per process, the sift steps of
the path (``sum(sift_counts)``) and the share of its components that
stopped at the step cap (stop reason ``"max-iterations"``).  Last it
reports its own peak resident set (``ru_maxrss``).  The per-round ``sum``
is the four medians added.

Prints one JSON block: per process and for the sum, for each stage
(``<name>_<stage>``), each tree's median, quartiles and runs, the rounds B
was lower, and the paired B/A ratios; the same for each side's
``peak_rss_mb``; whether every simulated path and every decomposition
(components, residue, sift counts, stop reasons) had the same digest on
both sides (``digests_equal``), and the same for each path's
``mean_hstar_t`` (``path_digests_equal``), which a change to the track's
last bits moves; and each tree's sift steps and cap share per process,
which every round of a tree reproduces.  A lever is kept when B wins at
least 9 of 10 rounds of the sum.

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
from hhtscale import SimConfig, monte_carlo_ensemble, scaling_exponent, simulate, spectral_track
from hhtscale._kernels import get_backend
from hhtscale.emd import decompose

seed, repeats, processes = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])
backend = get_backend("compiled")
out = {key: {} for key in ("ms", "sim_ms", "spectral_ms", "track_ms", "path_ms", "path_minflt",
                           "digest", "path_digest", "sift_steps", "cap_share")}


def median_ms(call):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e3


for name, (shape, length) in processes.items():
    config = SimConfig(process=name, length=length, seed=seed, paths=1, **shape)
    x = simulate(config, 0).values
    result = decompose(x, backend=backend)
    digest = hashlib.sha256(x.tobytes() + result.imfs.tobytes() + result.residue.tobytes())
    digest.update(repr((result.sift_counts, result.stop_reasons)).encode())
    out["digest"][name] = digest.hexdigest()
    out["sift_steps"][name] = sum(result.sift_counts)
    reasons = result.stop_reasons
    out["cap_share"][name] = reasons.count("max-iterations") / len(reasons) if reasons else 0.0
    out["sim_ms"][name] = median_ms(lambda: simulate(config, 0))
    out["ms"][name] = median_ms(lambda: decompose(x, backend=backend))
    out["spectral_ms"][name] = median_ms(lambda: spectral_track(result))
    out["track_ms"][name] = median_ms(lambda: scaling_exponent(spectral_track(result)))
    stats = monte_carlo_ensemble(config, threads=1)
    out["path_digest"][name] = hashlib.sha256(stats.mean_hstar_t.tobytes()).hexdigest()
    walls, faults = [], []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        monte_carlo_ensemble(config, threads=1)
        walls.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    out["path_ms"][name] = statistics.median(walls) * 1e3
    out["path_minflt"][name] = statistics.median(faults)
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
    """Both sides' per-round values, and how B's compare with A's (the
    ratios over the rounds where A's value is not zero, as a page-fault
    count can be)."""
    ratios = [vb / va for va, vb in zip(a, b) if va]
    paired = quartiles(ratios) if len(ratios) > 1 else None
    if paired:
        del paired["runs"]
    return {
        "a": quartiles(a),
        "b": quartiles(b),
        "b_over_a_median": statistics.median(b) / statistics.median(a)
        if statistics.median(a) else None,
        "rounds_b_lower": f"{sum(vb < va for va, vb in zip(a, b))}/{len(a)}",
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
    }
    for key in ("digest", "path_digest"):
        block[key + "s_equal"] = all(
            ra[key] == rb[key] for ra in runs["a"] for rb in runs["b"]
        )
    for key in ("ms", "sim_ms", "spectral_ms", "track_ms", "path_ms", "path_minflt"):
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
