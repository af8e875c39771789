"""Alternated A/B of the pipeline's stages between two source trees, both
loaded in one interpreter.

Each round is one fresh interpreter that loads tree A's and tree B's
``src/hhtscale`` as two packages, ``tree_a`` and ``tree_b``
(``importlib.util.spec_from_file_location`` with
``submodule_search_locations``); each package's own loader builds and loads
its tree's ``sift.c`` under ``HHTSCALE_BACKEND=compiled``.  Even rounds load
tree A first and odd rounds tree B, so that neither tree keeps the placement
of the first one loaded.  Code placement still moves a kernel by about 2%:
an unchanged ``hht_find_extrema`` reads 0.98x in a library whose other
functions changed, so kernel differences below that cannot be attributed to
the source.  Within a round the two sides alternate pass by pass, tree A
first in even passes, so that a change in the machine's speed falls on both
sides of a pair of passes.

The series are tree A's:
  - path 0 of ``--seed`` for each ``ensemble_t10k`` process
    (``perfbench.workloads.ENSEMBLE_MIX`` at ``SIZES["full"]``);
  - ``ticks_<tick>``: log prices of a T = 10,000 price walk from 100 with
    per-step log sd 5e-4, rounded to multiples of ``tick`` (0.01 and 0.05),
    so that runs of equal samples are common;
  - ``cli``: the log prices of the ``cli_cold`` price file of workload seed
    ``--seed`` (5 days of 390 one-minute bars).
The stages (``--stage``, repeatable; all by default), each side calling its
own package:
  - ``simulate``: ``simulate`` of each process's path;
  - ``decompose``: ``decompose`` of each series; each side's sift steps
    (``sum(sift_counts)``) and cap share (stop reason ``"max-iterations"``);
  - ``spectral``: ``spectral_track`` of the side's decomposition;
  - ``track``: that plus ``scaling_exponent`` of the track;
  - ``path``: the process's path as a one-path ``monte_carlo_ensemble``
    (``threads=1``), with the minor page faults (``ru_minflt``) per call;
  - ``scan``: the raw ``hht_find_extrema`` entry, on preallocated buffers,
    over every scan ``decompose`` makes of the series (recorded through
    tree A's kernels with only ``find_extrema`` and ``spline_eval``, whose
    loop scans what the one-call sift scans), with the blocks of 64 steps
    read off the masks alone (``fast_blocks``: not the first block, and no
    flat step in the block or just before it);
  - ``component``: the raw ``hht_sift_component`` entry with tree A's
    ``emd.MAX_SIFT_ITERATIONS`` budget over each component's input.
A side given ``--a-flags`` or ``--b-flags`` runs the kernel stages on its
``sift.c`` built as its package builds it plus those flags (say
``-U__SSE2__``), into a temporary directory, loaded through ``Kernels``.

Per stage and series, each side makes two untimed calls, or for a kernel
stage an untimed sweep and call: the first's outputs are hashed, the second
runs under ``tracemalloc`` for its peak (one process holds both trees, so
its peak RSS cannot be split between them).  Then come ``--repeats`` timed
passes (9 by default, 31 for the kernel stages): one call per pass, or for a
kernel stage a sweep over the recorded inputs (microseconds per call) and
``--repeats`` x 10 calls on the first input (``first``).  A kernel call's
time includes one ctypes call, alike on both sides: 1.0-1.1 us on a
four-sample input on a 2-vCPU VM, against 12.5-13.4 us for a scan of the
T = 10,000 fBm path there.

Prints one JSON block.  Per stage and series, and for the sum of the
``ensemble_t10k`` processes, each side's median, quartiles and runs over the
rounds of the per-round medians, the rounds B was lower, the paired B/A
ratios and the quartiles of the rounds' median per-pass ratios
(``pass_b_over_a``); the same for page faults and traced peaks; and whether
every output had the same digest on both sides in every round
(``digests_equal``, also over everything).  A lever is kept when B wins at
least 9 of 10 rounds of the sum.

    python3 bench/ab.py TREE_A TREE_B --rounds 10 --a "..." --b "..."
    python3 bench/ab.py TREE_A TREE_A --stage scan --b-flags -U__SSE2__
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent))
from perfbench.workloads import ENSEMBLE_MIX, SIZES, op_seed, write_prices  # noqa: E402

FULL = SIZES["full"]
PROCESSES = {
    name: (shape, FULL["slm_length" if name == "slm" else "length"])
    for name, shape in ENSEMBLE_MIX
}
TICKS = ("0.01", "0.05")
STAGES = ("simulate", "decompose", "spectral", "track", "path", "scan", "component")
KERNEL_STAGES = ("scan", "component")
# a round: this file imported in a fresh interpreter, its result on stdout
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import ab; "
         "print(json.dumps(ab.one_round(json.loads(sys.argv[2]))))")


def quartiles(values) -> dict:
    """Median and inclusive quartiles of ``values``, with the values; one
    value is its own median and both quartiles."""
    values = list(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(a: list, b: list, passes: list | None = None) -> dict:
    """Both sides' per-round values, and how B's compare with A's: the
    ratios over the rounds where A's value is not zero (a page-fault count
    can be), and the rounds' median per-pass ratios when given."""
    ratios = [vb / va for va, vb in zip(a, b) if va]
    paired = quartiles(ratios) if ratios else None
    if paired:
        del paired["runs"]
    out = {
        "a": quartiles(a),
        "b": quartiles(b),
        "b_over_a_median": statistics.median(b) / statistics.median(a)
        if statistics.median(a) else None,
        "rounds_b_lower": f"{sum(vb < va for va, vb in zip(a, b))}/{len(a)}",
        "paired_b_over_a": paired,
    }
    if passes is not None:
        out["pass_b_over_a"] = quartiles(passes)
    return out


# ---------------------------------------------------------------------------
# one round, in a fresh interpreter


class Side:
    """One tree's ``hhtscale``, loaded as the package ``name``."""

    def __init__(self, src: str, name: str, library: str | None):
        init = Path(src) / "hhtscale" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)]
        )
        self.pkg = importlib.util.module_from_spec(spec)
        sys.modules[name] = self.pkg
        spec.loader.exec_module(self.pkg)
        self.backend = importlib.import_module(name + "._kernels").get_backend("compiled")
        self.kernels = (importlib.import_module(name + "._kernels.compiled").Kernels(library)
                        if library else self.backend)
        self.budget = importlib.import_module(name + ".emd").MAX_SIFT_ITERATIONS

    def config(self, name: str, seed: int):
        shape, length = PROCESSES[name]
        return self.pkg.SimConfig(process=name, length=length, seed=seed, paths=1, **shape)


def make_series(side: Side, seed: int) -> dict:
    series = {name: side.pkg.simulate(side.config(name, seed), 0).values for name in PROCESSES}
    rng = np.random.default_rng(seed)
    for tick in TICKS:
        price = np.exp(math.log(100.0) + np.cumsum(5e-4 * rng.standard_normal(FULL["length"])))
        series["ticks_" + tick] = np.log(np.round(price / float(tick)) * float(tick))
    with tempfile.TemporaryDirectory() as tmp:
        prices = Path(tmp) / "prices.csv"
        write_prices(prices, FULL["days"], FULL["bars"], op_seed(seed, 1 << 20))
        series["cli"] = side.pkg.ingest_prices(prices)[0].values
    return series


def digest(value, h=None):
    """SHA-256 of an output: arrays by dtype, shape and bytes, dataclasses
    field by field, sequences item by item, anything else by repr."""
    h = hashlib.sha256() if h is None else h
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            digest(getattr(value, field.name), h)
    elif isinstance(value, (list, tuple)):
        for item in value:
            digest(item, h)
    else:
        h.update(repr(value).encode())
    return h


def traced(call):
    """``(tracemalloc peak in kB, output)`` of one call."""
    tracemalloc.start()
    try:
        output = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024.0, output


def alternate(calls: dict, repeats: int, scale: float) -> list:
    """``[A's median, B's median, the median per-pass ratio B/A]`` of
    ``repeats`` passes of each side's call, tree A first in even passes,
    in seconds times ``scale``."""
    walls = {"a": [], "b": []}
    for r in range(repeats):
        for side in ("a", "b") if r % 2 == 0 else ("b", "a"):
            start = time.perf_counter()
            calls[side]()
            walls[side].append(time.perf_counter() - start)
    a, b = walls["a"], walls["b"]
    return [statistics.median(a) * scale, statistics.median(b) * scale,
            statistics.median(wb / wa for wa, wb in zip(a, b))]


def pipeline_call(stage: str, side: Side, name: str, x, seed: int):
    pkg = side.pkg
    if stage in ("simulate", "path"):
        config = side.config(name, seed)
        if stage == "simulate":
            return lambda: pkg.simulate(config, 0)
        return lambda: pkg.monte_carlo_ensemble(config, threads=1)
    if stage == "decompose":
        return lambda: pkg.decompose(x, backend=side.backend)
    decomposition = pkg.decompose(x, backend=side.backend)
    if stage == "spectral":
        return lambda: pkg.spectral_track(decomposition)
    return lambda: pkg.scaling_exponent(pkg.spectral_track(decomposition))


def pipeline_stage(stage: str, sides: dict, name: str, x, seed: int, repeats: int) -> dict:
    calls = {s: pipeline_call(stage, sides[s], name, x, seed) for s in "ab"}
    row = {"peak_kb": [], "digest": []}
    for s in "ab":
        output = calls[s]()
        row["digest"].append(digest(output).hexdigest())
        row["peak_kb"].append(traced(calls[s])[0])
        if stage == "decompose":
            reasons = output.stop_reasons
            row.setdefault("sift_steps", []).append(sum(output.sift_counts))
            row.setdefault("cap_share", []).append(
                reasons.count("max-iterations") / len(reasons) if reasons else 0.0
            )
    if stage == "path":
        faults = {"a": [], "b": []}

        def counting(call, into):
            def run():
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                call()
                into.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return run

        row["time"] = alternate({s: counting(calls[s], faults[s]) for s in "ab"}, repeats, 1e3)
        row["minflt"] = [statistics.median(faults[s]) for s in "ab"]
    else:
        row["time"] = alternate(calls, repeats, 1e3)
    return row


def record(side: Side, x, entry: str) -> list:
    """The input of every ``entry`` call (``find_extrema`` or
    ``sift_component``) that ``decompose(x)`` makes through the side's
    compiled kernels.  Without ``sift_component`` the sift runs the loop of
    ``find_extrema`` and ``spline_eval``, whose scans are those of the
    one-call sift."""
    inputs = []
    kernels = side.backend

    def recording(y, *rest):
        inputs.append(np.array(y, dtype=np.float64))
        return getattr(kernels, entry)(y, *rest)

    backend = types.SimpleNamespace(
        name="recorder", find_extrema=kernels.find_extrema, spline_eval=kernels.spline_eval
    )
    setattr(backend, entry, recording)
    side.pkg.decompose(x, backend=backend)
    return inputs


def blocks(x) -> tuple:
    """``(blocks, fast blocks)`` of the scan of ``x``."""
    flat = np.diff(x) == 0
    fast = sum(not flat[b - 1:b + 64].any() for b in range(64, flat.size, 64))
    return len(range(0, flat.size, 64)), fast


def kernel_stage(stage: str, sides: dict, name: str, x, seed: int, repeats: int) -> dict:
    entry = "sift_component" if stage == "component" else "find_extrema"
    inputs = record(sides["a"], x, entry)
    n, ptrs = x.size, [y.ctypes.data for y in inputs]
    if stage == "scan":
        cap = n // 2 + 1
        pos, val = np.empty(2 * cap, dtype=np.intp), np.empty(2 * cap)
        counts = (ctypes.c_ssize_t * 2)()
        args = (n, cap, pos.ctypes.data, val.ctypes.data, counts)
        one = {s: (lambda p, f=sides[s].kernels._find: f(p, *args)) for s in "ab"}

        def output(_):
            nmax, nmin = counts
            return [nmax, nmin, pos[:nmax], pos[cap:cap + nmin], val[:nmax], val[cap:cap + nmin]]
    else:
        h, steps = np.empty(n), ctypes.c_ssize_t()
        args = (n, sides["a"].budget, h.ctypes.data, ctypes.byref(steps))
        one = {s: (lambda p, f=sides[s].kernels._component: f(p, *args)) for s in "ab"}

        def output(status):
            return [status, steps.value, h]

    row = {"peak_kb": [], "digest": []}
    for s in "ab":
        hashed = hashlib.sha256()
        for p in ptrs:
            digest(output(one[s](p)), hashed)
        row["digest"].append(hashed.hexdigest())
        row["peak_kb"].append(traced(lambda: one[s](ptrs[0]))[0])

    def sweep(call):
        def run():
            for p in ptrs:
                call(p)
        return run

    row["time"] = alternate({s: sweep(one[s]) for s in "ab"}, repeats, 1e6 / len(ptrs))
    row["first"] = alternate({s: (lambda f=one[s]: f(ptrs[0])) for s in "ab"}, 10 * repeats, 1e6)
    row["inputs"] = {"calls": len(inputs)}
    if stage == "scan":
        split = [blocks(y) for y in inputs]
        row["inputs"].update(
            blocks=sum(b for b, _ in split), fast_blocks=sum(f for _, f in split),
            first_blocks=split[0][0], first_fast_blocks=split[0][1],
        )
    return row


def one_round(job: dict) -> dict:
    """Every stage of ``job`` over every series: per stage and series, the
    row that ``fold`` folds with the other rounds'."""
    sides = {s: Side(job["src"][s], "tree_" + s, job["libraries"].get(s)) for s in job["order"]}
    series = make_series(sides["a"], job["seed"])
    out = {}
    for stage in job["stages"]:
        kernel = stage in KERNEL_STAGES
        repeats = job["repeats"] or (31 if kernel else 9)
        names = PROCESSES if stage in ("simulate", "path") else series
        run = kernel_stage if kernel else pipeline_stage
        out[stage] = {name: run(stage, sides, name, series[name], job["seed"], repeats)
                      for name in names}
    return out


# ---------------------------------------------------------------------------
# the rounds, folded


def build_flagged(src: Path, flags: str, target: Path) -> str:
    """``src``'s ``sift.c`` built as its package builds it, plus ``flags``."""
    kernels = src / "hhtscale" / "_kernels"
    spec = importlib.util.spec_from_file_location("tree_build", kernels / "build.py")
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    subprocess.run(
        [*build.find_compiler(), *build.OPT_FLAGS, *shlex.split(flags), "-fPIC", "-shared",
         str(kernels / "sift.c"), "-o", str(target)],
        check=True, timeout=300,
    )
    return str(target)


def fold_series(rows: list) -> dict:
    """One series' rows of every round, folded."""
    def columns(key, index=(0, 1)):
        return [[r[key][i] for r in rows] for i in index]

    kernel = "first" in rows[0]
    out = {("us_per_call" if kernel else "ms"): compare(*columns("time", (0, 1, 2)))}
    if kernel:
        out["first_us_per_call"] = compare(*columns("first", (0, 1, 2)))
    if "minflt" in rows[0]:
        out["minflt_per_call"] = compare(*columns("minflt"))
    out["tracemalloc_peak_kb"] = compare(*columns("peak_kb"))
    out["digests_equal"] = len({d for r in rows for d in r["digest"]}) == 1
    for key in ("sift_steps", "cap_share"):
        if key in rows[0]:
            a, b = rows[0][key]
            out[key] = {"a": a, "b": b, "same_every_round": all(r[key] == [a, b] for r in rows)}
    if kernel:
        out["inputs"] = rows[0]["inputs"]
    return out


def fold(rounds: list, stages: list) -> dict:
    out = {}
    for stage in stages:
        rows = {name: [r[stage][name] for r in rounds] for name in rounds[0][stage]}
        block = {name: fold_series(per) for name, per in rows.items()}
        sums = [[sum(r[stage][name]["time"][i] for name in PROCESSES) for i in (0, 1)]
                for r in rounds]
        unit = "us_per_call" if stage in KERNEL_STAGES else "ms"
        block["sum"] = {unit: compare(*zip(*sums), passes=[b / a for a, b in sums])}
        out[stage] = block
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--a", default="tree A", help="what tree A is")
    parser.add_argument("--b", default="tree B", help="what tree B is")
    parser.add_argument("--a-flags", default="",
                        help="compiler flags added to tree A's kernel stages' library")
    parser.add_argument("--b-flags", default="",
                        help="compiler flags added to tree B's kernel stages' library")
    parser.add_argument("--stage", choices=STAGES, action="append",
                        help="a stage to time (repeatable; default: every stage)")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed passes per side (default: 9, or 31 for the kernel stages)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    stages = [s for s in STAGES if s in (args.stage or STAGES)]
    src = {"a": args.tree_a.resolve() / "src", "b": args.tree_b.resolve() / "src"}
    flags = {"a": args.a_flags, "b": args.b_flags}
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["HHTSCALE_BACKEND"] = "compiled"

    rounds = []
    with tempfile.TemporaryDirectory() as tmp:
        libraries = {s: build_flagged(src[s], flags[s], Path(tmp) / f"sift_{s}.so")
                     for s in "ab" if flags[s]}
        for index in range(args.rounds):
            job = {
                "src": {s: str(path) for s, path in src.items()}, "libraries": libraries,
                "order": ("a", "b") if index % 2 == 0 else ("b", "a"), "stages": stages,
                "seed": args.seed, "repeats": args.repeats,
            }
            done = subprocess.run(
                [sys.executable, "-c", CHILD, str(BENCH), json.dumps(job)],
                env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=3600,
            )
            rounds.append(json.loads(done.stdout))
            print(f"round {index + 1}/{args.rounds} done", file=sys.stderr)

    block = {
        "a": args.a, "b": args.b, "a_flags": args.a_flags, "b_flags": args.b_flags,
        "rounds": args.rounds, "repeats": args.repeats, "seed": args.seed,
        "order": "round i loads tree A first when i is even; pass r runs tree A first "
                 "when r is even",
        "stages": fold(rounds, stages),
    }
    block["digests_equal"] = all(
        per["digests_equal"] for stage in block["stages"].values()
        for name, per in stage.items() if name != "sum"
    )
    print(json.dumps(block, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
