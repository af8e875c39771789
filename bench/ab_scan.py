"""Alternated A/B of the compiled extrema scan, ``hht_find_extrema``,
between two source trees, in a C harness.

The inputs are every scan that ``decompose`` makes of one series each:
the first component's series and each sift step's result, recorded through
a backend that has only ``find_extrema`` and ``spline_eval``, whose loop
gives the same inputs as the one-call sift.  The series are
  - path 0 of ``--seed`` for bm, fBm H = 0.7, ARFIMA d = 0.2 (T = 10,000)
    and SLM alpha = 1.5 (T = 10,384), the ``ensemble_t10k`` paths;
  - ``ticks_<tick>``: log prices of a T = 10,000 price walk from 100 with
    per-step log sd 5e-4, rounded to multiples of ``tick`` (0.01 and 0.05),
    so that runs of equal samples are common;
  - ``cli``: the log prices of the ``cli_cold`` price file of workload seed
    ``--seed`` (5 days of 390 one-minute bars).
Tree A's ``src`` records them once, into the work directory, and counts
per series the scan's blocks of 64 steps that it reads off the masks alone
(``fast_blocks``: not the first block, and no flat step in the block or
just before it), over all its scans and over the first.  Each tree's
``sift.c`` is then compiled by that tree's ``build.find_compiler()`` with
its ``build.OPT_FLAGS`` and the tree's ``--a-flags`` or ``--b-flags`` (say
``-U__SSE2__``), together with a small driver, and each round runs both
drivers, tree A first in even rounds.  A driver times, per series,
``--repeats`` passes over its inputs (the median pass, in microseconds per
call) and ``--repeats`` x 10 calls on its first input, the series itself
(``first``), and hashes every position and value the scans return.

Prints one JSON block: per series, for its first input and for the sum of
the four ``ensemble_t10k`` processes, each tree's median, quartiles and
runs, the rounds B was lower and the paired B/A ratios
(``ab_decompose.compare``); the inputs' counts and fast blocks; and whether
both trees' scans returned the same bits (``digests_equal``).

    python3 bench/ab_scan.py TREE_A TREE_B --rounds 10 --work /tmp/scan --a "..." --b "..."
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from ab_decompose import PROCESSES, compare

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import SIZES, op_seed, write_prices  # noqa: E402

# tick -> length of the tick-quantized price walks
TICKS = {"0.01": 10_000, "0.05": 10_000}

RECORD = r"""
import json, math, sys
import numpy as np
from hhtscale import SimConfig, simulate
from hhtscale._kernels import get_backend
from hhtscale.emd import decompose
from hhtscale.series import ingest_prices

seed, processes, ticks = int(sys.argv[1]), json.loads(sys.argv[2]), json.loads(sys.argv[3])
prices, out = sys.argv[4], sys.argv[5]
compiled = get_backend("compiled")


class Recorder:
    name = "recorder"
    spline_eval = staticmethod(compiled.spline_eval)

    def __init__(self):
        self.inputs = []

    def find_extrema(self, x):
        self.inputs.append(np.array(x, dtype=np.float64))
        return compiled.find_extrema(x)


def blocks(x):
    flat = np.diff(x) == 0
    fast = sum(not flat[b - 1:b + 64].any() for b in range(64, flat.size, 64))
    return len(range(0, flat.size, 64)), fast


series = {
    name: simulate(SimConfig(process=name, length=length, seed=seed, **shape), 0).values
    for name, (shape, length) in processes.items()
}
rng = np.random.default_rng(seed)
for tick, length in ticks.items():
    price = np.exp(math.log(100.0) + np.cumsum(5e-4 * rng.standard_normal(length)))
    series["ticks_" + tick] = np.log(np.round(price / float(tick)) * float(tick))
series["cli"] = ingest_prices(prices)[0].values

counts = {}
with open(out, "wb") as f:
    for name, x in series.items():
        recorder = Recorder()
        decompose(x, backend=recorder)
        split = [blocks(y) for y in recorder.inputs]
        counts[name] = {
            "calls": len(recorder.inputs),
            "blocks": sum(b for b, _ in split),
            "fast_blocks": sum(f for _, f in split),
            "first_blocks": split[0][0],
            "first_fast_blocks": split[0][1],
        }
        np.array([len(recorder.inputs), x.size], dtype=np.int64).tofile(f)
        for y in recorder.inputs:
            y.tofile(f)
print(json.dumps(counts))
"""

DRIVER = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

void hht_find_extrema(const double *x, ptrdiff_t n, ptrdiff_t cap,
                      ptrdiff_t *pos, double *val, ptrdiff_t *cnt);

static double now_us(void)
{
    struct timespec ts;

    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e6 + ts.tv_nsec * 1e-3;
}

static int by_value(const void *a, const void *b)
{
    double x = *(const double *)a, y = *(const double *)b;

    return (x > y) - (x < y);
}

static double median(double *v, int k)
{
    qsort(v, (size_t)k, sizeof *v, by_value);
    return k % 2 ? v[k / 2] : 0.5 * (v[k / 2 - 1] + v[k / 2]);
}

/* FNV-1a over bytes */
static uint64_t fnv(uint64_t h, const void *data, size_t size)
{
    const unsigned char *c = data;

    while (size--)
        h = (h ^ *c++) * 1099511628211ULL;
    return h;
}

int main(int argc, char **argv)
{
    FILE *f = fopen(argv[1], "rb");
    int repeats = atoi(argv[2]), r, q, k, processes = atoi(argv[3]);
    int64_t head[2];
    double *x[16], *walls = malloc((size_t)(10 * repeats) * sizeof *walls), start;
    ptrdiff_t *pos = NULL, cnt[2], calls[16], length[16], cap, i;
    double *val = NULL;
    uint64_t digest = 14695981039346656037ULL;

    for (q = 0; q < processes; q++) {
        if (fread(head, sizeof head, 1, f) != 1)
            return 2;
        calls[q] = head[0];
        length[q] = head[1];
        x[q] = malloc((size_t)(calls[q] * length[q]) * sizeof(double));
        if (fread(x[q], sizeof(double), (size_t)(calls[q] * length[q]), f)
            != (size_t)(calls[q] * length[q]))
            return 2;
    }
    printf("{");
    for (q = 0; q < processes; q++) {
        cap = length[q] / 2 + 1;
        pos = realloc(pos, (size_t)(2 * cap) * sizeof *pos);
        val = realloc(val, (size_t)(2 * cap) * sizeof *val);
        for (i = 0; i < calls[q]; i++) {
            hht_find_extrema(x[q] + i * length[q], length[q], cap, pos, val, cnt);
            digest = fnv(digest, cnt, sizeof cnt);
            digest = fnv(digest, pos, (size_t)cnt[0] * sizeof *pos);
            digest = fnv(digest, pos + cap, (size_t)cnt[1] * sizeof *pos);
            digest = fnv(digest, val, (size_t)cnt[0] * sizeof *val);
            digest = fnv(digest, val + cap, (size_t)cnt[1] * sizeof *val);
        }
        for (r = 0; r < repeats; r++) {
            start = now_us();
            for (i = 0; i < calls[q]; i++)
                hht_find_extrema(x[q] + i * length[q], length[q], cap, pos, val, cnt);
            walls[r] = (now_us() - start) / (double)calls[q];
        }
        printf("\"%d\": %.4f, ", q, median(walls, repeats));
        for (k = 0; k < 10 * repeats; k++) {
            start = now_us();
            hht_find_extrema(x[q], length[q], cap, pos, val, cnt);
            walls[k] = now_us() - start;
        }
        printf("\"%d first\": %.4f, ", q, median(walls, 10 * repeats));
    }
    printf("\"digest\": \"%016llx\"}\n", (unsigned long long)digest);
    return 0;
}
"""


def compile_argv(tree: Path, flags: str) -> list:
    """The compiler and ``OPT_FLAGS`` of the tree's ``_kernels/build.py``,
    then ``flags``."""
    spec = importlib.util.spec_from_file_location(
        "tree_build", tree / "src" / "hhtscale" / "_kernels" / "build.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [*module.find_compiler(), *module.OPT_FLAGS, *shlex.split(flags)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--a", default="tree A", help="what tree A is")
    parser.add_argument("--b", default="tree B", help="what tree B is")
    parser.add_argument("--a-flags", default="", help="compiler flags added for tree A")
    parser.add_argument("--b-flags", default="", help="compiler flags added for tree B")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=31)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--work", type=Path, required=True, help="directory for the inputs "
                        "and the drivers")
    args = parser.parse_args(argv)
    trees = {"a": args.tree_a.resolve(), "b": args.tree_b.resolve()}
    args.work.mkdir(parents=True, exist_ok=True)

    inputs = args.work / "inputs.f64"
    prices = args.work / "prices.csv"
    full = SIZES["full"]
    write_prices(prices, full["days"], full["bars"], op_seed(args.seed, 1 << 20))
    env = dict(os.environ, PYTHONPATH=str(trees["a"] / "src"), HHTSCALE_BACKEND="compiled")
    counts = json.loads(subprocess.run(
        [sys.executable, "-c", RECORD, str(args.seed), json.dumps(PROCESSES), json.dumps(TICKS),
         str(prices), str(inputs)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    ).stdout)
    source = args.work / "driver.c"
    source.write_text(DRIVER)
    drivers = {}
    flags = {"a": args.a_flags, "b": args.b_flags}
    for side, tree in trees.items():
        drivers[side] = args.work / f"driver_{side}"
        subprocess.run(
            [*compile_argv(tree, flags[side]), str(source),
             str(tree / "src" / "hhtscale" / "_kernels" / "sift.c"), "-o", str(drivers[side])],
            check=True, timeout=300,
        )

    runs = {"a": [], "b": []}
    for index in range(args.rounds):
        for side in ("a", "b") if index % 2 == 0 else ("b", "a"):
            done = subprocess.run(
                [str(drivers[side]), str(inputs), str(args.repeats), str(len(counts))],
                capture_output=True, text=True, check=True, timeout=600,
            )
            runs[side].append(json.loads(done.stdout))
        print(f"round {index + 1}/{args.rounds} done", file=sys.stderr)

    block = {
        "a": args.a, "b": args.b, "a_flags": args.a_flags, "b_flags": args.b_flags,
        "rounds": args.rounds, "repeats": args.repeats, "seed": args.seed, "inputs": counts,
        "digests_equal": len({r["digest"] for side in runs for r in runs[side]}) == 1,
    }
    for q, name in enumerate(counts):
        for suffix, key in (("", str(q)), ("_first", f"{q} first")):
            block[f"{name}{suffix}_us_per_call"] = compare(
                *([r[key] for r in runs[side]] for side in "ab")
            )
    keys = [str(q) for q, name in enumerate(counts) if name in PROCESSES]
    block["sum_us_per_call"] = compare(
        *([sum(r[k] for k in keys) for r in runs[side]] for side in "ab")
    )
    print(json.dumps(block, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
