"""Alternated A/B of a compiled sift kernel between two source trees, in a
C harness: the extrema scan, ``hht_find_extrema`` (``--mode scan``), or the
component sift, ``hht_sift_component`` with the budget of
``emd.MAX_SIFT_ITERATIONS`` (``--mode component``).

The scan's inputs are every scan that ``decompose`` makes of one series
each: the first component's series and each sift step's result, recorded
through a backend that has only ``find_extrema`` and ``spline_eval``, whose
loop gives the same inputs as the one-call sift.  The component sift's
inputs are each component's input, the residue that ``decompose`` hands
the one-call sift.  The series are
  - path 0 of ``--seed`` for bm, fBm H = 0.7, ARFIMA d = 0.2 (T = 10,000)
    and SLM alpha = 1.5 (T = 10,384), the ``ensemble_t10k`` paths;
  - ``ticks_<tick>``: log prices of a T = 10,000 price walk from 100 with
    per-step log sd 5e-4, rounded to multiples of ``tick`` (0.01 and 0.05),
    so that runs of equal samples are common;
  - ``cli``: the log prices of the ``cli_cold`` price file of workload seed
    ``--seed`` (5 days of 390 one-minute bars).
Tree A's ``src`` records them once, into the work directory, and, for the
scan, counts per series the blocks of 64 steps that it reads off the masks
alone (``fast_blocks``: not the first block, and no flat step in the block
or just before it), over all its scans and over the first.  Each tree's
``sift.c`` is then compiled as the package builds it (that tree's
``build.find_compiler()`` and ``build.OPT_FLAGS``, ``-fPIC -shared``), with
the tree's ``--a-flags`` or ``--b-flags`` (say ``-U__SSE2__``), into a
shared library.  Each round is one driver process that loads both
libraries, tree A's first in even rounds, and alternates them pass by
pass, tree A first in even passes, so that a change in the machine's speed
falls on both sides of a pair of passes.  Per series, the driver times
``--repeats`` passes of each library over the series' inputs
(microseconds per call) and ``--repeats`` x 10 calls of each on its first
input, the series itself (``first``), reports each side's median and the
median of the per-pass ratios B/A, and hashes every output of each
library: the scan's positions, values and counts, or the sift's status,
step count and component.

Prints one JSON block: per series, for its first input and for the sum of
the four ``ensemble_t10k`` processes, each tree's median, quartiles and
runs over the rounds, the rounds B was lower and the paired B/A ratios of
the rounds' medians (``ab_decompose.compare``), and the quartiles of the
rounds' median per-pass ratios (``pass_b_over_a``); the inputs' counts
(and the scan's fast blocks); and whether both libraries returned the same
bits in every round (``digests_equal``).

    python3 bench/ab_scan.py TREE_A TREE_B --rounds 10 --work /tmp/scan --a "..." --b "..."
    python3 bench/ab_scan.py TREE_A TREE_B --mode component --repeats 9 --work /tmp/sift
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

from ab_decompose import PROCESSES, compare, quartiles

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import SIZES, op_seed, write_prices  # noqa: E402

# tick -> length of the tick-quantized price walks
TICKS = {"0.01": 10_000, "0.05": 10_000}

RECORD = r"""
import json, math, sys
import numpy as np
from hhtscale import SimConfig, simulate
from hhtscale._kernels import get_backend
from hhtscale.emd import MAX_SIFT_ITERATIONS, decompose
from hhtscale.series import ingest_prices

seed, processes, ticks = int(sys.argv[1]), json.loads(sys.argv[2]), json.loads(sys.argv[3])
prices, out, mode = sys.argv[4], sys.argv[5], sys.argv[6]
compiled = get_backend("compiled")


# the scan's inputs, through the two-kernel loop
class Recorder:
    name = "recorder"
    spline_eval = staticmethod(compiled.spline_eval)

    def __init__(self):
        self.inputs = []

    def find_extrema(self, x):
        self.inputs.append(np.array(x, dtype=np.float64))
        return compiled.find_extrema(x)


# each component's input, through the one-call sift
class ComponentRecorder(Recorder):

    def sift_component(self, h, budget):
        self.inputs.append(np.array(h, dtype=np.float64))
        return compiled.sift_component(h, budget)


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
        recorder = ComponentRecorder() if mode == "component" else Recorder()
        decompose(x, backend=recorder)
        counts[name] = {"calls": len(recorder.inputs)}
        if mode == "scan":
            split = [blocks(y) for y in recorder.inputs]
            counts[name].update(
                blocks=sum(b for b, _ in split),
                fast_blocks=sum(f for _, f in split),
                first_blocks=split[0][0],
                first_fast_blocks=split[0][1],
            )
        np.array([len(recorder.inputs), x.size], dtype=np.int64).tofile(f)
        for y in recorder.inputs:
            y.tofile(f)
print(json.dumps({"counts": counts, "budget": MAX_SIFT_ITERATIONS}))
"""

DRIVER = r"""
#include <dlfcn.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

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

#ifdef BUDGET
/* the component sift of x[0..n-1] with BUDGET steps */
#define ENTRY "hht_sift_component"
typedef int (*kernel)(const double *x, ptrdiff_t n, ptrdiff_t budget, double *h,
                      ptrdiff_t *steps);

static kernel kernels[2];
static ptrdiff_t length_, result[2];
static double *h;

static void begin(ptrdiff_t n)
{
    length_ = n;
    h = realloc(h, (size_t)n * sizeof *h);
}

static void call(int side, const double *x)
{
    result[0] = kernels[side](x, length_, BUDGET, h, &result[1]);
}

static uint64_t digest_of(uint64_t digest)
{
    digest = fnv(digest, result, sizeof result);
    return fnv(digest, h, (size_t)length_ * sizeof *h);
}
#else
/* the extrema scan of x[0..n-1] */
#define ENTRY "hht_find_extrema"
typedef void (*kernel)(const double *x, ptrdiff_t n, ptrdiff_t cap, ptrdiff_t *pos, double *val,
                       ptrdiff_t *cnt);

static kernel kernels[2];
static ptrdiff_t length_, cap, *pos, cnt[2];
static double *val;

static void begin(ptrdiff_t n)
{
    length_ = n;
    cap = n / 2 + 1;
    pos = realloc(pos, (size_t)(2 * cap) * sizeof *pos);
    val = realloc(val, (size_t)(2 * cap) * sizeof *val);
}

static void call(int side, const double *x)
{
    kernels[side](x, length_, cap, pos, val, cnt);
}

static uint64_t digest_of(uint64_t digest)
{
    digest = fnv(digest, cnt, sizeof cnt);
    digest = fnv(digest, pos, (size_t)cnt[0] * sizeof *pos);
    digest = fnv(digest, pos + cap, (size_t)cnt[1] * sizeof *pos);
    digest = fnv(digest, val, (size_t)cnt[0] * sizeof *val);
    return fnv(digest, val + cap, (size_t)cnt[1] * sizeof *val);
}
#endif

/* Prints "key": [A's median, B's median, the median of B/A], from the walls
 * of the k alternated timings of each side. */
static void report(const char *key, int q, double *walls[2], int k)
{
    double *ratio = malloc((size_t)k * sizeof *ratio), ma, mb;
    int r;

    for (r = 0; r < k; r++)
        ratio[r] = walls[1][r] / walls[0][r];
    ma = median(walls[0], k);
    mb = median(walls[1], k);
    printf("\"%d%s\": [%.4f, %.4f, %.5f], ", q, key, ma, mb, median(ratio, k));
    free(ratio);
}

/* driver LIB_A LIB_B INPUTS REPEATS SERIES */
int main(int argc, char **argv)
{
    FILE *f = fopen(argv[3], "rb");
    int repeats = atoi(argv[4]), processes = atoi(argv[5]), r, q, side, o;
    int64_t head[2];
    double *x[16], *walls[2], start;
    ptrdiff_t calls[16], length[16], i;
    uint64_t digest[2] = {14695981039346656037ULL, 14695981039346656037ULL};
    void *library;

    if (argc != 6 || f == NULL)
        return 2;
    for (side = 0; side < 2; side++) {
        library = dlopen(argv[1 + side], RTLD_NOW | RTLD_LOCAL);
        if (library == NULL)
            return 2;
        *(void **)&kernels[side] = dlsym(library, ENTRY);
        walls[side] = malloc((size_t)(10 * repeats) * sizeof *walls[side]);
    }
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
        begin(length[q]);
        for (side = 0; side < 2; side++)
            for (i = 0; i < calls[q]; i++) {
                call(side, x[q] + i * length[q]);
                digest[side] = digest_of(digest[side]);
            }
        /* pass r runs tree A first when r is even */
        for (r = 0; r < repeats; r++)
            for (o = 0; o < 2; o++) {
                side = (r + o) % 2;
                start = now_us();
                for (i = 0; i < calls[q]; i++)
                    call(side, x[q] + i * length[q]);
                walls[side][r] = (now_us() - start) / (double)calls[q];
            }
        report("", q, walls, repeats);
        for (r = 0; r < 10 * repeats; r++)
            for (o = 0; o < 2; o++) {
                side = (r + o) % 2;
                start = now_us();
                call(side, x[q]);
                walls[side][r] = now_us() - start;
            }
        report(" first", q, walls, 10 * repeats);
    }
    printf("\"digests\": [\"%016llx\", \"%016llx\"]}\n", (unsigned long long)digest[0],
           (unsigned long long)digest[1]);
    return 0;
}
"""


def tree_build(tree: Path):
    """The tree's ``_kernels/build.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "tree_build", tree / "src" / "hhtscale" / "_kernels" / "build.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fold(rounds: list) -> dict:
    """``compare`` of the rounds' medians of each side, with the quartiles of
    the rounds' median per-pass ratios B/A (``pass_b_over_a``)."""
    out = compare([r[0] for r in rounds], [r[1] for r in rounds])
    out["pass_b_over_a"] = quartiles([r[2] for r in rounds])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--a", default="tree A", help="what tree A is")
    parser.add_argument("--b", default="tree B", help="what tree B is")
    parser.add_argument("--a-flags", default="", help="compiler flags added for tree A")
    parser.add_argument("--b-flags", default="", help="compiler flags added for tree B")
    parser.add_argument("--mode", choices=("scan", "component"), default="scan",
                        help="the kernel timed: the extrema scan or the component sift")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=31)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--work", type=Path, required=True, help="directory for the inputs, "
                        "the libraries and the driver")
    args = parser.parse_args(argv)
    trees = {"a": args.tree_a.resolve(), "b": args.tree_b.resolve()}
    args.work.mkdir(parents=True, exist_ok=True)

    inputs = args.work / "inputs.f64"
    prices = args.work / "prices.csv"
    full = SIZES["full"]
    write_prices(prices, full["days"], full["bars"], op_seed(args.seed, 1 << 20))
    env = dict(os.environ, PYTHONPATH=str(trees["a"] / "src"), HHTSCALE_BACKEND="compiled")
    recorded = json.loads(subprocess.run(
        [sys.executable, "-c", RECORD, str(args.seed), json.dumps(PROCESSES), json.dumps(TICKS),
         str(prices), str(inputs), args.mode],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    ).stdout)
    counts = recorded["counts"]
    flags = {"a": args.a_flags, "b": args.b_flags}
    libraries = {}
    for side, tree in trees.items():
        # as the package builds it, with the side's flags
        build = tree_build(tree)
        libraries[side] = args.work / f"sift_{side}.so"
        subprocess.run(
            [*build.find_compiler(), *build.OPT_FLAGS, *shlex.split(flags[side]), "-fPIC",
             "-shared", str(tree / "src" / "hhtscale" / "_kernels" / "sift.c"), "-o",
             str(libraries[side])],
            check=True, timeout=300,
        )
    source, driver = args.work / "driver.c", args.work / "driver"
    source.write_text(DRIVER)
    # the component sift's budget: tree A's emd.MAX_SIFT_ITERATIONS
    budget = [] if args.mode == "scan" else [f"-DBUDGET={recorded['budget']}"]
    subprocess.run(
        [*tree_build(trees["a"]).find_compiler(), "-O2", *budget, str(source), "-o", str(driver),
         "-ldl"],
        check=True, timeout=300,
    )

    rounds = []
    for index in range(args.rounds):
        # odd rounds load tree B's library first, so that neither tree keeps
        # the placement of the first library loaded
        first, second = ("a", "b") if index % 2 == 0 else ("b", "a")
        done = subprocess.run(
            [str(driver), str(libraries[first]), str(libraries[second]), str(inputs),
             str(args.repeats), str(len(counts))],
            capture_output=True, text=True, check=True, timeout=600,
        )
        out = json.loads(done.stdout)
        if first == "b":
            out = {key: [value[1], value[0], 1.0 / value[2]] if key != "digests" else value
                   for key, value in out.items()}
        rounds.append(out)
        print(f"round {index + 1}/{args.rounds} done", file=sys.stderr)

    block = {
        "a": args.a, "b": args.b, "mode": args.mode, "a_flags": args.a_flags,
        "b_flags": args.b_flags,
        "rounds": args.rounds, "repeats": args.repeats, "seed": args.seed, "inputs": counts,
        "digests_equal": len({d for r in rounds for d in r["digests"]}) == 1,
    }
    for q, name in enumerate(counts):
        for suffix, key in (("", str(q)), ("_first", f"{q} first")):
            block[f"{name}{suffix}_us_per_call"] = fold([r[key] for r in rounds])
    keys = [str(q) for q, name in enumerate(counts) if name in PROCESSES]
    sums = [[sum(r[k][side] for k in keys) for side in (0, 1)] for r in rounds]
    block["sum_us_per_call"] = fold([[a, b, b / a] for a, b in sums])
    print(json.dumps(block, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
