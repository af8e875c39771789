#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hhtscale pipeline.

    python3 perfbench/run.py --workload ensemble_t10k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One caller runs operations in a closed loop, one at a time, with
``threads=1`` and whatever sift backend ``get_backend()`` resolves (it is
recorded, never forced), until ``--seconds`` have passed.  Every output is
checked; an operation that raises, exits non-zero or fails its check counts
as failed and its time is left out of the latency figures.

``--trace 0`` reports the end-to-end metrics: set-up time, median and tail
operation time, throughput, the share of operations that succeed, and peak
memory of the process doing the work.  Operation times and throughput are
reported in units of a fixed reference task timed before every operation
(see reference_task); the raw milliseconds are printed and recorded too.  ``--trace 1`` runs the same
operations in this process, each once plain and once with spans around the
calls into every module (see spans.py), and reports per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the full run record,
with every op's output digest, goes to ``perfbench/results/``.

The package is used from ``src/`` of the checkout this file sits in; run
from anywhere else, the benchmark exits with code 2.
"""

import time

_STARTED = time.perf_counter()  # the workload's start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
RESULTS = BENCH_DIR / "results"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ops_per_ref": "1/ref",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Bases of the per-layer metrics:
# - kernels.*_us, simulate.path_ms.*: per call on a seeded input at the
#   ensemble's length, timed outside any operation (.default is the backend
#   get_backend() resolves; the record has every available backend);
# - *_calls, emd.sift_iterations, emd.n_imfs, emd.cap_stop_share: summed over
#   the first cycle of traced operations, so they repeat exactly for a seed;
# - kernels.self_ms, cli.output_bytes, trace.unaccounted_ms: per operation;
# - every other *_ms: per call of the function the name points to;
# - cli.interpreter_ms, cli.import_ms: medians over fresh processes.
# A layer that the workload's operations never call is timed by one probe
# operation (probe_run), and the run record names those metrics.
PER_LAYER_UNITS = {
    "kernels.find_extrema_us.python": "us",
    "kernels.find_extrema_us.default": "us",
    "kernels.spline_eval_us.python": "us",
    "kernels.spline_eval_us.default": "us",
    "kernels.mirror_extrema_us": "us",
    "kernels.find_extrema_calls": "count",
    "kernels.spline_eval_calls": "count",
    "kernels.self_ms": "ms",
    "emd.decompose_ms": "ms",
    "emd.glue_ms": "ms",
    "emd.sift_iterations": "count",
    "emd.n_imfs": "count",
    "emd.cap_stop_share": "share",
    "spectral.track_ms": "ms",
    "measures.scaling_ms": "ms",
    "measures.complexity_ms": "ms",
    "measures.ghe_ms": "ms",
    "measures.hstar_defined_share": "share",
    "simulate.path_ms.bm": "ms",
    "simulate.path_ms.fbm": "ms",
    "simulate.path_ms.slm": "ms",
    "simulate.path_ms.arfima": "ms",
    "series.ingest_ms": "ms",
    "intraday.band_ms": "ms",
    "intraday.panel_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.write_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_share": "share",
    "trace.unaccounted_ms": "ms",
}

# setup_s is the median of this many set-ups: this process's own and
# SETUP_SAMPLES - 1 fresh processes that set up and exit.
SETUP_SAMPLES = 3
# A tail percentile needs at least this many operations beyond it.
TAIL_BEYOND = 10
# Reference tasks run before each op for about this share of the last op's
# time, so ops of two seconds sample the machine's speed as densely as ops
# of a quarter second.
REFERENCE_SHARE = 0.05


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for selftest.py: small inputs, and one deliberately damaged output
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    # one set-up in a fresh process, for the setup_s median
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def prepare_environment() -> None:
    """Must run before anything imports numpy: OpenBLAS reads its thread
    count once, when it is loaded."""
    # the default backend is whatever get_backend() picks with nothing forced
    os.environ.pop("HHTSCALE_BACKEND", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# set-up


def set_up(args, work: Path):
    """Import, generate inputs and run one untimed warm-up op; returns the
    workload and the seconds since this process started."""
    import numpy  # noqa: F401

    import hhtscale  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.prepare(work, args.seed, args.size)
    warm = workload.run(0, not args.trace, work / "warmup", child_env())
    workload.check(warm)
    if not warm.ok:
        raise RuntimeError(f"warm-up op failed: {warm.reason}")
    return workload, time.perf_counter() - _STARTED


def setup_samples(args) -> list[float]:
    """Set-up times of fresh processes, for the setup_s median."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--setup-only"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# the timed loop


def reference_task() -> float:
    """Wall time (s) of a fixed piece of work: extrema, interpolation, a dot
    product and a sort on a 10,000-sample random walk, plus an interpreter
    loop -- the kinds of work the package does, in code of its own.

    On a shared host (2 vCPUs of a Xeon VM) the same code ran up to 1.6
    times slower a few minutes later.  Timed before every operation, the
    task samples the machine's speed through the run; dividing operation
    times by its median cancels that drift.  In 30-second windows of one
    three-minute trace the raw median op time moved 14% (ensemble) and 24%
    (CLI) while the ratio moved 5% and 4%.  In a calm stretch, where the raw
    CLI median moved 10%, the ratio moved 12%: the task adds noise of its
    own, and a fresh process pays costs (page faults, file reads) that the
    task does not sample.  No change to the package can move it.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.cumsum(np.random.default_rng(12345).standard_normal(10_000))
    grid = np.arange(x.size, dtype=np.float64)
    total = 0.0
    for _ in range(10):
        d = np.diff(x)
        peaks = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0)) + 1
        total += float(np.interp(grid, peaks, x[peaks]).sum())
        total += float(np.dot(x, x)) + float(np.sort(x)[x.size // 2])
        total += sum(i * i % 7 for i in range(20_000))
    return time.perf_counter() - start


def run_op(workload, index: int, cold: bool, out_dir: Path, env):
    from workloads import OpResult

    try:
        return workload.run(index, cold, out_dir, env)
    except Exception:  # an op that raises counts as failed; the loop goes on
        return OpResult(index, "?", 0.0, exit_code=-1, error=traceback.format_exc(limit=4))


def check_op(workload, result) -> None:
    if result.exit_code == -1:
        result.reason = result.error
        return
    workload.check(result)


def tail(values: list[float]):
    """(percentile, value): the highest nearest-rank percentile with at least
    TAIL_BEYOND values beyond it, never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND values above
    if rank < 1 or 100.0 * rank / n <= 50.0:  # at or below the median
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / n, ordered[rank - 1]


def end_to_end(args, workload, work: Path, setup_s: float, record: dict):
    env = child_env()
    results, reference_s = [], []
    outside = 0.0  # reference tasks and checks, left out of the timed wall time
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        out_dir = work / f"op{index}"
        # sample the machine's speed in proportion to time: about
        # REFERENCE_SHARE of the last op's time, at least one task per op
        sampled = 0.0
        while sampled == 0.0 or sampled < REFERENCE_SHARE * (results[-1].wall_s if results else 0.0):
            reference_s.append(reference_task())
            sampled += reference_s[-1]
        outside += sampled
        result = run_op(workload, index, True, out_dir, env)
        check_start = time.perf_counter()
        if args.inject_fault and index == 0 and result.exit_code == 0:
            workload.corrupt(result)
        # checked at once, so outputs do not pile up in memory or on disk
        check_op(workload, result)
        shutil.rmtree(out_dir, ignore_errors=True)
        results.append(result)
        outside += time.perf_counter() - check_start
        index += 1
    wall = time.perf_counter() - start - outside
    setups = [setup_s] + setup_samples(args)

    ok = [r for r in results if r.ok]
    times_ms = [r.wall_s * 1e3 for r in ok] or [0.0]
    tail_pct, tail_ms = tail(times_ms)
    reference_ms = statistics.median(reference_s) * 1e3
    # the process doing the work: the largest CLI child, else this one
    peak_kb = max((r.rss_kb for r in results), default=0) or resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ref": statistics.median(times_ms) / reference_ms,
        "op_tail_ref": tail_ms / reference_ms,
        "ops_per_ref": len(ok) / wall * reference_ms / 1e3,
        "ok_ratio": len(ok) / len(results),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    record.update(
        setup_samples_s=setups,
        reference_ms=reference_ms,
        reference_samples=len(reference_s),
        op_ms_p50=statistics.median(times_ms),
        op_ms_tail=tail_ms,
        ops_per_s=len(ok) / wall,
        timed_wall_s=wall,
        tail_percentile=tail_pct,
        tail_ops_beyond=sum(t > tail_ms for t in times_ms),
        fail_ratio=1.0 - metrics["ok_ratio"],
    )
    return results, metrics


# ---------------------------------------------------------------------------
# the traced run


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def span_metrics(tracer, results) -> dict:
    """Per-layer metrics from the spans of ``tracer``; a metric whose layer
    saw no call is left out."""
    from spans import call_times, child_time, op_breakdown

    calls = call_times(tracer)
    ms = {name: [t * 1e3 for t in times] for name, times in calls.items()}
    ops = op_breakdown(tracer)
    decompose_ms = ms.get("emd.decompose", [])
    kernel_ms = [t * 1e3 for t in child_time(tracer, "emd.decompose", ("kernels.",))]
    run_ms = ms.get("cli.run", [])
    # write = the CLI's own time plus manifests: run minus ingest and compute
    compute_ms = [
        t * 1e3
        for t in child_time(tracer, "cli.run", ("series.", "emd.", "spectral.", "measures.", "intraday.", "simulate."))
    ]
    panel_ms = ms.get("intraday.panelize", []) + ms.get("intraday.outside_band_likelihood", [])
    panel_calls = len(ms.get("intraday.panelize", []))
    found = {
        "kernels.self_ms": _mean(op["layers"].get("kernels", 0.0) * 1e3 for op in ops.values()),
        "emd.decompose_ms": _mean(decompose_ms),
        "emd.glue_ms": _mean(d - k for d, k in zip(decompose_ms, kernel_ms)),
        "spectral.track_ms": _mean(ms.get("spectral.spectral_track", [])),
        "measures.scaling_ms": _mean(
            ms.get("measures.scaling_exponent", []) + ms.get("measures.rolling_scaling_exponent", [])
        ),
        "measures.complexity_ms": _mean(ms.get("measures.complexity", [])),
        "measures.ghe_ms": _mean(ms.get("measures.generalized_hurst_q1", [])),
        "measures.hstar_defined_share": _mean(tracer.defined_shares),
        "series.ingest_ms": _mean(ms.get("series.ingest_prices", [])),
        "intraday.band_ms": _mean(ms.get("intraday.bm_reference_band", [])),
        "intraday.panel_ms": sum(panel_ms) / panel_calls if panel_calls else None,
        "cli.run_ms": _mean(run_ms),
        "cli.write_ms": _mean(r - c for r, c in zip(run_ms, compute_ms)),
        "cli.output_bytes": _mean(r.output_bytes for r in results if r.output_bytes),
        "trace.unaccounted_ms": _mean(op["unaccounted"] * 1e3 for op in ops.values()),
    }
    return {name: value for name, value in found.items() if value is not None}


def check_decompositions(tracer, failures: list) -> list[dict]:
    """Reconstruction check and sift statistics of each traced decomposition;
    drops the tracer's references to them."""
    import numpy as np

    stats = []
    for op, x, dec in tracer.decompositions:
        x = np.asarray(x, dtype=np.float64)
        error = float(np.max(np.abs(dec.reconstruct() - x)))
        scale = float(np.max(np.abs(x)))
        if not error <= 1e-12 * scale:
            failures.append(f"op {op}: reconstruct() is off by {error:.3e} at scale {scale:.3e}")
        stats.append({
            "op": op,
            "sift_iterations": int(sum(dec.sift_counts)),
            "n_imfs": int(dec.n_imfs),
            "cap_stops": sum(reason == "max-iterations" for reason in dec.stop_reasons),
        })
    tracer.decompositions.clear()
    return stats


def probe_run(workload, tracer, work: Path, failures: list) -> list:
    """One traced in-process ``intraday --measure cstar`` run on a small price
    file from the same seed.

    It times the layers that the workload's own operations may never call
    (the ensemble ingests no file, builds no band and writes no CSV), so
    that every per-layer metric is a measurement.
    """
    from hhtscale import cli
    from spans import instrument
    from workloads import OpResult, check_cli_outputs, expected_outputs, op_seed, write_prices

    days, bars = workload.size["days"], workload.size["bars"]
    csv = work / "probe_prices.csv"
    rows = write_prices(csv, days, bars, op_seed(workload.seed, 1 << 21))
    args = ["intraday", str(csv), "--band-sims", "10", "--measure", "cstar", "--out-dir", str(work / "probe")]
    with instrument(tracer), tracer.operation("probe"):
        code = cli.run(args)
    reason, _, nbytes = check_cli_outputs(work / "probe", "intraday", str(csv), expected_outputs("intraday", rows, days, bars))
    if code != 0 or reason:
        failures.append(f"probe: exit {code} {reason}")
    check_decompositions(tracer, failures)
    return [OpResult(0, "intraday", 0.0, code, output_bytes=nbytes)]


def startup_probes(work: Path) -> dict:
    """Cold interpreter start, and the import of hhtscale.cli on top of it (ms)."""
    from workloads import run_child

    env = child_env()

    def median_ms(code: str, repeats: int) -> float:
        walls = []
        for _ in range(repeats):
            wall, exit_code, _ = run_child([sys.executable, "-c", code], env, work, work / "probe.stderr")
            if exit_code != 0:
                raise RuntimeError(f"python -c {code!r} exited {exit_code}")
            walls.append(wall)
        return statistics.median(walls) * 1e3

    interpreter = median_ms("pass", 5)
    return {"cli.interpreter_ms": interpreter, "cli.import_ms": median_ms("import hhtscale.cli", 3) - interpreter}


def traced(args, workload, work: Path, record: dict):
    from spans import (
        Tracer, call_times, instrument, kernel_timings, op_breakdown, simulate_timings, write_spans,
    )

    from hhtscale._kernels import get_backend

    env = child_env()
    tracer = Tracer()
    results, failures, sift_stats = [], [], []
    plain_s, traced_s = [], []
    start = time.perf_counter()
    index = 0
    # at least one full cycle, so the counts cover the same ops in every run
    while index < workload.cycle or time.perf_counter() - start < args.seconds:
        order = (False, True) if index % 2 == 0 else (True, False)
        pair = {}
        for with_spans in order:
            out_dir = work / f"op{index}{'t' if with_spans else 'p'}"
            if with_spans:
                with instrument(tracer), tracer.operation(index):
                    result = run_op(workload, index, False, out_dir, env)
            else:
                result = run_op(workload, index, False, out_dir, env)
            check_op(workload, result)
            shutil.rmtree(out_dir, ignore_errors=True)
            results.append(result)
            pair[with_spans] = result
            if with_spans:
                sift_stats += check_decompositions(tracer, failures)
        if pair[True].ok and pair[False].ok:
            if pair[True].digest != pair[False].digest:
                failures.append(f"op {index}: traced output differs from the plain run")
            plain_s.append(pair[False].wall_s)
            traced_s.append(pair[True].wall_s)
        index += 1
    for result in results:
        if not result.ok:
            failures.append(f"op {result.index} ({result.label}): {result.reason}")

    ops = op_breakdown(tracer)
    worst = max(
        (abs(sum(op["layers"].values()) + op["unaccounted"] - op["wall"]) for op in ops.values()),
        default=0.0,
    )
    if worst > 1e-9:
        failures.append(f"layer self times miss an op's wall time by {worst:.3e} s")
    first_cycle = [s for s in sift_stats if s["op"] < workload.cycle]
    first_calls = call_times(tracer, set(range(workload.cycle)))
    counts = {
        "kernels.find_extrema_calls": len(first_calls["kernels.find_extrema"]),
        "kernels.spline_eval_calls": len(first_calls["kernels.spline_eval"]),
        "emd.sift_iterations": sum(s["sift_iterations"] for s in first_cycle),
        "emd.n_imfs": sum(s["n_imfs"] for s in first_cycle),
    }
    if counts["kernels.spline_eval_calls"] != 2 * counts["emd.sift_iterations"]:
        failures.append("spline_eval calls are not twice the sift iterations")
    metrics = dict(counts)
    metrics["emd.cap_stop_share"] = sum(s["cap_stops"] for s in first_cycle) / max(1, counts["emd.n_imfs"])
    metrics["trace.overhead_share"] = sum(traced_s) / sum(plain_s) - 1.0 if plain_s else 0.0
    own = span_metrics(tracer, [r for r in results if r.output_bytes])
    write_spans(tracer, RESULTS / f"{workload.name}-seed{args.seed}-spans.jsonl")

    probe_tracer = Tracer()
    probed = span_metrics(probe_tracer, probe_run(workload, probe_tracer, work, failures))
    metrics.update(probed)
    metrics.update(own)

    kernels = kernel_timings(workload.seed, workload.size["length"])
    default = get_backend().name
    for kind in ("find_extrema_us", "spline_eval_us"):
        metrics[f"kernels.{kind}.python"] = kernels["python"][kind]
        metrics[f"kernels.{kind}.default"] = kernels[default][kind]
    metrics["kernels.mirror_extrema_us"] = kernels["mirror_extrema_us"]
    for process, value in simulate_timings(workload.seed, workload.size).items():
        metrics[f"simulate.path_ms.{process}"] = value
    metrics.update(startup_probes(work))

    record.update(
        kernel_timings_by_backend=kernels,
        probed_metrics=sorted(set(probed) - set(own)),
        first_cycle_ops=workload.cycle,
        # extrema scans beyond one per sift iteration, one per component and
        # one final check per decomposition (a sift that runs out of extrema,
        # or a decomposition stopped by its component cap, moves this off 0)
        find_extrema_extra_calls=counts["kernels.find_extrema_calls"]
        - counts["emd.sift_iterations"] - counts["emd.n_imfs"] - len(first_cycle),
        op_layers_ms=[
            {"op": op_id, "wall": op["wall"] * 1e3, "unaccounted": op["unaccounted"] * 1e3,
             **{layer: t * 1e3 for layer, t in sorted(op["layers"].items())}}
            for op_id, op in ops.items()
        ],
    )
    return results, metrics, failures


# ---------------------------------------------------------------------------


def environment_record() -> dict:
    import numpy
    import scipy

    from hhtscale._kernels import available_backends, get_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "backend": get_backend().name,
        "available_backends": list(available_backends()),
        "nproc": len(os.sched_getaffinity(0)),
        # OS threads of this process after the warm-up op: 1 unless a
        # library started a pool (OpenBLAS does, if loaded before
        # prepare_environment)
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        code = subprocess.run(argv, cwd=ROOT).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    prepare_environment()
    args = parse_args(argv)  # imports workloads.py, and with it numpy
    if not (SRC / "hhtscale" / "__init__.py").is_file():
        print(f"no hhtscale package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        workload, setup_s = set_up(args, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "size": args.size,
                  **environment_record()}
        if args.trace:
            results, metrics, failures = traced(args, workload, work, record)
            units = PER_LAYER_UNITS
        else:
            results, metrics = end_to_end(args, workload, work, setup_s, record)
            failures = [f"op {r.index} ({r.label}): {r.reason}" for r in results if not r.ok]
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(results)
    failed = sum(not r.ok for r in results)
    correct = not failures and failed == 0
    record.update(
        attempted=attempted,
        failed=failed,
        failures=failures,
        ops=[{"index": r.index, "label": r.label, "wall_ms": r.wall_s * 1e3, "ok": r.ok,
              "digest": r.digest, "rss_kb": r.rss_kb, "reason": r.reason} for r in results],
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"{workload.name}: backend {record['backend']}, {attempted} ops, {failed} failed, "
          f"nproc {record['nproc']}, {record['process_threads']} thread(s) in this process")
    for message in failures[:10]:
        print(f"  FAILED {message.strip()}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_ratio':32s} {record['fail_ratio']:14.6g} ratio  (= 1 - ok_ratio)")
        print(f"  reference task {record['reference_ms']:.4g} ms (median of {record['reference_samples']});"
              f" raw: op_ms_p50 {record['op_ms_p50']:.6g} ms, op_ms_tail {record['op_ms_tail']:.6g} ms,"
              f" ops_per_s {record['ops_per_s']:.6g} 1/s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
