"""Subcommand front-end tying the library into reproducible runs.

One binary, seven subcommands::

    hhtscale simulate   --process fbm --h 0.7 --length 10000 --paths 3
    hhtscale decompose  prices.csv
    hhtscale spectral   prices.csv --trim-fraction 0.02
    hhtscale scaling    prices.csv --rolling-window 780
    hhtscale complexity prices.csv --weight squared
    hhtscale intraday   prices.csv --measure hstar --band-sims 100
    hhtscale table      --process fbm --h-grid 0.1:0.9:0.1 --paths 100

Every run takes its parameters from flags alone (a flag left out takes its
default), writes CSV files with a ``# schema:`` header comment and full
round-trip float precision, and drops a ``<file>.manifest`` sidecar next to
each output so the run can be reproduced bit-identically.

Each parameter is declared once in ``PARAMS``; each subcommand in
``COMMANDS`` names the parameters it takes, the function computing its
outputs and the package modules that function calls, which load only when
the subcommand runs.  The argparse flags and the one runner that computes,
writes and records every subcommand both come from these two tables.  Only
``simulate``, ``intraday`` and ``table`` take ``--seed`` and ``--threads``.

Each output is one table: a mapping from column name to a column (a NumPy
array, a ``range`` or a list), all of one length.  ``_write_csv`` is the one
place where cells become text; the header is the table's keys, so it cannot
drift from the rows.

Exit codes: 0 success, 1 data/runtime error (message names the offending
file or row), 2 usage error.  Each error is one ``hhtscale <cmd>: ...``
line on stderr, argparse's own rejections included.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__

__all__ = ["main", "run"]

# The names the subcommands compute with, by the module that lends them.
# Each is bound as a global here when the first subcommand that uses its
# module runs (``_bind``), so a run loads only the modules it calls.
_LAZY = {
    "emd": ("decompose",),
    "spectral": ("spectral_track",),
    "measures": (
        "complexity", "generalized_hurst_q1", "rolling_scaling_exponent", "scaling_exponent",
    ),
    "intraday": ("bm_reference_band", "measure_track", "outside_band_likelihood", "panelize"),
    "simulate": ("RNG_NAME", "SimConfig", "check_threads", "monte_carlo_ensemble", "simulate"),
    "series": ("DataError", "ingest_prices", "read_values"),
    "manifest": ("RunManifest", "file_digest"),
}


def _bind(modules) -> None:
    """Bind the ``_LAZY`` names of ``modules`` as globals here, importing
    each module on first use.  A name already bound keeps its value: a
    caller may have put a wrapper in its place."""
    for module in modules:
        names = [name for name in _LAZY[module] if name not in globals()]
        if names:
            # not importlib.import_module, which ``python -X importtime`` misses
            source = __import__(f"{__package__}.{module}", fromlist=names)
            globals().update((name, getattr(source, name)) for name in names)


def __getattr__(name):
    """A ``_LAZY`` name looked up from outside before a subcommand bound it."""
    for module, names in _LAZY.items():
        if name in names:
            _bind((module,))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line (a bad choice or type, an unknown
    flag, a missing argument) as one ``<prog>: <message>`` line, the form of
    the CLI's own usage errors, in place of argparse's usage block.  Like
    Python 3.13's argparse, it reads ``-`` or ``-.`` then a digit as a value
    (``--d-grid -0.2:0.2:0.2``), which is safe: no flag starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# parameters


class Param(NamedTuple):
    """One parameter, given as the flag ``--<name with dashes>``."""

    kind: type
    default: object = None
    choices: tuple | None = None
    help: str | None = None


# process -> (its shape parameter, the SimConfig field taking it, the
# nominal scaling exponent of a shape value); bm has no shape parameter
_SHAPES = {
    "bm": (None, None, lambda value: 0.5),
    "fbm": ("h", "hurst", lambda value: value),
    "slm": ("alpha", "alpha", lambda value: 1.0 / value),
    "arfima": ("d", "d", lambda value: value + 0.5),
}

PARAMS = {
    "values_col": Param(str, help="read this numeric column directly instead of prices"),
    "date_col": Param(str, "date"),
    "time_col": Param(str, "time"),
    "price_col": Param(str, "price"),
    "delimiter": Param(str, ","),
    "session_gap": Param(
        float, help="split days into two sessions at gaps >= this many seconds"
    ),
    "fill": Param(
        str, "none", ("none", "ffill"),
        "fill missing in-session samples by carrying prices forward",
    ),
    "process": Param(str, choices=tuple(_SHAPES)),
    "length": Param(int, 10000),
    "paths": Param(int, 1),
    "h": Param(float, help="Hurst exponent (fbm)"),
    "alpha": Param(float, help="stability index (slm)"),
    "d": Param(float, help="memory parameter (arfima)"),
    "h_grid": Param(str, help="start:stop:step or comma list of Hurst exponents"),
    "alpha_grid": Param(str, help="start:stop:step or comma list of stability indices"),
    "d_grid": Param(str, help="start:stop:step or comma list of memory parameters"),
    "max_imfs": Param(int),
    "rolling_window": Param(int),
    "tau_max": Param(int, 19),
    "weight": Param(str, "squared", ("squared", "linear")),
    # intraday.MEASURES, spelled out so that the parser loads no compute module
    "measure": Param(str, "hstar", ("hstar", "cstar")),
    "band_sims": Param(int, 100),
    "trim_fraction": Param(float, 0.0),
    "seed": Param(int, 0, help="base RNG seed"),
    "threads": Param(int, 1, help="worker processes"),
    "out_dir": Param(str, ".", help="output directory"),
}

_INGEST = ("values_col", "date_col", "time_col", "price_col", "delimiter", "session_gap", "fill")
_COMMON = ("out_dir",)


@dataclass(frozen=True)
class Command:
    """A subcommand: its own parameters, ``compute(params[, series,
    calendar]) -> [(file name, schema, table, comments), ...]``, where
    ``table`` maps each column name to one column of the file, and the
    ``_LAZY`` modules whose names it uses: ``simulate`` for a subcommand
    taking ``--seed``, whose manifest records ``RNG_NAME``; ``series`` and
    ``manifest`` are bound for every subcommand."""

    help: str
    params: tuple[str, ...]
    compute: Callable
    uses: tuple[str, ...]
    reads_input: bool = False
    defaults: dict = field(default_factory=dict)  # overrides of PARAMS defaults

    @property
    def flags(self) -> tuple[str, ...]:
        return (_INGEST if self.reads_input else ()) + self.params + _COMMON


# ---------------------------------------------------------------------------
# formatting and file helpers


def _fmt(value) -> str:
    """Full round-trip decimal text for one CSV cell or manifest value."""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def _cells(column) -> list[str]:
    """The text of each cell of one column.  A ``range``, or a bool, integer
    or float array of at most 8-byte items, becomes text in one call: the
    repr of its Python list holds each element's repr, the text ``_fmt``
    gives it.  Any other column takes ``_fmt`` cell by cell; a list may hold
    NumPy scalars, whose repr is not their value's."""
    if isinstance(column, range):
        column = list(column)
    elif isinstance(column, np.ndarray) and column.dtype.kind in "biuf" and column.itemsize <= 8:
        column = column.tolist()
    else:
        return list(map(_fmt, column))
    text = repr(column)[1:-1]
    return text.split(", ") if text else []


def _write_csv(path: Path, schema: str, table: dict, comments=()) -> None:
    """Write ``table`` (column name -> column) under its comment lines.  A
    column shorter than the others raises ValueError and writes no file."""
    cells = [_cells(column) for column in table.values()]
    head = [f"schema: {schema} v1", f"generator: hhtscale {__version__}", *comments]
    lines = [f"# {line}" for line in head] + [",".join(table)]
    lines += map(",".join, zip(*cells, strict=True))
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _run_command(name: str, args) -> int:
    """Compute, write the CSVs, then one manifest per CSV."""
    command = COMMANDS[name]
    _bind(("series", "manifest", *command.uses))
    params = {key: getattr(args, key) for key in command.flags}
    if command.reads_input:
        params["input"] = args.input
    started = time.time()
    data = _read_input(args.input, params) if command.reads_input else ()
    outputs = command.compute(params, *data)
    manifest = RunManifest(
        subcommand=name,
        # seed and threads have manifest fields of their own
        params={
            key: _fmt(value)
            for key, value in params.items()
            if value is not None and key not in ("seed", "threads")
        },
        inputs={"input": file_digest(args.input)} if command.reads_input else {},
        seed=params.get("seed"),
        threads=params.get("threads"),
        # the subcommands with a seed are the ones that draw random numbers
        rng=RNG_NAME if "seed" in command.flags else None,
    )
    # made only now, so a run that fails before writing leaves no directory
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for file_name, schema, table, comments in outputs:
        _write_csv(out_dir / file_name, schema, table, comments)
    manifest.duration_s = time.time() - started
    for file_name, *_ in outputs:
        manifest.write(out_dir / (file_name + ".manifest"))
    return 0


# ---------------------------------------------------------------------------
# input handling


def _read_input(path: str, params: dict):
    """Load the input series: a raw value column, or prices via ingest.

    Returns (TimeSeries, calendar-or-None).
    """
    if params.get("values_col"):
        return read_values(path, params["values_col"], params["delimiter"]), None
    return ingest_prices(
        path,
        date_col=params["date_col"],
        time_col=params["time_col"] or None,
        price_col=params["price_col"],
        delimiter=params["delimiter"],
        session_gap=params["session_gap"],
        fill=params["fill"],
    )


def _components(series, params: dict):
    """The decomposition of the input, with the sifting flags the command has."""
    max_imfs = params.get("max_imfs")
    if max_imfs is not None and max_imfs < 1:
        raise UsageError("max_imfs must be >= 1 when given")
    # positional: perfbench's traced stand-in for decompose names it config
    return decompose(series, max_imfs)


def _track(series, params: dict):
    return spectral_track(_components(series, params), trim_fraction=params["trim_fraction"])


# ---------------------------------------------------------------------------
# simulate / table helpers


def _shape(params: dict):
    """(process, its _SHAPES entry), or a UsageError naming the problem."""
    process = params["process"]
    if process is None:
        raise UsageError("--process is required")
    return process, _SHAPES[process]


def _sim_config(params: dict) -> SimConfig:
    process, (shape, field_name, _) = _shape(params)
    kwargs = {}
    if shape is not None:
        if params.get(shape) is None:
            raise UsageError(f"{process} requires --{shape}")
        kwargs[field_name] = params[shape]
    try:
        return SimConfig(
            process=process,
            length=params["length"],
            seed=params["seed"],
            paths=params["paths"],
            **kwargs,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _tau_max(params: dict) -> int:
    """The largest lag of the structure-function fit, which needs two."""
    if params["tau_max"] < 2:
        raise UsageError("tau_max must be >= 2")
    return params["tau_max"]


_MAX_GRID_POINTS = 10_000  # one ensemble each; the paper's tables use 9


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive, points rounded to 12 decimals) or
    a comma-separated list: at least one and at most ``_MAX_GRID_POINTS``
    points, none repeated."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise UsageError(f"grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError:
            raise UsageError(f"non-numeric grid bounds in {text!r}") from None
        if not np.isfinite([start, stop, step]).all():
            raise UsageError(f"grid bounds in {text!r} must be finite")
        if step <= 0 or stop < start:
            raise UsageError(f"grid {text!r} must have step > 0 and stop >= start")
        # steps past start, as a float: inf when the ratio overflows
        steps = np.floor((stop - start) / step + 1e-9)
        if steps >= _MAX_GRID_POINTS:
            raise UsageError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
        values = [round(start + i * step, 12) for i in range(int(steps) + 1)]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise UsageError(f"non-numeric grid entry in {text!r}") from None
        if not values:
            raise UsageError(f"grid {text!r} has no values")
        if len(values) > _MAX_GRID_POINTS:
            raise UsageError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    if len(set(values)) < len(values):
        raise UsageError(f"grid {text!r} repeats a point")
    return values


# ---------------------------------------------------------------------------
# subcommand outputs


def _numbered(prefix: str, columns, start: int) -> dict:
    """Columns named ``<prefix>_<start>``, ``<prefix>_<start + 1>``, ..."""
    return {f"{prefix}_{k}": column for k, column in enumerate(columns, start)}


def _simulate_outputs(params):
    sim = _sim_config(params)
    check_threads(params["threads"])
    paths = (simulate(sim, path_index=i).values for i in range(sim.paths))
    table = {"t": range(sim.length), **_numbered("path", paths, 0)}
    comments = [f"process={sim.process}", f"rng={RNG_NAME}", f"seed={sim.seed}"]
    return [("paths.csv", "simulated-paths", table, comments)]


def _table_outputs(params):
    """One ensemble per shape value -> (H, mean/std H*, mean R2, mean/std HG)."""
    tau_max = _tau_max(params)
    process, (shape, _, nominal) = _shape(params)
    if shape is None:
        grid_values = [None]
    else:
        grid_key = shape + "_grid"
        if params[grid_key] is None:
            raise UsageError(f"{process} requires --{grid_key.replace('_', '-')}")
        grid_values = _parse_grid(params[grid_key])
    stats = [
        monte_carlo_ensemble(
            _sim_config(params if shape is None else {**params, shape: value}),
            tau_max=tau_max,
            trim_fraction=params["trim_fraction"],
            threads=params["threads"],
        )
        for value in grid_values
    ]
    table = {
        "H": [nominal(value) for value in grid_values],
        "mean_Hstar": [s.grand_mean for s in stats],
        "std_Hstar": [s.grand_std for s in stats],
        "mean_R2": [s.mean_r2 for s in stats],
        "mean_HG": [s.ghe_mean for s in stats],
        "std_HG": [s.ghe_std for s in stats],
    }
    comments = [
        f"process={process}",
        f"paths={params['paths']}",
        f"length={params['length']}",
        f"rng={RNG_NAME}",
    ]
    return [("table.csv", "ensemble-table", table, comments)]


def _decompose_outputs(params, series, calendar):
    result = _components(series, params)
    imfs = _numbered("imf", result.imfs, 1)
    table = {"t": range(result.length), **imfs, "residue": result.residue}
    comments = [
        f"sift_counts={','.join(str(c) for c in result.sift_counts)}",
        f"stop_reasons={','.join(result.stop_reasons)}",
        f"dt={_fmt(series.dt)}",
    ]
    return [("imfs.csv", "imf-matrix", table, comments)]


def _spectral_outputs(params, series, calendar):
    track = _track(series, params)
    comments = [f"dt={_fmt(series.dt)}", "frequency_units=radians_per_sample"]
    # a sample with no valid component (inside the trimmed margin) is undefined
    undefined = ~track.validity.any(axis=0)
    t = range(track.length)
    amplitudes = _numbered("imf", np.where(undefined, np.nan, track.amplitudes), 1)
    frequencies = _numbered("imf", np.where(undefined, np.nan, track.frequencies), 1)
    return [
        ("spectral_amplitude.csv", "amplitude-matrix", {"t": t, **amplitudes}, comments),
        ("spectral_frequency.csv", "frequency-matrix", {"t": t, **frequencies}, comments),
    ]


def _scaling_outputs(params, series, calendar):
    tau_max = _tau_max(params)
    track = _track(series, params)
    window = params["rolling_window"]
    if window is None:
        st = scaling_exponent(track)
    else:
        st = rolling_scaling_exponent(track, window=window)
    comments = [f"tau_max={tau_max}"]
    try:
        ghe = generalized_hurst_q1(series.values, tau_max=tau_max)
        comments.append(f"ghe_q1={_fmt(ghe.h_g)}")
        comments.append(f"ghe_r2={_fmt(ghe.r_squared)}")
    except ValueError as exc:
        comments.append(f"ghe_q1=nan ({exc})")
    if window is not None:
        comments.append(f"rolling_window={window}")
    # h_star and r2 read nan where the regression is undefined: fewer
    # than three usable components, or periods spanning less than an octave
    table = {"t": range(st.length), "h_star": st.h_star, "r2": st.r_squared,
             "points_used": st.points_used}
    return [("scaling.csv", "scaling-track", table, comments)]


def _complexity_outputs(params, series, calendar):
    ct = complexity(_track(series, params), weight=params["weight"])
    table = {"t": range(ct.length), "c_star": ct.c_star}
    comments = [f"weight={params['weight']}", f"n_imfs={ct.n_imfs}"]
    return [("complexity.csv", "complexity-track", table, comments)]


def _intraday_outputs(params, series, calendar):
    if calendar is None:
        raise DataError(
            f"{params['input']}: intraday analysis needs dated price rows "
            "(not --values-col)"
        )
    per_sample = measure_track(
        series, params["measure"], trim_fraction=params["trim_fraction"]
    )
    panel = panelize(per_sample, calendar)
    band_lo, band_hi = bm_reference_band(
        day_length=panel.width,
        n_days=panel.n_days,
        n_sims=params["band_sims"],
        seed=params["seed"],
        measure=params["measure"],
        trim_fraction=params["trim_fraction"],
        threads=params["threads"],
    )
    likelihood = outside_band_likelihood(panel.matrix, band_lo, band_hi)
    comments = [f"measure={params['measure']}", f"band_sims={params['band_sims']}"]
    if panel.lunch_gap is not None:
        comments.append(f"lunch_gap={panel.lunch_gap[0]}:{panel.lunch_gap[1]}")
    panel_table = {"day_id": calendar.day_ids, **_numbered("c", panel.matrix.T, 0)}
    profile_table = {"index": range(panel.width), "day_mean": panel.day_mean,
                     "band_lo": band_lo, "band_hi": band_hi, "likelihood": likelihood}
    return [
        ("intraday_panel.csv", "intraday-panel", panel_table, comments),
        ("intraday_profile.csv", "intraday-profile", profile_table, comments),
    ]


COMMANDS = {
    "simulate": Command(
        "generate stochastic paths",
        # --threads is checked as everywhere, but paths are drawn one by one
        ("process", "length", "paths", "h", "alpha", "d", "seed", "threads"),
        _simulate_outputs,
        ("simulate",),
    ),
    "decompose": Command(
        "split a series into components",
        ("max_imfs",),
        _decompose_outputs,
        ("emd",),
        reads_input=True,
    ),
    "spectral": Command(
        "amplitude/frequency tracks",
        ("trim_fraction",),
        _spectral_outputs,
        ("emd", "spectral"),
        reads_input=True,
    ),
    "scaling": Command(
        "local scaling exponent track",
        ("rolling_window", "tau_max", "trim_fraction"),
        _scaling_outputs,
        ("emd", "spectral", "measures"),
        reads_input=True,
    ),
    "complexity": Command(
        "entropy complexity track",
        ("weight", "trim_fraction"),
        _complexity_outputs,
        ("emd", "spectral", "measures"),
        reads_input=True,
    ),
    "intraday": Command(
        "day panels and reference bands",
        ("measure", "band_sims", "trim_fraction", "seed", "threads"),
        _intraday_outputs,
        ("intraday", "simulate"),
        reads_input=True,
    ),
    "table": Command(
        "ensemble tables over a parameter grid",
        ("process", "h_grid", "alpha_grid", "d_grid", "paths", "length", "tau_max",
         "trim_fraction", "seed", "threads"),
        _table_outputs,
        ("simulate",),
        defaults={"paths": 100},
    ),
}


# ---------------------------------------------------------------------------
# parser assembly


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is listed, but only
    ``subcommand``'s flags are added when it is named; None adds them all."""
    parser = _Parser(
        prog="hhtscale",
        description="Adaptive scaling and complexity analysis of time series",
    )
    parser.add_argument("--version", action="version", version=f"hhtscale {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        if subcommand not in (None, name):
            continue
        if command.reads_input:
            sub.add_argument("input", help="input CSV file")
        for key in command.flags:
            param = PARAMS[key]
            sub.add_argument(
                "--" + key.replace("_", "-"),
                type=param.kind,
                choices=param.choices,
                default=command.defaults.get(key, param.default),
                help=param.help,
            )
    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    # argparse takes the first argument as the subcommand when it names one,
    # so only that subcommand's flags are needed
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise UsageError(
                f"hhtscale {args.subcommand}: unrecognized arguments: {' '.join(extra)}"
            )
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and --version
        return int(exc.code) if exc.code is not None else 0
    try:
        return _run_command(args.subcommand, args)
    except UsageError as exc:
        print(f"hhtscale {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"hhtscale {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name and str(name) not in str(exc) else ""
        print(f"hhtscale {args.subcommand}: {exc}{where}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, MemoryError) as exc:
        # RuntimeError from mirror padding, MemoryError from the spline scratch
        print(f"hhtscale {args.subcommand}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
