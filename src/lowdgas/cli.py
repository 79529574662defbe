"""Command-line front end.

Every quantity the library computes can be evaluated either at a single
point (``lowdgas ll shift --gamma 1 --tau 0.5``) or on a 1-2 axis grid
driven by a sweep specfile (``lowdgas sweep fig1.sweep``).  A single point
is a sweep with no axes, so both run through :func:`run_sweep`.  Each
command's flags are its quantity's ``REGISTRY`` parameters.  Results
are written as CSV or JSON tables built for reproducibility: fixed column
order, 17-significant-digit floats, LF line endings, metadata echoing
the effective configuration, and no wall-clock timestamps (set
``SOURCE_DATE_EPOCH`` to embed one).  Identical inputs and tool version
give byte-identical files for a fixed BLAS configuration.  A quantity
gets its whole grid; the 2d ones evaluate it in chunks of quadrature
nodes, and every row depends on its own point only.

Exit codes: 0 success; 1 malformed spec or flags, which includes a
``sigma`` that is not +1 or -1 and a non-integer ``k`` or ``d``, from
flags and specfiles alike; 2 some points failed, for single points and
sweeps alike (their rows carry the error in the ``status`` column); 3
output could not be written.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .anyon_abelian import SoftCoreBC, b2_softcore_grid, e_rel_abelian_grid, e_rel_semion
from .anyon_nacs import NACSSystem, b2_nacs_grid, channel_weights, e_rel_nacs_grid
from .lieb_liniger import (
    LLParams,
    b2_ll,
    e_res_finite_T,
    e_res_zero_T,
    observables,
    solve_ground_state,
    solve_tba,
)
from .numerics import _attempt
from .virial import (
    B2SmallBetaShape,
    check_scale_invariance,
    classify_shift,
    lieb_liniger_b2_model,
    power_law_model,
    thermo_from_virial_grid,
)

__all__ = [
    "Axis",
    "SweepSpec",
    "ResultTable",
    "SpecError",
    "run_sweep",
    "emit",
    "render_csv",
    "render_json",
    "load_table",
    "parse_specfile",
    "main",
    "EXIT_OK",
    "EXIT_SPEC",
    "EXIT_SOLVER",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_SOLVER = 2
EXIT_IO = 3

_FLOAT_FMT = "%.17g"


class SpecError(ValueError):
    """A sweep spec or command line could not be understood."""


def _format(name: str) -> str:
    """``name``, checked against the output formats of ``_RENDERERS``."""
    if name not in _RENDERERS:
        raise SpecError(f"format must be {' or '.join(_RENDERERS)}, got {name!r}")
    return name


# The run options: flags of every command, echoed in a table's ``config``.
_RUN_OPTIONS = ("format", "tol")


# ---------------------------------------------------------------------------
# Sweep domain types


@dataclass(frozen=True)
class Axis:
    """One swept parameter: ``count`` points from ``start`` to ``stop``,
    spaced linearly or logarithmically.
    """

    name: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SpecError(f"axis name {self.name!r} is not a valid identifier")
        for v in (self.start, self.stop):
            if not math.isfinite(float(v)):
                raise SpecError(f"axis {self.name}: bounds must be finite")
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        if self.count != int(self.count) or self.count < 1:
            raise SpecError(f"axis {self.name}: count must be a positive integer")
        object.__setattr__(self, "count", int(self.count))
        if self.spacing not in ("linear", "log"):
            raise SpecError(f"axis {self.name}: spacing must be linear or log")
        if self.spacing == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise SpecError(f"axis {self.name}: log spacing needs positive bounds")

    def values(self) -> tuple[float, ...]:
        if self.spacing == "log":
            grid = np.geomspace(self.start, self.stop, self.count)
        else:
            grid = np.linspace(self.start, self.stop, self.count)
        return tuple(float(v) for v in grid)


@dataclass(frozen=True)
class SweepSpec:
    """What to evaluate, on which grid (no axes: a single point), with
    which fixed parameters, and where the table goes (``output=None``
    means stdout; ``format=None`` means the run's configured format).
    """

    quantity: str
    axes: tuple[Axis, ...]
    fixed: Mapping[str, object] = field(default_factory=dict)
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.quantity not in REGISTRY:
            known = ", ".join(sorted(REGISTRY))
            raise SpecError(f"unknown quantity {self.quantity!r} (one of: {known})")
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) > 2:
            raise SpecError("a sweep takes at most two axes")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise SpecError("axis names must be distinct")
        fixed = dict(self.fixed)
        object.__setattr__(self, "fixed", fixed)
        for name in names:
            if name in fixed:
                raise SpecError(f"{name} is both an axis and a fixed parameter")
        if self.format is not None:
            _format(self.format)


@dataclass(frozen=True)
class ResultTable:
    """Tabular result: ``columns`` are ``(name, unit)`` pairs, rows hold
    floats or strings (empty string = value not produced), and metadata
    echoes everything needed to reproduce the run.  A NaN may only
    appear in a row whose ``status`` cell says why.
    """

    columns: tuple[tuple[str, str], ...]
    rows: tuple[tuple, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        cols = tuple((str(n), str(u)) for n, u in self.columns)
        object.__setattr__(self, "columns", cols)
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "metadata", dict(self.metadata))
        names = [n for n, _ in cols]
        status_at = names.index("status") if "status" in names else None
        for i, row in enumerate(rows):
            if len(row) != len(cols):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(cols)}"
                )
        # a NaN is the one cell that differs from itself
        for i in sorted({i for i, row in enumerate(rows) for c in row if c != c}):
            if status_at is None or rows[i][status_at] == "ok":
                raise ValueError(f"row {i} holds NaN without a status flag")

    @property
    def failures(self) -> int:
        names = [n for n, _ in self.columns]
        if "status" not in names:
            return 0
        at = names.index("status")
        return sum(1 for row in self.rows if row[at] != "ok")


# ---------------------------------------------------------------------------
# Quantity registry


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as err:
        raise SpecError(f"parameter {name} must be numeric, got {value!r}") from err


def _as_sigma(value, name: str) -> int:
    s = _number(value, name)
    if s not in (1.0, -1.0):
        raise SpecError(f"{name} must be +1 or -1, got {value}")
    return int(s)


def _as_int(value, name: str) -> int:
    v = _number(value, name)
    if not v.is_integer():
        raise SpecError(f"{name} must be an integer, got {value}")
    return int(v)


# Parameters that take only integer values.  None of them can be swept,
# so checking their fixed values once covers every point.
_KINDS = {"sigma": _as_sigma, "k": _as_int, "d": _as_int}

# Parameters fixed for a whole sweep: the integer kinds, and the NACS
# isospin l, which sets the channel count.
_FIXED_ONLY = {*_KINDS, "l"}


def _ll_solver_kw(opts: Mapping) -> dict:
    kw = {}
    if opts.get("tol") is not None:
        kw["tol"] = float(opts["tol"])
    return kw


def _pointwise(evaluate: Callable[..., object]) -> Callable:
    """The grid form of ``evaluate(*point, opts)``, an evaluator of one
    point that takes its parameters positionally, then the run options:
    each point's outputs, or the exception it raised."""
    return lambda points, opts, fixed: [_attempt(evaluate, *p, opts) for p in points]


def _eval_ll_ground(gamma, opts):
    gs = solve_ground_state(gamma, **_ll_solver_kw(opts))
    return (gs.energy, gs.ell)


def _eval_ll_tba(gamma, tau, opts):
    sol = solve_tba(LLParams(gamma=gamma, tau=tau), **_ll_solver_kw(opts))
    pressure, energy = observables(sol)
    return (sol.mu, pressure, energy)


def _eval_ll_shift(gamma, tau, opts):
    if tau == 0.0:
        return e_res_zero_T(gamma, **_ll_solver_kw(opts))
    return e_res_finite_T(LLParams(gamma=gamma, tau=tau), **_ll_solver_kw(opts))


def _eval_ll_b2(gamma, tau, opts):
    return b2_ll(LLParams(gamma=gamma, tau=tau))


def _eval_anyon_semion(sigma, eps, x, opts):
    return e_rel_semion(SoftCoreBC(int(sigma), eps), x)


def _virial_model(fixed: Mapping):
    kind = str(fixed.get("model", "power-law"))
    if kind == "power-law":
        for key in ("d", "alpha", "amps"):
            if key not in fixed:
                raise SpecError(f"power-law model needs {key}")
        amps = fixed["amps"]
        if isinstance(amps, str):
            try:
                amps = tuple(float(a) for a in amps.split(",") if a.strip())
            except ValueError as err:
                raise SpecError(f"bad amps list {fixed['amps']!r}") from err
        else:
            amps = (float(amps),)
        if not amps:
            raise SpecError("amps must list at least one coefficient")
        return power_law_model(_as_int(fixed["d"], "d"), _number(fixed["alpha"], "alpha"), amps)
    if kind == "delta-gas":
        if "c" not in fixed:
            raise SpecError("delta-gas model needs c")
        return lieb_liniger_b2_model(_number(fixed["c"], "c"))
    raise SpecError(f"unknown model {kind!r} (power-law or delta-gas)")


def _eval_virial_thermo(points, opts, fixed):
    return thermo_from_virial_grid(_virial_model(fixed), points)


def _eval_classify(points, opts, fixed):
    extra = fixed.get("extra", ())  # "c,p,l;c,p,l" from a specfile, a list from flags
    if not isinstance(extra, (list, tuple)):
        extra = str(extra).split(";")
    extra = _parse_extra_terms([t for t in extra if t.strip()])

    def one(d, sqrt_beta, beta_log_beta, beta):
        out = classify_shift(B2SmallBetaShape(sqrt_beta, beta_log_beta, beta, extra), int(d))
        return (out.verdict, "" if out.limit_value is None else out.limit_value)

    return [_attempt(one, *p) for p in points]


@dataclass(frozen=True)
class _Quantity:
    """One quantity, declared once.  Its subcommand takes one flag per
    parameter and is named by ``command``, or else by the quantity's
    name split at its first dash (``ll-b2`` is ``lowdgas ll b2``).
    ``evaluate(points, opts, fixed)`` maps the grid's points, each a tuple
    of the quantity's parameters in ``required + defaults`` order, to each
    point's outputs (a one-output quantity's value itself) or exception;
    ``opts`` are the run options, and ``fixed`` the spec's fixed
    parameters as given, from which an evaluator builds what every point
    shares (a model, extra terms) before the first point, so that a bad
    one is a spec error (see :func:`_pointwise`).
    """

    required: tuple[str, ...]
    outputs: tuple[tuple[str, str], ...]
    evaluate: Callable[[Sequence[tuple], Mapping, Mapping], list]
    defaults: Mapping[str, float] = field(default_factory=dict)
    model_keys: tuple[str, ...] = ()
    command: str | None = None

    @property
    def axis_ok(self) -> tuple[str, ...]:
        """The parameters an axis may sweep: every numeric one that is
        not fixed for a whole sweep."""
        return tuple(n for n in (*self.required, *self.defaults) if n not in _FIXED_ONLY)


def _parameters(entry) -> tuple[str, ...]:
    """A quantity's (or table's) parameters, in flag and column order."""
    return (*entry.required, *entry.defaults, *entry.model_keys)


REGISTRY: dict[str, _Quantity] = {
    "ll-ground": _Quantity(
        required=("gamma",),
        outputs=(("energy", "hbar^2 rho^2/2m"), ("ell", "")),
        evaluate=_pointwise(_eval_ll_ground),
    ),
    "ll-tba": _Quantity(
        required=("gamma", "tau"),
        outputs=(("mu", "k_B T_D"), ("pressure", "rho k_B T_D"), ("energy", "k_B T_D")),
        evaluate=_pointwise(_eval_ll_tba),
    ),
    "ll-shift": _Quantity(
        required=("gamma", "tau"),
        outputs=(("e_res", "k_B T_D"),),
        evaluate=_pointwise(_eval_ll_shift),
    ),
    "ll-b2": _Quantity(
        required=("gamma", "tau"),
        outputs=(("b2", "lambda_T"),),
        evaluate=_pointwise(_eval_ll_b2),
    ),
    "anyon-b2": _Quantity(
        required=("alpha", "sigma", "eps"),
        outputs=(
            ("b2", "lambda_T^2"),
            ("hard_core_part", "lambda_T^2"),
            ("bound_state_part", "lambda_T^2"),
            ("scattering_part", "lambda_T^2"),
        ),
        evaluate=lambda points, opts, fixed: b2_softcore_grid(points),
    ),
    "anyon-shift": _Quantity(
        required=("alpha", "sigma", "eps", "x"),
        outputs=(("e_rel", ""),),
        evaluate=lambda points, opts, fixed: e_rel_abelian_grid(points),
    ),
    "anyon-semion": _Quantity(
        required=("sigma", "eps", "x"),
        outputs=(("e_rel", ""),),
        evaluate=_pointwise(_eval_anyon_semion),
    ),
    "nacs-b2": _Quantity(
        required=("k", "l", "eps", "sigma"),
        outputs=(("b2", "lambda_T^2"),),
        evaluate=lambda points, opts, fixed: b2_nacs_grid(points),
    ),
    "nacs-shift": _Quantity(
        required=("k", "l", "eps", "sigma", "x"),
        outputs=(("e_rel", ""),),
        evaluate=lambda points, opts, fixed: e_rel_nacs_grid(points),
    ),
    "virial-thermo": _Quantity(
        required=("rho", "T"),
        outputs=(
            ("pressure", "k_B T"),
            ("helmholtz", "k_B T"),
            ("gibbs", "k_B T"),
            ("entropy", "k_B"),
            ("energy", "k_B T"),
            ("enthalpy", "k_B T"),
        ),
        evaluate=_eval_virial_thermo,
        model_keys=("model", "d", "alpha", "amps", "c"),
    ),
    "classify": _Quantity(
        required=("d",),
        defaults={"sqrt_beta": 0.0, "beta_log_beta": 0.0, "beta": 0.0},
        outputs=(("verdict", ""), ("limit", "energy volume")),
        evaluate=_eval_classify,
        model_keys=("extra",),
        command="virial classify",
    ),
}


# ---------------------------------------------------------------------------
# Sweep engine


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH", "")
    if not epoch:
        return ""
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()


def _metadata(quantity: str, axes: Sequence[Axis], fixed: Mapping, opts: Mapping) -> dict:
    """The one metadata schema of every table the CLI writes."""
    return {
        "tool": "lowdgas",
        "version": __version__,
        "timestamp": _timestamp(),
        "quantity": quantity,
        "axes": [asdict(a) for a in axes],
        "fixed": {k: fixed[k] for k in sorted(fixed)},
        "config": {key: opts.get(key) for key in _RUN_OPTIONS},
    }


def _check_parameters(spec: SweepSpec, q: _Quantity) -> None:
    axis_names = [a.name for a in spec.axes]
    for name in axis_names:
        if name not in q.axis_ok:
            raise SpecError(
                f"{spec.quantity}: {name} cannot be swept "
                f"(axes: {', '.join(q.axis_ok)})"
            )
    for name in spec.fixed:
        if name not in _parameters(q):
            raise SpecError(f"{spec.quantity}: unknown parameter {name!r}")
    missing = [name for name in q.required if name not in (*axis_names, *spec.fixed)]
    if missing:
        raise SpecError(f"{spec.quantity}: missing parameter(s) {', '.join(missing)}")
    for name in _KINDS.keys() & spec.fixed.keys():
        _KINDS[name](spec.fixed[name], name)


def run_sweep(spec: SweepSpec, opts: Mapping | None = None) -> ResultTable:
    """Evaluate the quantity on the grid.  Points are independent; any
    per-point failure is recorded in that row's ``status`` cell and the
    sweep carries on, and so is a non-finite float output, named by its
    column.  Row order follows the grid (first axis outermost).  With no
    axes the one row leads with the quantity's parameters.
    """
    opts = dict(opts or {})
    q = REGISTRY[spec.quantity]
    _check_parameters(spec, q)

    base = dict(q.defaults)
    base.update((k, _number(v, k)) for k, v in spec.fixed.items() if k not in q.model_keys)

    names = (*q.required, *q.defaults)
    axis_names = [a.name for a in spec.axes]
    heads = list(itertools.product(*(axis.values() for axis in spec.axes)))
    # a point holds the parameters in order: its axis values, else the fixed ones
    at = {name: i for i, name in enumerate(axis_names)}
    take = [at.get(name, len(at) + i) for i, name in enumerate(names)]
    values = tuple(base.get(name) for name in names)
    points = [tuple(map((head + values).__getitem__, take)) for head in heads]

    def row(head: tuple, out) -> tuple:
        if not isinstance(out, Exception):
            try:  # a float output that is not finite makes the sum not finite
                if math.isfinite(sum(out)):
                    return head + tuple(out) + ("ok",)
            except TypeError:  # a text output
                pass
            for (name, _), value in zip(q.outputs, out):
                if isinstance(value, float) and not math.isfinite(value):
                    out = FloatingPointError(f"{name} is {value}")
                    break
            else:
                return head + tuple(out) + ("ok",)
        # a failed point, recorded in its row: the sweep must finish
        note = f"{type(out).__name__}: {out}".replace("\n", "; ")
        return head + ("",) * len(q.outputs) + (note,)

    outs = q.evaluate(points, opts, spec.fixed)
    if len(q.outputs) == 1:  # the value of a one-output quantity is its row
        outs = [out if isinstance(out, Exception) else (out,) for out in outs]
    # a row leads with its axis values, or with the one point
    rows = tuple(itertools.starmap(row, zip(heads if axis_names else points, outs, strict=True)))

    columns = tuple((name, "") for name in axis_names or names) + q.outputs + (("status", ""),)
    config = dict(opts, format=spec.format or opts.get("format"))
    metadata = _metadata(spec.quantity, spec.axes, spec.fixed, config)
    return ResultTable(columns=columns, rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# Rendering and parsing


def _format_cell(value) -> str:
    if type(value) is float:
        return _FLOAT_FMT % value
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return _FLOAT_FMT % float(value)


def _header_name(name: str, unit: str) -> str:
    return f"{name}[{unit}]" if unit else name


def render_csv(table: ResultTable) -> str:
    """Comment-prefixed metadata, a ``name[unit]`` header row, then one
    RFC-4180 row per grid point with LF endings and 17-digit floats.
    """
    buf = io.StringIO()
    meta = json.dumps(table.metadata, sort_keys=True, separators=(",", ":"))
    buf.write(f"# lowdgas {__version__}\n")
    buf.write(f"# metadata: {meta}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow([_header_name(n, u) for n, u in table.columns])
    # rows of floats and the status "ok" need no quoting: when every such
    # row holds no other text, one format string writes each of them
    plain = ",".join([_FLOAT_FMT] * (len(table.columns) - 1) + ["%s\n"])
    ok = [row for row in table.rows if row[-1] == "ok"] if table.columns else []
    cells = collections.Counter(map(type, itertools.chain.from_iterable(ok)))
    bulk = cells.keys() <= {float, str} and cells[str] == len(ok)
    for row in table.rows:
        if bulk and row[-1] == "ok":
            buf.write(plain % row)
        else:
            writer.writerow([_format_cell(c) for c in row])
    return buf.getvalue()


def render_json(table: ResultTable) -> str:
    payload = {
        "metadata": table.metadata,
        "columns": [{"name": n, "unit": u} for n, u in table.columns],
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# The output formats by name: the one place that lists them.
_RENDERERS = {"csv": render_csv, "json": render_json}


def emit(table: ResultTable, format: str, destination: str | None = None) -> None:
    """Write the table (stdout when ``destination`` is None)."""
    text = _RENDERERS[_format(format)](table)
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_cell(text: str):
    if text == "" or text == "ok" or ":" in text:
        return text
    try:
        return float(text)
    except ValueError:
        return text


def _parse_row(row: list) -> tuple:
    """The cells of a CSV row, as :func:`_parse_cell` reads them: a row of
    numbers and the status ``ok`` in bulk."""
    if row[-1] == "ok":
        try:
            return (*map(float, row[:-1]), "ok")
        except ValueError:  # a cell that is not a number
            pass
    return tuple(map(_parse_cell, row))


def load_table(path: str) -> ResultTable:
    """Parse back an emitted file (format detected from the content)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return ResultTable(
            columns=tuple((c["name"], c["unit"]) for c in payload["columns"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
            metadata=payload["metadata"],
        )
    metadata: dict = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# metadata: "):
            metadata = json.loads(line[len("# metadata: ") :])
        elif not line.startswith("#"):
            lines.append(line)
    reader = csv.reader(lines)
    header = next(reader)
    columns = []
    for cell in header:
        if cell.endswith("]") and "[" in cell:
            name, unit = cell[:-1].split("[", 1)
        else:
            name, unit = cell, ""
        columns.append((name, unit))
    rows = tuple(map(_parse_row, filter(None, reader)))
    return ResultTable(columns=tuple(columns), rows=rows, metadata=metadata)


def _write_gnuplot(table: ResultTable, csv_path: str) -> str:
    """Companion plot script next to the CSV; returns its path."""
    script = csv_path + ".gp"
    names = [n for n, _ in table.columns]
    with open(script, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            "\n".join(
                [
                    f"# plot script for {os.path.basename(csv_path)}",
                    'set datafile separator ","',
                    "set key autotitle columnhead",
                    f'set xlabel "{names[0]}"',
                    f'plot "{os.path.basename(csv_path)}" using 1:2 with lines',
                    "",
                ]
            )
        )
    return script


# ---------------------------------------------------------------------------
# Specfile parsing


def _parse_axis_line(value: str, where: str) -> Axis:
    parts = value.split()
    if len(parts) != 5:
        raise SpecError(
            f"{where}: axis wants 'name linear|log start stop count', got {value!r}"
        )
    name, spacing, start, stop, count = parts
    try:
        return Axis(
            name=name,
            start=float(start),
            stop=float(stop),
            count=int(count),
            spacing=spacing,
        )
    except ValueError as err:
        raise SpecError(f"{where}: {err}") from err


def _key_values(text: str, name: str) -> Iterator[tuple[str, str, str]]:
    """``(where, key, value)`` for each ``key = value`` line of a
    specfile, ``where`` being ``name:line``; blank and ``#`` lines are
    skipped.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{name}:{lineno}"
        if "=" not in line:
            raise SpecError(f"{where}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        yield where, key.strip(), value.strip()


def _coerce(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def parse_specfile(text: str, name: str = "<spec>") -> SweepSpec:
    """Key-value sweep description::

        quantity = ll-shift
        axis     = gamma log 0.1 100 60
        tau      = 0
        out      = fig1.csv
        format   = csv

    ``axis`` may appear twice; every other key that is not ``quantity``,
    ``out`` or ``format`` becomes a fixed parameter.  Without a
    ``format`` line the spec leaves the format to the run's options.
    """
    quantity = None
    axes: list[Axis] = []
    fixed: dict[str, object] = {}
    output = None
    fmt = None
    for where, key, value in _key_values(text, name):
        if not value:
            raise SpecError(f"{where}: empty value for {key!r}")
        if key == "quantity":
            quantity = value
        elif key == "axis":
            if len(axes) == 2:
                raise SpecError(f"{where}: at most two axes")
            axes.append(_parse_axis_line(value, where))
        elif key in ("out", "output"):
            output = value
        elif key == "format":
            fmt = value
        else:
            fixed[key] = _coerce(value)
    if quantity is None:
        raise SpecError(f"{name}: missing 'quantity ='")
    if not axes:
        raise SpecError(f"{name}: missing 'axis ='")
    return SweepSpec(
        quantity=quantity, axes=tuple(axes), fixed=fixed, output=output, format=fmt
    )


# ---------------------------------------------------------------------------
# Command line


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are spec errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_SPEC, f"{self.prog}: error: {message}\n")


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument("--format", choices=tuple(_RENDERERS), default=None)
    common.add_argument("--tol", type=float, default=None, help="solver tolerance")
    common.add_argument(
        "--gnuplot",
        action="store_true",
        help="also write a plot script next to a CSV output file",
    )
    return common


def _flag_values(ns: argparse.Namespace, names: Iterable[str]) -> dict:
    """The named parameters set on the command line."""
    return {name: getattr(ns, name) for name in names if getattr(ns, name) is not None}


def _channels_table(fixed: Mapping) -> tuple:
    sys_ = NACSSystem.isotropic(_as_int(fixed["k"], "k"), fixed["l"], 1.0, +1)
    w = channel_weights(sys_)
    rows = [
        (
            float(j),
            w.omega[j],
            w.delta[j],
            w.gamma[j],
            w.nu[j],
            "bosonic" if w.bosonic[j] else "fermionic",
        )
        for j in range(sys_.channel_count)
    ]
    columns = ("j", "omega", "delta", "gamma", "nu", "kind")
    return columns, rows, fixed


def _scaling_table(fixed: Mapping) -> tuple:
    model = _virial_model(fixed)
    try:
        temps = [float(t) for t in fixed["temps"].split(",") if t.strip()]
    except ValueError as err:
        raise SpecError(f"bad temperature list {fixed['temps']!r}") from err
    report = check_scale_invariance(model, temps, rtol=fixed["rtol"])  # a ValueError exits 1 in main
    rows = [
        (
            float(k + 1),
            report.relative_spread[k],
            "pass" if (k + 1) not in report.violations else "fail",
        )
        for k in range(len(report.relative_spread))
    ]
    return ("order_k", "relative_spread", "scaling"), rows, {**fixed, "temps": temps}


@dataclass(frozen=True)
class _Table:
    """A command that prints a table of its own, not one point of a
    quantity; its flags and name are declared as a quantity's are.
    ``build(fixed)``, given the parameters set by flags, gives the column
    names, the rows and the parameters to echo in the metadata; every
    column is unitless.
    """

    build: Callable[[Mapping], tuple]
    required: tuple[str, ...]
    defaults: Mapping[str, object] = field(default_factory=dict)
    model_keys: tuple[str, ...] = ()
    command: str | None = None


_TABLES = {
    "nacs-channels": _Table(_channels_table, ("k", "l")),
    "virial-check-scaling": _Table(
        _scaling_table, ("temps",), {"rtol": 1e-9}, REGISTRY["virial-thermo"].model_keys
    ),
}

_GROUPS = {
    "ll": "delta-interacting 1d Bose gas",
    "anyon": "2d statistics gas, one channel",
    "nacs": "isospin-channel statistics gas",
    "virial": "d-dimensional virial thermodynamics",
}

# Every parameter flag takes a float, except these.
_FLAGS = {
    "model": dict(choices=("power-law", "delta-gas"), default="power-law"),
    "amps": dict(help="comma-separated amplitudes"),
    "extra": dict(
        action="append",
        metavar="COEFF,POWER,LOGPOWER",
        help="additional expansion term (repeatable)",
    ),
    "temps": dict(help="comma-separated temperatures"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subcommand per quantity and table, with one ``--name`` flag
    per parameter (underscores written as dashes).  ``ns.quantity``
    names what to run (None for ``sweep``).  Built once per process:
    parsing leaves the parser unchanged, so every ``main`` call shares it.
    """
    common = _common_flags()
    parser = _Parser(prog="lowdgas", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lowdgas {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)
    ops = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="op", required=True)
        for group, text in _GROUPS.items()
    }
    for quantity, entry in (*REGISTRY.items(), *_TABLES.items()):
        group, op = (entry.command or quantity.replace("-", " ", 1)).split()
        p = ops[group].add_parser(op, parents=[common])
        p.set_defaults(quantity=quantity)
        for name in _parameters(entry):
            kw = dict(_FLAGS.get(name, {"type": float}))
            kw.setdefault("default", entry.defaults.get(name))
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, required=name in entry.required, **kw)

    p = groups.add_parser("sweep", parents=[common], help="run a sweep specfile")
    p.set_defaults(quantity=None)
    p.add_argument("specfile")
    return parser


def _effective_opts(ns: argparse.Namespace) -> dict:
    opts = {"format": ns.format or "csv", "tol": ns.tol}
    if opts["tol"] is not None and not opts["tol"] > 0.0:
        raise SpecError(f"tol must be > 0, got {opts['tol']}")
    return opts


def _parse_extra_terms(specs: Sequence[str]) -> tuple:
    terms = []
    for spec in specs:
        parts = spec.split(",")
        if len(parts) != 3:
            raise SpecError(f"--extra wants COEFF,POWER,LOGPOWER, got {spec!r}")
        try:
            terms.append((float(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError as err:
            raise SpecError(f"bad --extra term {spec!r}") from err
    return tuple(terms)


def _dispatch(ns: argparse.Namespace, opts: Mapping) -> tuple[ResultTable, str | None]:
    """The command's table and where it goes (None: stdout).  The format
    is the table's ``config`` metadata: a ``--format`` flag, else a
    specfile's format line, else csv.
    """
    if ns.quantity is None:
        with open(ns.specfile, "r", encoding="utf-8") as fh:
            spec = parse_specfile(fh.read(), name=ns.specfile)
        spec = replace(spec, format=ns.format or spec.format)
        return run_sweep(spec, opts), spec.output if ns.out is None else ns.out
    fixed = _flag_values(ns, _parameters(_TABLES.get(ns.quantity) or REGISTRY[ns.quantity]))
    if ns.quantity not in _TABLES:
        return run_sweep(SweepSpec(ns.quantity, (), fixed, format=None), opts), ns.out
    columns, rows, fixed = _TABLES[ns.quantity].build(fixed)
    table = ResultTable(
        columns=tuple((name, "") for name in (*columns, "status")),
        rows=tuple((*row, "ok") for row in rows),
        metadata=_metadata(ns.quantity, (), fixed, opts),
    )
    return table, ns.out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        opts = _effective_opts(ns)
        table, out = _dispatch(ns, opts)
    except (ValueError, FileNotFoundError) as err:
        # SpecError is a ValueError; a missing specfile is a spec
        # problem, not an I/O one
        print(f"lowdgas: error: {err}", file=sys.stderr)
        return EXIT_SPEC
    fmt = table.metadata["config"]["format"]
    try:
        emit(table, fmt, out)
        if ns.gnuplot and fmt == "csv" and out:
            _write_gnuplot(table, out)
    except OSError as err:
        print(f"lowdgas: error: cannot write output: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_SOLVER if table.failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
