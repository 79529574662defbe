"""Command-line front end: sweep engine, emitters, exit codes."""

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowdgas import cli
from lowdgas.anyon_abelian import SoftCoreBC, b2_softcore, e_rel_abelian, e_rel_semion
from lowdgas.anyon_nacs import NACSSystem, b2_nacs_isotropic, e_rel_nacs
from lowdgas.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_SPEC,
    Axis,
    ResultTable,
    SpecError,
    SweepSpec,
    emit,
    load_table,
    main,
    parse_specfile,
    render_csv,
    render_json,
    run_sweep,
)
from lowdgas.lieb_liniger import LLParams, b2_ll, e_res_zero_T
from lowdgas.numerics import _attempt


@pytest.fixture(autouse=True)
def _no_embedded_timestamp(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)


# ---------------------------------------------------------------------------
# Axis


def test_axis_linear_values():
    assert Axis("gamma", 0.0, 1.0, 5).values() == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_axis_log_values():
    vals = Axis("tau", 1.0, 100.0, 3, spacing="log").values()
    assert vals == pytest.approx((1.0, 10.0, 100.0), rel=1e-12)


def test_axis_single_point():
    assert Axis("x", 2.5, 7.0, 1).values() == (2.5,)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="gamma", start=0.0, stop=1.0, count=0),
        dict(name="gamma", start=0.0, stop=1.0, count=-3),
        dict(name="gamma", start=0.0, stop=1.0, count=math.inf),
        dict(name="gamma", start=0.0, stop=1.0, count=math.nan),
        dict(name="gamma", start=math.inf, stop=1.0, count=2),
        dict(name="gamma", start=0.0, stop=math.nan, count=2),
        dict(name="gamma", start=0.0, stop=1.0, count=2, spacing="cubic"),
        dict(name="gamma", start=-1.0, stop=1.0, count=2, spacing="log"),
        dict(name="gamma", start=0.0, stop=1.0, count=2, spacing="log"),
        dict(name="2bad", start=0.0, stop=1.0, count=2),
        dict(name="", start=0.0, stop=1.0, count=2),
    ],
)
def test_axis_rejects_bad_input(kwargs):
    with pytest.raises(SpecError):
        Axis(**kwargs)


# ---------------------------------------------------------------------------
# SweepSpec / ResultTable


def _axis(name="gamma", n=3):
    return Axis(name, 0.5, 2.0, n)


def test_sweepspec_rejects_unknown_quantity():
    with pytest.raises(SpecError, match="unknown quantity"):
        SweepSpec("no-such-thing", (_axis(),))


def test_sweepspec_requires_one_or_two_axes():
    # no axes is a single point: one row that leads with the parameters
    table = run_sweep(SweepSpec("ll-b2", (), {"gamma": 1.0, "tau": 1.0}))
    assert table.rows == ((1.0, 1.0, b2_ll(LLParams(gamma=1.0, tau=1.0)), "ok"),)
    with pytest.raises(SpecError):
        SweepSpec("ll-b2", (_axis("a"), _axis("b"), _axis("c")))


def test_sweepspec_rejects_duplicate_axes():
    with pytest.raises(SpecError, match="distinct"):
        SweepSpec("ll-b2", (_axis("gamma"), _axis("gamma")))


def test_sweepspec_rejects_axis_fixed_clash():
    with pytest.raises(SpecError, match="both an axis and a fixed"):
        SweepSpec("ll-b2", (_axis("gamma"),), {"gamma": 1.0})


def test_sweepspec_rejects_bad_format():
    with pytest.raises(SpecError, match="format"):
        SweepSpec("ll-b2", (_axis(),), {"tau": 1.0}, None, "xml")


def test_result_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="cells"):
        ResultTable(columns=(("a", ""), ("status", "")), rows=((1.0,),))


def test_result_table_rejects_silent_nan():
    cols = (("a", ""), ("status", ""))
    with pytest.raises(ValueError, match="NaN"):
        ResultTable(columns=cols, rows=((math.nan, "ok"),))
    flagged = ResultTable(columns=cols, rows=((math.nan, "FPError: overflow"),))
    assert flagged.failures == 1


def test_result_table_counts_failures():
    cols = (("a", ""), ("status", ""))
    table = ResultTable(cols, ((1.0, "ok"), (2.0, "ValueError: x"), (3.0, "ok")))
    assert table.failures == 1


# ---------------------------------------------------------------------------
# Specfile parsing


SPEC_TEXT = """
# comment line
quantity = ll-shift

axis     = gamma log 0.1 100 60
tau      = 0.5
out      = fig1.csv
format   = csv
"""


def test_parse_specfile_full():
    spec = parse_specfile(SPEC_TEXT, name="fig1.sweep")
    assert spec.quantity == "ll-shift"
    assert spec.axes == (Axis("gamma", 0.1, 100.0, 60, "log"),)
    assert spec.fixed == {"tau": 0.5}
    assert spec.output == "fig1.csv"
    assert spec.format == "csv"


def test_parse_specfile_keeps_strings():
    text = "quantity = virial-thermo\naxis = rho linear 0 1 5\nT = 2\nmodel = power-law\nd = 2\nalpha = 2\namps = 0.5,-0.2\n"
    spec = parse_specfile(text)
    assert spec.fixed["model"] == "power-law"
    assert spec.fixed["amps"] == "0.5,-0.2"
    assert spec.fixed["T"] == 2.0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("axis = gamma linear 0 1 3\n", "missing 'quantity"),
        ("quantity = ll-b2\ngamma = 1\n", "missing 'axis"),
        ("quantity = ll-b2\naxis = gamma linear 0 1\n", "axis wants"),
        ("quantity = ll-b2\naxis = gamma linear 0 1 3\njust a line\n", "key = value"),
        ("quantity = ll-b2\naxis = gamma linear 0 1 3\ntau =\n", "empty value"),
        (
            "quantity = ll-b2\n"
            + "axis = a linear 0 1 2\naxis = b linear 0 1 2\naxis = c linear 0 1 2\n",
            "at most two axes",
        ),
    ],
)
def test_parse_specfile_diagnostics(text, fragment):
    with pytest.raises(SpecError, match=fragment):
        parse_specfile(text)


def test_parse_specfile_reports_line_numbers():
    with pytest.raises(SpecError, match=r"broken\.sweep:3"):
        parse_specfile("quantity = ll-b2\n\nbad line\n", name="broken.sweep")


# ---------------------------------------------------------------------------
# Sweep engine


def test_grid_order_is_row_major():
    spec = SweepSpec(
        "ll-b2",
        (Axis("gamma", 1.0, 2.0, 2), Axis("tau", 0.5, 1.0, 2)),
    )
    table = run_sweep(spec)
    grid = [(row[0], row[1]) for row in table.rows]
    assert grid == [(1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)]
    for gamma, tau, value, status in table.rows:
        assert status == "ok"
        assert value == b2_ll(LLParams(gamma=gamma, tau=tau))


def test_sweep_failures_become_status_rows():
    spec = SweepSpec("ll-b2", (Axis("tau", -1.0, 1.0, 3),), {"gamma": 1.0})
    table = run_sweep(spec)
    statuses = [row[-1] for row in table.rows]
    assert statuses[0].startswith("ValueError")
    assert statuses[2] == "ok"
    assert table.failures == 2
    assert table.rows[0][1] == ""  # no value where the solver failed


def test_sweep_rejects_unknown_parameter():
    spec = SweepSpec("ll-b2", (_axis(),), {"tau": 1.0, "wat": 2.0})
    with pytest.raises(SpecError, match="unknown parameter"):
        run_sweep(spec)


def test_sweep_rejects_missing_parameter():
    spec = SweepSpec("ll-b2", (_axis(),))
    with pytest.raises(SpecError, match="missing parameter"):
        run_sweep(spec)


@pytest.mark.parametrize(
    "quantity,axis,fixed",
    [
        ("anyon-b2", Axis("sigma", -1.0, 1.0, 2), {"alpha": 0.5, "eps": 1.0}),
        ("nacs-b2", Axis("k", 2.0, 3.0, 2), {"l": 0.5, "eps": 1.0, "sigma": 1.0}),
        ("nacs-b2", Axis("l", 0.5, 1.0, 2), {"k": 3.0, "eps": 1.0, "sigma": 1.0}),
        ("classify", Axis("d", 1.0, 2.0, 2), {}),
    ],
    ids=["sigma", "k", "l", "d"],
)
def test_sweep_rejects_unsweepable_axis(quantity, axis, fixed):
    # every parameter fixed for a whole sweep is refused as an axis
    with pytest.raises(SpecError, match=f"{axis.name} cannot be swept"):
        run_sweep(SweepSpec(quantity, (axis,), fixed))


def test_shift_sweep_uses_zero_temperature_solver():
    spec = SweepSpec("ll-shift", (Axis("gamma", 2.0, 2.0, 1),), {"tau": 0.0})
    table = run_sweep(spec)
    assert table.rows[0][1] == pytest.approx(e_res_zero_T(2.0), rel=1e-12)


def test_virial_thermo_sweep_builds_model_from_fixed_keys():
    spec = SweepSpec(
        "virial-thermo",
        (Axis("rho", 0.2, 0.4, 3),),
        {"T": 1.0, "model": "power-law", "d": 2.0, "alpha": 2.0, "amps": "0.5"},
    )
    table = run_sweep(spec)
    pressures = [row[1] for row in table.rows]
    assert pressures == pytest.approx([1.1, 1.15, 1.2])


def test_classify_sweep_with_extra_terms():
    spec = SweepSpec(
        "classify",
        (Axis("beta", 1.0, 3.0, 3),),
        {"d": 1.0, "sqrt_beta": -0.5, "extra": "0.1,2,0"},
    )
    table = run_sweep(spec)
    for beta, verdict, limit, status in table.rows:
        assert status == "ok"
        assert verdict == "bounded"
        assert limit == pytest.approx(beta / 2.0)


def test_nacs_sweep_matches_library():
    spec = SweepSpec(
        "nacs-b2",
        (Axis("eps", 0.1, 10.0, 3, "log"),),
        {"k": 3.0, "l": 0.5, "sigma": 1.0},
    )
    table = run_sweep(spec)
    for eps, value, status in table.rows:
        expected = b2_nacs_isotropic(NACSSystem.isotropic(3, 0.5, eps, +1))
        assert status == "ok" and value == expected


def test_a_non_finite_isospin_fails_each_row_with_its_domain_error():
    # l is fixed for a sweep but is no integer kind, so an infinite l reaches
    # the points: each row names l, not a bare OverflowError
    spec = SweepSpec("nacs-b2", (Axis("eps", 0.1, 10.0, 2, "log"),), {"k": 3.0, "l": math.inf, "sigma": 1.0})
    table = run_sweep(spec)
    assert table.failures == 2
    for _, value, status in table.rows:
        assert value == "" and status == "ValueError: l must be a non-negative half-integer, got inf"
    # an infinite k is a spec error on the command line; a library grid
    # gives each such point the level's domain error
    (out,) = cli.REGISTRY["nacs-b2"].evaluate([(math.inf, 1.0, 1.0, 1.0)], {}, {})
    assert f"{type(out).__name__}: {out}" == "ValueError: k must be a nonzero integer, got inf"


def test_metadata_echoes_run_configuration():
    spec = SweepSpec("ll-b2", (_axis(),), {"tau": 1.0})
    table = run_sweep(spec, opts={"tol": 1e-9, "format": "csv"})
    meta = table.metadata
    assert meta["tool"] == "lowdgas"
    assert meta["quantity"] == "ll-b2"
    assert meta["fixed"] == {"tau": 1.0}
    assert meta["axes"][0]["spacing"] == "linear"
    assert meta["config"] == {"format": "csv", "tol": 1e-9}
    assert meta["timestamp"] == ""


# ---------------------------------------------------------------------------
# Rendering, emission, parse-back


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips_every_double(value):
    assert float(cli._FLOAT_FMT % value) == value


def test_render_csv_shape():
    table = ResultTable(
        columns=(("gamma", ""), ("e_res", "k_B T_D"), ("status", "")),
        rows=((1.0, 1.0 / 3.0, "ok"),),
        metadata={"tool": "lowdgas"},
    )
    text = render_csv(table)
    lines = text.splitlines()
    assert lines[0].startswith("# lowdgas")
    assert lines[1].startswith("# metadata: {")
    assert lines[2] == "gamma,e_res[k_B T_D],status"
    assert lines[3] == "1,0.33333333333333331,ok"
    assert text.endswith("\n") and "\r" not in text


def test_render_csv_quotes_status_with_commas():
    table = ResultTable(
        columns=(("x", ""), ("status", "")),
        rows=((1.0, "ValueError: bad, worse"),),
    )
    assert '"ValueError: bad, worse"' in render_csv(table)


def test_render_csv_empty_table_is_header_only():
    table = ResultTable(columns=(("x", ""), ("status", "")), rows=())
    lines = render_csv(table).splitlines()
    assert lines[-1] == "x,status"


def test_render_json_is_sorted_and_parseable():
    table = ResultTable(
        columns=(("x", ""), ("status", "")),
        rows=((2.0, "ok"),),
        metadata={"b": 1, "a": 2},
    )
    text = render_json(table)
    payload = json.loads(text)
    assert payload["rows"] == [[2.0, "ok"]]
    assert text.index('"a"') < text.index('"b"')
    assert render_json(table) == text


def test_emit_rejects_unknown_format(tmp_path):
    table = ResultTable(columns=(("x", ""),), rows=())
    with pytest.raises(SpecError, match="format"):
        emit(table, "yaml", str(tmp_path / "t.yaml"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_load_round_trip_is_bit_exact(tmp_path, fmt):
    spec = SweepSpec("ll-b2", (Axis("gamma", 0.07, 11.0, 9, "log"),), {"tau": 0.37})
    table = run_sweep(spec)
    path = str(tmp_path / f"t.{fmt}")
    emit(table, fmt, path)
    loaded = load_table(path)
    assert loaded.columns == table.columns
    assert loaded.rows == table.rows  # float cells must survive exactly
    assert loaded.metadata["quantity"] == "ll-b2"


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, math.inf, -math.inf])
_NUMBER = st.one_of(
    st.floats(allow_nan=False),
    _EDGE_FLOATS,
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**17 + 1, -(10**19), 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
)
# cells and statuses that a CSV writes as they are, and ones it must quote
_CLEAN = st.one_of(_NUMBER, st.sampled_from(["", "ok", "x:y"]))
_QUOTED = st.sampled_from(["1,2", 'say "hi"', "two\nlines"])
_STATUSES = st.sampled_from(["ok", "ok", "ok", "", "ValueError: at 1.5", "EvaluationError: eps=2.0"])


@st.composite
def _tables(draw):
    # columns of floats only (the rows that go in bulk) or of mixed cells;
    # a table either writes every cell unquoted or has some to quote
    kinds = draw(st.lists(st.sampled_from(["float", "mixed"]), max_size=4))
    quoted = draw(st.booleans())
    mixed = st.one_of(_CLEAN, _QUOTED) if quoted else _CLEAN
    status = st.one_of(_STATUSES, _QUOTED, st.text(alphabet='ab,":\n1.e+ok', max_size=12)) if quoted else _STATUSES
    cells = [st.one_of(st.floats(allow_nan=False), _EDGE_FLOATS) if k == "float" else mixed for k in kinds]
    rows = draw(st.lists(st.tuples(*cells, status), max_size=6))
    columns = [(f"c{i}", "u" if i % 2 else "") for i in range(len(kinds))] + [("status", "")]
    return ResultTable(columns=tuple(columns), rows=tuple(rows), metadata={"quantity": "q"})


def _plain_csv(table) -> str:
    # every row through csv.writer, one cell at a time
    import csv
    import io

    buf = io.StringIO()
    meta = json.dumps(table.metadata, sort_keys=True, separators=(",", ":"))
    buf.write(f"# lowdgas {cli.__version__}\n# metadata: {meta}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow([cli._header_name(n, u) for n, u in table.columns])
    writer.writerows([cli._format_cell(c) for c in row] for row in table.rows)
    return buf.getvalue()


@given(_tables())
def test_bulk_rows_render_and_parse_as_the_plain_paths(tmp_path_factory, table):
    # render_csv writes a row of floats and "ok" with one format string and
    # load_table reads unquoted rows in bulk: bytes and parsed cells (with
    # the sign of a zero) are those of csv.writer and _parse_cell
    import csv

    text = render_csv(table)
    assert text == _plain_csv(table)
    path = tmp_path_factory.mktemp("bulk") / "t.csv"
    path.write_text(text, encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    plain = [tuple(map(cli._parse_cell, row)) for row in list(csv.reader(lines))[1:] if row]
    assert [tuple(map(repr, row)) for row in load_table(str(path)).rows] == [tuple(map(repr, row)) for row in plain]


def test_emit_writes_stdout_when_no_destination(capsys):
    table = ResultTable(columns=(("x", ""), ("status", "")), rows=((1.5, "ok"),))
    emit(table, "csv", None)
    assert "1.5,ok" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Entry point: exit codes and determinism


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_main_sweep_is_byte_identical_across_runs(tmp_path):
    specfile = _write(
        tmp_path / "b2.sweep",
        "quantity = ll-b2\naxis = gamma log 0.05 50 40\ntau = 0.9\n",
    )
    out1, out2 = (str(tmp_path / f"r{i}.csv") for i in (1, 2))
    assert main(["sweep", specfile, "--out", out1]) == EXIT_OK
    assert main(["sweep", specfile, "--out", out2]) == EXIT_OK
    assert Path(out2).read_bytes() == Path(out1).read_bytes()


def test_one_parser_serves_every_main_call(tmp_path):
    # the parser is built once per process; a parse in between, with a
    # repeatable flag, leaves nothing behind for the next run
    assert cli.build_parser() is cli.build_parser()
    specfile = _write(
        tmp_path / "nacs.sweep",
        "quantity = nacs-shift\naxis = eps log 0.1 10 5\nk = 4\nl = 1.5\nsigma = 1\nx = 0.1\n",
    )
    classify = ["virial", "classify", "--d", "1", "--sqrt-beta", "-1.2533", "--beta", "2.6"]
    out1, out2, c1, c2 = (str(tmp_path / name) for name in ("r1.csv", "r2.csv", "c1.csv", "c2.csv"))
    assert main(["sweep", specfile, "--out", out1]) == EXIT_OK
    assert main(classify + ["--extra", "0.3,2,0", "--extra", "0.1,3,0", "--out", c1]) == EXIT_OK
    assert main(["sweep", specfile, "--out", out2]) == EXIT_OK
    assert main(classify + ["--extra", "0.3,2,0", "--extra", "0.1,3,0", "--out", c2]) == EXIT_OK
    assert Path(out2).read_bytes() == Path(out1).read_bytes()
    assert Path(c2).read_bytes() == Path(c1).read_bytes()


def test_main_exit_codes(tmp_path):
    bad_quantity = _write(
        tmp_path / "bad.sweep", "quantity = nope\naxis = x linear 0 1 2\n"
    )
    failing = _write(
        tmp_path / "fail.sweep",
        "quantity = ll-b2\naxis = tau linear -1 1 3\ngamma = 1\nout = "
        + str(tmp_path / "fail.csv")
        + "\n",
    )
    good = _write(
        tmp_path / "ok.sweep",
        "quantity = ll-b2\naxis = gamma linear 1 2 2\ntau = 1\n",
    )
    assert main(["sweep", bad_quantity]) == EXIT_SPEC
    assert main(["sweep", str(tmp_path / "missing.sweep")]) == EXIT_SPEC
    assert main(["ll", "b2", "--gamma", "1"]) == EXIT_SPEC  # --tau missing
    # there is no worker-count option
    assert main(["sweep", good, "--jobs", "2"]) == EXIT_SPEC
    assert main(["sweep", failing]) == EXIT_SOLVER
    assert main(["sweep", good, "--out", str(tmp_path / "no/dir/x.csv")]) == EXIT_IO


@pytest.mark.parametrize("argv", [
    "anyon shift --alpha 0.3 --sigma -1 --eps 705 --x 0.1",
    "nacs shift --k 3 --l 0.5 --sigma -1 --eps 706 --x 0.1",
    "anyon semion --sigma -1 --eps 706 --x 0.1",
    "anyon b2 --alpha 0.3 --sigma -1 --eps 710",
])
def test_attractive_core_beyond_float_range_fails_its_row(argv, capsys):
    # a result beyond float range is a status row and exit 2, never an
    # "inf" value with status ok
    assert main(argv.split()) == EXIT_SOLVER
    row = capsys.readouterr().out.strip().splitlines()[-1]
    eps = float(argv.split("--eps ")[1].split()[0])
    assert row.endswith(f"ValueError: eps={eps!r}: the result exceeds float range (the bound-state weight is exp(eps))")
    assert "inf" not in row.split("ValueError")[0]


def test_main_failing_sweep_still_writes_all_rows(tmp_path):
    out = str(tmp_path / "fail.csv")
    specfile = _write(
        tmp_path / "fail.sweep",
        f"quantity = ll-b2\naxis = tau linear -1 1 3\ngamma = 1\nout = {out}\n",
    )
    assert main(["sweep", specfile]) == EXIT_SOLVER
    table = load_table(out)
    assert len(table.rows) == 3 and table.failures == 2


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_output_is_a_status_row(monkeypatch, capsys, value):
    # one backstop in run_sweep for every quantity: a float output that is
    # not finite fails its row, named by its column, and the command exits
    # 2; an inf input cell (gamma = inf) stays legitimate
    entry = dataclasses.replace(cli.REGISTRY["ll-b2"], evaluate=cli._pointwise(lambda gamma, tau, opts: value))
    monkeypatch.setitem(cli.REGISTRY, "ll-b2", entry)
    assert main(["ll", "b2", "--gamma", "inf", "--tau", "1"]) == EXIT_SOLVER
    row = capsys.readouterr().out.strip().splitlines()[-1]
    assert row == f"inf,1,,FloatingPointError: b2 is {value}"


# the points of the grid-against-point test: every reduced-statistics
# regime (boson, integer neighbour, semion, near-fermion, fermion, the
# next period) on both branches, eps through 0, the attractive overflow
# edge and the hard-core sentinel, and two eps that fail their checks
GRID_EPS = [0.0, 1e-3, 0.37, 60.0, 700.0, 710.0, math.inf, math.nan, -1.0]


def _point_outputs(quantity, points):
    """Each point's outputs from the library's one-point functions, or
    the exception they raise."""

    def one(p):
        if quantity == "anyon-b2":
            out = b2_softcore(p["alpha"], SoftCoreBC(int(p["sigma"]), p["eps"]))
            return (out.value,) + out.parts
        if quantity == "anyon-shift":
            return (e_rel_abelian(p["alpha"], SoftCoreBC(int(p["sigma"]), p["eps"]), p["x"]),)
        system = NACSSystem.isotropic(int(p["k"]), p["l"], p["eps"], int(p["sigma"]))
        if quantity == "nacs-b2":
            return (b2_nacs_isotropic(system),)
        return (e_rel_nacs(system, p["x"]),)

    return [_attempt(one, p) for p in points]


def _evaluate(quantity, points):
    """The quantity's evaluator on the points given as parameter mappings:
    each point the tuple of its parameters in the quantity's order."""
    entry = cli.REGISTRY[quantity]
    return entry.evaluate([tuple(p[name] for name in entry.required) for p in points], {}, {})


def _as_cells(outs):
    # bit patterns of the values (a one-output quantity's value is its
    # row), or the status text run_sweep writes
    return [
        f"{type(o).__name__}: {o}" if isinstance(o, Exception)
        else tuple(float(v).hex() for v in (o if isinstance(o, tuple) else (o,)))
        for o in outs
    ]


@pytest.mark.parametrize(
    "quantity, fixed",
    [
        ("anyon-b2", {}),
        ("anyon-shift", {"x": 0.1}),
        ("nacs-b2", {"k": 3, "l": 1.0}),
        ("nacs-b2", {"k": 4, "l": 1.5}),
        ("nacs-shift", {"k": 3, "l": 1.0, "x": 0.1}),
        ("nacs-shift", {"k": 4, "l": 1.5, "x": 0.1}),
    ],
)
def test_grid_evaluation_matches_point_evaluation(quantity, fixed):
    # the 2d quantities evaluate their grids in chunks; each row, value
    # bits and status text alike, is the one the point functions give, and
    # a failing point between two good ones leaves their rows alone
    alphas = [{"alpha": a} for a in (0.0, 0.03, 0.5, 0.999, 1.0, 2.001)] if quantity.startswith("anyon") else [{}]
    points = [{**fixed, **a, "sigma": s, "eps": e} for a in alphas for s in (1.0, -1.0) for e in GRID_EPS]
    grid = _evaluate(quantity, points)
    assert _as_cells(grid) == _as_cells(_point_outputs(quantity, points))
    good = [p for p, out in zip(points, grid) if not isinstance(out, Exception)]
    bad = [p for p, out in zip(points, grid) if isinstance(out, Exception)]
    assert good and bad
    for a, b in zip(good, good[1:]):
        pair = _evaluate(quantity, [a, bad[0], b])
        assert _as_cells(pair[::2]) == _as_cells(_evaluate(quantity, [a, b]))


def _checked_point(quantity, p):
    # the library's one-point functions on the point's values as given
    # (no int() of sigma), or the exception they raise
    try:
        if quantity.startswith("anyon"):
            bc = SoftCoreBC(p["sigma"], p["eps"])
            if quantity == "anyon-b2":
                out = b2_softcore(p["alpha"], bc)
                return (out.value,) + out.parts
            return (e_rel_abelian(p["alpha"], bc, p["x"]),)
        system = NACSSystem.isotropic(p["k"], p["l"], p["eps"], p["sigma"])
        return (b2_nacs_isotropic(system),) if quantity == "nacs-b2" else (e_rel_nacs(system, p["x"]),)
    except Exception as err:
        return err


@pytest.mark.parametrize("quantity", ["anyon-b2", "anyon-shift", "nacs-b2", "nacs-shift"])
def test_points_that_fail_their_checks_between_good_ones(quantity):
    # the grid checks its points on arrays and re-runs the scalar checks on
    # the ones that fail: each gets the scalar exception and text, and the
    # bits of the points around it do not move
    base = {"alpha": 0.3, "x": 0.1} if quantity.startswith("anyon") else {"k": 3.0, "l": 1.0, "x": 0.1}
    good = [{**base, "alpha": a, "sigma": s, "eps": e} for a in (0.3, 0.77) for s in (1.0, -1.0) for e in (0.37, 5.0)]
    if quantity.startswith("nacs"):
        good = [{key: v for key, v in p.items() if key != "alpha"} for p in good[:4]]
    bad = [{"sigma": s} for s in (0.0, 2.0, 1.0000001)] + [{"eps": e} for e in (math.nan, -1.0)]
    bad += [{"sigma": -1.0, "eps": math.inf}]
    if quantity.startswith("anyon"):
        bad += [{"alpha": a} for a in (math.nan, math.inf)]
    if quantity.endswith("shift"):
        bad += [{"x": x} for x in (math.nan, -0.1)]
    bad = [{**good[i % len(good)], **change} for i, change in enumerate(bad)]
    mixed = [p for pair in zip(good * 3, bad) for p in pair] + good[:1]
    grid = _evaluate(quantity, mixed)
    assert _as_cells(grid) == _as_cells([_checked_point(quantity, p) for p in mixed])
    assert all(isinstance(out, Exception) for out in grid[1::2])
    assert _as_cells(grid[::2]) == _as_cells(_evaluate(quantity, mixed[::2]))


def test_main_single_point_to_stdout(capsys):
    assert main(["ll", "b2", "--gamma", "0", "--tau", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma,tau,b2[lambda_T],status" in out
    assert "%.17g" % (-0.5 / math.sqrt(2.0)) in out


@pytest.mark.parametrize(
    "argv,error",
    [
        ("anyon b2 --alpha 0.5 --sigma -1 --eps 800", "ValueError"),
        # no ladder reaches a change of 1e-300 at finite T (at T = 0 the
        # energy stops changing at all, so those ladders succeed)
        ("ll shift --gamma 1 --tau 0.5 --tol 1e-300", "ConvergenceError"),
        ("ll tba --gamma 1 --tau 0.5 --tol 1e-300", "ConvergenceError"),
        ("ll b2 --gamma 1 --tau -1", "ValueError"),
        # l is fixed for a sweep but is no integer kind: a value that is
        # not a half-integer fails its row, not the spec
        ("nacs b2 --k 3 --l 0.3 --eps 1 --sigma 1", "ValueError"),
    ],
)
def test_main_single_point_failure_is_a_status_row(tmp_path, argv, error):
    out = str(tmp_path / "point.csv")
    assert main(argv.split() + ["--out", out]) == EXIT_SOLVER
    table = load_table(out)
    assert len(table.rows) == 1 and table.failures == 1
    assert table.rows[0][-1].startswith(error + ": ")


@pytest.mark.parametrize(
    "quantity,lines,argv",
    [
        (
            "anyon-b2",
            "axis = alpha linear 0.2 0.8 2\nsigma = 2\neps = 1\n",
            "anyon b2 --alpha 0.5 --sigma 2 --eps 1",
        ),
        (
            "nacs-b2",
            "axis = eps log 0.1 10 2\nk = 2.5\nl = 0.5\nsigma = 1\n",
            "nacs b2 --k 2.5 --l 0.5 --eps 1 --sigma 1",
        ),
        ("classify", "axis = beta linear 1 3 2\nd = 1.5\n", "virial classify --d 1.5"),
    ],
    ids=["sigma", "k", "d"],
)
def test_main_parameter_kind_errors_are_spec_errors(tmp_path, quantity, lines, argv):
    # a sigma that is not +-1, or a non-integer k or d, is a malformed
    # spec whether it comes from a specfile or from flags: no table
    out = tmp_path / "table.csv"
    specfile = _write(tmp_path / "kind.sweep", f"quantity = {quantity}\n{lines}out = {out}\n")
    assert main(["sweep", specfile]) == EXIT_SPEC
    assert main(argv.split() + ["--out", str(out)]) == EXIT_SPEC
    assert not out.exists()


# one value per parameter name, enough to run every quantity's single point
POINT_VALUES = {
    "gamma": "1",
    "tau": "2",
    "alpha": "0.5",
    "sigma": "-1",
    "eps": "1",
    "x": "0.1",
    "k": "3",
    "l": "0.5",
    "rho": "0.1",
    "T": "2",
    "model": "power-law",
    "d": "2",
    "amps": "0.5,-0.2",
    "c": "1",
    "sqrt_beta": "-0.5",
    "beta_log_beta": "0.25",
    "beta": "2",
    "extra": "0.1,2,0",
}


@pytest.mark.parametrize("quantity", sorted(cli.REGISTRY))
def test_main_runs_every_quantity_from_its_parameters(quantity, capsys):
    q = cli.REGISTRY[quantity]
    argv = (q.command or quantity.replace("-", " ", 1)).split() + ["--format", "json"]
    for name in (*q.required, *q.defaults, *q.model_keys):
        argv += ["--" + name.replace("_", "-"), POINT_VALUES[name]]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["quantity"] == quantity
    lead = [*q.required, *q.defaults]
    names = [c["name"] for c in payload["columns"]]
    assert names == lead + [n for n, _ in q.outputs] + ["status"]
    (row,) = payload["rows"]
    assert row[: len(lead)] == [float(POINT_VALUES[n]) for n in lead]
    assert row[-1] == "ok"


def test_integer_parameters_are_never_axes():
    # run_sweep checks sigma, k and d once, on their fixed values
    assert not any(set(cli._KINDS) & set(q.axis_ok) for q in cli.REGISTRY.values())


def test_main_semion_matches_library(tmp_path):
    out = str(tmp_path / "semion.json")
    rc = main(
        ["anyon", "semion", "--sigma", "1", "--eps", "2.5", "--x", "0.2",
         "--out", out, "--format", "json"]
    )
    assert rc == EXIT_OK
    value = load_table(out).rows[0][3]
    assert value == e_rel_semion(SoftCoreBC(+1, 2.5), 0.2)


def test_main_anyon_b2_parts_sum_to_value(tmp_path):
    out = str(tmp_path / "b2.json")
    rc = main(
        ["anyon", "b2", "--alpha", "0.7", "--sigma", "-1", "--eps", "0.9",
         "--out", out, "--format", "json"]
    )
    assert rc == EXIT_OK
    row = load_table(out).rows[0]
    value, parts = row[3], row[4:7]
    ref = b2_softcore(0.7, SoftCoreBC(-1, 0.9))
    assert value == ref.value and tuple(parts) == ref.parts
    assert value == pytest.approx(sum(parts), rel=1e-14)


def test_main_nacs_channels_table(capsys):
    assert main(["nacs", "channels", "--k", "3", "--l", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "j,omega,delta,gamma,nu,kind,status"
    assert len(lines) == 3  # two isospin channels for l = 1/2
    assert lines[1].split(",")[5] == "fermionic"
    assert lines[2].split(",")[5] == "bosonic"


def test_nacs_channels_builds_no_system(monkeypatch, capsys):
    # the channel table comes from k and 2l alone, not a (2l+1)**2 matrix
    def refuse(*args):
        raise RuntimeError("no NACSSystem")

    monkeypatch.setattr(NACSSystem, "__post_init__", refuse)
    assert main(["nacs", "channels", "--k", "3", "--l", "1000"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(lines) == 2002
    assert main(["nacs", "channels", "--k", "3", "--l", "0.25"]) == EXIT_SPEC
    assert "l must be a non-negative half-integer, got 0.25" in capsys.readouterr().err


def test_main_virial_thermo_ideal_gas(capsys):
    rc = main(
        ["virial", "thermo", "--model", "power-law", "--d", "3", "--alpha", "2",
         "--amps", "0", "--rho", "0.3", "--T", "5"]
    )
    assert rc == EXIT_OK
    data = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    row = dict(zip(data[0].split(","), data[1].split(",")))
    assert float(row["pressure[k_B T]"]) == 1.0
    assert float(row["energy[k_B T]"]) == 1.5
    assert float(row["entropy[k_B]"]) == 0.0


def test_main_check_scaling_flags_violations(capsys):
    rc = main(
        ["virial", "check-scaling", "--model", "power-law", "--d", "2",
         "--alpha", "2", "--amps", "0.5,-0.2", "--temps", "1,10,100"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(",pass,") == 2 and ",fail," not in out

    rc = main(["virial", "check-scaling", "--model", "delta-gas", "--c", "1",
               "--temps", "10,100"])
    assert rc == EXIT_OK  # a failed check is a result, not an error
    assert ",fail," in capsys.readouterr().out


@pytest.mark.parametrize(
    "model, order",
    [
        (["--model", "delta-gas", "--c", "1"], "B_2(T) * T**0.5"),
        (["--model", "power-law", "--d", "2", "--alpha", "2", "--amps", "0.5"], "B_2(T) * T**1"),
    ],
)
def test_main_check_scaling_names_a_non_finite_product(model, order, capsys):
    # B_2 overflows at T = 1e-320: lambda_T = 2 sqrt(pi/T) for the delta
    # gas, 0.5/T for the power law; one error line, no table
    assert main(["virial", "check-scaling", *model, "--temps", "1e-320,1"]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lowdgas: error: {order} is not finite at T=1e-320\n"


def test_main_delta_gas_thermo_at_low_temperature(capsys):
    rc = main(["virial", "thermo", "--model", "delta-gas", "--c", "1", "--rho", "0.1",
               "--T", "5e-5"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith(",ok")


def test_main_classify_reports_limit(capsys):
    rc = main(
        ["virial", "classify", "--d", "1", "--sqrt-beta", "-1.2533",
         "--beta", "2.6", "--extra", "0.3,2,0"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert ",bounded," in out
    assert ",1.3," in out

    rc = main(["virial", "classify", "--d", "2", "--beta-log-beta", "0.4"])
    assert rc == EXIT_OK
    assert ",bounded," in capsys.readouterr().out


def test_main_gnuplot_script(tmp_path):
    out = str(tmp_path / "curve.csv")
    specfile = _write(
        tmp_path / "c.sweep",
        f"quantity = ll-b2\naxis = gamma linear 1 4 4\ntau = 1\nout = {out}\n",
    )
    assert main(["sweep", specfile, "--gnuplot"]) == EXIT_OK
    script = Path(out + ".gp").read_text(encoding="utf-8")
    assert '"curve.csv" using 1:2' in script


@pytest.mark.parametrize("argv", [["--config", "lowdgas.cfg"], ["--nodes", "128"]], ids=["config", "nodes"])
def test_main_run_options_come_from_flags_alone(tmp_path, capsys, argv):
    # a defaults file and the first rung of the ladder are no run options:
    # either is a usage error, and no table is written
    out = tmp_path / "point.csv"
    assert main(["ll", "shift", "--gamma", "1", "--tau", "1", "--out", str(out), *argv]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"lowdgas: error: unrecognized arguments: {' '.join(argv)}" in captured.err


@pytest.mark.parametrize("value", ["-1", "0", "nan"], ids=lambda value: f"flag-{value}")
def test_main_a_tolerance_that_is_not_positive_is_a_spec_error(capsys, value):
    # checked once for the run, before any point: exit 1 and no table,
    # not a status row per point after a climb to the ladder's ceiling
    assert main(["ll", "shift", "--gamma", "1", "--tau", "1", "--tol", value]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lowdgas: error: tol must be > 0, got {float(value)}\n"


_THERMO = "quantity = virial-thermo\naxis = rho linear 0.1 0.2 2\nT = 2\n"
_POWER_LAW = "virial thermo --d 2 --alpha 2 --rho 0.1 --T 2"


@pytest.mark.parametrize(
    "command, message",
    [
        ("quantity = classify\naxis = beta linear 1 3 2\nd = 1\nextra = 5\n",
         "--extra wants COEFF,POWER,LOGPOWER, got '5.0'"),
        (_THERMO + "model = delta-gas\nc = abc\n", "parameter c must be numeric, got 'abc'"),
        (_THERMO + "d = 2\nalpha = x\namps = 0.5\n", "parameter alpha must be numeric, got 'x'"),
        (_POWER_LAW, "power-law model needs amps"),
        ("virial thermo --model delta-gas --rho 0.1 --T 2", "delta-gas model needs c"),
        (_THERMO + "model = ideal\n", "unknown model 'ideal' (power-law or delta-gas)"),
        (_POWER_LAW + " --amps 0.5,x", "bad amps list '0.5,x'"),
        (_POWER_LAW + " --amps ,", "amps must list at least one coefficient"),
        ("virial classify --d 1 --extra 1,2", "--extra wants COEFF,POWER,LOGPOWER, got '1,2'"),
        ("virial classify --d 1 --extra 1,2,x", "bad --extra term '1,2,x'"),
        ("virial check-scaling --model delta-gas --c 1 --temps 10,x", "bad temperature list '10,x'"),
        *(
            (f"virial check-scaling --model delta-gas --c 1 --temps 10,100,1000 --rtol {rtol}",
             f"rtol must be finite and >= 0, got {float(rtol)}")
            for rtol in ("nan", "inf", "-1")
        ),
        ("quantity = ll-b2\naxis = gamma linear 1 2 2\ntau = abc\n", "parameter tau must be numeric, got 'abc'"),
        ("quantity = ll-b2\naxis = gamma linear 1 2 x\ntau = 1\n", "bad.sweep:2: invalid literal for int()"),
    ],
    ids=[
        "specfile-extra", "specfile-c", "specfile-alpha", "missing-key", "missing-c",
        "unknown-model", "bad-amps", "empty-amps", "short-extra", "bad-extra", "bad-temps",
        "nan-rtol", "inf-rtol", "negative-rtol",
        "non-numeric", "bad-axis",
    ],
)
def test_main_a_bad_parameter_is_a_spec_error(tmp_path, capsys, command, message):
    # exit 1 with one error line that names what is wrong, and no table
    out = tmp_path / "table.csv"
    if command.startswith("quantity"):
        argv = ["sweep", _write(tmp_path / "bad.sweep", f"{command}out = {out}\n")]
    else:
        argv = [*command.split(), "--out", str(out)]
    assert main(argv) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("lowdgas: error: ") and message in captured.err


def test_main_sweep_format_precedence(tmp_path):
    # flag > specfile format line > csv
    text = "quantity = ll-b2\naxis = gamma linear 1 2 2\ntau = 1\n"
    cases = [
        ("", [], "csv"),
        ("format = json\n", [], "json"),
        ("format = json\n", ["--format", "csv"], "csv"),
        ("", ["--format", "json"], "json"),
    ]
    for i, (line, flags, fmt) in enumerate(cases):
        out = str(tmp_path / f"table{i}")
        specfile = _write(tmp_path / f"s{i}.sweep", text + line + f"out = {out}\n")
        assert main(["sweep", specfile, *flags]) == EXIT_OK
        head = Path(out).read_text(encoding="utf-8")[:1]
        assert head == ("{" if fmt == "json" else "#")
        assert load_table(out).metadata["config"]["format"] == fmt


def test_main_embeds_reproducible_timestamp(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert main(["ll", "b2", "--gamma", "1", "--tau", "1", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["timestamp"] == "2023-11-14T22:13:20+00:00"


def test_main_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("lowdgas ")
