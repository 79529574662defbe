"""Tests of the benchmark's own code: seeded specs, output checks,
span tracing and the result line.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lowdgas import cli, lieb_liniger, numerics  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_specs_are_seeded_and_parse(name):
    a = workloads.generate(name, 7)
    assert a == workloads.generate(name, 7)
    assert a != workloads.generate(name, 8)
    total = 0
    for plan, nominal in zip(a, workloads.WORKLOADS[name]):
        spec = cli.parse_specfile(plan.render("x.csv"))
        assert spec.quantity == nominal.quantity
        total += math.prod(axis.count for axis in spec.axes)
        for axis, base in zip(spec.axes, nominal.axes):
            grid, grid0 = axis.values(), base.shifted(0.0)
            step = (
                math.log(grid0.stop / grid0.start) / (base.count - 1)
                if base.spacing == "log"
                else (grid0.stop - grid0.start) / (base.count - 1)
            )
            moved = math.log(grid[0] / base.start) if base.spacing == "log" else grid[0] - base.start
            assert 0.0 <= moved <= workloads.JITTER * step * (1 + 1e-9)
    assert total + workloads.has_peak_search(name) == workloads.ops_per_round(name)


def test_seed_shift_keeps_anchor_points_near_nominal():
    # the 3231-node points of ll-finite-T stay within 2.5% of gamma = 0.025 and 1
    for seed in range(50):
        low, high = workloads.generate("ll-finite-T", seed)
        assert 0.025 <= cli.Axis("gamma", low.axes[0].start, low.axes[0].stop, 8, "log").values()[0] <= 0.025 * 1.025
        assert 1.0 <= cli.Axis("gamma", high.axes[0].start, high.axes[0].stop, 9, "log").values()[4] <= 1.025


# ---------------------------------------------------------------------------
# checks reject perturbed values


def _shift_rows(values, gammas):
    return [{"gamma": g, "e_res": e, "status": "ok"} for g, e in zip(gammas, values)]


def test_finite_T_check():
    gammas = [0.1, 1.0, 10.0, 100.0]
    rows = {"t": _shift_rows([0.1, 0.3, 0.2, 0.05], gammas)}
    h = 1e-4
    # f = gamma^2 has (gamma/2) f' = gamma^2, exact under central differences
    virial = [("t", 3.0, 9.0, h, (3.0 * (1 - h)) ** 2, (3.0 * (1 + h)) ** 2)]
    assert checks.check_ll_finite_T(rows, virial) == []
    assert checks.check_ll_finite_T({"t": _shift_rows([0.1, 0.3, 0.2, -0.05], gammas)}, virial)
    assert checks.check_ll_finite_T({"t": _shift_rows([0.1, 0.3, 0.2, 0.25], gammas)}, virial)
    assert checks.check_ll_finite_T({"t": _shift_rows([0.4, 0.3, 0.2, 0.1], gammas)}, virial)
    assert checks.check_ll_finite_T(rows, [("t", 3.0, 9.0 * (1 + 1e-5), h, virial[0][4], virial[0][5])])


def _zero_T_rows():
    gammas = [1e-3, 1e-2, 1.0, 10.0, 1e3, 1e4]
    values = [checks.weak_series(1e-3), checks.weak_series(1e-2), 0.2447, 0.3535]
    values += [checks.strong_series(1e3), checks.strong_series(1e4)]
    return gammas, values


def test_zero_T_check():
    gammas, values = _zero_T_rows()
    peak = (4.66, 0.414)
    assert checks.check_ll_zero_T({"t": _shift_rows(values, gammas)}, peak) == []
    for i in (0, 1, 4, 5):
        bent = list(values)
        bent[i] *= 1 + 1e-3
        assert checks.check_ll_zero_T({"t": _shift_rows(bent, gammas)}, peak), i
    assert checks.check_ll_zero_T({"t": _shift_rows(values, gammas)}, (4.95, 0.414))
    assert checks.check_ll_zero_T({"t": _shift_rows(values, gammas)}, (4.66, 0.35))


def _anyon_tables():
    b2 = []
    for alpha, eps in ((0.3, 0.5), (0.7, 20.0)):
        for sigma in (1, -1):
            hc = -0.25 + alpha - 0.5 * alpha * alpha
            bound = -2.0 * math.exp(eps) if sigma == -1 else 0.0
            sc = checks.scattering_part(alpha, sigma, eps)
            b2.append((sigma, {"alpha": alpha, "eps": eps, "b2": hc + bound + sc, "hard_core_part": hc,
                               "bound_state_part": bound, "scattering_part": sc, "status": "ok"}))
    tables = {
        "b2_rep": [r for s, r in b2 if s == 1],
        "b2_att": [r for s, r in b2 if s == -1],
        "semion_rep": [{"eps": 2.0, "e_rel": checks.semion_shift(1, 2.0, 0.1), "status": "ok"}],
        "semion_att": [{"eps": 2.0, "e_rel": checks.semion_shift(-1, 2.0, 0.1), "status": "ok"}],
        "thermo_x": [{"rho": 0.1, "T": 2.0, "pressure": 1.1, "helmholtz": 1.05, "gibbs": 2.15,
                      "entropy": 0.2, "energy": 1.25, "enthalpy": 2.35, "status": "ok"}],
    }
    fixed = {
        "b2_rep": {"sigma": 1},
        "b2_att": {"sigma": -1},
        "semion_rep": {"alpha": 0.5, "sigma": 1, "x": 0.1},
        "semion_att": {"alpha": 0.5, "sigma": -1, "x": 0.1},
        "thermo_x": {"model": "power-law"},
    }
    return tables, fixed


@pytest.mark.parametrize(
    "key,index,column,factor",
    [
        ("b2_rep", 0, "scattering_part", 1 + 1e-7),
        ("b2_att", 0, "hard_core_part", 1 + 1e-9),
        ("b2_att", 1, "bound_state_part", 1 + 1e-9),
        ("b2_rep", 1, "b2", 1 + 1e-9),
        ("semion_rep", 0, "e_rel", 1 + 1e-7),
        ("semion_att", 0, "e_rel", -1.0),
        ("thermo_x", 0, "gibbs", 1 + 1e-9),
        ("thermo_x", 0, "enthalpy", 1 + 1e-9),
        ("thermo_x", 0, "entropy", 1 + 1e-9),
    ],
)
def test_anyon_virial_check_rejects_perturbation(key, index, column, factor):
    tables, fixed = _anyon_tables()
    assert checks.check_anyon_virial(tables, fixed) == []
    tables[key][index][column] *= factor
    assert checks.check_anyon_virial(tables, fixed)


def test_rows_of_round_trips_a_table(tmp_path):
    spec = tmp_path / "s.sweep"
    out = tmp_path / "s.csv"
    spec.write_text(f"quantity = anyon-b2\naxis = eps log 0.1 10 3\nalpha = 0.3\nsigma = 1\nout = {out}\n")
    assert cli.main(["sweep", str(spec)]) == 0
    rows = checks.rows_of(cli.load_table(str(out)))
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert checks.check_anyon_virial({"b2_rep": rows}, {"b2_rep": {"alpha": 0.3, "sigma": 1}}) == []


# ---------------------------------------------------------------------------
# spans


def test_tracer_wraps_every_importer_and_restores():
    orig = numerics.gauss_legendre
    assert lieb_liniger.gauss_legendre is orig
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert numerics.gauss_legendre is lieb_liniger.gauss_legendre is not orig
        lieb_liniger.solve_ground_state(10.0)
    finally:
        tracer.uninstall()
    assert numerics.gauss_legendre is orig and lieb_liniger.gauss_legendre is orig
    m = spans.layer_metrics(tracer.spans, 0.0)
    assert m["lieb_liniger.solve_ground_state.calls"] == 1
    assert m["lieb_liniger.solve_ground_state.rungs"] == m["numerics.gauss_legendre.calls"] >= 2
    assert m["linalg.solve.calls"] > 0 and m["numerics.find_root.evals"] > 0
    assert m["linalg.solve.gflop_computed"] > 0.0
    parents = {s.parent for s in tracer.spans if s.name == "numerics.gauss_legendre"}
    assert parents == {0}


def test_layer_metrics_from_a_span_tree():
    S = spans.Span
    tree = [
        S(0, None, "cli.sweep", 0.0, 10.0, counts={"points": 2}),
        S(1, 0, "lieb_liniger.e_res_finite_T", 1.0, 9.0),
        S(2, 1, "lieb_liniger.solve_tba", 1.0, 9.0),
        S(3, 2, "numerics.gauss_legendre", 1.0, 2.0, counts={"n": 201}),
        S(4, 2, "numerics.gauss_legendre", 5.0, 6.0, counts={"n": 403}),
        S(5, 2, "numerics.solve_fixed_point", 6.0, 7.0, error="ConvergenceError", counts={"sweeps": 400}),
        S(6, 2, "numerics.find_root", 7.0, 8.0, error="BracketError", counts={"evals": 2}),
        S(7, None, "cli.render", 10.0, 10.5),
    ]
    m = spans.layer_metrics(tree, 0.25)
    assert set(m) == set(spans.PER_LAYER)
    assert m["cli.sweep.s"] == 10.0 and m["cli.self.s"] == 2.0 and m["cli.render.s"] == 0.5
    assert m["cli.points"] == 2
    assert m["lieb_liniger.solve_tba.rungs"] == 2 and m["lieb_liniger.solve_tba.max_nodes"] == 403
    assert m["lieb_liniger.solve_tba.last_rung_share"] == pytest.approx(4.0 / 8.0)
    assert m["numerics.solve_fixed_point.stalls"] == 1 and m["numerics.solve_fixed_point.sweeps"] == 400
    assert m["numerics.find_root.bracket_misses"] == 1
    assert m["trace.overhead_s"] == 0.25


# ---------------------------------------------------------------------------
# BENCHMARK.json and the result line


def test_result_line_prints_every_configured_metric():
    report = {"setup": [0.3, 0.2, 0.4], "walls": [2.0, 1.0, 3.0], "peak_rss_mib": 40.0, "problems": [],
              "attempted": 9, "failed": 0, "layers": {k: 1.0 for k in spans.PER_LAYER}}
    line = run.result_line(report, 0)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert line["metrics"]["wall_s"]["value"] == 2.0 and line["metrics"]["setup_s"]["value"] == 0.3
    traced = run.result_line(report, 1)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {m["name"]: m["better"] for m in CONFIG["per_layer"]} == {k: b for k, (_, b) in spans.PER_LAYER.items()}
    assert {w["name"] for w in CONFIG["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_all_metrics(trace):
    cmd = CONFIG["command"] + ["--workload", "zero-T-anyon", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == workloads.ops_per_round("zero-T-anyon") * (1 + trace)
    names = [m["name"] for m in CONFIG["per_layer" if trace else "end_to_end"]]
    assert sorted(line["metrics"]) == sorted(names)
    for name in names:
        assert f"{name} = " in proc.stdout


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    cmd = CONFIG["command"] + ["--workload", "zero-T-anyon", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
