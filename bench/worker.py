"""One workload in one fresh interpreter.

Started by ``run.py``.  It imports ``lowdgas``, writes the workload's
seeded sweep specs and prints ``ready`` (the parent times the interval
from process start to that line as set-up).  Unless ``--setup-only`` is
given it then runs whole rounds of the workload through
``lowdgas.cli.main(["sweep", spec])`` until ``--seconds`` have passed,
records its peak resident memory, optionally runs one more round under
the span tracer, checks the outputs (untimed), and prints one JSON line
with everything the parent reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lowdgas import cli, lieb_liniger, numerics  # noqa: E402

import workloads  # noqa: E402

# checks (mpmath) and spans are imported after set-up: neither is part
# of what a user of the CLI pays for

PEAK_BRACKET = (1.0, 10.0)
PEAK_TOL = 1e-6
# ll-finite-T rows (by grid index) that get the virial-identity check:
# cheap points on both sides of each maximum, relative step H
VIRIAL_ROWS = {"shift_tau0.5": (4, 6), "shift_tau1e3": (5, 7)}
VIRIAL_H = 1e-4


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> int | str:
    """Thread count reported by the loaded OpenBLAS, else the setting."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def write_specs(plans, workdir: Path) -> dict[str, tuple[Path, Path]]:
    paths = {}
    for plan in plans:
        spec, out = workdir / f"{plan.key}.sweep", workdir / f"{plan.key}.csv"
        spec.write_text(plan.render(str(out)), encoding="utf-8")
        paths[plan.key] = (spec, out)
    return paths


def run_round(workload: str, paths) -> tuple[float, dict, tuple | None, int]:
    """One timed pass over the workload: every sweep through the CLI,
    each table parsed back, then the zero-T shift-maximum search where
    the workload has one.  Returns (seconds, tables, peak, failed
    operations)."""
    tables, peak, failed = {}, None, 0
    t0 = time.perf_counter()
    for key, (spec, out) in paths.items():
        code = cli.main(["sweep", str(spec)])
        if code not in (cli.EXIT_OK, cli.EXIT_SOLVER):
            raise RuntimeError(f"lowdgas sweep {spec.name} exited {code}")
        tables[key] = cli.load_table(str(out))
        failed += tables[key].failures
    if workloads.has_peak_search(workload):
        try:
            peak = numerics.golden_section_max(lieb_liniger.e_res_zero_T, *PEAK_BRACKET, tol=PEAK_TOL)
        except (ArithmeticError, ValueError, RuntimeError) as err:
            print(f"peak search failed: {err!r}", file=sys.stderr)
            failed += 1
    return time.perf_counter() - t0, tables, peak, failed


def virial_points(plans, tables, workdir: Path) -> list[tuple]:
    """``(key, gamma, e_res, h, f_minus, f_plus)`` with ``f = mu - P``
    from an ``ll-tba`` sweep at ``gamma (1 -+ h)``, for :data:`VIRIAL_ROWS`."""
    import checks

    points = []
    taus = {p.key: dict(p.fixed)["tau"] for p in plans if p.key in VIRIAL_ROWS}
    for key, indices in VIRIAL_ROWS.items():
        rows = checks.rows_of(tables[key])
        for i in indices:
            row = rows[i]
            g = row["gamma"]
            spec = workdir / f"virial_{key}_{i}.sweep"
            out = workdir / f"virial_{key}_{i}.csv"
            spec.write_text(
                "quantity = ll-tba\n"
                f"axis = gamma linear {g * (1 - VIRIAL_H)!r} {g * (1 + VIRIAL_H)!r} 2\n"
                f"tau = {taus[key]!r}\n"
                f"out = {out}\n",
                encoding="utf-8",
            )
            if cli.main(["sweep", str(spec)]) != cli.EXIT_OK:
                raise RuntimeError(f"ll-tba sweep for the virial check failed at gamma={g}")
            lo, hi = checks.rows_of(cli.load_table(str(out)))
            points.append((key, g, row["e_res"], VIRIAL_H, lo["mu"] - lo["pressure"], hi["mu"] - hi["pressure"]))
    return points


def check_outputs(plans, tables, peak, workdir: Path) -> list[str]:
    """Every check that applies to the workload's specs."""
    import checks

    by_family: dict[str, dict] = {}
    for plan in plans:
        by_family.setdefault(plan.family, {})[plan.key] = checks.rows_of(tables[plan.key])
    problems = []
    if "ll-finite-T" in by_family:
        problems += checks.check_ll_finite_T(by_family["ll-finite-T"], virial_points(plans, tables, workdir))
    if "ll-zero-T" in by_family:
        if peak is None:
            problems.append("shift-maximum search gave no result")
        else:
            problems += checks.check_ll_zero_T(by_family["ll-zero-T"], peak)
    if "anyon-virial" in by_family:
        fixed = {p.key: dict(p.fixed) for p in plans}
        problems += checks.check_anyon_virial(by_family["anyon-virial"], fixed)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    plans = workloads.generate(args.workload, args.seed)
    args.workdir.mkdir(parents=True, exist_ok=True)
    paths = write_specs(plans, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # whole rounds; another one only if it should end within --seconds
    walls, attempted, failed, first = [], 0, 0, None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
        wall, tables, peak, bad_ops = run_round(args.workload, paths)
        walls.append(wall)
        attempted += workloads.ops_per_round(args.workload)
        failed += bad_ops
        if first is None:
            first = tables
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, tables, peak, bad_ops = run_round(args.workload, paths)
        finally:
            tracer.uninstall()
        attempted += workloads.ops_per_round(args.workload)
        failed += bad_ops
        layers = spans.layer_metrics(tracer.spans, traced - statistics.median(walls))

    problems = check_outputs(plans, tables, peak, args.workdir)
    for key, table in tables.items():
        if table.rows != first[key].rows:
            problems.append(f"{key}: rows differ between rounds of the same inputs")

    env = environment()
    if args.trace and args.trace_file is not None:
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": args.workload,
            "seed": args.seed,
            "environment": env,
            "untraced_wall_s": walls,
            "metrics": layers,
            "spans": [s.as_list() for s in tracer.spans],
        }
        args.trace_file.write_text(json.dumps(payload), encoding="utf-8")

    print(
        json.dumps(
            {
                "walls": walls,
                "attempted": attempted,
                "failed": failed,
                "peak_rss_mib": peak_rss_mib,
                "problems": problems,
                "environment": env,
                "layers": layers,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
