"""lowdgas benchmark: time the public sweep entry point on three workloads.

Usage, from the repository root::

    python3 bench/run.py --workload ll-finite-T --seed 20141 --seconds 20 --trace 0

Set-up is timed in fresh interpreters (import ``lowdgas``, write the
seeded specs), ``SETUP_SAMPLES`` times plus once for the measuring
process, and reported as the median.  One fresh worker process then
runs whole rounds of the workload for ``--seconds`` and reports the
median round wall time and its peak resident memory; its outputs are
checked against independent computations.  With ``--trace 1`` the
worker adds one traced round and the per-layer metrics are printed
instead of the end-to-end ones.  BLAS is pinned to one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = HERE / "_runs"

SETUP_SAMPLES = 8
TIME_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit; must match BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def _start(cmd: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the
    process and the seconds from launch to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready (said {line!r})")
        if time.perf_counter() > deadline:
            raise BenchError("time limit reached during set-up")
    except BaseException:
        _stop(proc)
        raise
    return proc, ready


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the set-up samples and the measuring worker; returns the
    worker's report plus the set-up samples."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    env = dict(os.environ, **BLAS_ENV)
    workdir = RUNS / f"{workload}-seed{seed}-{os.getpid()}"
    base = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    try:
        setup = []
        for _ in range(SETUP_SAMPLES):
            proc, ready = _start(base + ["--seconds", "0", "--setup-only"], env, deadline)
            setup.append(ready)
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
            if proc.returncode != 0:
                raise BenchError(f"set-up worker exited {proc.returncode}")
        trace_file = RUNS / f"trace-{workload}-seed{seed}.json"
        cmd = base + ["--seconds", str(seconds), "--trace", str(trace), "--trace-file", str(trace_file)]
        proc, ready = _start(cmd, env, deadline)
        setup.append(ready)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            _stop(proc)
            raise BenchError(f"worker exceeded {TIME_LIMIT_S:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
        report["setup"] = setup
        report["trace_file"] = str(trace_file.relative_to(ROOT)) if trace else None
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(report: dict, trace: int) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer ones when traced."""
    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(report["setup"]),
            "wall_s": statistics.median(report["walls"]),
            "peak_rss_mib": report["peak_rss_mib"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="input seed")
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lowdgas" / "__init__.py").is_file():
        print(f"bench: no lowdgas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1

    line = result_line(report, args.trace)
    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds {len(report['walls'])}  wall per round [s] " + " ".join(f"{w:.3f}" for w in report["walls"]))
    print("setup samples [s] " + " ".join(f"{s:.3f}" for s in report["setup"]))
    print(f"operations attempted {line['attempted']}  failed {line['failed']}")
    for msg in report["problems"][:20]:
        print(f"CHECK FAILED: {msg}")
    print(f"checks {'passed' if line['correct'] else 'FAILED (%d)' % len(report['problems'])}")
    if report["trace_file"]:
        print(f"trace written to {report['trace_file']}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
