"""CLI outputs compared byte for byte with the files under ``tests/golden/``.

Each case runs ``python -m lowdgas.cli`` in a fresh process and an empty
directory, with BLAS pinned to one thread and ``SOURCE_DATE_EPOCH``
unset, so the bytes depend only on the code.  Single points print to
stdout; sweeps read a specfile written next to them.  A case that writes
files (``--out``) is compared file by file and must print nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# golden file name -> command line; the README single-point examples first
POINTS = {
    "ll-shift.csv": "ll shift --gamma 1 --tau 0.5",
    "ll-ground.csv": "ll ground --gamma 100",
    "anyon-b2.csv": "anyon b2 --alpha 0.5 --sigma -1 --eps 1.0",
    "anyon-semion.csv": "anyon semion --sigma 1 --eps 1 --x 0.25",
    "nacs-channels.csv": "nacs channels --k 3 --l 0.5",
    "virial-thermo.csv": "virial thermo --model power-law --d 2 --alpha 2 --amps 0.5,-0.2 --rho 0.1 --T 2",
    "virial-classify.csv": "virial classify --d 1 --sqrt-beta -1.2533 --beta 2.6",
    "virial-check-scaling.csv": "virial check-scaling --model delta-gas --c 1 --temps 10,100,1000",
    "ll-tba.csv": "ll tba --gamma 1 --tau 2",
    "nacs-b2.csv": "nacs b2 --k 3 --l 0.5 --eps 1 --sigma 1",
    "nacs-shift.csv": "nacs shift --k 3 --l 1 --eps 0.5 --sigma -1 --x 0.1",
    "ll-b2.json": "ll b2 --gamma 1 --tau 1 --format json",
    "virial-classify-extra.csv": "virial classify --d 1 --sqrt-beta -0.5 --beta 2 --extra 0.3,2,0 --extra 0.1,3,1",
    "ll-tba-tonks.csv": "ll tba --gamma inf --tau 1",
}

# golden file name -> sweep specfile (and extra flags)
SWEEPS = {
    "sweep-ll-ground.csv": ("quantity = ll-ground\naxis = gamma log 1 100 3\n", ""),
    "sweep-ll-tba.csv": ("quantity = ll-tba\naxis = tau log 2 8 2\ngamma = 1\n", ""),
    "sweep-ll-shift.csv": ("quantity = ll-shift\naxis = gamma log 1 10 2\ntau = 0\n", ""),
    "sweep-ll-b2.csv": ("quantity = ll-b2\naxis = tau linear -1 1 3\ngamma = 1\n", ""),
    "sweep-anyon-b2.csv": (
        "quantity = anyon-b2\naxis = alpha linear 0 1 5\nsigma = -1\neps = 1\nout = sweep-anyon-b2.csv\n",
        "--gnuplot",
    ),
    "sweep-anyon-shift.csv": (
        "quantity = anyon-shift\naxis = x linear 0.05 0.2 4\nalpha = 0.5\nsigma = 1\neps = 1\n",
        "",
    ),
    "sweep-anyon-semion.csv": ("quantity = anyon-semion\naxis = eps log 0.1 10 3\nsigma = 1\nx = 0.25\n", ""),
    "sweep-nacs-b2.csv": ("quantity = nacs-b2\naxis = eps log 0.1 10 3\nk = 3\nl = 0.5\nsigma = 1\n", ""),
    "sweep-nacs-shift.csv": (
        "quantity = nacs-shift\naxis = x linear 0.1 0.3 3\nk = 3\nl = 1\neps = 0.5\nsigma = -1\n",
        "",
    ),
    "sweep-virial-thermo.csv": (
        "quantity = virial-thermo\naxis = rho linear 0.1 0.3 3\nT = 2\n"
        "model = power-law\nd = 2\nalpha = 2\namps = 0.5,-0.2\n",
        "",
    ),
    "sweep-classify.csv": (
        "quantity = classify\naxis = beta linear 1 3 3\nd = 1\nsqrt_beta = -0.5\nextra = 0.1,2,0\n",
        "",
    ),
    "sweep-ll-b2-2d.csv": ("quantity = ll-b2\naxis = gamma log 0.1 10 3\naxis = tau linear 0.5 2 2\n", ""),
    "sweep-ll-tba-bose.csv": ("quantity = ll-tba\naxis = tau log 0.01 1000 3\ngamma = 0\n", ""),
}

EXPECTED_EXIT = {"sweep-ll-b2.csv": 2}  # tau = -1 is outside the domain


def run_case(name: str, workdir: Path) -> tuple[int, bytes, dict[str, bytes]]:
    """Run one case in ``workdir``; returns (exit code, stdout, written files)."""
    if name in POINTS:
        argv = POINTS[name].split()
    else:
        spec, flags = SWEEPS[name]
        (workdir / "case.sweep").write_text(spec, encoding="utf-8")
        argv = ["sweep", "case.sweep"] + flags.split()
    env = {k: v for k, v in os.environ.items() if k != "SOURCE_DATE_EPOCH"}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lowdgas.cli", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        check=False,
    )
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.name != "case.sweep"}
    return proc.returncode, proc.stdout, files


def first_difference(fname: str, got: bytes, want: bytes) -> str:
    """Name the first line where ``got`` departs from the golden ``want``."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i in range(max(len(got_lines), len(want_lines))):
        old = want_lines[i] if i < len(want_lines) else b"<end of file>"
        new = got_lines[i] if i < len(got_lines) else b"<end of file>"
        if old != new:
            return f"{fname} line {i + 1} differs:\n  golden: {old!r}\n  now:    {new!r}"
    return f"{fname} differs"


@pytest.mark.parametrize("name", [*POINTS, *SWEEPS])
def test_cli_output_matches_golden(name, tmp_path):
    code, stdout, files = run_case(name, tmp_path)
    assert code == EXPECTED_EXIT.get(name, 0)
    if files:
        assert stdout == b""
    else:
        files = {name: stdout}
    for fname, blob in files.items():
        golden = (GOLDEN / fname).read_bytes()
        if blob != golden:
            pytest.fail(first_difference(fname, blob, golden), pytrace=False)


if __name__ == "__main__":
    # python tests/test_golden.py NAME...: rewrite the named golden files
    # from the current code through run_case (BLAS pinned as above) and
    # name the first changed line of each; pytest never runs this
    import tempfile

    for name in sys.argv[1:]:
        if name not in POINTS and name not in SWEEPS:
            sys.exit(f"unknown golden case {name!r}")
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, files = run_case(name, Path(tmp))
        if code != EXPECTED_EXIT.get(name, 0):
            sys.exit(f"{name}: exit code {code}, golden files left as they are")
        for fname, blob in (files or {name: stdout}).items():
            path = GOLDEN / fname
            old = path.read_bytes()
            path.write_bytes(blob)
            print(first_difference(fname, blob, old) if blob != old else f"{fname} unchanged")
