"""Output checks for the benchmark workloads.

Every check works on tables parsed back from the program's output
files and compares them against computations made here, independently
of ``lowdgas`` (asymptotic series, closed forms evaluated with
``mpmath``, exact identities), or against properties the curves must
have.  Each function returns a list of failure messages; an empty list
means the outputs passed.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import mpmath

Rows = Sequence[Mapping[str, object]]

# gamma ranges of the asymptotic-series checks (the nominal grid points
# 1e-3, 1e-2 and 1e3, 1e4 stay inside them under any seed shift)
WEAK_MAX = 0.02
STRONG_MIN = 500.0
# next-order coefficients bound: measured -0.0020 gamma^(5/2) and +54.9 gamma^-3
WEAK_NEXT = 0.01
STRONG_NEXT = 200.0
PEAK_RANGE = (4.5, 4.9)
# virial identity by central differences (holds to ~1e-8 at h = 1e-4)
VIRIAL_RTOL = 1e-6
# quadrature and closed-form agreement
SCATTER_RTOL = 1e-9
SEMION_RTOL = 1e-9
IDENTITY_RTOL = 1e-12
SAMPLE_STRIDE = 50


def rows_of(table) -> list[dict]:
    """``ResultTable`` rows as dicts keyed by column name."""
    names = [n for n, _ in table.columns]
    return [dict(zip(names, row)) for row in table.rows]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def _unimodal(values: Sequence[float]) -> str | None:
    """None if ``values`` rise strictly to one interior maximum and then
    fall strictly; else what is wrong."""
    top = max(range(len(values)), key=values.__getitem__)
    if top == 0 or top == len(values) - 1:
        return f"maximum at the grid edge (index {top} of {len(values)})"
    for i in range(1, len(values)):
        rising = values[i] > values[i - 1]
        if rising != (i <= top):
            return f"not unimodal at index {i}"
    return None


def _ok_rows(rows: Rows) -> list:
    return [r for r in rows if r["status"] == "ok"]


# ---------------------------------------------------------------------------
# ll-finite-T


def check_ll_finite_T(tables: Mapping[str, Rows], virial: Iterable[tuple]) -> list[str]:
    """``e_res > 0``; one interior maximum in gamma per tau; the virial
    identity ``e_res = (gamma/2) d(mu - P)/d(gamma)`` on the points of
    ``virial``, given as ``(key, gamma, e_res, h, f_minus, f_plus)`` with
    ``f = mu - P`` from ``ll-tba`` at ``gamma (1 -+ h)``."""
    bad = []
    for key, rows in tables.items():
        rows = _ok_rows(rows)
        for r in rows:
            if not r["e_res"] > 0.0:
                bad.append(f"{key}: e_res={r['e_res']} <= 0 at gamma={r['gamma']}")
        why = _unimodal([r["e_res"] for r in rows])
        if why:
            bad.append(f"{key}: {why}")
    for key, gamma, e_res, h, f_minus, f_plus in virial:
        slope = (f_plus - f_minus) / (2.0 * h * gamma)
        expect = 0.5 * gamma * slope
        if not _close(e_res, expect, VIRIAL_RTOL):
            bad.append(f"{key}: virial identity off at gamma={gamma}: e_res={e_res}, (gamma/2) df/dgamma={expect}")
    return bad


# ---------------------------------------------------------------------------
# ll-zero-T


def weak_series(g: float) -> float:
    return g / 2.0 - g**1.5 / math.pi + (1.0 / 6.0 - 1.0 / math.pi**2) * g * g


def strong_series(g: float) -> float:
    return (math.pi**2 / 3.0) * (2.0 / g - 12.0 / (g * g))


def check_ll_zero_T(tables: Mapping[str, Rows], peak: tuple[float, float]) -> list[str]:
    """Positive, unimodal; weak- and strong-coupling series within their
    next-order terms; the peak search lands in :data:`PEAK_RANGE` and
    is not below any grid value."""
    bad = []
    for key, rows in tables.items():
        rows = _ok_rows(rows)
        for r in rows:
            g, e = r["gamma"], r["e_res"]
            if not e > 0.0:
                bad.append(f"{key}: e_res={e} <= 0 at gamma={g}")
            if g <= WEAK_MAX and abs(e - weak_series(g)) > WEAK_NEXT * g**2.5:
                bad.append(f"{key}: weak-coupling series off at gamma={g}: {e} vs {weak_series(g)}")
            if g >= STRONG_MIN and abs(e - strong_series(g)) > STRONG_NEXT / g**3:
                bad.append(f"{key}: strong-coupling series off at gamma={g}: {e} vs {strong_series(g)}")
        why = _unimodal([r["e_res"] for r in rows])
        if why:
            bad.append(f"{key}: {why}")
        if rows and peak[1] < max(r["e_res"] for r in rows):
            bad.append(f"{key}: shift maximum {peak[1]} below a grid value")
    if not PEAK_RANGE[0] <= peak[0] <= PEAK_RANGE[1]:
        bad.append(f"shift maximum at gamma={peak[0]}, outside {PEAK_RANGE}")
    return bad


# ---------------------------------------------------------------------------
# anyon-virial


def _delta(alpha: float) -> float:
    return alpha - 2.0 * round(alpha / 2.0)


def scattering_part(alpha: float, sigma: int, eps: float) -> float:
    """``-2 (sigma/pi) sin(pi a) a I`` with the scattering integral
    ``I = int_0^inf exp(-eps t) t^(a-1) / (1 + 2 sigma cos(pi a) t^a + t^(2a)) dt``,
    ``a = |delta|``, by ``mpmath`` quadrature in ``u = t^a``, which
    removes the endpoint singularity:
    ``I = (1/a) int_0^inf exp(-eps u^(1/a)) / (1 + 2 sigma cos(pi a) u + u^2) du``."""
    with mpmath.workdps(30):
        a = mpmath.mpf(abs(_delta(alpha)))
        eps = mpmath.mpf(eps)
        sc = sigma * mpmath.cos(mpmath.pi * a)

        def f(u):
            return mpmath.exp(-eps * u ** (1 / a)) / (1 + 2 * sc * u + u * u)

        # the exponential shoulder near u_star and the peak at u = 1
        u_star = (45 / eps) ** a
        width = min(mpmath.sqrt(2 * (1 + sc)), mpmath.mpf(0.5))
        cuts = sorted({mpmath.mpf(0), u_star / 2, u_star, 2 * u_star, 1 - width, mpmath.mpf(1), 1 + width})
        integral = mpmath.quad(f, cuts + [mpmath.inf]) / a
        return float(-2 * sigma / mpmath.pi * mpmath.sin(mpmath.pi * a) * a * integral)


def semion_shift(sigma: int, eps: float, x: float) -> float:
    """Closed-form ``e_rel`` at ``|delta| = 1/2``, evaluated with ``mpmath``."""
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        erfcx = mpmath.exp(e) * mpmath.erfc(mpmath.sqrt(e))
        scatter = mpmath.sqrt(e / mpmath.pi) - e * erfcx
        if sigma == +1:
            return float(x * scatter)
        return float(x * (-scatter - 2 * e * mpmath.exp(e)))


def _param(row: Mapping, fixed: Mapping, name: str) -> float:
    """A point's parameter: its axis column, else the spec's fixed value."""
    return float(row[name]) if name in row else float(fixed[name])


def check_anyon_virial(tables: Mapping[str, Rows], fixed: Mapping[str, Mapping]) -> list[str]:
    """Parts of ``B_2`` (hard core, bound state, their sum, sampled
    scattering integrals against ``mpmath``), the semion closed form
    where ``alpha = 1/2``, the sign law of ``e_rel``, and the
    thermodynamic identities of ``virial-thermo``.  Which checks apply
    follows from a table's columns; ``fixed`` holds each table's fixed
    parameters."""
    bad = []
    for key, rows in tables.items():
        rows = _ok_rows(rows)
        pars = fixed[key]
        for i, r in enumerate(rows):
            if "hard_core_part" in r:
                bad += _b2_problems(key, r, pars, sample=i % SAMPLE_STRIDE == 0)
            if "e_rel" in r:
                bad += _shift_problems(key, r, pars)
            if "gibbs" in r:
                bad += _thermo_problems(key, r)
            for name, value in r.items():
                if isinstance(value, float) and not math.isfinite(value):
                    bad.append(f"{key}: {name}={value} is not finite")
    return bad


def _b2_problems(key: str, r: Mapping, pars: Mapping, sample: bool) -> list[str]:
    sigma = int(pars["sigma"])
    alpha, eps = _param(r, pars, "alpha"), _param(r, pars, "eps")
    d = abs(_delta(alpha))
    hc = -0.25 + d - 0.5 * d * d
    bound = -2.0 * math.exp(eps) if sigma == -1 else 0.0
    where = f"{key} alpha={alpha} eps={eps}"
    bad = []
    if not _close(r["hard_core_part"], hc, 1e-14, 1e-15):
        bad.append(f"{where}: hard-core part {r['hard_core_part']} != {hc}")
    if not _close(r["bound_state_part"], bound, 1e-14):
        bad.append(f"{where}: bound-state part {r['bound_state_part']} != {bound}")
    total = r["hard_core_part"] + r["bound_state_part"] + r["scattering_part"]
    if not _close(r["b2"], total, 1e-15, 1e-15):
        bad.append(f"{where}: parts sum to {total}, b2={r['b2']}")
    if sample:
        ref = scattering_part(alpha, sigma, eps)
        if not _close(r["scattering_part"], ref, SCATTER_RTOL, 1e-300):
            bad.append(f"{where}: scattering part {r['scattering_part']} vs mpmath {ref}")
    return bad


def _shift_problems(key: str, r: Mapping, pars: Mapping) -> list[str]:
    sigma = int(pars["sigma"])
    eps, e_rel = _param(r, pars, "eps"), r["e_rel"]
    bad = []
    if e_rel == 0.0 or math.copysign(1.0, e_rel) != sigma:
        bad.append(f"{key} eps={eps}: e_rel={e_rel} has not the sign of sigma={sigma}")
    if "alpha" in pars and abs(_delta(float(pars["alpha"]))) == 0.5:
        ref = semion_shift(sigma, eps, _param(r, pars, "x"))
        if not _close(e_rel, ref, SEMION_RTOL):
            bad.append(f"{key} eps={eps}: e_rel={e_rel} vs semion closed form {ref}")
    return bad


def _thermo_problems(key: str, r: Mapping) -> list[str]:
    where = f"{key} rho={r['rho']} T={r['T']}"
    bad = []
    for lhs, rhs, label in (
        (r["gibbs"], r["helmholtz"] + r["pressure"], "gibbs = helmholtz + pressure"),
        (r["enthalpy"], r["energy"] + r["pressure"], "enthalpy = energy + pressure"),
        (r["entropy"], r["energy"] - r["helmholtz"], "entropy = energy - helmholtz"),
    ):
        if not _close(lhs, rhs, IDENTITY_RTOL, IDENTITY_RTOL):
            bad.append(f"{where}: {label} fails ({lhs} vs {rhs})")
    return bad
