"""Repulsive 1d Bose gas with contact interactions, in scaled units.

Conventions
-----------
Everything is reduced with the density: wave-vectors ``K = k / rho``,
coupling ``gamma = c / rho``, temperature ``tau = T / T_D`` with
``k_B T_D = hbar^2 rho^2 / 2m``, energies per particle in units of
``k_B T_D`` and pressure in units of ``rho k_B T_D``.  With these
choices the entire thermodynamics depends on ``(gamma, tau)`` alone.

Two solvers live here:

* the zero-temperature ground state, a linear integral equation for the
  quasi-momentum density ``g(t)`` on ``[-1, 1]`` with a Newton solve
  fixing the cutoff ratio ``ell`` (and giving ``d(energy)/d(gamma)``);
* the finite-temperature coupled equations for the pseudo-energy
  ``E(K)``, chemical potential ``mu`` and level density ``f(K)``.

Both are dense Nystrom discretizations of one Lorentzian kernel, of
width ``ell`` at T = 0 and ``gamma`` at finite T, on 16-node
Gauss-Legendre panels mirrored about 0, solved on the ``K > 0`` half
with the folded operator (column ``j`` plus its mirror ``-K_j``).
``_panel_operator`` integrates the kernel exactly against each panel's
interpolant where it is sharp on the panel's scale (product integration
with Legendre-Cauchy moments, Helsing & Ojala, J. Comput. Phys. 227,
2899, 2008), so the error does not depend on the width, from a near
delta spike (``ell = 5e-5`` at ``gamma = 1e-8``) to a flat, weak kernel
(``gamma ~ 1e4``).  The T = 0 panels are graded at the support edge
``t = 1``, where ``g`` is singular a distance ``ell`` off the real axis;
the finite-T ones at the Fermi points, whose distance is ``pi tau/|E'|``.

Derived observables: pressure, energy, the energy-pressure shift
``e_res = energy - pressure/2`` at zero and finite temperature, its
high-temperature closed form, and the second virial coefficient.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    ConvergenceError,
    _erfcx_deficit,
    _legendre_rule,
    composite_rule,
    erfcx,
)

__all__ = [
    "LLParams",
    "GroundState",
    "TBASolution",
    "solve_ground_state",
    "e_res_zero_T",
    "solve_tba",
    "observables",
    "e_res_finite_T",
    "b2_ll",
    "e_res_high_T",
]

_SQRT2 = math.sqrt(2.0)
# grid edge: keep exp(-(Kmax^2 - max(mu, K_F^2))/tau) below 1e-12
_TAIL_LOG = math.log(1e12)
# node-count ceilings of the doubling ladders
_GROUND_MAX_NODES = 1024
_TBA_MAX_NODES = 6500  # interacting and ideal branches alike


# ---------------------------------------------------------------------------
# parameter and result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LLParams:
    """Dimensionless coupling ``gamma = c/rho`` and temperature ``tau = T/T_D``."""

    gamma: float
    tau: float

    def __post_init__(self):
        g, t = float(self.gamma), float(self.tau)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "tau", t)
        if math.isnan(g) or g < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not math.isfinite(t) or t < 0.0:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")


@dataclass(frozen=True)
class GroundState:
    """T = 0 solution: cutoff ratio ``ell = c/K_cut``, quasi-momentum
    density ``g`` on the scaled support ``[-1, 1]`` at the ``nodes`` of the
    rung's rule (16-node Gauss-Legendre panels graded at ``+-1``, mirrored
    about 0, with their ``weights``), the dimensionless ground-state
    energy ``energy`` (``E/N = rho^2 * energy`` in units of ``hbar^2/2m``,
    so ``energy`` runs from ``~gamma`` to ``pi^2/3``), and its
    implicit-differentiation ``slope = d(energy)/d(gamma)``."""

    gamma: float
    ell: float
    nodes: np.ndarray
    weights: np.ndarray
    g_nodes: np.ndarray
    energy: float
    slope: float


@dataclass(frozen=True)
class TBASolution:
    """Finite-temperature solution on a symmetric grid: Gauss-Legendre
    panels between the ``edges`` on ``[-kmax, kmax]``, all of equal node
    count.

    ``eps`` is the pseudo-energy ``E(K)`` in units of ``k_B T_D``,
    ``density`` the level density ``f(K)`` normalized to ``integral(f) = 1``,
    ``mu`` the scaled chemical potential.
    """

    gamma: float
    tau: float
    grid: np.ndarray
    weights: np.ndarray
    eps: np.ndarray
    density: np.ndarray
    mu: float
    kmax: float
    edges: np.ndarray

    def pseudo_energy_at(self, k: float) -> float:
        """Evaluate ``E(k)`` off-grid: for ``|k| < kmax`` the Legendre
        series of ``eps`` on the panel holding ``k`` (the interpolant the
        product-integrated kernel integrates), beyond it one sweep of the
        defining equation (the far tail, where ``E -> k^2 - mu``)."""
        k = float(k)
        if self.gamma == 0.0:
            x = (k * k - self.mu) / self.tau
            return self.tau * _log_expm1(np.asarray([x]))[0]
        if math.isinf(self.gamma):
            return k * k - self.mu
        if abs(k) < self.kmax:
            edges = self.edges
            p = min(max(int(np.searchsorted(edges, k, side="right")) - 1, 0), edges.size - 2)
            mid, half = 0.5 * (edges[p + 1] + edges[p]), 0.5 * (edges[p + 1] - edges[p])
            coef = _legendre_projection() @ self.eps[p * _PANEL_NODES:(p + 1) * _PANEL_NODES]
            return float(np.polynomial.legendre.legval((k - mid) / half, coef))
        ker = (self.gamma / math.pi) / ((k - self.grid) ** 2 + self.gamma**2)
        conv = float(np.dot(self.weights * ker, _softplus_e(self.eps, self.tau)))
        return k * k - self.mu - conv


# ---------------------------------------------------------------------------
# small stable helpers
# ---------------------------------------------------------------------------

def _softplus_e(eps: np.ndarray, tau: float) -> np.ndarray:
    """``tau * log(1 + exp(-eps/tau))`` without overflow."""
    return tau * np.logaddexp(0.0, -eps / tau)


def _fermi(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(x))`` without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x > 0.0, e, 1.0) / (1.0 + e)


def _log_expm1(x: np.ndarray) -> np.ndarray:
    """``log(exp(x) - 1)`` for ``x > 0`` without overflow."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x > 30.0
    out[big] = x[big] + np.log1p(-np.exp(-x[big]))
    out[~big] = np.log(np.expm1(x[~big]))
    return out


def _mirror(values: np.ndarray) -> np.ndarray:
    """An even function's half-rule values on the whole mirrored rule."""
    return np.concatenate((values[::-1], values))


def _mirrored_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nodes and weights of the composite rule with ``_PANEL_NODES``
    Gauss-Legendre nodes on each panel of the half-line ``edges`` (from 0)
    and on their mirror images, and of its ``x > 0`` half, where every even
    function lives: the half nodes and their column weights ``cw``
    (integration weights ``2 cw``).  Only the half rule is checked (by
    ``composite_rule``); its mirror image is one by construction."""
    half = composite_rule(edges, _PANEL_NODES)
    return np.concatenate((-half.nodes[::-1], half.nodes)), _mirror(half.weights), half.nodes, half.weights


_BLOCK = 1 << 14  # entries per row block of the row-blocked kernel passes


def _folded_blocks(half: np.ndarray, gamma: float):
    """Row blocks of the folded Lorentzian ``ker(q) = (gamma/pi) / (q^2 +
    gamma^2)`` on the half nodes ``x > 0`` of a mirrored rule: per block of
    about ``_BLOCK`` entries, the row slice ``rs``, ``ker(x_i - x_j)`` with
    its diagonal zeroed and the mirror term ``ker(x_i + x_j)``, in two
    buffers that the next block reuses and the caller may overwrite."""
    amp, g2 = gamma / math.pi, gamma * gamma
    rows = max(1, _BLOCK // half.size)
    buf = np.empty((2, min(rows, half.size), half.size))
    for i0 in range(0, half.size, rows):
        rs = slice(i0, i0 + rows)
        k = buf[:, :half[rs].size]
        minus, plus = k
        np.subtract(half[rs, None], half, out=minus)
        np.add(half[rs, None], half, out=plus)
        k *= k
        k += g2
        np.divide(amp, k, out=k)
        np.einsum("ii->i", minus[:, rs])[:] = 0.0
        yield rs, minus, plus


# Gauss-Legendre nodes per panel of a rung, and the default first rung of
# both ladders: two uniform panels per half-line
_PANEL_NODES = 16
_PANEL_N0 = 4 * _PANEL_NODES
# Bernstein-ellipse radius from which a panel's plain Gauss rule integrates
# the Lorentzian times a smooth density to rounding (error ~ rho^-32)
_FAR_RHO = 1.2 * math.sqrt(10.0)
_UPSAMPLE = 96  # Gauss-Legendre nodes of the rule for the moments at rho >= 1.24


@functools.lru_cache(maxsize=1)
def _legendre_projection() -> np.ndarray:
    """``A[k, j] = (k + 1/2) w_j P_k(t_j)`` on the ``_PANEL_NODES``-point
    reference rule: the Legendre coefficients of its Lagrange basis,
    ``ell_j = sum_k A[k, j] P_k`` (the rule is exact on ``ell_j P_k``)."""
    t, w = _legendre_rule(_PANEL_NODES)
    k = np.arange(_PANEL_NODES)
    return (np.polynomial.legendre.legvander(t, _PANEL_NODES - 1) * w[:, None] * (k + 0.5)).T


def _bernstein_rho(zeta: np.ndarray) -> np.ndarray:
    """Radius ``|zeta + sqrt(zeta - 1) sqrt(zeta + 1)|`` of the Bernstein
    ellipse of ``[-1, 1]`` through ``zeta``."""
    return np.abs(zeta + np.sqrt(zeta - 1.0) * np.sqrt(zeta + 1.0))


@functools.lru_cache(maxsize=1)
def _upsampled_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The ``_UPSAMPLE``-point rule's nodes ``t_q`` and ``w_q P_k(t_q)``, ``k < _PANEL_NODES``."""
    t, w = _legendre_rule(_UPSAMPLE)
    return t, np.polynomial.legendre.legvander(t, _PANEL_NODES - 1) * w[:, None]


def _cauchy_moments(zeta: np.ndarray) -> np.ndarray:
    """``I_k(zeta) = integral_-1^1 P_k(t) / (t - zeta) dt`` for ``k <
    _PANEL_NODES``, ``Im zeta > 0`` and Bernstein radius ``rho <
    _FAR_RHO``, one row per ``zeta``.  ``I_k = -2 Q_k(zeta)`` falls like
    ``rho^-k``, so ``(k+1) I_{k+1} = (2k+1) zeta I_k - k I_{k-1}`` runs
    forward, from ``I_0 = log((1 - zeta)/(-1 - zeta))`` and ``I_1 = 2 +
    zeta I_0``, only where ``rho^32 < 1e3`` (bounded growth of rounding).
    Elsewhere ``I_k = sum_q w_q P_k(t_q) / (t_q - zeta)`` on the
    ``_UPSAMPLE``-point rule is within ``~rho^-(2 * 96 - 15) < 1e-16`` of
    ``I_0``, in row blocks of ``_BLOCK`` and in reals (a complex matrix
    product raised the peak memory of a zero-T sweep by ~0.5 MiB)."""
    p = _PANEL_NODES
    out = np.empty((zeta.size, p), dtype=complex)
    fwd = _bernstein_rho(zeta) ** (2 * p) < 1e3
    back = np.flatnonzero(~fwd)
    if back.size < zeta.size:
        z = zeta[fwd]
        blk = np.empty((p, z.size), dtype=complex)  # row k holds I_k
        np.log((1.0 - z) / (-1.0 - z), out=blk[0])
        np.add(2.0, z * blk[0], out=blk[1])
        for k in range(1, p - 1):
            nxt = np.multiply((2 * k + 1) * z, blk[k], out=blk[k + 1])
            nxt -= k * blk[k - 1]
            nxt /= k + 1
        out[fwd] = blk.T
        if back.size == 0:
            return out
    parts = out.view(float)  # Re I_k in column 2k, Im I_k in column 2k + 1
    t, table = _upsampled_legendre()
    rows = _BLOCK // _UPSAMPLE
    for i in range(0, back.size, rows):  # 1/(t - zeta) = (d + i Im zeta) r, in place
        sel = back[i:i + rows]
        z = zeta[sel, None]
        d = t - z.real
        r = d * d
        np.reciprocal(np.add(r, z.imag * z.imag, out=r), out=r)
        parts[sel, 0::2] = np.multiply(d, r, out=d) @ table
        parts[sel, 1::2] = z.imag * (r @ table)
    return out


def _near_pairs(half: np.ndarray, edges: np.ndarray, gamma: float):
    """The pairs of a target (``x_i`` for the direct term, ``-x_i`` for the
    mirror) and a panel of the half-line ``edges`` inside the Bernstein
    ellipse ``rho < _FAR_RHO`` at width ``gamma``: ``(rows, panels, on,
    zeta, moments)``, with one mask ``on`` per term over the pairs and the
    moments of each near (pair, term), the direct term first.  ``None``
    where ``gamma/h`` is at least the ellipse's semi-minor axis on every
    panel: no pair is near and the moment pass is skipped."""
    c = 0.5 * (edges[1:] + edges[:-1])
    h = 0.5 * (edges[1:] - edges[:-1])
    beta = gamma / h
    if beta.min() >= 0.5 * (_FAR_RHO - 1.0 / _FAR_RHO):
        return None
    # Re zeta of every (term, target, panel), the direct term's targets
    # first; the ellipse lies in |Re zeta| < (rho + 1/rho)/2, its semi-major
    # axis, so rho is taken only there (the margin is far above rounding)
    re = (np.concatenate((half, -half))[:, None] - c) / h
    cand = np.nonzero(np.abs(re) < 0.5 * (_FAR_RHO + 1.0 / _FAR_RHO) + 1e-6)
    zeta = re[cand] + 1j * beta[cand[1]]
    inside = _bernstein_rho(zeta) < _FAR_RHO
    near = np.zeros((2, half.size, c.size), dtype=bool)
    near.reshape(-1, c.size)[cand[0][inside], cand[1][inside]] = True
    rows, panels = np.nonzero(near[0] | near[1])
    on = near[:, rows, panels]
    zeta = zeta[inside]
    return rows, panels, on, zeta, _cauchy_moments(zeta)  # a pair near in both terms has both


def _operator_blocks(half: np.ndarray, cw: np.ndarray, gamma: float, near, far, diag, weight, out=None):
    """Row blocks ``(rs, block)`` of a folded operator on the half nodes
    ``x > 0``, in the buffers of ``_folded_blocks`` or, given ``out``, in
    its rows ``rs``: ``cw_j far(ker)`` for a far pair (``far`` may map in
    place), ``diag`` on a far diagonal, and per term of a pair of ``near``
    (``_near_pairs``) the product weight ``sum_k weight(zeta, moments)[k]
    A[k, j] / pi`` (``A`` from ``_legendre_projection``) where it is near,
    the far entry where not."""
    if near is not None:
        rows, panels, on, zeta, moments = near
        cols = panels[:, None] * _PANEL_NODES + np.arange(_PANEL_NODES)
        # both terms of every pair as far entries, then the near ones replaced
        t = half[rows]
        d = np.stack((t, -t))[:, :, None] - half[cols]
        d *= d
        d += gamma * gamma
        terms = np.divide(gamma / math.pi, d, out=d)
        terms = np.multiply(cw[cols], far(terms), out=terms)
        terms[on] = weight(zeta[:, None], moments) @ (_legendre_projection() / math.pi)
        vals = terms[0] + terms[1]
    for rs, minus, plus in _folded_blocks(half, gamma):
        blk = np.add(far(minus), far(plus), out=minus if out is None else out[rs])
        blk *= cw
        np.einsum("ii->i", blk[:, rs])[:] += diag[rs]
        if near is not None:
            sel = slice(*np.searchsorted(rows, (rs.start, rs.stop)))
            blk[rows[sel, None] - rs.start, cols[sel]] = vals[sel]
        yield rs, blk


def _panel_operator(half: np.ndarray, cw: np.ndarray, gamma: float, near) -> np.ndarray:
    """Folded Lorentzian convolution on the half nodes ``x > 0`` of a
    mirrored rule of ``_PANEL_NODES``-node panels, with ``near`` their
    ``_near_pairs`` at width ``gamma``: ``C @ v`` integrates ``ker(x_i -
    K) v(K)`` over ``[-kmax, kmax]`` for an even ``v`` on the half nodes,
    exactly when ``v`` is a polynomial of degree below ``_PANEL_NODES`` on
    each panel, whether or not the panels resolve the kernel.

    Column ``j`` sums the direct term (target ``x_i``) and the mirror term
    (target ``-x_i``) of panel node ``j``.  For a target ``t`` and a panel
    ``[c - h, c + h]`` with ``zeta = (t - c)/h + i gamma/h``, the weight
    ``integral ker(t - q) ell_j(q) dq = sum_k (Im I_k(zeta)/pi) A[k, j]``
    is used inside the Bernstein ellipse ``rho < _FAR_RHO``; beyond it the
    plain ``cw_j ker(t - x_j)`` (``cw_i / (pi gamma)`` on the diagonal)
    integrates a density analytic in that ellipse to rounding (``~rho^-32``;
    one entry can be off by ``~rho^-17``)."""
    out = np.empty((half.size, half.size))
    for _ in _operator_blocks(half, cw, gamma, near, lambda k: k, cw / (math.pi * gamma),
                              lambda zeta, moments: moments.imag, out):
        pass
    return out


def _width_product(half: np.ndarray, cw: np.ndarray, gamma: float, near, v: np.ndarray) -> np.ndarray:
    """``(dC/dgamma) @ v`` for ``C = _panel_operator(half, cw, gamma,
    near)``, row block by row block, never stored.  A near weight's
    derivative is ``sum_k (Re I_k'(zeta) / (pi h)) A[k, j]``, with
    ``(zeta^2 - 1) I_k' = k (zeta I_k - I_{k-1})``, ``I_0' = 2/(zeta^2 -
    1)`` and ``1/h = Im(zeta)/gamma``; a far ``ker`` maps in place (one
    scratch per row block) to ``ker/gamma - 2 pi ker^2``, and a far
    diagonal entry is ``-cw_i / (pi gamma^2)``."""
    def weight(zeta, moments):
        dm = np.arange(_PANEL_NODES) * (zeta * moments - np.roll(moments, 1, axis=1))
        dm[:, 0] = 2.0
        return (dm / (zeta * zeta - 1.0)).real * (zeta.imag / gamma)

    def far(k):
        return np.multiply(k, 1.0 / gamma - 2.0 * math.pi * k, out=k)

    diag = -cw / (math.pi * gamma * gamma)
    return np.concatenate([b @ v for _, b in _operator_blocks(half, cw, gamma, near, far, diag, weight)])


# ---------------------------------------------------------------------------
# the node ladder
# ---------------------------------------------------------------------------

def _climb(ladder, n0: int, ceiling: int, tol: float, what: str, where: str):
    """Return the first rung whose energy (``what`` at ``where`` in the
    messages) is stable to ``tol`` (relative) against the rung below.
    ``ladder(panels)`` yields ``(solution, energy, size)``, first ``(None,
    nan, size)`` with the node count of its first rung (``max(1, n0 //
    32)`` uniform panels per half-line, ``32`` nodes each, plus grading),
    then each solved rung with that of its next, asked for only while it
    fits under ``ceiling``.  So an ``n0`` above the ceiling, or whose first
    rung is above it or has no room for its ungraded double, raises
    :class:`ConvergenceError` before any rung runs, and so does a second
    rung that grading pushes past the ceiling, after the first.  At the
    ceiling it raises with the last rung as ``best`` and the last energy
    change as ``residual``.  A ``tol`` that is not positive (or is NaN)
    raises ``ValueError`` first: no ladder could meet it."""
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if n0 > ceiling:
        raise ConvergenceError(f"n0={n0} is above the ladder's {ceiling}-node ceiling")
    panels = max(1, n0 // (2 * _PANEL_NODES))
    rungs, prev = ladder(panels), None
    change, size = math.nan, max(next(rungs)[2], 4 * _PANEL_NODES * panels)
    while size <= ceiling:
        best, energy, size = next(rungs)
        if prev is not None:
            change = abs(energy - prev)
            if change <= tol * max(abs(energy), 1e-12):
                return best
        prev = energy
    if math.isnan(change):
        raise ConvergenceError(
            f"n0={n0} leaves no second rung to compare: the next rung, {size} nodes, "
            f"is above the ladder's {ceiling}-node ceiling"
        )
    raise ConvergenceError(
        f"{what} not stable to {tol} by {ceiling} nodes ({where})", best=best, residual=change
    )


# ---------------------------------------------------------------------------
# zero temperature
# ---------------------------------------------------------------------------

_MAX_ELL_NEWTON = 30


def _ground_at(gamma: float, edges: np.ndarray, ell: float, stop: float) -> GroundState:
    """Newton on ``m(ell) = ell - gamma * integral(g)`` on the mirrored
    panels of the half-line ``edges`` from the guess ``ell``, on the ``y >
    0`` half with ``C = _panel_operator`` at width ``ell``.  Each step
    solves ``A = I - C`` for ``g`` and ``A^T`` against ``[w, w y^2]`` for
    ``z``, so ``z.(dC/dell g)`` (``_width_product``) gives ``I'`` and
    ``M'``, the ``ell``-derivatives of ``I = integral g`` and ``M =
    integral y^2 g`` (``C`` is unsymmetric).  The last step is below ``stop * ell``, or below ``1e-10
    ell`` and no smaller than the one before (the rounding floor of an
    ill-conditioned ``A``, ``~1e-12 ell`` at ``gamma = 1e-8``).  It is
    applied to ``ell`` and ``M`` to first order (exact to ``~stop^2``); the
    slope, taken before it, is within ``~stop``.  With ``m' = 1 - gamma
    I'``, the slope ``(gamma/ell)^2 (M' - 3 (gamma/ell) M I') / m'`` is
    ``d((gamma/ell)^3 M)/d(gamma)`` at ``ell = gamma I``, free of the
    chain rule's cancellation of two ``O(1/gamma)`` terms."""
    nodes, weights, y, cw = _mirrored_rule(edges)
    w = 2.0 * cw
    adjoint = np.column_stack((w, w * y * y))
    last = math.inf
    for _ in range(_MAX_ELL_NEWTON + 1):
        near = _near_pairs(y, edges, ell)
        a = _panel_operator(y, cw, ell, near)
        a *= -1.0
        np.einsum("ii->i", a)[:] += 1.0
        g = np.linalg.solve(a, np.full(y.size, 1.0 / (2.0 * math.pi)))
        z = np.linalg.solve(a.T, adjoint)
        a = None  # free it before the derivative pass and the next step's build
        dint, dmoment = (_width_product(y, cw, ell, near, g) @ z).tolist()
        mprime = 1.0 - gamma * dint
        if not mprime > 0.0:
            break
        step = (ell - gamma * float(w @ g)) / mprime
        if abs(step) <= stop * ell or last <= abs(step) <= 1e-10 * ell:
            ell -= step
            moment = float(w @ (y * y * g)) - step * dmoment
            ratio = gamma / ell
            slope = ratio**2 * (dmoment - 3.0 * ratio * moment * dint) / mprime
            return GroundState(gamma, ell, nodes, weights, _mirror(g), ratio**3 * moment, slope)
        last = abs(step)
        ell = ell - step if step < ell else 0.5 * ell
    raise ConvergenceError(f"cutoff-ratio Newton solve failed at ell={ell} "
                           f"(gamma={gamma}, n={nodes.size})", best=ell)


def solve_ground_state(
    gamma: float,
    *,
    n0: int = _PANEL_N0,
    tol: float = 1e-10,
) -> GroundState:
    """Ground state at coupling ``gamma > 0``.

    Solves ``g(y) = 1/2pi + (ell/pi) * integral g(t) / (ell^2 + (y-t)^2)
    dt`` on ``[-1, 1]`` with ``_panel_operator`` at width ``ell``, and
    closes ``ell = gamma * integral(g)`` by Newton's method on ``ell``,
    whose last step also gives ``slope`` by implicit differentiation.
    ``n0`` and the ladder are ``solve_tba``'s, with the panels graded at
    the support edge ``y = 1`` down to ``ell``; each rung starts from the
    previous rung's ``ell``, and the energy (not the slope) is judged.
    The error does not depend on how narrow the kernel is: the ladder
    stops at 128 nodes for ``gamma >= 1`` and at 544 or fewer down to
    ``gamma = 1e-8``.  ``energy ~ gamma`` at weak coupling and ``->
    pi^2/3`` in the impenetrable limit.
    """
    gamma = float(gamma)
    if math.isinf(gamma):
        raise ValueError(
            f"gamma must be finite (got {gamma}); the gamma=inf "
            "Tonks-Girardeau limit has energy = pi^2/3 and needs no solver"
        )
    if not gamma > 0.0:
        raise ValueError(
            f"gamma must be positive and finite (got {gamma}); "
            "the gamma=0 ideal gas needs no solver"
        )
    return _climb(
        functools.partial(_ground_rungs, gamma), n0, _GROUND_MAX_NODES, tol,
        "ground-state energy", f"gamma={gamma}",
    )


def _ground_rungs(gamma: float, panels: int):
    """The rungs of the T = 0 ladder from ``panels`` uniform panels per
    half-line, doubling, each graded at ``y = 1`` down to the ``ell`` its
    Newton solve starts from, the previous rung's.  The first rung is never
    returned, so its solve stops at a step below ``1e-7 ell``, which leaves
    its energy and ``ell`` exact to ``~1e-14`` for the next rung."""
    # Newton's start, within 3% of the solution at every gamma: the weak
    # coupling's sqrt(gamma)/2 with a fitted gamma/5, the strong's (gamma + 2)/pi
    ell = 0.5 * math.sqrt(gamma) + 0.2 * gamma if gamma < 4.0 else (gamma + 2.0) / math.pi
    state, energy = None, math.nan
    while True:
        edges = _graded_edges(1.0, panels, [(1.0, ell)])
        yield state, energy, 2 * _PANEL_NODES * (edges.size - 1)
        state = _ground_at(gamma, edges, ell, 1e-7 if state is None else 1e-13)
        ell, energy = state.ell, state.energy
        panels *= 2


def e_res_zero_T(gamma: float, **solver_kw) -> float:
    """Zero-temperature energy-pressure shift per particle,
    ``gamma * slope / 2`` with the ground state's ``slope =
    d(energy)/d(gamma)``, in units of ``k_B T_D``; ``solver_kw`` goes to
    ``solve_ground_state``.

    Positive for all ``0 < gamma < inf``, ``~ gamma/2`` for weak
    coupling, ``~ 2 pi^2 / 3 gamma`` for strong, with a maximum near
    ``gamma ~ 4.7``; 0 at the scale-invariant endpoints ``gamma = 0``
    (ideal Bose gas) and ``gamma = inf`` (Tonks-Girardeau).
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0 or math.isinf(gamma):
        return 0.0
    return 0.5 * gamma * solve_ground_state(gamma, **solver_kw).slope


# ---------------------------------------------------------------------------
# finite temperature
# ---------------------------------------------------------------------------

def _boltzmann_mu(tau: float) -> float:
    # classical closed form for the scaled chemical potential
    return 0.5 * tau * math.log(4.0 * math.pi / tau)


_NEWTON_TOL = 1e-11  # on the pseudo-energy step, relative to max|E|
_NORM_TOL = 1e-10  # on the normalization residual integral(f) - 1
_MAX_NEWTON = 50
_MAX_MU_TRIALS = 60


class _Rung:
    """One rung of the ``solve_tba`` ladder, on the ``_mirrored_rule`` of
    the half-line ``edges`` (from 0 to ``kmax``).  ``E`` and ``f`` are
    even in ``K``, so the rung solves on the ``K > 0`` half.

    A subclass's ``_newton(mu)`` sets ``eps``, ``density`` and ``mu`` and
    returns ``dn/dmu``; ``solve_mu`` closes ``integral f = 1`` with it and
    ``result`` mirrors the arrays back onto the full rule.
    """

    mu_hi = math.inf  # the density is finite at every mu

    def __init__(self, gamma: float, tau: float, kmax: float, edges: np.ndarray):
        self.nodes, self.weights, self.grid, self.cw = _mirrored_rule(edges)
        self.w = 2.0 * self.cw
        self.edges = np.concatenate((-edges[::-1], edges[1:]))
        self.gamma, self.tau, self.kmax = gamma, tau, kmax
        self.k2 = self.grid * self.grid
        self.eps = self.density = None
        self.mu = math.nan

    def seed(self, grid_old: np.ndarray, eps_old: np.ndarray, mu: float) -> None:
        # carry the smooth part E - (K^2 - mu) across grid refinements
        res = eps_old - (grid_old * grid_old - mu)
        self.eps = self.k2 - mu + np.interp(self.grid, grid_old, res)
        self.mu = mu

    def solve_mu(self, mu: float) -> None:
        """Safeguarded Newton on ``integral f - 1``: the density rises with
        ``mu``, so each residual's sign tightens a bracket, and a step
        that leaves the bracket bisects it.  No step moves ``mu`` by more
        than ``pad``: on a grid too coarse for the Fermi edge ``dn/dmu``
        can vanish while the bracket is still open.  ``mu`` starts at the
        rung below's, which for the first rung at ``tau <= _SEED_TAU`` is
        the T = 0 state's (within ``O(tau^2)``, on panels graded at its
        Fermi point): from the Boltzmann ``mu`` on ungraded panels the
        residual stalls just above ``_NORM_TOL`` at ``(0.01, 3e-3)``.

        A trial ``mu`` whose pseudo-energy solve fails counts as too high,
        as ``mu_hi = 0`` is for the ideal Bose gas: near ``gamma = 0`` the
        Boltzmann start at ``0.3 < tau <= 10`` is a ``mu > 0``, where the
        near-Bose solve has no converging Newton iteration."""
        pad = max(2.0 * self.tau, 2.0)
        lo, hi = -math.inf, self.mu_hi
        miss = math.nan
        for _ in range(_MAX_MU_TRIALS):
            try:
                slope = self._newton(mu)
            except ConvergenceError:
                hi = mu
                mu = mu - pad if lo == -math.inf else 0.5 * (lo + hi)
                continue
            miss = float(self.w @ self.density) - 1.0
            if abs(miss) <= _NORM_TOL:
                return
            if miss < 0.0:
                lo = mu
            else:
                hi = mu
            step = -miss / slope if slope > 0.0 else -math.copysign(pad, miss)
            nxt = mu + max(-pad, min(pad, step))
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            mu = nxt
        raise ConvergenceError(
            f"density normalization not reached in {_MAX_MU_TRIALS} trials of mu",
            best=None if self.density is None else self.result(),
            residual=abs(miss),
        )

    def result(self) -> TBASolution:
        return TBASolution(
            gamma=self.gamma,
            tau=self.tau,
            grid=self.nodes,
            weights=self.weights,
            eps=_mirror(self.eps),
            density=_mirror(self.density),
            mu=self.mu,
            kmax=self.kmax,
            edges=self.edges,
        )


class _TBAGrid(_Rung):
    """Interacting rung, ``0 < gamma < inf``.  On the nominal grids of the
    ``ll-finite-T`` benchmark the rungs are 64 -> 128 nodes at ``tau =
    1e3`` and 64 -> 160-288 -> 256-384 at ``tau = 0.5``, where the second
    rung's grading adds 3-5 panels per half-line at the Fermi point.

    Every solve goes through the Jacobian ``J = I - C diag(fermi)`` of
    ``F(E) = E - K^2 + mu + C softplus(E)``, where ``C`` is the folded,
    product-integrated kernel of ``_panel_operator``, diagonal included.
    One solve against ``J`` per Newton step gives the step ``J^-1 F``,
    the dressed ``g = J^-1 (1/2pi)`` (level density ``f = fermi g`` and
    ``dE/dmu = -2pi g``) and ``dg/dmu``, hence ``dn/dmu`` for the outer
    Newton solve on ``integral f = 1``.
    """

    def __init__(self, gamma: float, tau: float, kmax: float, edges: np.ndarray):
        super().__init__(gamma, tau, kmax, edges)
        self.kw = _panel_operator(self.grid, self.cw, gamma, _near_pairs(self.grid, edges, gamma))
        self._jac = np.empty_like(self.kw)
        self._diag = np.einsum("ii->i", self._jac)
        self._rhs = np.empty((self.grid.size, 3))  # F, the constant 1/2pi, C (dfermi g)
        self._rhs[:, 1] = 1.0 / (2.0 * math.pi)
        self.g = np.full(self.grid.size, 1.0 / (2.0 * math.pi))

    def _newton(self, mu: float) -> float:
        """Solve ``F(E) = 0`` at ``mu``; sets ``eps``, ``g``, ``density``
        and ``mu`` and returns ``dn/dmu``."""
        tau = self.tau
        if self.eps is None:
            eps = self.k2 - mu
        else:
            # first-order predictor from dE/dmu = -2pi g
            eps = self.eps - (2.0 * math.pi * (mu - self.mu)) * self.g
        g, jac, diag, rhs = self.g, self._jac, self._diag, self._rhs
        resid = rhs[:, 0]
        for _ in range(_MAX_NEWTON):
            x = eps / tau
            fermi = _fermi(x)
            np.subtract(eps, self.k2, out=resid)
            resid += mu
            resid += self.kw @ (tau * np.logaddexp(0.0, -x))  # C softplus(E)
            dfermi = (2.0 * math.pi / tau) * fermi * (1.0 - fermi) * g
            np.multiply(self.kw, -fermi, out=jac)
            diag += 1.0
            rhs[:, 2] = self.kw @ (dfermi * g)
            step, g, dg = np.linalg.solve(jac, rhs).T
            eps = eps - step
            if np.abs(step).max() <= _NEWTON_TOL * np.abs(eps).max():
                self.eps, self.g, self.mu = eps, g, mu
                self.density = fermi * g
                return float(self.w @ (dfermi * g + fermi * dg))
        raise ConvergenceError(
            f"pseudo-energy Newton solve did not converge at mu={mu}", best=eps
        )


class _IdealGrid(_Rung):
    """Endpoint rung, ``gamma = 0`` (ideal Bose gas) or ``gamma = inf``
    (free fermions): the kernel drops out and, with ``x = (K^2 - mu)/tau``,
    ``E``, ``f`` and ``dn/dmu`` are closed forms, so no linear solve."""

    def __init__(self, gamma: float, tau: float, kmax: float, edges: np.ndarray):
        super().__init__(gamma, tau, kmax, edges)
        if gamma == 0.0:
            self.mu_hi = 0.0  # the Bose density diverges as mu -> 0-

    def _newton(self, mu: float) -> float:
        x = (self.k2 - mu) / self.tau
        if self.gamma == 0.0:
            occ = np.exp(-x) / -np.expm1(-x)  # 1/(e^x - 1) without overflow
            self.eps = self.tau * _log_expm1(x)
            dn = occ * (1.0 + occ)
        else:
            occ = _fermi(x)
            self.eps = self.k2 - mu
            dn = occ * (1.0 - occ)
        self.density, self.mu = occ / (2.0 * math.pi), mu
        return float(self.w @ dn) / (2.0 * math.pi * self.tau)


def _fermi_points(sol: TBASolution) -> list[tuple[float, float]]:
    """The Fermi points ``K_F > 0`` of a solved rung, in increasing order
    (zeros of ``E`` by linear interpolation between nodes), each with the
    distance ``pi tau / |E'(K_F)|`` from the real axis of the singularities
    of the Fermi factor and ``softplus(-E/tau)``, at ``E = +-i pi tau``."""
    half = sol.grid.size // 2  # the mirrored rule has no node at 0
    k, e = sol.grid[half:], sol.eps[half:]
    neg = np.signbit(e)
    points = []
    for i in np.flatnonzero(neg[:-1] != neg[1:]):
        slope = (e[i + 1] - e[i]) / (k[i + 1] - k[i])
        points.append((k[i] - e[i] / slope, math.pi * sol.tau / abs(slope)))
    return points


def _graded_edges(kmax: float, panels: int, features: list[tuple[float, float]]) -> np.ndarray:
    """Half-line panel edges of a rung: ``panels`` uniform panels of width
    ``h`` on ``[0, kmax]``, graded at each feature ``(centre, width)`` by
    edges at ``centre`` and ``centre +- h 2^-l`` for ``l = 1, 2, ...``
    until the step reaches ``width``, the distance ``d`` of the feature's
    nearest singularity from the real axis: a panel beside it, at most
    ``d`` wide, sees it at a Bernstein radius of at least ``2 + sqrt(5)``
    (error ``~ 4.2^-32 ~ 1e-20``).  The features are the previous rung's Fermi
    points (``_fermi_points``), the ideal Bose peak at ``K = 0`` (pole
    ``sqrt(-mu)`` off the axis) and the T = 0 support edge (``ell``).
    Edges outside ``(0, kmax)`` are dropped, and so are edges closer than
    half the finest step to a kept one."""
    h = kmax / panels
    cands = [h * i for i in range(1, panels)]
    gap = 0.5 * h
    for centre, width in features:
        cands.append(centre)
        step = h
        while step > width:
            step *= 0.5
            cands += [centre - step, centre + step]
        gap = min(gap, 0.5 * step)
    kept = [0.0]
    for x in sorted(x for x in cands if 0.0 < x < kmax):
        if x - kept[-1] > gap:
            kept.append(x)
    if kmax - kept[-1] > gap:
        kept.append(kmax)
    else:
        kept[-1] = kmax
    return np.array(kept)


# largest tau whose ladder starts from the T = 0 state (``_tba_rungs``)
_SEED_TAU = 0.3


def _tba_rungs(gamma: float, tau: float, panels: int):
    """The rungs of the finite-T ladder from ``panels`` uniform panels per
    half-line, doubling, each graded at the previous rung's Fermi points
    (the Bose peak at ``gamma = 0``) and seeded from its pseudo-energy and
    ``mu``.  Every rung's grid reaches ``kmax^2 = max(mu, K_F^2) +
    ln(1e12) tau``, with ``mu`` and the outermost Fermi point ``K_F`` of
    the rung below (0 where it has none): a Fermi edge needs the tail
    margin past ``K_F``, which the dressing puts above ``sqrt(mu)``.

    The T = 0 state is the rung below the first one for ``gamma > 0`` and
    ``tau <= _SEED_TAU``: ``mu = 3e - gamma e'`` and ``K_F = gamma/ell``
    (``solve_ground_state`` at ``max(gamma, 1e-8)``; ``pi^2`` and ``pi``
    at ``gamma = inf``), with ``K_F`` graded down to ``pi tau/(2 K_F)``.
    Elsewhere the first rung starts from the Boltzmann ``mu`` (``-tau``
    for Bose where that is ``>= 0``) with ``K_F = pi``, the unit-density
    bound.  ``_SEED_TAU`` is measured (17 ``gamma`` in ``[1e-4, 1e4]``,
    1 BLAS thread): from ``tau = 0.03`` to 2 a seeded ladder ends on
    8-18% fewer nodes, but its T = 0 solve makes it slower from ``tau ~
    0.2`` on (0.27 against 0.20 s at 0.3, 0.23 against 0.18 s at 0.5).
    Up to 0.3 the seed also solves where the Boltzmann start fails, at
    ``gamma <= 1e-6`` and at low ``tau`` (``(0.01, 3e-3)``, ``(0.001,
    0.02)``), and 0.3 keeps the ``tau = 0.5`` points of the
    ``ll-finite-T`` benchmark unseeded."""
    rung_type = _TBAGrid if 0.0 < gamma < math.inf else _IdealGrid
    mu, edge, fermi = _boltzmann_mu(tau), math.pi, []
    if gamma > 0.0 and tau <= _SEED_TAU:
        mu, edge = math.pi**2, math.pi  # free fermions at gamma = inf
        if gamma < math.inf:
            state = solve_ground_state(max(gamma, 1e-8))
            mu, edge = 3.0 * state.energy - gamma * state.slope, gamma / state.ell
        fermi = [(edge, 0.5 * math.pi * tau / edge)]
    elif gamma == 0.0 and mu >= 0.0:  # the classical start is >= 0 for Bose at tau <= 4pi
        mu = -tau
    sol, energy = None, math.nan
    while True:
        kmax = math.sqrt(max(mu, edge * edge) + _TAIL_LOG * tau)
        peak = [(0.0, math.sqrt(-mu))] if gamma == 0.0 else []
        edges = _graded_edges(kmax, panels, fermi + peak)
        yield sol, energy, 2 * _PANEL_NODES * (edges.size - 1)
        rung = rung_type(gamma, tau, kmax, edges)
        if sol is not None:
            rung.seed(sol.grid, sol.eps, mu)
        rung.solve_mu(mu)
        sol = rung.result()
        rung = None  # the next rung needs only sol: free this kernel and Jacobian
        _, energy = observables(sol)
        mu = sol.mu
        fermi = _fermi_points(sol) if gamma > 0.0 else []  # Bose occupations are smooth at E = 0
        edge = fermi[-1][0] if fermi else 0.0
        panels *= 2


def solve_tba(
    params: LLParams,
    *,
    n0: int = _PANEL_N0,
    tol: float = 1e-8,
) -> TBASolution:
    """Finite-temperature thermodynamics at ``(gamma, tau)``.

    The pseudo-energy equation

    ``E(K) = K^2 - mu - tau * integral ker(K - K') log(1 + exp(-E'/tau)) dK'``

    with ``ker(q) = (gamma/pi) / (q^2 + gamma^2)`` is solved by Newton's
    method on a grid symmetric about 0 that reaches ``kmax^2 = max(mu,
    K_F^2) + ln(1e12) tau``, from the ``mu`` and outermost Fermi point
    ``K_F`` of the rung below (``_tba_rungs``); ``E`` is even, so the solve runs
    on the ``K >= 0`` half of that mirrored grid and the returned arrays
    are mirrored back.  The factorized Jacobian of each Newton step also
    yields the level density, which solves

    ``f(K) (1 + exp(E/tau)) = 1/2pi + integral ker(K - K') f(K') dK'``,

    and its derivative in ``mu``, so ``mu`` is fixed by an outer
    safeguarded Newton solve of ``integral f = 1``.

    At every ``gamma`` the grid is a composite rule, mirrored about 0, of
    panels with 16 Gauss-Legendre nodes.  The first rung has ``n0 // 32``
    uniform panels on each half-line; each later rung doubles them and
    grades the panels at the previous rung's Fermi points, down to their
    singularity distance ``pi tau / |E'(K_F)|``, or for the ideal Bose gas
    at its peak ``K = 0`` (``_graded_edges``).  For ``gamma > 0`` and
    ``tau <= _SEED_TAU = 0.3`` the T = 0 state is the rung below the first:
    it gives the first ``mu`` and a Fermi point to grade at, so ``(inf,
    1e-3)`` stops at 640 nodes (2432 from the Boltzmann start).  On 26
    ``gamma`` by 22 ``tau`` every ``gamma`` in ``[1e-5, 1e8]`` solves at
    every ``tau`` in ``[1e-3, 1e4]``, and so does every ``gamma`` down to
    ``1e-14`` but for ``(1e-8, 1e-3)``, ``(1e-7, 1e-3)`` and ``(1e-7,
    2.2e-3)``; at ``0.3 < tau <= 10`` these tiny ``gamma`` need the ``mu``
    solve's rule for a failed pseudo-energy solve (``_Rung.solve_mu``).
    For ``0 < gamma < inf``
    the kernel is product-integrated against each panel's interpolant
    (``_panel_operator``).  The default ``n0 = 64`` (two
    panels per half-line) is the smallest first rung measured to stay
    accurate: from 32 the ladder stops too early at ``tau = 1e3`` (1e-7
    off at ``gamma = 0.01``), and 96-201 cost as much or more.  The
    endpoints ``gamma = 0`` (ideal Bose gas) and ``gamma = inf``
    (impenetrable, free-fermion) take the same ``mu`` solve with
    closed-form occupations in place of the kernel; they solve at any
    ``tau``.

    The ladder (``_climb``, with its rules for ``n0`` and the ceiling)
    stops when the energy per particle is stable to ``tol`` (relative).
    The product-integrated kernel's error does not depend on ``gamma``,
    so the energy stop alone ends every ladder (``_TBAGrid`` gives the
    rungs on the benchmark grids); near the ideal-Bose edge ``(0.001,
    0.05)`` and ``(0.001, 0.1)`` climb to 1024 nodes.  The energy stop
    does not bound the shift ``E - P/2``, a difference of two numbers of
    size ``tau/2``: at ``(0.001, 10)`` it is 3e-8 (relative) off a deeper
    ladder, and at ``(1, 1e4)`` within 1e-12 from the default first rung
    but 2e-8 off from ``n0 = 128``; a stop judged on the shift would bound
    it.  For interacting states ``tau >= 2e4`` is outside the domain: the
    energy criterion no longer bounds the shift's error there, and
    ``e_res_high_T`` gives the classical limit.
    """
    gamma, tau = params.gamma, params.tau
    if tau < 1e-3:
        raise ValueError(
            f"tau={tau} is below 1e-3: the finite-T grid degenerates there; "
            "use solve_ground_state / e_res_zero_T for the T=0 physics"
        )
    if 0.0 < gamma < math.inf and tau >= 2e4:
        raise ValueError(
            f"tau={tau} is at or above 2e4, where the finite-T ladder cannot "
            "certify its result; use e_res_high_T for the high-temperature shift"
        )

    return _climb(
        functools.partial(_tba_rungs, gamma, tau), n0, _TBA_MAX_NODES, tol,
        "TBA energy", f"gamma={gamma}, tau={tau}",
    )


def observables(sol: TBASolution) -> tuple[float, float]:
    """Pressure ``P/(rho k_B T_D)`` and energy per particle
    ``E/(N k_B T_D)`` of a solved state.
    """
    pressure = float(sol.weights @ _softplus_e(sol.eps, sol.tau)) / (2.0 * math.pi)
    energy = float(sol.weights @ (sol.grid**2 * sol.density))
    return pressure, energy


def e_res_finite_T(params: LLParams, **solver_kw) -> float:
    """Energy-pressure shift per particle,
    ``E/(N k_B T_D) - P/(2 rho k_B T_D)``, at finite temperature.

    Vanishes at both interaction endpoints (ideal Bose gas and the
    impenetrable limit are scale invariant) and is positive in between.
    """
    if params.gamma == 0.0 or math.isinf(params.gamma):
        return 0.0
    sol = solve_tba(params, **solver_kw)
    pressure, energy = observables(sol)
    return energy - 0.5 * pressure


def _b2_closed_form(c: float, T: float) -> tuple[float, float, float, float]:
    """The delta gas's second virial coefficient, its slope and its shift,
    in closed form at repulsion ``c`` and temperature ``T > 0`` (units
    ``hbar = 2m = k_B = 1``; at unit density ``c`` and ``T`` are ``gamma``
    and ``tau``).

    With ``x = c/sqrt(2T)``, ``delta = 1 - sqrt(pi) x erfcx(x)``
    (``_erfcx_deficit``) and the thermal wavelength ``lambda_T =
    2 sqrt(pi/T)``, returns ``(B_2/lambda_T, B_2, dB_2/dT, shift)``:
    ``B_2/lambda_T = 1/(2 sqrt 2) - erfcx(x)/sqrt 2``, ``dB_2/dT =
    -B_2/(2T) - c delta/T^2``, and ``shift = c delta``, the O(rho) virial
    shift ``-T (T dB_2/dT + B_2/2)`` per unit density (Beth & Uhlenbeck,
    Physica 4, 915 (1937)).  The slope goes through ``delta``, not the
    direct ``erfcx'``, which cancels at large ``x``.
    """
    x = c / math.sqrt(2.0 * T)
    b = 0.5 / _SQRT2 - erfcx(x) / _SQRT2
    b2 = b * 2.0 * math.sqrt(math.pi / T)
    shift = c * _erfcx_deficit(x)
    return b, b2, -b2 / (2.0 * T) - shift / T / T, shift


def b2_ll(params: LLParams) -> float:
    """Second virial coefficient in units of the thermal wavelength.

    ``b2 = 1/(2 sqrt 2) - erfcx(x)/sqrt(2)`` with ``x = gamma / sqrt(2 tau)``:
    ``-1/(2 sqrt 2)`` for the ideal Bose endpoint, crossing over to
    ``+1/(2 sqrt 2)`` (free-fermion value) as ``x -> inf``.
    """
    if params.tau <= 0.0:
        raise ValueError(f"b2 needs tau > 0, got {params.tau}")
    return _b2_closed_form(params.gamma, params.tau)[0]


def e_res_high_T(params: LLParams) -> float:
    """Closed-form high-temperature shift per particle (units ``k_B T_D``):

    ``gamma - sqrt(pi / 2 tau) * gamma^2 * erfcx(sqrt(gamma^2 / 2 tau))``,
    evaluated as ``gamma * (1 - sqrt(pi) * x * erfcx(x))`` with
    ``x = gamma / sqrt(2 tau)`` so that it keeps full precision for
    ``gamma^2 >> tau``.  It is the O(rho) virial shift of ``b2_ll``'s
    coefficient.

    Interpolates between ``gamma`` (for ``gamma^2 << 2 tau``) and
    ``tau/gamma`` (for ``gamma^2 >> 2 tau``), which vanishes at the
    Tonks-Girardeau end ``gamma = inf``.  The derivation drops
    degeneracy corrections, so it is quantitative only for
    ``tau >> 4 pi``; below that a warning is emitted and the number
    returned is an extrapolation.
    """
    gamma, tau = params.gamma, params.tau
    if tau <= 0.0:
        raise ValueError(f"the high-temperature form needs tau > 0, got {tau}")
    if tau < 4.0 * math.pi:
        warnings.warn(
            f"high-temperature closed form evaluated at tau={tau:g}, "
            "outside its validity regime tau >> 4*pi",
            UserWarning,
            stacklevel=2,
        )
    if math.isinf(gamma):
        return 0.0
    return _b2_closed_form(gamma, tau)[3]
