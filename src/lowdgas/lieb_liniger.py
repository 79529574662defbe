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
  fixing the cutoff ratio ``ell`` (and giving ``d(energy)/d(gamma)``):
  the discretized operator is self-adjoint in the quadrature-weighted
  inner product, so one solve per Newton step gives ``g`` and every
  ``ell``-derivative the step and the slope need;
* the finite-temperature coupled equations for the pseudo-energy
  ``E(K)``, chemical potential ``mu`` and level density ``f(K)``.

Both use dense Nystrom discretizations with the Lorentzian kernel
handled in subtracted form.  The ground state subtracts the constant,
``(Kv)_i = M_i v_i + sum_j w_j k_ij (v_j - v_i)`` with the analytic mass
``M_i``: the diagonal singularity cancels exactly.  The finite-T solve
subtracts the local Taylor polynomial of ``v`` to second order, with
the analytic moments of ``k(q) q^p`` (``p <= 2``) and barycentric
derivatives on the Gauss-Legendre nodes (product integration, Atkinson
ch. 4; Wang & Xiang, Math. Comp. 81, 861, 2012), so it stays accurate
where ``gamma`` is below the node spacing (``gamma ~ 1e-3``, kernel
close to a delta spike) as well as in the impenetrable limit
(``gamma ~ 1e4``, kernel flat and weak).  Every unknown is even, so both
solve on the ``K >= 0`` half of a mirrored Gauss-Legendre rule with the
folded operator (column ``j`` plus its mirror ``-K_j``): a quarter of
the memory and an eighth of the LU work of the full grid, with the same
results up to rounding.  Both take that folded kernel from one row-block
pass, ``_folded_blocks``.

Derived observables: pressure, energy, the energy-pressure shift
``e_res = energy - pressure/2`` at zero and finite temperature, its
high-temperature closed form, and the second virial coefficient.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import ConvergenceError, _erfcx_deficit, erfcx, gauss_legendre

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
# grid edge: keep exp(-(Kmax^2 - mu)/tau) below 1e-12
_TAIL_LOG = math.log(1e12)
# node-count ceilings of the doubling ladders
_GROUND_MAX_NODES = 4096
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
    density ``g`` on the scaled support ``[-1, 1]``, and the dimensionless
    ground-state energy ``energy`` (``E/N = rho^2 * energy`` in units of
    ``hbar^2/2m``, so ``energy`` runs from ``~gamma`` to ``pi^2/3``), and
    its implicit-differentiation ``slope = d(energy)/d(gamma)``."""

    gamma: float
    ell: float
    nodes: np.ndarray
    weights: np.ndarray
    g_nodes: np.ndarray
    energy: float
    slope: float


@dataclass(frozen=True)
class TBASolution:
    """Finite-temperature solution on a symmetric Gauss-Legendre grid.

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

    def pseudo_energy_at(self, k: float) -> float:
        """Evaluate ``E(k)`` off-grid: for ``|k| < kmax`` the barycentric
        interpolant of ``eps`` on the solution's own Gauss-Legendre rule,
        beyond it one sweep of the defining equation (the far tail, where
        ``E -> k^2 - mu``)."""
        k = float(k)
        if self.gamma == 0.0:
            x = (k * k - self.mu) / self.tau
            return self.tau * _log_expm1(np.asarray([x]))[0]
        if math.isinf(self.gamma):
            return k * k - self.mu
        if abs(k) < self.kmax:
            gap = k - self.grid
            hit = np.flatnonzero(gap == 0.0)
            if hit.size:
                return float(self.eps[hit[0]])
            c = _bary_weights(self.grid / self.kmax, self.weights) / gap
            return float(c @ self.eps) / float(c.sum())
        ker = (self.gamma / math.pi) / ((k - self.grid) ** 2 + self.gamma**2)
        conv = float(np.dot(self.weights * ker, _softplus_e(self.eps, self.tau)))
        return k * k - self.mu - conv


# ---------------------------------------------------------------------------
# small stable helpers
# ---------------------------------------------------------------------------

def _softplus_e(eps: np.ndarray, tau: float) -> np.ndarray:
    """``tau * log(1 + exp(-eps/tau))`` without overflow."""
    return tau * np.logaddexp(0.0, -eps / tau)


def _fermi(eps: np.ndarray, tau: float) -> np.ndarray:
    """``1 / (1 + exp(eps/tau))`` without overflow."""
    x = eps / tau
    out = np.empty_like(x)
    pos = x > 0.0
    e = np.exp(-np.abs(x))
    out[pos] = e[pos] / (1.0 + e[pos])
    out[~pos] = 1.0 / (1.0 + e[~pos])
    return out


def _log_expm1(x: np.ndarray) -> np.ndarray:
    """``log(exp(x) - 1)`` for ``x > 0`` without overflow."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x > 30.0
    out[big] = x[big] + np.log1p(-np.exp(-x[big]))
    out[~big] = np.log(np.expm1(x[~big]))
    return out


def _fold(rule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``x >= 0`` half of a mirror-symmetric rule, on which every even
    function lives: the half nodes, the column weights (at odd ``n`` the
    middle node's is halved, since both mirror terms of the folded kernel
    reach it), the integration weights ``2 * cw`` and the full -> half
    index map that mirrors a half-grid array back onto the full rule."""
    n = rule.nodes.size
    cw = rule.weights[n // 2:].copy()
    if n % 2:
        cw[0] *= 0.5
    i = np.arange(n)
    return rule.nodes[n // 2:], cw, 2.0 * cw, np.maximum(i, i[::-1]) - n // 2


_BLOCK = 1 << 15  # entries per row block of the row-blocked kernel passes


def _folded_blocks(half: np.ndarray, gamma: float):
    """Row blocks of the folded Lorentzian ``ker(q) = (gamma/pi) / (q^2 +
    gamma^2)`` on the half nodes ``x >= 0`` of a mirrored rule: per block of
    about ``_BLOCK`` entries, the row slice ``rs``, ``ker(x_i - x_j)`` with
    its diagonal zeroed and the mirror term ``ker(x_i + x_j)``, two new
    arrays the caller may overwrite.  A middle node ``x = 0`` pairs with
    itself, so the mirror's (0, 0) entry is the full diagonal: zeroed too."""
    amp, g2 = gamma / math.pi, gamma * gamma
    rows = max(1, _BLOCK // half.size)
    for i0 in range(0, half.size, rows):
        rs = slice(i0, i0 + rows)
        minus, plus = half[rs, None] - half, half[rs, None] + half
        for k in (minus, plus):
            k *= k
            k += g2
            np.divide(amp, k, out=k)
        np.einsum("ii->i", minus[:, rs])[:] = 0.0
        if i0 == 0 and half[0] == 0.0:
            plus[0, 0] = 0.0
        yield rs, minus, plus


def _bary_weights(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Barycentric weights ``lam_j = (-1)^j sqrt((1 - x_j^2) w_j)`` of the
    Gauss-Legendre nodes ``x_j`` in ``(-1, 1)`` with weights ``w_j``; a
    common scale of ``w`` cancels from every barycentric formula."""
    lam = np.sqrt((1.0 - x) * (1.0 + x) * w)
    lam[1::2] *= -1.0
    return lam


def _x_minus_atan(x: np.ndarray) -> np.ndarray:
    """``x - atan(x)`` without cancellation at small ``|x|``: below 0.3
    the series ``x^3/3 - x^5/5 + ...`` (18 terms, truncation < 1e-19
    relative) replaces the difference, whose relative error grows like
    ``3 eps / x^2``."""
    out = x - np.arctan(x)
    small = np.abs(x) < 0.3
    xs = x[small]
    x2 = xs * xs
    acc = np.zeros_like(xs)
    for k in range(18, 0, -1):
        acc *= x2
        acc += (-1.0) ** (k + 1) / (2 * k + 1)
    out[small] = acc * x2 * xs
    return out


def _corrected_kernel(rule, gamma: float) -> np.ndarray:
    """Folded, moment-corrected Lorentzian convolution on the ``x >= 0``
    half of the mirror-symmetric Gauss-Legendre ``rule`` on
    ``[-kmax, kmax]``: ``C @ v`` integrates ``ker(K_i - K) v(K)`` for an
    even ``v`` given on the half nodes, exactly when ``v`` is a quadratic.

    On the full grid ``C = W + diag(M0 - S0) + diag(M1 - S1) D +
    diag(M2 - S2) D^2 / 2`` with ``W_ij = w_j ker(K_i - K_j)`` (zero
    diagonal), the analytic moments ``Mp_i`` of ``ker(q) q^p`` over the
    domain and their Nystrom sums ``Sp_i = sum_j W_ij (K_j - K_i)^p``: it
    subtracts the local Taylor polynomial of ``v`` to second order, so the
    scheme keeps converging when ``gamma`` is below the node spacing.
    ``D`` and ``D^2`` are the barycentric differentiation matrices with
    the Gauss-Legendre weights ``lam_j = (-1)^j sqrt((1 - x_j^2) w_j)``;
    each diagonal entry is minus the rest of its row.  Folding adds each
    half column's mirror, whose weight carries ``(-1)^(n-1)``; a middle
    node is counted once through the halved column weight.  The matrix
    is built in row blocks, with no n x n temporary and no ``D @ D``.
    """
    n = rule.nodes.size
    kmax = rule.domain[1]
    half, cw, _, _ = _fold(rule)
    m = half.size
    lam = _bary_weights(half / kmax, rule.weights[n // 2:])
    lam_cw = lam * cw / rule.weights[n // 2:]  # lam_j, halved on a middle node
    sign = 1.0 if n % 2 else -1.0  # (-1)^(n-1): mirror weight over own weight
    a, b = -kmax - half, kmax - half
    arc = np.arctan(b / gamma) - np.arctan(a / gamma)
    m0 = arc / math.pi
    m1 = (0.5 * gamma / math.pi) * np.log1p(-4.0 * kmax * half / (a * a + gamma * gamma))
    # M2 through x - atan(x): the plain (b - a) - gamma * arc cancels to
    # about eps * gamma * kmax when gamma >> kmax, where M2 - S2 -> 0
    m2 = (gamma * gamma / math.pi) * (_x_minus_atan(b / gamma) - _x_minus_atan(a / gamma))
    out = np.empty((m, m))
    for rs, kq, kt in _folded_blocks(half, gamma):
        q = half[rs, None] - half  # K_i - K_j and its mirror K_i + K_j
        t = half[rs, None] + half
        blk = np.add(kq, kt, out=out[rs])
        blk *= cw
        # S1 and S2 on the folded grid (K_j - K_i is -q, and -t for the mirror
        # -K_j), in place: from here on kq and kt are buffers for D and a temporary
        kq *= q
        s1 = -(kq @ cw)
        kq *= q
        s2 = kq @ cw
        kt *= t
        s1 -= kt @ cw
        kt *= t
        s2 += kt @ cw
        a0 = m0[rs] - blk.sum(axis=1)
        a1 = m1[rs] - s1
        a2 = 0.5 * (m2[rs] - s2)
        # r = 1/(K_i - K_j), p = 1/(K_i + K_j); the zeros of K_i -+ K_j
        # (the diagonal and a middle node's mirror) get 1/inf = 0
        for x in (q, t):
            x[x == 0.0] = math.inf
        r = np.reciprocal(q, out=q)
        p = np.reciprocal(t, out=t)
        lam_i = lam[rs, None]
        # off-diagonal D: (lam_j / lam_i) (r + sign p), then its diagonal
        d1 = np.multiply(p, sign, out=kq)
        d1 += r
        d1 *= lam_cw
        d1 /= lam_i
        dd1 = -d1.sum(axis=1)
        # off-diagonal D^2: 2 (lam_j / lam_i) [dd1_i (r + sign p) - (r^2 + sign p^2)]
        d2 = np.multiply(r, r, out=r)
        p *= p
        p *= sign
        d2 += p
        d2 *= lam_cw
        d2 /= lam_i
        d2 -= np.multiply(dd1[:, None], d1, out=kt)
        d2 *= -2.0
        dd2 = -d2.sum(axis=1)
        d1 *= a1[:, None]
        blk += d1
        d2 *= a2[:, None]
        blk += d2
        diag = np.einsum("ii->i", blk[:, rs])
        diag += a0 + a1 * dd1 + a2 * dd2
    return out


# ---------------------------------------------------------------------------
# zero temperature
# ---------------------------------------------------------------------------

_MAX_ELL_NEWTON = 30


def _ground_operator(y: np.ndarray, cw: np.ndarray, ell: float) -> np.ndarray:
    """``A(ell) = I - K W - diag(M - rowsum(K W))`` on the half nodes ``y``,
    with the folded kernel ``K``, ``W = diag(cw)`` and the row masses ``M``
    integrated to the domain edge ``+-1`` (to the outermost node, the scheme
    would converge only algebraically).  Built in row blocks, with no copy."""
    mass = (np.arctan((1.0 - y) / ell) + np.arctan((1.0 + y) / ell)) / math.pi
    out = np.empty((y.size, y.size))
    for rs, minus, plus in _folded_blocks(y, ell):
        blk = np.add(minus, plus, out=out[rs])
        shift = 1.0 - mass[rs] + blk @ cw
        blk *= -cw
        diag = np.einsum("ii->i", blk[:, rs])
        diag += shift
    return out


def _neg_dA_g(y: np.ndarray, cw: np.ndarray, ell: float, g: np.ndarray) -> np.ndarray:
    """``-(dA/dell) g = (dM/dell) g + sum_j (dK_ij/dell) cw_j (g_j - g_i)``,
    with ``dk/dell = k/ell - 2pi k^2`` taken per mirror term (the fold of
    ``k^2`` is not the square of the fold).  Built in row blocks, so no
    matrix of the half size is alive."""
    out = -((1.0 - y) / (ell * ell + (1.0 - y) ** 2)
            + (1.0 + y) / (ell * ell + (1.0 + y) ** 2)) / math.pi * g
    for rs, minus, plus in _folded_blocks(y, ell):
        diff = g - g[rs, None]
        diff *= cw
        for k in (minus, plus):
            dk = k * (-2.0 * math.pi)
            dk += 1.0 / ell
            dk *= k
            out[rs] += np.einsum("ij,ij->i", dk, diff)
    return out


def _ground_at(gamma: float, n: int, ell: float) -> GroundState:
    """Newton on ``m(ell) = ell - gamma * integral(g)`` at ``n`` nodes,
    from the guess ``ell``.  ``g`` is even, so the solve runs on the
    ``y >= 0`` half of the mirrored rule with the folded kernel
    ``k(y_i - y_j) + k(y_i + y_j)``.

    Each step makes one solve of ``A(ell)`` against ``[1/2pi, y^2]``,
    giving ``g`` and ``h = A^-1 y^2``.  The kernel is symmetric, so
    ``A^T = W A W^-1`` with ``W = diag(cw)``, and with
    ``v = -(dA/dell) g`` the slopes ``integral dg/dell = 4pi (W g).v``
    and ``integral y^2 dg/dell = 2 (W h).v`` need no second solve.  Every
    step is exact at its own ``ell``; the last one, below ``1e-13 ell``,
    is applied to ``ell``, ``integral g`` and ``integral y^2 g`` to first
    order."""
    rule = gauss_legendre(n, -1.0, 1.0)
    y, cw, w, full = _fold(rule)
    rhs = np.column_stack((np.full(y.size, 1.0 / (2.0 * math.pi)), y * y))
    steps = 0
    while True:
        g, h = np.linalg.solve(_ground_operator(y, cw, ell), rhs).T
        v = _neg_dA_g(y, cw, ell, g)
        dint = 4.0 * math.pi * float((cw * g) @ v)  # d integral(g) / d ell
        mprime = 1.0 - gamma * dint
        if mprime > 0.0:
            step = (ell - gamma * float(w @ g)) / mprime
            if abs(step) <= 1e-13 * ell:
                break
        if steps == _MAX_ELL_NEWTON or not mprime > 0.0:
            raise ConvergenceError(
                f"cutoff-ratio Newton solve failed at ell={ell} (gamma={gamma}, n={n})", best=ell
            )
        ell = ell - step if step < ell else 0.5 * ell
        steps += 1
    dmoment = 2.0 * float((cw * h) @ v)  # d integral(y^2 g) / d ell
    ell -= step
    integral = float(w @ g) - step * dint
    energy = (gamma / ell) ** 3 * (float(w @ (y * y * g)) - step * dmoment)
    dell = integral / mprime  # d(ell)/d(gamma)
    slope = energy * (3.0 / gamma - 3.0 * dell / ell) + (gamma / ell) ** 3 * dmoment * dell
    return GroundState(gamma, ell, rule.nodes, rule.weights, g[full], energy, slope)


def solve_ground_state(
    gamma: float,
    *,
    n0: int = 64,
    tol: float = 1e-10,
) -> GroundState:
    """Ground state at coupling ``gamma > 0``.

    Solves the linear integral equation
    ``g(y) = 1/2pi + (ell/pi) * integral g(t) / (ell^2 + (y-t)^2) dt``
    on ``[-1, 1]`` by a subtracted-kernel Nystrom method, with the outer
    scalar condition ``ell = gamma * integral(g)`` closed by Newton's
    method on ``ell``, whose last step also gives ``slope`` by implicit
    differentiation.  The node count doubles until the energy (not the
    slope) is stable to ``tol`` (relative); each rung starts its Newton
    solve from the previous rung's ``ell``, so past the first rung it
    takes two solves.  Stability is judged between two rungs, so an
    ``n0`` whose next rung ``2*n0`` is above the ladder's ceiling raises
    :class:`ConvergenceError` before any rung runs.

    The dimensionless energy satisfies ``energy ~ gamma`` for weak
    coupling and ``energy -> pi^2/3`` in the impenetrable limit.
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
    if n0 > _GROUND_MAX_NODES:
        raise ConvergenceError(f"n0={n0} is above the ladder's {_GROUND_MAX_NODES}-node ceiling")
    if 2 * n0 > _GROUND_MAX_NODES:
        raise ConvergenceError(
            f"n0={n0} leaves no second rung to compare: the next rung, {2 * n0} nodes, "
            f"is above the ladder's {_GROUND_MAX_NODES}-node ceiling"
        )
    prev = state = None
    change = math.nan
    ell = max(0.5 * math.sqrt(gamma), gamma / math.pi)
    n = n0
    while n <= _GROUND_MAX_NODES:
        state = _ground_at(gamma, n, ell)
        ell = state.ell
        if prev is not None:
            change = abs(state.energy - prev)
            if change <= tol * max(abs(state.energy), 1e-12):
                return state
        prev = state.energy
        n *= 2
    raise ConvergenceError(
        f"ground-state energy not stable to {tol} by {_GROUND_MAX_NODES} nodes (gamma={gamma})",
        best=state,
        residual=change,
    )


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
    """One node count of the ``solve_tba`` ladder, on the ``K >= 0`` half
    of a mirrored Gauss-Legendre rule (``E`` and ``f`` are even in ``K``).

    A subclass's ``_newton(mu)`` sets ``eps``, ``density`` and ``mu`` and
    returns ``dn/dmu``; ``solve_mu`` closes ``integral f = 1`` with it and
    ``result`` mirrors the arrays back onto the full rule.
    """

    mu_hi = math.inf  # the density is finite at every mu

    def __init__(self, gamma: float, tau: float, kmax: float, n: int):
        self.rule = gauss_legendre(n, -kmax, kmax)
        self.gamma, self.tau, self.kmax = gamma, tau, kmax
        self.grid, self.cw, self.w, self._full = _fold(self.rule)
        self.k2 = self.grid * self.grid
        self.eps = self.density = None
        self.mu = math.nan

    def solve_mu(self, mu: float) -> None:
        """Safeguarded Newton on ``integral f - 1``: the density rises with
        ``mu``, so each residual's sign tightens a bracket, and a step
        that leaves the bracket bisects it.  No step moves ``mu`` by more
        than ``pad``: on a grid too coarse for the Fermi edge ``dn/dmu``
        can vanish while the bracket is still open."""
        pad = max(2.0 * self.tau, 2.0)
        lo, hi = -math.inf, self.mu_hi
        if not mu < hi:  # the classical start is > 0 for Bose at tau < 4pi
            mu = hi - self.tau
        for _ in range(_MAX_MU_TRIALS):
            slope = self._newton(mu)
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
            best=self.result(),
            residual=abs(miss),
        )

    def result(self) -> TBASolution:
        return TBASolution(
            gamma=self.gamma,
            tau=self.tau,
            grid=self.rule.nodes,
            weights=self.rule.weights,
            eps=self.eps[self._full],
            density=self.density[self._full],
            mu=self.mu,
            kmax=self.kmax,
        )


class _TBAGrid(_Rung):
    """Interacting rung, ``0 < gamma < inf``.

    Every solve goes through the Jacobian ``J = I - C diag(fermi)`` of
    ``F(E) = E - K^2 + mu + C softplus(E)``, where ``C`` is the folded,
    moment-corrected kernel of ``_corrected_kernel``, diagonal included.
    One solve against ``J`` per Newton step gives the step ``J^-1 F``,
    the dressed ``g = J^-1 (1/2pi)`` (level density ``f = fermi g`` and
    ``dE/dmu = -2pi g``) and ``dg/dmu``, hence ``dn/dmu`` for the outer
    Newton solve on ``integral f = 1``.
    """

    def __init__(self, gamma: float, tau: float, kmax: float, n: int):
        super().__init__(gamma, tau, kmax, n)
        self.kw = _corrected_kernel(self.rule, gamma)
        self._jac = np.empty_like(self.kw)
        self.g = np.full(self.grid.size, 1.0 / (2.0 * math.pi))

    def _conv(self, values: np.ndarray) -> np.ndarray:
        return self.kw @ values

    def seed(self, grid_old: np.ndarray, eps_old: np.ndarray, mu: float) -> None:
        # carry the smooth part E - (K^2 - mu) across grid refinements
        res = eps_old - (grid_old * grid_old - mu)
        self.eps = self.k2 - mu + np.interp(self.grid, grid_old, res)
        self.mu = mu

    def _newton(self, mu: float) -> float:
        """Solve ``F(E) = 0`` at ``mu``; sets ``eps``, ``g``, ``density``
        and ``mu`` and returns ``dn/dmu``."""
        tau = self.tau
        if self.eps is None:
            eps = self.k2 - mu
        else:
            # first-order predictor from dE/dmu = -2pi g
            eps = self.eps - (2.0 * math.pi * (mu - self.mu)) * self.g
        g = self.g
        jac = self._jac
        diag = np.einsum("ii->i", jac)
        for _ in range(_MAX_NEWTON):
            fermi = _fermi(eps, tau)
            resid = eps - self.k2 + mu + self._conv(_softplus_e(eps, tau))
            dfermi = (2.0 * math.pi / tau) * fermi * (1.0 - fermi) * g
            np.multiply(self.kw, -fermi[None, :], out=jac)
            diag += 1.0
            rhs = np.column_stack(
                (resid, np.full(eps.size, 1.0 / (2.0 * math.pi)), self._conv(dfermi * g))
            )
            step, g, dg = np.linalg.solve(jac, rhs).T
            eps = eps - step
            if np.max(np.abs(step)) <= _NEWTON_TOL * np.max(np.abs(eps)):
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

    def __init__(self, gamma: float, tau: float, kmax: float, n: int):
        super().__init__(gamma, tau, kmax, n)
        if gamma == 0.0:
            self.mu_hi = 0.0  # the Bose density diverges as mu -> 0-

    def _newton(self, mu: float) -> float:
        x = (self.k2 - mu) / self.tau
        if self.gamma == 0.0:
            occ = np.exp(-x) / -np.expm1(-x)  # 1/(e^x - 1) without overflow
            self.eps = self.tau * _log_expm1(x)
            dn = occ * (1.0 + occ)
        else:
            occ = _fermi(self.k2 - mu, self.tau)
            self.eps = self.k2 - mu
            dn = occ * (1.0 - occ)
        self.density, self.mu = occ / (2.0 * math.pi), mu
        return float(self.w @ dn) / (2.0 * math.pi * self.tau)


def solve_tba(
    params: LLParams,
    *,
    n0: int = 201,
    tol: float = 1e-8,
) -> TBASolution:
    """Finite-temperature thermodynamics at ``(gamma, tau)``.

    The pseudo-energy equation

    ``E(K) = K^2 - mu - tau * integral ker(K - K') log(1 + exp(-E'/tau)) dK'``

    with ``ker(q) = (gamma/pi) / (q^2 + gamma^2)`` is solved by Newton's
    method on a symmetric Gauss-Legendre grid wide enough that
    ``exp(-(Kmax^2 - mu)/tau) < 1e-12``; ``E`` is even, so the solve runs
    on the ``K >= 0`` half of that mirrored grid and the returned arrays
    are mirrored back.  The factorized Jacobian of each Newton step also
    yields the level density, which solves

    ``f(K) (1 + exp(E/tau)) = 1/2pi + integral ker(K - K') f(K') dK'``,

    and its derivative in ``mu``, so ``mu`` is fixed by an outer
    safeguarded Newton solve of ``integral f = 1``.

    Nodes double until the energy per particle is stable to ``tol``
    (relative); an ``n0`` whose next rung ``2*n0 + 1`` is above the
    ladder's ceiling raises :class:`ConvergenceError` before any rung
    runs.  The moment-corrected kernel converges fast even where
    ``gamma`` is below the node spacing: at ``tau = 1e3`` the ladder
    stops at 403 nodes at nine log-spaced ``gamma`` from 0.01 to 100.
    Near the ideal-Bose edge at low ``tau`` the convergence is still
    algebraic (each doubling shrinks the change only 2-3x), so the
    ladder keeps an algebraic-tail acceptance for ``0 < gamma < inf``:
    when a doubling gains less than 8x while the change is already below
    1e-3, it stops.  Without it ``(gamma, tau) = (0.001, 0.05)`` and
    ``(0.001, 0.1)`` climb to 6463 nodes in 4-5 s each (1 BLAS thread);
    with it they stop at 1615 nodes, 1.1e-10 (absolute) from the
    6463-node shift.  The energy stop does not bound the shift
    ``E - P/2``, a difference of two numbers of size ``tau/2``: at
    ``(1, 1e3)``, ``(0.8, 1e3)`` and ``(1, 1e4)`` it stops at 403 nodes
    with the shift 3-5e-7 (relative) below that of a 6463-node ladder.
    ROADMAP item 3 (a stop judged on the shift) holds the fix.
    The endpoints ``gamma = 0`` (ideal Bose gas) and ``gamma = inf``
    (impenetrable, free-fermion) run on the same ladder and the same
    ``mu`` solve, with closed-form occupations in place of the kernel;
    having no kernel they never take the algebraic-tail acceptance, which
    applies only for ``0 < gamma < inf``, and they solve at any ``tau``.
    For interacting states ``tau >= 2e4`` is outside the domain: the
    ladder's energy criterion no longer bounds the error of the shift
    there, and ``e_res_high_T`` gives the classical limit.
    """
    gamma, tau = params.gamma, params.tau
    if tau < 1e-3:
        raise ValueError(
            f"tau={tau} is below 1e-3: the finite-T grid degenerates there; "
            "use solve_ground_state / e_res_zero_T for the T=0 physics"
        )
    interacting = 0.0 < gamma < math.inf
    if interacting and tau >= 2e4:
        raise ValueError(
            f"tau={tau} is at or above 2e4, where the finite-T ladder cannot "
            "certify its result; use e_res_high_T for the high-temperature shift"
        )

    if n0 > _TBA_MAX_NODES:
        raise ConvergenceError(f"n0={n0} is above the ladder's {_TBA_MAX_NODES}-node ceiling")
    if 2 * n0 + 1 > _TBA_MAX_NODES:
        raise ConvergenceError(
            f"n0={n0} leaves no second rung to compare: the next rung, {2 * n0 + 1} nodes, "
            f"is above the ladder's {_TBA_MAX_NODES}-node ceiling"
        )
    mu = _boltzmann_mu(tau)
    mu_hat = max(math.pi**2, mu + 2.0 * tau)
    carry: TBASolution | None = None
    prev_energy = None
    prev_rel = None
    n = n0
    while n <= _TBA_MAX_NODES:
        kmax = math.sqrt(max(mu_hat, 0.0) + _TAIL_LOG * tau)
        solver = (_TBAGrid if interacting else _IdealGrid)(gamma, tau, kmax, n)
        if carry is not None and interacting:
            solver.seed(carry.grid, carry.eps, mu)
        solver.solve_mu(mu)
        sol = solver.result()
        del solver  # the next rung needs only sol: free this kernel and Jacobian
        _, energy = observables(sol)
        if prev_energy is not None:
            rel = abs(energy - prev_energy) / max(abs(energy), 1e-12)
            if rel <= tol:
                return sol
            # algebraic tail: doublings gain less than 8x while already
            # at the 1e-3 level -- near the ideal-Bose edge at low tau,
            # where further refinement buys ~nothing
            if (interacting and prev_rel is not None and rel <= 1e-3
                    and prev_rel / max(rel, 1e-300) < 8.0):
                return sol
            prev_rel = rel
        prev_energy = energy
        mu = mu_hat = sol.mu
        carry = sol
        n = 2 * n + 1
    raise ConvergenceError(
        f"TBA energy not stable to {tol} by {_TBA_MAX_NODES} nodes (gamma={gamma}, tau={tau})",
        best=carry,
        residual=math.nan,
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


def b2_ll(params: LLParams) -> float:
    """Second virial coefficient in units of the thermal wavelength.

    ``b2 = 1/(2 sqrt 2) - erfcx(x)/sqrt(2)`` with ``x = sqrt(gamma^2 / 2 tau)``:
    ``-1/(2 sqrt 2)`` for the ideal Bose endpoint, crossing over to
    ``+1/(2 sqrt 2)`` (free-fermion value) as ``x -> inf``.
    """
    gamma, tau = params.gamma, params.tau
    if tau <= 0.0:
        raise ValueError(f"b2 needs tau > 0, got {tau}")
    x = math.sqrt(gamma * gamma / (2.0 * tau))
    return 0.5 / _SQRT2 - erfcx(x) / _SQRT2


def e_res_high_T(params: LLParams) -> float:
    """Closed-form high-temperature shift per particle (units ``k_B T_D``):

    ``gamma - sqrt(pi / 2 tau) * gamma^2 * erfcx(sqrt(gamma^2 / 2 tau))``,
    evaluated as ``gamma * (1 - sqrt(pi) * x * erfcx(x))`` with
    ``x = gamma / sqrt(2 tau)`` so that it keeps full precision for
    ``gamma^2 >> tau``.

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
    return gamma * _erfcx_deficit(gamma / math.sqrt(2.0 * tau))
