"""Shared numerical kernels for the gas-thermodynamics solvers.

Everything in this module is dimensionless plumbing: Gauss-Legendre
quadrature, Richardson-extrapolated finite differences, a maximum search
by Brent's method (golden-section steps with parabolic interpolation),
and the scaled complementary error function ``exp(x**2) * erfc(x)``
which stays finite for large ``x``.  Four routines have no caller in
the library: :func:`derivative` (the delta gas's ``dB_2/dT`` is a
closed form), :func:`solve_fixed_point` and :func:`find_root` (the 1d
solvers use Newton's method) and :func:`integrate` (the anyon integrals
are summed a chunk of rules at a time).  They stay only because the
benchmark's tracer looks them up by name.

:func:`gauss_legendre` builds its rule by Newton's method on the
three-term Legendre recurrence, vectorised over the nodes (Hale &
Townsend, SIAM J. Sci. Comput. 35, A652 (2013); Bogaert, SIAM J.
Sci. Comput. 36, A1008 (2014)).  That costs O(n^2) instead of the
O(n^3) of the Golub-Welsch eigensolve in numpy's ``leggauss``, and the
weights are more accurate: at n = 3231 the edge weight is within 2e-10
(relative) of its 40-digit value, where the eigensolve is off by 3e-7.
The one piece of state is a pair of bounded, thread-safe caches of the
``[-1, 1]`` reference rules and of their panel form for
:func:`composite_rule`, one per node count, whose arrays are read-only;
every other routine is pure and safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureRule",
    "FixedPointConfig",
    "BracketError",
    "ConvergenceError",
    "EvaluationError",
    "gauss_legendre",
    "composite_rule",
    "integrate",
    "solve_fixed_point",
    "find_root",
    "derivative",
    "golden_section_max",
    "erfcx",
]

_SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class EvaluationError(ValueError):
    """A function returned a non-finite value where a finite one was required.

    The offending abscissa is attached as ``node``.
    """

    def __init__(self, message: str, node: float):
        super().__init__(message)
        self.node = node


class ConvergenceError(RuntimeError):
    """An iteration exhausted its budget.  Carries the last iterate and
    the residual it stalled at (``best`` / ``residual``)."""

    def __init__(self, message: str, best=None, residual: float = math.nan):
        super().__init__(message)
        self.best = best
        self.residual = residual


class BracketError(ValueError):
    """A root bracket does not actually bracket a sign change."""


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for ``integral(f) ~ sum(w_i * f(x_i))``.

    ``domain`` is ``(a, b)``; weights of a rule on a finite domain sum
    to its length.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        a, b = self.domain
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        # each check asks for what must hold, so a NaN, for which every comparison
        # is False, fails it; the weight sum is not checked on an infinite domain
        rising = nodes[1:] > nodes[:-1]
        if np.count_nonzero(rising) != rising.size:
            raise ValueError("quadrature nodes must be strictly increasing")
        if nodes.size and not (nodes[0] > a and (nodes[-1] < b or not math.isfinite(b))):
            raise ValueError("quadrature nodes must lie strictly inside the domain")
        if np.count_nonzero(weights > 0.0) != weights.size:
            raise ValueError("quadrature weights must be positive")
        if math.isfinite(b) and not abs(weights.sum() - (b - a)) <= 1e-12 * max(abs(b - a), 1.0):
            raise ValueError("weights of a finite-domain rule must sum to the domain length")

    def __len__(self) -> int:
        return self.nodes.size


# Newton budget of the node builder, in recurrence sweeps.  From
# Tricomi's guesses the panel size 16, and single rules of 64, 128, ...,
# 4096 nodes, need at most 4 steps plus the sweep at the converged nodes
# that gives the weights.
_GL_MAX_EVALS = 10
_GL_STEP_TOL = 4.0 * _EPS


# The library asks for two n: the panels of the 1d solvers (both
# ladders) and of the anyon integrals (n = 16), and the upsampled rule of
# the 1d solvers' Cauchy moments (n = 96); the bound keeps a caller that
# asks gauss_legendre for many distinct n from growing memory.
@functools.lru_cache(maxsize=16)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, ascending.

    Newton's method on ``P_n`` for the ``ceil(n/2)`` nodes ``x >= 0``,
    from Tricomi's initial guesses, with ``P_n`` and ``P_{n-1}`` from the
    three-term recurrence; the other half is the mirror image.  Built
    once per ``n`` and shared, so both arrays are read-only.
    """
    k = np.arange((n + 1) // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[0] = 0.0  # P_n is odd, so the middle node stays exactly 0
    step = math.inf
    for _ in range(_GL_MAX_EVALS):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
        if step <= _GL_STEP_TOL:
            break
        dx = p1 / dp
        x = x - dx
        step = float(np.max(np.abs(dx)))
    else:
        raise ConvergenceError(
            f"Gauss-Legendre nodes for n={n} not converged in {_GL_MAX_EVALS} Newton steps",
            best=x,
            residual=step,
        )
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    h = n // 2  # nodes x < 0, mirrored from the largest down
    nodes, weights = np.concatenate((-x[::-1][:h], x)), np.concatenate((w[::-1][:h], w))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=16)
def _panel_reference(n: int, panels: int = 1) -> np.ndarray:
    """``[x + 1, w]`` of the ``n``-node ``[-1, 1]`` rule, repeated for
    ``panels`` panels, as a read-only ``(2, 1, n * panels)`` array: the
    panel ``[lo, lo + 2h]`` has the nodes ``lo + h (x + 1)`` and the
    weights ``h w``."""
    x, w = _legendre_rule(n)
    ref = np.tile(np.stack((x + 1.0, w)), panels)[:, None, :]
    ref.flags.writeable = False
    return ref


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` nodes mapped onto ``[a, b]``.

    Exact for polynomials of degree ``2n - 1``.  The nodes come from
    Newton's method on the Legendre recurrence in O(n^2) operations;
    they agree with numpy's ``leggauss`` to one ulp, and the weights are
    accurate to about 2e-10 relative at the edges of a 3231-node rule
    and to 1e-11 in its interior.  The ``[-1, 1]`` rule is built once
    per ``n`` in a process; each call maps it into new arrays.  A rule
    on a symmetric interval is exactly symmetric.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise ValueError(f"invalid finite interval ({a}, {b})")
    x, w = _legendre_rule(operator.index(n))
    half = 0.5 * (b - a)
    # centred map: a rule on a symmetric interval stays exactly symmetric
    return QuadratureRule(0.5 * (a + b) + half * x, half * w, (a, b))


def composite_rule(edges: Sequence[float], n: int = 16) -> QuadratureRule:
    """Composite Gauss-Legendre rule: ``n`` nodes on each panel of ``edges``.

    Every panel maps the same ``[-1, 1]`` rule of :func:`gauss_legendre`,
    which is built once per ``n`` in a process.  The panel widths serve
    both the check on ``edges`` and the map, and one product scales the
    reference nodes and weights of every panel at once.
    """
    if n < 1:
        raise ValueError("need at least one node")
    edges = np.asarray(edges, dtype=float)
    ok = edges.ndim == 1 and edges.size >= 2
    if ok:
        lo = edges[:-1]
        half = edges[1:] - lo
        # a difference of two floats is positive exactly where they
        # increase, and not at a NaN
        ok = np.count_nonzero(half > 0.0) == half.size
    if not ok:
        raise ValueError("edges must be a strictly increasing sequence of at least two points")
    half *= 0.5
    # (2, panels, n): row 0 becomes the nodes lo + half (x + 1), row 1
    # the weights half w
    scaled = _panel_reference(operator.index(n)) * half[:, None]
    nodes = scaled[0]
    nodes += lo[:, None]
    return QuadratureRule(nodes.ravel(), scaled[1].ravel(), (float(edges[0]), float(edges[-1])))


def _weighted_sum(weights: np.ndarray, values: np.ndarray, nodes: np.ndarray) -> float:
    """``sum(weights * values)``; a non-finite value raises
    :class:`EvaluationError` naming its node."""
    total = float(np.dot(weights, values))
    # weights are positive, so a non-finite value makes the sum non-finite:
    # a finite sum needs no per-node check
    if not math.isfinite(total) and not np.all(np.isfinite(values)):
        i = int(np.argmin(np.isfinite(values)))
        raise EvaluationError(f"integrand returned {float(values[i])} at node {float(nodes[i])}", float(nodes[i]))
    return total


def integrate(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """``sum(w_i * f(x_i))`` over the rule, deterministically.

    ``f`` must accept an ndarray of abscissae and return values of the
    same shape; a non-finite value raises :class:`EvaluationError` naming
    the offending node.
    """
    return _weighted_sum(rule.weights, np.asarray(f(rule.nodes), dtype=float), rule.nodes)


def _attempt(fn: Callable, *args):
    """``fn(*args)``, or the exception it raised: one point of a batch."""
    try:
        return fn(*args)
    except Exception as err:
        return err


# ---------------------------------------------------------------------------
# fixed point and root finding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointConfig:
    """Damped fixed-point iteration settings.

    ``damping`` in (0, 1]; each step is
    ``x <- (1 - damping) * x + damping * map(x)``.
    """

    damping: float = 0.5
    tol: float = 1e-10
    max_iter: int = 5000

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


def solve_fixed_point(
    map_: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: FixedPointConfig = FixedPointConfig(),
) -> np.ndarray:
    """Solve ``x = map(x)`` by damped iteration.

    Returns ``x`` with ``sup|x - map(x)| < cfg.tol`` (a float when ``x0``
    is scalar, else an ndarray).  Raises :class:`ConvergenceError`
    (carrying the last iterate and residual) if ``cfg.max_iter`` is
    exhausted.
    """
    scalar_in = np.ndim(x0) == 0
    if scalar_in:
        scalar_map = map_
        map_ = lambda v: np.asarray([scalar_map(float(v[0]))])  # noqa: E731
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    residual = math.inf
    for _ in range(cfg.max_iter):
        fx = np.asarray(map_(x), dtype=float)
        if fx.shape != x.shape:
            raise ValueError("map must preserve the shape of its argument")
        residual = float(np.max(np.abs(fx - x)))
        if not math.isfinite(residual):
            raise EvaluationError("fixed-point map produced a non-finite value", math.nan)
        if residual < cfg.tol:
            return float(x[0]) if scalar_in else x
        x += cfg.damping * (fx - x)
    raise ConvergenceError(
        f"fixed point not reached in {cfg.max_iter} iterations (residual {residual:.3e})",
        best=x,
        residual=residual,
    )


def find_root(
    f: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Root of ``f`` inside ``bracket`` by secant steps with a bisection
    fallback, so convergence is guaranteed for any continuous ``f`` with a
    sign change.

    Stops when ``|f(x)| < tol`` or the bracket width drops below ``tol``.
    Raises :class:`BracketError` when the endpoints have the same sign.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if hi < lo:
        lo, hi = hi, lo
    flo, fhi = float(f(lo)), float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"f({lo}) = {flo:.6g} and f({hi}) = {fhi:.6g} have the same sign"
        )
    for _ in range(4096):
        width = hi - lo
        if width < tol:
            break
        # secant proposal, kept only if it lands safely inside the bracket
        x = lo - flo * width / (fhi - flo)
        if not (lo + 0.01 * width < x < hi - 0.01 * width):
            x = 0.5 * (lo + hi)
        fx = float(f(x))
        if not math.isfinite(fx):
            raise EvaluationError(f"f returned {fx!r} at {x!r}", x)
        if abs(fx) < tol or fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        # enforce eventual bisection behaviour: if the bracket stagnates,
        # cut it in half outright
        if hi - lo > 0.75 * width:
            m = 0.5 * (lo + hi)
            fm = float(f(m))
            if abs(fm) < tol or fm == 0.0:
                return m
            if math.copysign(1.0, fm) == math.copysign(1.0, flo):
                lo, flo = m, fm
            else:
                hi, fhi = m, fm
    return lo if abs(flo) <= abs(fhi) else hi


def derivative(
    f: Callable[[float], float],
    x: float,
    scale: float = 1e-3,
) -> tuple[float, float]:
    """First derivative by central differences with one Richardson level.

    The step is ``h = scale * max(|x|, 1)``.  Returns
    ``(value, error_estimate)`` where the estimate is the (absolute)
    difference between the extrapolated and the fine-step stencil.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    h = scale * max(abs(x), 1.0)
    vals = [float(f(x + s)) for s in (+h, -h, +0.5 * h, -0.5 * h)]
    for s, v in zip((+h, -h, +0.5 * h, -0.5 * h), vals):
        if not math.isfinite(v):
            raise EvaluationError(f"f returned {v!r} at {x + s!r}", x + s)
    coarse = (vals[0] - vals[1]) / (2.0 * h)
    fine = (vals[2] - vals[3]) / h
    value = (4.0 * fine - coarse) / 3.0
    return value, abs(value - fine) + 1e-300


_CGOLD = 0.5 * (3.0 - math.sqrt(5.0))  # the golden-section fraction 1 - 1/phi


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """Locate the maximum of a unimodal ``f`` on ``[lo, hi]``.

    Returns ``(argmax, max)``: the best point evaluated and its value.
    Brent's method on ``-f`` (R. P. Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5): a parabola through the three best
    points gives the next step where it lands inside the bracket and is
    shorter than half the step before last; otherwise a golden-section
    step into the larger part of the bracket keeps the convergence
    guarantee of plain golden section.
    No step is shorter than a quarter of the stop width
    ``tol * max(1, |a| + |b|)`` of the bracket ``[a, b]`` around the best
    point, and every point is evaluated strictly inside ``(lo, hi)``.  It
    stops once both ends of the bracket lie within half the stop width of
    the best point, so the bracket is no wider than the stop width.  A
    ``tol`` below about ``1e-15`` stops at the float resolution of the
    best point instead.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    # x best so far, w second best, v the previous w; f values negated
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = -float(f(x))
    d = e = 0.0  # the last step and the one before it
    while True:
        width = tol * max(1.0, abs(a) + abs(b))
        # the shortest step; the eps term keeps x + step_min != x
        step_min = max(0.25 * width, 4.0 * _EPS * abs(x))
        if max(x - a, b - x) <= 2.0 * step_min:
            return x, -fx
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > step_min:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            before_last, e = e, d
            parabolic = abs(p) < abs(0.5 * q * before_last) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if x + d - a < 2.0 * step_min or b - (x + d) < 2.0 * step_min:
                d = step_min if x < mid else -step_min
        else:
            e = (b - x) if x < mid else (a - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= step_min else math.copysign(step_min, d))
        fu = -float(f(u))
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


# ---------------------------------------------------------------------------
# scaled complementary error function
# ---------------------------------------------------------------------------

def _erfcx_cf_tail(x: float) -> float:
    # Tail t of Laplace's continued fraction sqrt(pi)*exp(x^2)*erfc(x) =
    # 1/(x + t), accurate to full double precision for x >= 6 at this depth.
    t = 0.0
    for k in range(30, 0, -1):
        t = (0.5 * k) / (x + t)
    return t


def _erfcx_deficit(x: float) -> float:
    """``1 - sqrt(pi) * x * erfcx(x)`` for ``x >= 0``, which falls like
    ``1/(2 x^2)``; from ``x = 6`` on it is ``t/(x + t)``, free of the
    cancellation of the direct form."""
    if x < 6.0:
        return 1.0 - _SQRT_PI * x * erfcx(x)
    t = _erfcx_cf_tail(x)
    return t / (x + t)


def erfcx(x: float) -> float:
    """Scaled complementary error function ``exp(x**2) * erfc(x)``.

    Stays finite for arbitrarily large positive ``x`` (asymptotically
    ``1/(x*sqrt(pi))``); for negative ``x`` it grows like
    ``2*exp(x**2)`` and overflows below ``x ~ -26.6``, which is the
    honest value of the function there.
    """
    x = float(x)
    if x != x:  # NaN
        return x
    if x < 0.0:
        return 2.0 * math.exp(x * x) - erfcx(-x)
    if x < 6.0:
        return math.exp(x * x) * math.erfc(x)
    return 1.0 / (_SQRT_PI * (x + _erfcx_cf_tail(x)))

