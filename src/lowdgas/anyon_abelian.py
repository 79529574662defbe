"""Second virial coefficient of a dilute gas of anyons in two dimensions
with a soft-core two-body boundary condition.

The statistics parameter ``alpha`` only ever enters through its reduced
form: every quantity here is periodic in ``alpha`` with period 2 and
even about the integers, so the decomposition ``alpha = 2j + delta``
with integer ``j`` and ``|delta| <= 1`` carries all of the physics.
The boundary condition at the two-body coincidence point brings a sign
``sigma`` and a dimensionless core strength ``eps``: ``sigma = +1``
recovers the hard-core gas as ``eps -> inf``, while ``sigma = -1``
supports a two-body bound state of energy ``-eps k_B T`` whose
``exp(eps)`` weight dominates the attractive branch.

The scattering part of ``B_2`` is a one-dimensional integral whose
integrand carries an integrable ``t**(|delta|-1)`` endpoint singularity.
The substitution ``u = t**|delta|`` removes it; what is left is smooth
except for a Lorentzian-like peak at ``u = 1`` (opened up whenever
``sigma * cos(pi delta)`` approaches ``-1``) and the shoulder where the
exponential cuts off, and the panel layout simply concentrates nodes at
those two places.  At the integer points the peak and the vanishing
``sin(pi delta)`` prefactor cancel analytically, so those are served by
their exact limits rather than by quadrature.

Points are evaluated in batches: each lays out its own panel rule, and
the rules are integrated in chunks, so a single call is a batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import _attempt, _panel_reference, _rule_faults, _weighted_sum, erfcx

__all__ = [
    "StatisticsParameter",
    "SoftCoreBC",
    "B2Value",
    "b2_hardcore",
    "b2_softcore",
    "b2_softcore_grid",
    "e_rel_abelian",
    "e_rel_abelian_grid",
    "e_rel_semion",
    "y_dilute",
]


@dataclass(frozen=True)
class StatisticsParameter:
    """Statistics parameter reduced to ``alpha = 2j + delta``, ``|delta| <= 1``.

    ``j`` is the nearest integer to ``alpha/2`` (ties go to the even
    integer, which only affects which of the two equivalent ``|delta| = 1``
    representatives is picked), so the reduction is exact in floating
    point: ``2*j + delta == alpha``.
    """

    alpha: float
    j: int = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        j = round(a / 2.0)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "delta", a - 2.0 * j)


@dataclass(frozen=True)
class SoftCoreBC:
    """Soft-core boundary condition: sign ``sigma`` and core strength
    ``eps = beta * kappa**2 / M >= 0``.

    ``eps = inf`` is a symbolic sentinel for the hard-core limit and is
    only meaningful on the repulsive branch; ``sigma = -1`` with
    ``eps = inf`` is rejected because its bound-state weight ``exp(eps)``
    has no limit.
    """

    sigma: int
    eps: float

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        object.__setattr__(self, "sigma", int(self.sigma))
        e = float(self.eps)
        object.__setattr__(self, "eps", e)
        if math.isnan(e) or e < 0.0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if math.isinf(e) and self.sigma == -1:
            raise ValueError(
                "eps = inf only makes sense on the repulsive branch "
                "(sigma = +1); the attractive bound-state weight exp(eps) diverges"
            )

    @property
    def hard_core(self) -> bool:
        return math.isinf(self.eps)


@dataclass(frozen=True)
class B2Value:
    """``B_2`` in units of the squared thermal wavelength, split into its
    hard-core, bound-state, and scattering-integral parts (``value`` is
    their exact floating-point sum)."""

    value: float
    parts: tuple[float, float, float]

    @property
    def hard_core_part(self) -> float:
        return self.parts[0]

    @property
    def bound_state_part(self) -> float:
        return self.parts[1]

    @property
    def scattering_part(self) -> float:
        return self.parts[2]


def _exp_or_inf(x: float) -> float:
    """``exp(x)``, ``inf`` where it exceeds float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _in_range(value: float, eps: float) -> float:
    """``value``, or the domain error of an attractive core whose
    bound-state weight ``exp(eps)`` takes the result out of float range."""
    if math.isfinite(value):
        return value
    raise ValueError(f"eps={eps!r}: the result exceeds float range (the bound-state weight is exp(eps))")


def b2_hardcore(alpha: float) -> float:
    """Hard-core anyon ``B_2 / lambda_T**2 = -1/4 + |delta| - delta**2 / 2``.

    Runs from ``-1/4`` at the bosonic points to ``+1/4`` at the
    fermionic ones, period 2 and even about the integers.
    """
    return _hardcore(abs(StatisticsParameter(alpha).delta))


def _hardcore(d: float) -> float:
    """``b2_hardcore`` at the reduced ``|delta| = d``."""
    return -0.25 + d - 0.5 * d * d


# ---------------------------------------------------------------------------
# scattering integral
# ---------------------------------------------------------------------------

_NODES = 32
_EXP_CUT = 45.0  # exp(-45) ~ 3e-20: where the integrand stops mattering
_EXP_END = 60.0  # domain truncation; relative tail error ~ exp(-60)
_LADDER = tuple(2.0**-k for k in range(13))  # the bulk ladder below min(1, u_star)
# the factors 1 -+ w of the refinement edges centre * (1 -+ w), for
# w = 1/2, 1/4, ..., 2^-40 (a refinement width is at least 1e-10)
_REFINE = tuple(c for k in range(1, 41) for c in (1.0 - 2.0**-k, 1.0 + 2.0**-k))
_CHUNK_NODES = 4096  # nodes integrated at once (a rule has ~770): bounds a batch's memory


def _refined(centre: float, width: float) -> list[float]:
    """Edges ``centre * (1 -+ w)`` for ``w = 1/2, 1/4, ...`` down to the
    first ``w <= width``, which is ``2^-levels``."""
    levels = 1 - math.frexp(width)[1]
    return [centre * f for f in _REFINE[: 2 * levels]]


def _panel_edges(a: float, sc: float, eps: float) -> np.ndarray:
    """Breakpoints for the transformed integrand
    ``exp(-eps * u**(1/a)) * u**(m/a) / (1 + 2*sc*u + u**2)`` on
    ``[0, u_end]``: a geometric ladder through the bulk plus dyadic
    refinement at the two sharp features (the near-pole peak at
    ``u = 1`` when ``sc -> -1``, and the exponential shoulder near
    ``u_star``, whose relative width is ``~ a``)."""
    u_star = (_EXP_CUT / eps) ** a
    u_end = (_EXP_END / eps) ** a
    base = min(1.0, u_star)
    pts = [base * s for s in _LADDER]
    pts.append(u_end)
    v = base
    while v < u_end:
        v *= 2.0
        pts.append(v)
    if sc < -0.5 and u_end > 1.0:
        pts += _refined(1.0, max(min(math.sqrt(2.0 * (1.0 + sc)), a) / 16.0, 1e-10))
    if a < 0.5:
        pts += _refined(u_star, max(a / 16.0, 1e-10))
    # drop near-coincident edges: panels narrower than 1e-11 of their
    # position would alias the Gauss nodes onto each other in double; the
    # gap is relative at every scale, since at large eps the whole domain
    # [0, u_end] shrinks far below 1.  Every point is positive, and only
    # refinement and the last doubling overshoot u_end
    pts.sort()
    edges = [0.0]
    last = 0.0
    for p in pts:
        if p > u_end:
            break
        if p - last > 1e-11 * p:
            edges.append(p)
            last = p
    return np.asarray(edges)


def _scatter_parts(keys, moment: int) -> dict:
    """The part ``(sigma/pi) sin(pi a) a I``, or the exception it raised, at
    each distinct ``(a, sigma, eps)`` of ``keys``: ``I`` integrates
    ``exp(-eps t) t**(a - 1 + moment) / (1 + 2 sigma cos(pi a) t**a + t**(2a))``
    over ``[0, inf)``; ``moment = 0`` for ``B_2``, 1 for its ``-d/d(eps)``."""
    parts: dict = {}
    chunk, size = [], 0
    for key in dict.fromkeys(keys):
        a, sigma, eps = key
        if a == 0.0 or a == 1.0:
            # sin(pi a) kills the integral except against the sigma = +1
            # fermionic-point pole, whose limit is exp(-eps)
            parts[key] = math.exp(-eps) if (a == 1.0 and sigma == +1) else 0.0
        elif eps == 0.0:
            # exp factor gone; the moment-0 integral is theta / (a sin(theta))
            # with theta = acos(sigma cos(pi a)), that is pi a or pi (1 - a), and
            # sin(theta) = sin(pi a), so the part is sigma theta / pi.  Taken
            # without acos, which loses theta where sigma cos(pi a) rounds to -+1
            parts[key] = a if sigma == +1 else a - 1.0
        elif math.isinf(eps):
            parts[key] = 0.0
        else:
            try:
                edges = _panel_edges(a, sigma * math.cos(math.pi * a), eps)
            except Exception as err:  # this key's own failure
                parts[key] = err
                continue
            nodes = _NODES * (edges.size - 1)
            if chunk and size + nodes > _CHUNK_NODES:
                _integrate_chunk(chunk, moment, parts)
                chunk, size = [], 0
            chunk.append((key, edges, nodes))
            size += nodes
    if chunk:
        _integrate_chunk(chunk, moment, parts)
    return parts


def _integrate_chunk(chunk: list, moment: int, parts: dict) -> None:
    """Store in ``parts`` the scattering part of each ``(key, edges, nodes)``:
    the ``u = t**a`` panel rules of :func:`~lowdgas.numerics.composite_rule`
    laid end to end and checked at once, one pass of the integrand
    ``exp(-eps * u**(1/a)) * u**(m/a) / ((1-u)**2 + 2u(1+sc))``, a sum per key."""
    keys, edges, counts = zip(*chunk)
    join = np.concatenate if len(edges) > 1 else lambda one: one[0]  # a single key's edges as they are
    lo = join([e[:-1] for e in edges])
    half = join([e[1:] for e in edges]) - lo
    half *= 0.5
    scaled = _panel_reference(_NODES) * half[:, None]  # nodes and weights, a row per panel
    u = scaled[0]
    u += lo[:, None]
    nodes, weights = u.ravel(), scaled[1].ravel()
    bounds = [0, *itertools.accumulate(counts)]
    faults = _rule_faults(nodes, weights, bounds, [0.0] * len(edges), [float(e[-1]) for e in edges])
    # per key 1/a, -eps, m/a and 2(1 + sc), 1 + sc free of cancellation near the
    # fermionic pole: one value per panel row, or one key's scalars
    table = [
        (1.0 / a, -eps, moment * (1.0 / a), 4.0 * (math.cos if sigma == +1 else math.sin)(0.5 * math.pi * a) ** 2)
        for a, sigma, eps in keys
    ]
    if len(table) == 1:
        inv_a, neg_eps, log_scale, two_ops = table[0]
    else:
        inv_a, neg_eps, log_scale, two_ops = np.repeat(table, [e.size - 1 for e in edges], axis=0).T[:, :, None]
    # a value beyond float range fails only its own key's sum; at eps -> 0
    # the domain reaches u ~ 1e176, where f / inf = 0 is the integrand's limit
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = np.power(u, inv_a)
        f *= neg_eps
        if moment:  # at m = 0 the log term is a signed zero and is skipped
            log_w = np.log(u)
            log_w *= log_scale
            f += log_w
        np.exp(f, out=f)
        den = np.subtract(1.0, u)
        np.square(den, out=den)
        den += np.multiply(u, two_ops)
        f /= den
    f = f.ravel()
    for key, fault, start, stop in zip(keys, faults, bounds, bounds[1:]):
        a, sigma, _ = key
        try:
            if fault:
                raise ValueError(fault)
            total = _weighted_sum(weights[start:stop], f[start:stop], nodes[start:stop])
            parts[key] = (sigma / math.pi) * math.sin(math.pi * a) * (a * (total / a))
        except ValueError as err:  # this key's own failure
            parts[key] = err


def _evaluate(plans: list, moment: int) -> list:
    """Each point's value or exception from its plan ``(keys, finish)``, the
    parts it needs and ``finish(parts)``, or the exception its checks raised."""
    parts = _scatter_parts([k for plan in plans if isinstance(plan, tuple) for k in plan[0]], moment)
    return [_attempt(plan[1], parts) if isinstance(plan, tuple) else plan for plan in plans]


def _one(plan: tuple, moment: int):
    return plan[1](_scatter_parts(plan[0], moment))  # a batch of one point


def _scatter(parts: dict, key: tuple) -> float:
    if isinstance(part := parts[key], Exception):
        raise part
    return part


def _reduced(alpha: float, bc: SoftCoreBC) -> tuple[float, int, float]:
    return abs(StatisticsParameter(alpha).delta), bc.sigma, bc.eps


def _b2_value(key: tuple, parts: dict) -> B2Value:
    a, sigma, eps = key
    hc = _hardcore(a)
    if math.isinf(eps):
        return B2Value(hc, (hc, 0.0, 0.0))
    bound = -2.0 * _exp_or_inf(eps) if sigma == -1 else 0.0
    scatter = _scatter(parts, key)
    value = _in_range(hc + bound + (-2.0 * scatter), eps)
    return B2Value(value, (hc, bound, -2.0 * scatter))


def _b2_plan(alpha: float, bc: SoftCoreBC) -> tuple:
    key = _reduced(alpha, bc)
    return (key,), lambda parts: _b2_value(key, parts)


def b2_softcore(alpha: float, bc: SoftCoreBC) -> B2Value:
    """Soft-core anyon ``B_2 / lambda_T**2``, split into parts.

    ``value = b2_hardcore(alpha)
              - 2 * [exp(eps) * (sigma < 0) + scattering integral]``;
    the hard-core sentinel ``eps = inf`` (repulsive branch) returns
    ``b2_hardcore`` exactly.  On the attractive branch the bound-state
    part exceeds float range for ``eps`` beyond ~709.78 (the value itself
    is below -1.8e308 there, so this is not a numerical artifact), and
    that raises ``ValueError`` naming ``eps``.
    """
    key = _reduced(alpha, bc)
    return _b2_value(key, _scatter_parts((key,), 0))


def b2_softcore_grid(points) -> list:
    """:func:`b2_softcore` at each ``(alpha, sigma, eps)`` of ``points``, or
    the exception it raises, with the integrals of all points in chunks."""
    return _evaluate([_attempt(lambda a, s, e: _b2_plan(a, SoftCoreBC(s, e)), *p) for p in points], 0)


def _dilution(dilution: float) -> float:
    x = float(dilution)
    if not x >= 0.0 or math.isinf(x):
        raise ValueError(f"dilution must be finite and >= 0, got {dilution}")
    return x


def _e_rel_value(x: float, key: tuple, parts: dict) -> float:
    a, sigma, eps = key
    if math.isinf(eps) or eps == 0.0:
        return 0.0
    bound = -_exp_or_inf(eps) if sigma == -1 else 0.0
    return _in_range(2.0 * x * eps * (bound + _scatter(parts, key)), eps)


def _e_rel_plan(alpha: float, bc: SoftCoreBC, dilution: float) -> tuple:
    x = _dilution(dilution)
    key = _reduced(alpha, bc)
    return (key,), lambda parts: _e_rel_value(x, key, parts)


def e_rel_abelian(alpha: float, bc: SoftCoreBC, dilution: float) -> float:
    """Relative internal-energy shift ``Delta E / E`` of the dilute anyon
    gas, to first order in ``dilution = rho * lambda_T**2``.

    Equal to ``2 dilution eps [-exp(eps) (sigma<0) + scattering moment]``,
    which is exactly ``dilution * eps * d(B_2/lambda_T^2)/d(eps)``: the
    combination ``E - (E_ideal + ...)`` probed by the scale-invariance
    anomaly.  Sign equals ``sigma`` for non-integer ``alpha``; vanishes
    identically at the bosonic points on the repulsive branch and in the
    hard-core limit (where ``B_2 / lambda_T**2`` is a pure number).  On
    the attractive branch a shift beyond float range (from ``eps ~ 703``
    at ``dilution = 1``) raises ``ValueError`` naming ``eps``.
    """
    x = _dilution(dilution)
    key = _reduced(alpha, bc)
    return _e_rel_value(x, key, _scatter_parts((key,), 1))


def e_rel_abelian_grid(points) -> list:
    """:func:`e_rel_abelian` at each ``(alpha, sigma, eps, dilution)`` of
    ``points``, or the exception it raises, like :func:`b2_softcore_grid`."""
    return _evaluate([_attempt(lambda a, s, e, x: _e_rel_plan(a, SoftCoreBC(s, e), x), *p) for p in points], 1)


def e_rel_semion(bc: SoftCoreBC, dilution: float) -> float:
    """Closed-form energy shift at the semion point ``|delta| = 1/2``.

    Per unit dilution: ``sqrt(eps/pi) - eps erfcx(sqrt(eps))`` on the
    repulsive branch (maximum ~0.138 near ``eps = 0.67``, decaying like
    ``1/(2 sqrt(pi eps))``), and
    ``eps erfcx(sqrt(eps)) - 2 eps exp(eps) - sqrt(eps/pi)`` on the
    attractive one (asymptotically ``-2 eps exp(eps)``, which leaves
    float range from ``eps ~ 703`` on and raises ``ValueError`` there).
    """
    x = _dilution(dilution)
    eps = bc.eps
    if math.isinf(eps):
        return 0.0
    root = math.sqrt(eps)
    scatter = math.sqrt(eps / math.pi) - eps * erfcx(root)
    if bc.sigma == +1:
        return x * scatter
    return _in_range(x * (-scatter - 2.0 * eps * _exp_or_inf(eps)), eps)


def y_dilute(x: float, alpha: float) -> float:
    """Leading-order compressibility factor ``PV/(N k_B T)`` of the
    hard-core gas: ``1 - (1 - 4|delta| + 2 delta**2) x / 4``, i.e.
    ``1 + b2_hardcore(alpha) * x``.

    The slope changes sign at ``|delta| = 1 - sqrt(1/2)``; beyond the
    shown first order the expansion needs ``x << 1``.
    """
    x = float(x)
    if not x >= 0.0 or math.isinf(x):
        raise ValueError(f"x must be finite and >= 0, got {x}")
    return 1.0 + b2_hardcore(alpha) * x
