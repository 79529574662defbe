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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import composite_rule, erfcx, integrate

__all__ = [
    "StatisticsParameter",
    "SoftCoreBC",
    "B2Value",
    "b2_hardcore",
    "b2_softcore",
    "e_rel_abelian",
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


def _scatter_integral(a: float, sigma: int, eps: float, moment: int) -> float:
    """``integral exp(-eps t) t**(a - 1 + moment) / D(t) dt`` over
    ``[0, inf)`` with ``D = 1 + 2 sigma cos(pi a) t**a + t**(2a)``,
    reduced by ``u = t**a`` (the ``1/a`` Jacobian is included).

    ``moment = 0`` is the ``B_2`` integrand, ``moment = 1`` its
    ``-d/d(eps)`` appearing in the energy shift.
    """
    sc = sigma * math.cos(math.pi * a)
    inv_a = 1.0 / a
    # 1 + sc without cancellation (it reaches ~(pi*(1-a))^2/2 near the
    # fermionic pole); the denominator is then (1-u)^2 + 2u(1+sc)
    if sigma == +1:
        one_plus_sc = 2.0 * math.cos(0.5 * math.pi * a) ** 2
    else:
        one_plus_sc = 2.0 * math.sin(0.5 * math.pi * a) ** 2

    def integrand(u: np.ndarray) -> np.ndarray:
        # u**(m/a) * exp(-eps * u**(1/a)) / ((1-u)**2 + 2u(1+sc)), built in
        # place; at m = 0 the log term is a signed zero and is skipped
        with np.errstate(over="ignore"):
            f = np.power(u, inv_a)
            f *= -eps
            if moment:
                log_w = np.log(u)
                log_w *= moment * inv_a
                f += log_w
            np.exp(f, out=f)
            # at eps -> 0 the domain reaches u ~ 1e176, where den = inf
            # and f / den = 0, the integrand's limit
            den = np.subtract(1.0, u)
            np.square(den, out=den)
            den += np.multiply(u, 2.0 * one_plus_sc)
        f /= den
        return f

    rule = composite_rule(_panel_edges(a, sc, eps), n=_NODES)
    return integrate(integrand, rule) / a


def _scatter_part(a: float, sigma: int, eps: float, moment: int) -> float:
    """``(sigma/pi) sin(pi a)`` times ``a`` times the scattering integral
    of the given moment, shared by ``B_2`` and the energy shift."""
    if a == 0.0 or a == 1.0:
        # sin(pi a) kills the integral except against the sigma = +1
        # fermionic-point pole, whose limit is exp(-eps)
        return math.exp(-eps) if (a == 1.0 and sigma == +1) else 0.0
    if eps == 0.0:
        # exp factor gone; the moment-0 integral is theta / (a sin(theta))
        # with theta = acos(sigma cos(pi a)), that is pi a or pi (1 - a), and
        # sin(theta) = sin(pi a), so the part is sigma theta / pi.  Taken
        # without acos, which loses theta where sigma cos(pi a) rounds to -+1
        return a if sigma == +1 else a - 1.0
    coeff = (sigma / math.pi) * math.sin(math.pi * a)
    return coeff * (a * _scatter_integral(a, sigma, eps, moment))


def _reduced(alpha: float, bc: SoftCoreBC) -> tuple[float, int, float]:
    return abs(StatisticsParameter(alpha).delta), bc.sigma, bc.eps


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
    a, sigma, eps = _reduced(alpha, bc)
    hc = _hardcore(a)
    if math.isinf(eps):
        return B2Value(hc, (hc, 0.0, 0.0))
    bound = -2.0 * _exp_or_inf(eps) if sigma == -1 else 0.0
    scatter = _scatter_part(a, sigma, eps, moment=0)
    value = _in_range(hc + bound + (-2.0 * scatter), eps)
    return B2Value(value, (hc, bound, -2.0 * scatter))


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
    x = float(dilution)
    if not x >= 0.0 or math.isinf(x):
        raise ValueError(f"dilution must be finite and >= 0, got {dilution}")
    a, sigma, eps = _reduced(alpha, bc)
    if math.isinf(eps) or eps == 0.0:
        return 0.0
    bound = -_exp_or_inf(eps) if sigma == -1 else 0.0
    return _in_range(2.0 * x * eps * (bound + _scatter_part(a, sigma, eps, moment=1)), eps)


def e_rel_semion(bc: SoftCoreBC, dilution: float) -> float:
    """Closed-form energy shift at the semion point ``|delta| = 1/2``.

    Per unit dilution: ``sqrt(eps/pi) - eps erfcx(sqrt(eps))`` on the
    repulsive branch (maximum ~0.138 near ``eps = 0.67``, decaying like
    ``1/(2 sqrt(pi eps))``), and
    ``eps erfcx(sqrt(eps)) - 2 eps exp(eps) - sqrt(eps/pi)`` on the
    attractive one (asymptotically ``-2 eps exp(eps)``, which leaves
    float range from ``eps ~ 703`` on and raises ``ValueError`` there).
    """
    x = float(dilution)
    if not x >= 0.0 or math.isinf(x):
        raise ValueError(f"dilution must be finite and >= 0, got {dilution}")
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
