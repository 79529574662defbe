"""Virial-expansion thermodynamics in ``d`` dimensions.

Everything here works from a truncated virial series for the pressure,
``PV/(N k_B T) = 1 + sum_k B_{k+1}(T) rho**k``, supplied as pairs of
coefficient evaluators ``(B_{k+1}, dB_{k+1}/dT)``.  Units: ``k_B = 1``
throughout; ``B_{k+1}`` carries ``(length)**(d*k)``.

Besides the six standard per-particle series (pressure, Helmholtz and
Gibbs potentials, entropy, internal energy, enthalpy) the module houses
the machinery around scale invariance: coefficient scaling checks
(``B_{k+1} * T**(d*k/alpha)`` constant), the order-by-order residual of
``E - (d/alpha) P V``, isoentropic state scaling, the one-dimensional
hard-core pressure-energy relation, and the small-``beta`` boundedness
classifier for the high-temperature internal-energy shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import EvaluationError, _attempt

__all__ = [
    "VirialModel",
    "VirialThermo",
    "ScaleInvarianceReport",
    "B2SmallBetaShape",
    "ShiftClassification",
    "thermo_from_virial",
    "thermo_from_virial_grid",
    "internal_pressure",
    "scale_invariance_residuals",
    "check_scale_invariance",
    "isoentropic_scale",
    "hardcore_1d",
    "classify_shift",
    "shift_from_b2",
    "leading_exponent",
    "power_law_model",
    "lieb_liniger_b2_model",
]

CoefficientPair = tuple[Callable[[float], float], Callable[[float], float]]


def _scaling(d, alpha_scaling=2.0) -> tuple[int, float]:
    """``(d, alpha_scaling)`` as an integer and a float, checked: ``d`` a
    positive integer and ``alpha_scaling`` positive (quadratic dispersion
    by default)."""
    if not (float(d) >= 1.0 and float(d).is_integer()):
        raise ValueError(f"d must be a positive integer, got {d}")
    if not (float(alpha_scaling) > 0.0):
        raise ValueError(f"alpha_scaling must be positive, got {alpha_scaling}")
    return int(d), float(alpha_scaling)


def _finite(f: Callable, T, what: str):
    """``f(T)``, checked finite: a value that is not, or that overflows,
    raises ``EvaluationError`` naming ``what`` and ``T``."""
    try:
        v = f(T)
    except OverflowError:
        v = math.inf
    try:
        if math.isfinite(v):
            return v
    except TypeError:
        return v  # symbolic passthrough: finiteness is the caller's business
    raise EvaluationError(f"{what} is not finite at T={T}", node=float(T))


@dataclass(frozen=True)
class VirialModel:
    """Truncated virial series: dimension, homogeneity exponent of the
    dispersion/interaction, and ordered coefficient evaluators.

    ``coeffs[k-1]`` holds ``(B_{k+1}, dB_{k+1}/dT)``; the truncation
    order is ``K_max = len(coeffs)``.
    """

    d: int
    alpha_scaling: float
    coeffs: tuple[CoefficientPair, ...]

    def __post_init__(self):
        d, alpha_scaling = _scaling(self.d, self.alpha_scaling)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alpha_scaling", alpha_scaling)
        pairs = tuple(tuple(pair) for pair in self.coeffs)
        if not pairs:
            raise ValueError("coeffs must hold at least the pair for B_2")
        for pair in pairs:
            if len(pair) != 2 or not all(callable(f) for f in pair):
                raise ValueError("each coefficient entry must be a (B, dB/dT) pair")
        object.__setattr__(self, "coeffs", pairs)

    @property
    def k_max(self) -> int:
        return len(self.coeffs)

    def evaluate(self, T: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``(B_{k+1}(T))_k`` and ``(dB_{k+1}/dT)_k``, checked finite."""
        values, slopes = [], []
        for k, (b, db) in enumerate(self.coeffs, start=2):
            values.append(_finite(b, T, f"B_{k}"))
            slopes.append(_finite(db, T, f"dB/dT_{k}"))
        return tuple(values), tuple(slopes)


@dataclass(frozen=True)
class VirialThermo:
    """Per-particle thermodynamics in units of ``k_B T`` (entropy in
    ``k_B``).  ``helmholtz``, ``gibbs`` and ``entropy`` are reported
    relative to the ideal-entropy part, which fixes no entropy constant.
    """

    pressure: float
    helmholtz: float
    gibbs: float
    entropy: float
    energy: float
    enthalpy: float


def _validate_state_point(rho, T) -> None:
    # duck-typed so symbolic rho/T pass through untouched
    try:
        ok = 0.0 < float(rho) < math.inf and 0.0 < float(T) < math.inf
    except TypeError:
        return
    if not ok:
        raise ValueError(f"need finite rho > 0 and T > 0, got rho={rho}, T={T}")


def _series(half_d: float, bs, dbs, powers, T) -> tuple:
    """The six series of :class:`VirialThermo`, in its field order, from
    ``B_{k+1}``, ``dB_{k+1}/dT`` and ``rho**k`` for ``k = 1 .. K_max``:
    scalars (symbolic ones too), or arrays with one entry per state point."""
    terms = list(enumerate(zip(bs, dbs, powers), start=1))
    pressure = 1 + sum(b * p for _, (b, _, p) in terms)
    helmholtz = half_d + sum(b * p / k for k, (b, _, p) in terms)
    gibbs = half_d + 1 + sum((k + 1) * b * p / k for k, (b, _, p) in terms)
    entropy = -sum((b + T * db) * p / k for k, (b, db, p) in terms)
    energy = half_d - T * sum(db * p / k for k, (_, db, p) in terms)
    enthalpy = half_d + 1 + sum((b - T * db / k) * p for k, (b, db, p) in terms)
    return pressure, helmholtz, gibbs, entropy, energy, enthalpy


def _powers(rho, k_max: int) -> list:
    """``rho**k`` for ``k = 1 .. k_max``."""
    return [rho**k for k in range(1, k_max + 1)]


def _once(cache: dict, fn: Callable, x, *args):
    """``fn(x, *args)``, or the exception it raised, computed once per
    distinct ``x`` of each type (``2 == 2.0``, but ``2**k`` is an int)."""
    key = (type(x), x)
    if key not in cache:
        cache[key] = _attempt(fn, x, *args)
    return cache[key]


def thermo_from_virial(model: VirialModel, rho, T) -> VirialThermo:
    """All six truncated virial series at the state point ``(rho, T)``."""
    _validate_state_point(rho, T)
    bs, dbs = model.evaluate(T)
    return VirialThermo(*_series(model.d / 2.0, bs, dbs, _powers(rho, model.k_max), T))


def thermo_from_virial_grid(model: VirialModel, points) -> list:
    """:func:`thermo_from_virial` at each numeric ``(rho, T)`` of
    ``points``, bit for bit, as the row ``(pressure, helmholtz, gibbs,
    entropy, energy, enthalpy)`` of Python floats, or the exception it
    raises (for a point that is no pair, the one its unpacking raises).
    The model is evaluated once per distinct ``T`` and ``rho**k`` taken
    once per distinct ``rho``, both in Python floats, and the six series
    are summed on arrays of all the points at once."""
    coeffs, powers = {}, {}
    rows, good, temps, bs, ps = [], [], [], [], []
    for point in points:
        try:
            rho, T = point
        except (TypeError, ValueError) as err:  # no (rho, T) pair: this point's own failure
            rows.append(err)
            continue
        # a point fails where thermo_from_virial fails it: on its state
        # point, then on its coefficients, then on rho**k
        row = _attempt(_validate_state_point, rho, T)
        if row is None:
            row = b = _once(coeffs, model.evaluate, T)
        if not isinstance(row, Exception):
            row = _once(powers, _powers, rho, model.k_max)
        if not isinstance(row, Exception):
            good.append(len(rows))
            temps.append(T)
            bs.append(b)
            ps.append(row)
        rows.append(row)
    if good:
        # (2, K_max, points) and (K_max, points): a row per order k
        values, slopes = np.array(bs, dtype=float).transpose(1, 2, 0)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in Python floats
            series = _series(model.d / 2.0, values, slopes, np.array(ps, dtype=float).T, np.array(temps, dtype=float))
        for i, row in zip(good, zip(*np.array(series).tolist())):
            rows[i] = row
    return rows


def internal_pressure(model: VirialModel, rho, T):
    """``pi_T = T (dP/dT)_V - P``: what interactions add to (or subtract
    from) the thermal pressure.  Vanishes for the ideal gas; equals
    ``-(d/alpha) * (P - P_ideal)`` in the dilute scale-invariant case.
    """
    _validate_state_point(rho, T)
    _, dbs = model.evaluate(T)
    return rho * T**2 * sum(db * rho**k for k, db in enumerate(dbs, start=1))


def scale_invariance_residuals(model: VirialModel, rho, T) -> tuple:
    """Order-by-order residual of ``E - (d/alpha) P V`` per particle in
    ``k_B T`` units, orders ``rho**0 .. rho**K_max``.

    Order zero is ``d/2 - d/alpha`` (zero only for quadratic dispersion);
    order ``k`` vanishes identically when ``B_{k+1} * T**(d*k/alpha)`` is
    constant in ``T``.  It is computed as the gap between ``dB_{k+1}/dT``
    and the slope ``-(d*k/alpha) B_{k+1} / T`` that scale invariance
    forces, which is exactly zero for :func:`power_law_model`.
    """
    _validate_state_point(rho, T)
    bs, dbs = model.evaluate(T)
    ratio = model.d / model.alpha_scaling
    residuals = [model.d / 2.0 - ratio]
    for k, (b, db) in enumerate(zip(bs, dbs), start=1):
        residuals.append((-db - k * ratio * b / T) * T / k * rho**k)
    return tuple(residuals)


@dataclass(frozen=True)
class ScaleInvarianceReport:
    """Constancy check of ``B_{k+1}(T) * T**(d*k/alpha)`` across sampled
    temperatures.  ``violations`` lists the offending orders ``k``.
    """

    products: tuple[tuple[float, ...], ...]
    relative_spread: tuple[float, ...]
    violations: tuple[int, ...]
    rtol: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_scale_invariance(
    model: VirialModel, T_samples: Sequence[float], rtol: float = 1e-9
) -> ScaleInvarianceReport:
    """Probe each coefficient for the power-law temperature dependence
    that scale invariance forces on it.  A coefficient or product that is
    not finite at a sample raises ``EvaluationError``, as in
    :meth:`VirialModel.evaluate`; ``rtol`` must be finite and ``>= 0``.
    """
    rtol = float(rtol)
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol}")
    temps = [float(t) for t in T_samples]
    if len(temps) < 2:
        raise ValueError("need at least two temperature samples")
    if any(t <= 0 or not math.isfinite(t) for t in temps):
        raise ValueError("temperature samples must be positive and finite")
    exponent = model.d / model.alpha_scaling
    products, spreads = [], []
    for k, (b, _) in enumerate(model.coeffs, start=1):
        p = exponent * k
        what = f"B_{k + 1}(T) * T**{p:g}"
        row = tuple(_finite(lambda t: float(b(t)) * t**p, t, what) for t in temps)
        scale = max(abs(v) for v in row)
        products.append(row)
        spreads.append((max(row) - min(row)) / scale if scale > 0.0 else 0.0)
    violations = [k for k, spread in enumerate(spreads, start=1) if spread > rtol]
    return ScaleInvarianceReport(tuple(products), tuple(spreads), tuple(violations), rtol)


def isoentropic_scale(
    state: Sequence[float], lambda_factor: float, d: int, alpha_scaling: float
) -> tuple[float, float, float]:
    """Map ``(E, T, V)`` along an isoentrope of a scale-invariant gas:
    ``V -> lambda**d V`` with ``E`` and ``T`` both scaled by
    ``lambda**-alpha``, so ``E * V**(alpha/d)`` and ``T * V**(alpha/d)``
    are invariants.
    """
    lam = float(lambda_factor)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lambda_factor must be positive and finite, got {lambda_factor}")
    d, alpha_scaling = _scaling(d, alpha_scaling)
    e, t, v = (float(s) for s in state)
    shrink = lam ** (-alpha_scaling)
    return (e * shrink, t * shrink, v * lam**d)


def hardcore_1d(P: float, L: float, a: float, rho: float) -> tuple[float, float]:
    """Energy and energy shift of the 1d hard-core Bose gas from its
    pressure: ``E = P L (1 - a rho) / 2``, so the shift
    ``E - P L / 2 = -(P L / 2) a rho`` is the excluded-volume deficit.
    """
    P, L, a, rho = float(P), float(L), float(a), float(rho)
    if a < 0.0 or rho < 0.0:
        raise ValueError("core diameter and density must be non-negative")
    if not all(map(math.isfinite, (P, L, a, rho))):
        raise ValueError("hardcore_1d needs finite arguments")
    covered = a * rho
    if covered >= 1.0:
        raise ValueError(
            f"excluded volume exceeds the box: a*rho = {covered} >= 1"
        )
    energy = 0.5 * P * L * (1.0 - covered)
    return energy, -0.5 * P * L * covered


# ---------------------------------------------------------------------------
# High-temperature boundedness of the energy shift (quadratic dispersion)


@dataclass(frozen=True)
class B2SmallBetaShape:
    """Small-``beta`` expansion of ``B_2``, as structured coefficients:

        B_2(beta) = sqrt_beta * beta**(1/2)
                  + beta_log_beta * beta*log(beta)
                  + beta * beta
                  + sum of extra (coeff, power, log_power) terms.

    ``extra`` terms use integer ``log_power >= 0``.  The shape is an
    *asserted* asymptotic form; fitting one from samples is ill-posed,
    so callers must know it (see :func:`leading_exponent` for a
    diagnostic only).
    """

    sqrt_beta: float = 0.0
    beta_log_beta: float = 0.0
    beta: float = 0.0
    extra: tuple[tuple[float, float, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "extra",
            tuple((float(c), float(p), int(q)) for c, p, q in self.extra),
        )
        for _, _, q in self.extra:
            if q < 0:
                raise ValueError("log powers must be non-negative integers")

    def terms(self) -> tuple[tuple[float, float, int], ...]:
        """All ``(coeff, power, log_power)`` terms, canonical slots first."""
        return (
            (self.sqrt_beta, 0.5, 0),
            (self.beta_log_beta, 1.0, 1),
            (self.beta, 1.0, 0),
        ) + self.extra

    def evaluate(self, beta: float) -> float:
        """``B_2(beta)`` from the expansion (small ``beta`` only)."""
        if not (beta > 0.0):
            raise ValueError("beta must be positive")
        lb = math.log(beta)
        return sum(c * beta**p * lb**q for c, p, q in self.terms() if c != 0.0)


@dataclass(frozen=True)
class ShiftClassification:
    """Boundedness of ``lim_{T->inf} e_res`` and, when bounded, the limit
    of ``e_res / rho`` (units energy x volume).
    """

    verdict: str
    limit_value: float | None = None

    def __post_init__(self):
        if self.verdict not in ("bounded", "unbounded", "indeterminate"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == "bounded") != (self.limit_value is not None):
            raise ValueError("limit_value must be present exactly when bounded")


def classify_shift(shape: B2SmallBetaShape | None, d: int) -> ShiftClassification:
    """Decide whether the high-temperature internal-energy shift stays
    finite, from the small-``beta`` shape of ``B_2`` (quadratic
    dispersion).

    A term ``c * beta**p * log(beta)**q`` feeds the shift density with
    ``c * beta**(p-1) * [(p - d/2) log(beta)**q + q log(beta)**(q-1)]``,
    so it is harmless when ``p > 1``, contributes ``(1 - d/2) c`` when
    ``(p, q) = (1, 0)``, contributes ``c`` when ``(p, q) = (1, 1)`` at
    ``d = 2`` exactly, cancels identically when ``(p, q) = (d/2, 0)``,
    and blows up otherwise.  ``None`` (caller cannot assert a shape)
    gives the ``indeterminate`` verdict.
    """
    d, _ = _scaling(d)
    if shape is None:
        return ShiftClassification("indeterminate")
    limit = 0.0
    for c, p, q in shape.terms():
        if c == 0.0:
            continue
        if not (math.isfinite(c) and math.isfinite(p)):
            return ShiftClassification("indeterminate")
        if p > 1.0:
            continue
        if p == 1.0 and q == 0:
            limit += (1.0 - d / 2.0) * c
        elif p == 1.0 and q == 1 and d == 2:
            limit += c
        elif q == 0 and p == d / 2.0:
            continue
        else:
            return ShiftClassification("unbounded")
    return ShiftClassification("bounded", limit)


def shift_from_b2(b2: float, db2_dbeta: float, d: int, rho: float, beta: float):
    """Dilute-limit shift density ``e_res = rho (dB_2/dbeta - (d/2) B_2/beta)``
    from point values of the second virial coefficient (quadratic
    dispersion, ``beta = 1/(k_B T)``).
    """
    if not (beta > 0.0):
        raise ValueError("beta must be positive")
    return rho * (db2_dbeta - (d / 2.0) * b2 / beta)


def leading_exponent(f: Callable[[float], float], betas: Sequence[float]) -> float:
    """Diagnostic log-log slope of ``|f|`` over the sampled ``betas``.

    A fitted slope near 0.5 or 1.0 *suggests* a ``sqrt(beta)`` or
    ``beta`` leading term but cannot distinguish logarithmic factors;
    use it to sanity-check an asserted :class:`B2SmallBetaShape`, never
    to infer one.
    """
    b = np.asarray([float(x) for x in betas], dtype=float)
    if b.size < 2 or np.any(b <= 0.0):
        raise ValueError("need at least two positive beta samples")
    y = np.asarray([abs(float(f(x))) for x in b], dtype=float)
    if np.any(y == 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("f must be finite and nonzero on the samples")
    return float(np.polyfit(np.log(b), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# Model factories


def power_law_model(
    d: int, alpha_scaling: float, amplitudes: Sequence[float]
) -> VirialModel:
    """Scale-invariant model: ``B_{k+1}(T) = a_k * T**(-d*k/alpha)``.

    The slope is ``p * B / T`` from the same ``B`` value, so it matches
    the power law to the last bit rather than through a second ``pow``.
    """
    exponent = -float(d) / float(alpha_scaling)

    def make_pair(k: int, a: float) -> CoefficientPair:
        p = exponent * k

        def b(T):
            return a * T**p

        return (b, lambda T: p * b(T) / T)

    pairs = tuple(make_pair(k, float(a)) for k, a in enumerate(amplitudes, start=1))
    return VirialModel(d=d, alpha_scaling=alpha_scaling, coeffs=pairs)


def lieb_liniger_b2_model(c: float) -> VirialModel:
    """One-dimensional delta-gas model (repulsion strength ``c``, units
    ``hbar = 2m = k_B = 1``): ``B_2(T)``, the crossover form of
    :func:`.lieb_liniger.b2_ll` times the thermal wavelength
    ``lambda_T = 2 sqrt(pi/T)``, with its closed-form slope
    ``dB_2/dT = -B_2/(2T) - c delta(x)/T^2``, where ``x = c/sqrt(2T)``
    and ``delta(x) = 1 - sqrt(pi) x erfcx(x)``.  No derivative is taken
    numerically.  The O(rho) shift ``-T (T dB_2/dT + B_2/2)`` per unit
    density is :func:`.lieb_liniger.e_res_high_T` at ``gamma = c``,
    ``tau = T``.

    ``B_2`` depends on density and temperature only through ``c**2/T``,
    so the evaluators are valid at any density.
    """
    from .lieb_liniger import _b2_closed_form

    c = float(c)
    if not (c >= 0.0 and math.isfinite(c)):
        raise ValueError(f"repulsion strength must be finite and >= 0, got {c}")
    pair = (lambda T: _b2_closed_form(c, T)[1], lambda T: _b2_closed_form(c, T)[2])
    return VirialModel(d=1, alpha_scaling=2.0, coeffs=(pair,))
