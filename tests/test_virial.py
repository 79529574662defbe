"""Tests for the d-dimensional virial thermodynamics module.

The module is mostly exact arithmetic on caller-supplied coefficient
evaluators, so the tests leans on identities (series consistency,
symbolic reduction of the scale-invariant specialization, classifier
versus brute-force limits) rather than frozen numbers.
"""

from __future__ import annotations

import math

import mpmath as mp
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdgas.anyon_abelian import b2_hardcore
from lowdgas.lieb_liniger import LLParams, b2_ll, e_res_high_T
from lowdgas.numerics import EvaluationError, derivative
from lowdgas.virial import (
    B2SmallBetaShape,
    ScaleInvarianceReport,
    ShiftClassification,
    VirialModel,
    check_scale_invariance,
    classify_shift,
    hardcore_1d,
    internal_pressure,
    isoentropic_scale,
    leading_exponent,
    lieb_liniger_b2_model,
    power_law_model,
    scale_invariance_residuals,
    shift_from_b2,
    thermo_from_virial,
)


def _models(draw_amplitudes, d, alpha=2.0):
    return power_law_model(d, alpha, draw_amplitudes)


# ---------------------------------------------------------------------------
# Model validation


def test_model_validation():
    pair = (lambda T: 0.0, lambda T: 0.0)
    with pytest.raises(ValueError, match="positive integer"):
        VirialModel(d=0, alpha_scaling=2.0, coeffs=(pair,))
    with pytest.raises(ValueError, match="alpha_scaling"):
        VirialModel(d=2, alpha_scaling=0.0, coeffs=(pair,))
    with pytest.raises(ValueError, match="alpha_scaling"):
        VirialModel(d=2, alpha_scaling=float("nan"), coeffs=(pair,))
    with pytest.raises(ValueError, match="B_2"):
        VirialModel(d=2, alpha_scaling=2.0, coeffs=())
    with pytest.raises(ValueError, match="pair"):
        VirialModel(d=2, alpha_scaling=2.0, coeffs=((lambda T: 0.0,),))
    for d in (2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive integer"):
            VirialModel(d=d, alpha_scaling=2.0, coeffs=(pair,))
    assert VirialModel(d=3.0, alpha_scaling=2, coeffs=(pair,)).d == 3
    assert power_law_model(2, 2.0, (0.5, 0.1)).k_max == 2


def test_state_point_validation():
    model = power_law_model(2, 2.0, (0.5,))
    inf = float("inf")
    for rho, T in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (inf, 1.0), (1.0, inf)):
        with pytest.raises(ValueError, match="rho > 0 and T > 0"):
            thermo_from_virial(model, rho, T)
        with pytest.raises(ValueError, match="rho > 0 and T > 0"):
            internal_pressure(model, rho, T)


def test_nonfinite_coefficient_reports_evaluation_error():
    model = VirialModel(
        d=1,
        alpha_scaling=2.0,
        coeffs=((lambda T: float("nan"), lambda T: 0.0),),
    )
    with pytest.raises(EvaluationError) as err:
        thermo_from_virial(model, 0.1, 2.0)
    assert err.value.node == 2.0
    model = VirialModel(
        d=1,
        alpha_scaling=2.0,
        coeffs=((lambda T: 0.0, lambda T: float("inf")),),
    )
    with pytest.raises(EvaluationError):
        scale_invariance_residuals(model, 0.1, 2.0)
    model = VirialModel(d=1, alpha_scaling=2.0, coeffs=((lambda T: 0.0, lambda T: 1e-300**-2),))
    with pytest.raises(EvaluationError, match=r"dB/dT_2 is not finite at T=2\.0"):
        thermo_from_virial(model, 0.1, 2.0)  # an overflow names the order too


# ---------------------------------------------------------------------------
# The six series


def test_ideal_gas_values():
    out = thermo_from_virial(power_law_model(2, 2.0, (0.0,)), 0.3, 5.0)
    assert out.pressure == 1.0
    assert out.helmholtz == 1.0
    assert out.gibbs == 2.0
    assert out.entropy == 0.0
    assert out.energy == 1.0
    assert out.enthalpy == 2.0
    assert internal_pressure(power_law_model(3, 2.0, (0.0,)), 0.3, 5.0) == 0.0


def test_two_coefficient_hand_values():
    # B2 = 0.5/T, B3 = -0.2/T^2 at rho = 0.2, T = 3
    out = thermo_from_virial(power_law_model(2, 2.0, (0.5, -0.2)), 0.2, 3.0)
    b2rho, b3rho2 = (0.5 / 3) * 0.2, (-0.2 / 9) * 0.04
    assert out.pressure == pytest.approx(1 + b2rho + b3rho2, rel=1e-15)
    assert out.helmholtz == pytest.approx(1 + b2rho + b3rho2 / 2, rel=1e-15)
    assert out.gibbs == pytest.approx(2 + 2 * b2rho + 1.5 * b3rho2, rel=1e-15)
    # B + T dB/dT = (1-k) B for B ~ T^-k
    assert out.entropy == pytest.approx(-(0.0 * b2rho + (-1.0) * b3rho2 / 2), rel=1e-15)
    assert out.energy == pytest.approx(1 + b2rho + b3rho2, rel=1e-15)
    assert out.enthalpy == pytest.approx(2 + 2 * (b2rho + b3rho2), rel=1e-15)


@given(
    d=st.integers(min_value=1, max_value=3),
    amps=st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4
    ),
    rho=st.floats(min_value=0.01, max_value=0.5),
    T=st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_potential_identities(d, amps, rho, T):
    # H = E + PV and G = A + PV and A = E - TS hold per particle in kT
    # units for any coefficients whatsoever, not only scale-invariant ones.
    def make(k, a):
        return (lambda t: a * t ** (-0.3 * k) + a, lambda t: -0.3 * k * a * t ** (-0.3 * k - 1))

    model = VirialModel(
        d=d, alpha_scaling=2.0, coeffs=tuple(make(k, a) for k, a in enumerate(amps, 1))
    )
    out = thermo_from_virial(model, rho, T)
    assert out.enthalpy == pytest.approx(out.energy + out.pressure, rel=1e-13, abs=1e-13)
    assert out.gibbs == pytest.approx(out.helmholtz + out.pressure, rel=1e-13, abs=1e-13)
    assert out.helmholtz == pytest.approx(out.energy - out.entropy, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# Scale invariance


@given(
    d=st.integers(min_value=1, max_value=3),
    amps=st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4
    ),
    rho=st.floats(min_value=0.01, max_value=0.5),
    T=st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_energy_pressure_residual_vanishes_when_coefficients_scale(d, amps, rho, T):
    model = power_law_model(d, 2.0, amps)
    out = thermo_from_virial(model, rho, T)
    for r in scale_invariance_residuals(model, rho, T):
        assert abs(r) < 1e-12
    assert out.energy == pytest.approx((d / 2.0) * out.pressure, rel=1e-12, abs=1e-12)
    if d == 2:
        assert out.enthalpy == pytest.approx(2.0 * out.energy, rel=1e-12, abs=1e-12)


def test_residual_order_zero_tracks_dispersion_exponent():
    model = power_law_model(2, 1.25, (0.5,))
    res = scale_invariance_residuals(model, 0.1, 2.0)
    assert res[0] == pytest.approx(1.0 - 2.0 / 1.25, rel=1e-15)
    assert abs(res[1]) < 1e-14  # matched power law still cancels order one


def test_residual_nonzero_for_delta_gas():
    # the order-one residual is the high-temperature shift per unit density:
    # -T (T B_2' + B_2/2) = e_res_high_T, which the coupling makes nonzero
    for c in (0.01, 0.1, 1.0, 10.0, 100.0):
        model = lieb_liniger_b2_model(c)
        for T in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e5):
            shift = e_res_high_T(LLParams(gamma=c, tau=T))
            for rho in (0.01, 0.5):
                res = scale_invariance_residuals(model, rho, T)
                assert res[0] == 0.0
                assert res[1] * T / rho == pytest.approx(shift, rel=1e-11)


def test_symbolic_reduction_of_scaled_series():
    # with B_{k+1} = T^-k (d = 2, unit amplitudes) the entropy, energy and
    # enthalpy series collapse to their hard-core forms; exact by symbols.
    T, rho = sp.symbols("T rho", positive=True)
    coeffs = tuple(
        (lambda t, k=k: t**-k, lambda t, k=k: -k * t ** (-k - 1)) for k in (1, 2, 3)
    )
    out = thermo_from_virial(VirialModel(d=2, alpha_scaling=2.0, coeffs=coeffs), rho, T)
    series = sum(T**-k * rho**k for k in (1, 2, 3))
    assert sp.simplify(out.energy - (1 + series)) == 0
    assert sp.simplify(out.enthalpy - (2 + 2 * series)) == 0
    assert sp.simplify(out.enthalpy - 2 * out.energy) == 0
    entropy_series = sum(sp.Rational(k - 1, k) * T**-k * rho**k for k in (1, 2, 3))
    assert sp.simplify(out.entropy - entropy_series) == 0
    for r in scale_invariance_residuals(
        VirialModel(d=2, alpha_scaling=2.0, coeffs=coeffs), rho, T
    ):
        assert sp.sympify(r).equals(0)


def test_check_scale_invariance_passes_power_law():
    report = check_scale_invariance(power_law_model(2, 2.0, (0.5, -0.2)), [0.5, 3.0, 40.0])
    assert report.ok
    assert report.violations == ()
    assert all(s <= 1e-12 for s in report.relative_spread)
    assert report.products[0] == pytest.approx((0.5, 0.5, 0.5), rel=1e-14)


def test_check_scale_invariance_flags_broken_order():
    model = VirialModel(
        d=2,
        alpha_scaling=2.0,
        coeffs=(
            (lambda T: 0.5 / T, lambda T: -0.5 / T**2),
            (lambda T: 0.3 / T**2 + 0.01, lambda T: -0.6 / T**3),
        ),
    )
    report = check_scale_invariance(model, [1.0, 10.0, 100.0], rtol=1e-6)
    assert not report.ok
    assert report.violations == (2,)


def test_check_scale_invariance_flags_delta_gas():
    report = check_scale_invariance(lieb_liniger_b2_model(1.0), [50.0, 200.0], rtol=1e-6)
    assert report.violations == (1,)


@pytest.mark.parametrize(
    "model, temps, what",
    [
        # B_2 overflows: lambda_T = 2 sqrt(pi/T) for the delta gas, 0.5/T
        (lieb_liniger_b2_model(1.0), [1e-320, 1.0], r"B_2\(T\) \* T\*\*0\.5"),
        (power_law_model(2, 2.0, (0.5,)), [1e-320, 1.0], r"B_2\(T\) \* T\*\*1"),
        # B_3 = 1/T**2 underflows to 0 and only T**2 overflows
        (power_law_model(2, 2.0, (0.5, 1.0)), [1e200, 1.0], r"B_3\(T\) \* T\*\*2"),
    ],
)
def test_check_scale_invariance_rejects_non_finite_product(model, temps, what):
    with pytest.raises(EvaluationError, match=what) as err:
        check_scale_invariance(model, temps)
    assert err.value.node == temps[0]


def test_check_scale_invariance_input_validation():
    model = power_law_model(1, 2.0, (0.5,))
    with pytest.raises(ValueError, match="two temperature samples"):
        check_scale_invariance(model, [1.0])
    with pytest.raises(ValueError, match="positive and finite"):
        check_scale_invariance(model, [1.0, -2.0])


def test_zero_coefficient_counts_as_scale_invariant():
    report = check_scale_invariance(power_law_model(2, 2.0, (0.0,)), [1.0, 7.0])
    assert report.ok and report.relative_spread == (0.0,)


# ---------------------------------------------------------------------------
# Internal pressure


def test_internal_pressure_matches_dilute_scale_invariant_form():
    for d, alpha in ((1, 2.0), (2, 2.0), (3, 2.0), (2, 1.5)):
        model = power_law_model(d, alpha, (0.7,))
        rho, T = 0.05, 4.0
        out = thermo_from_virial(model, rho, T)
        delta_p = (out.pressure - 1.0) * rho * T
        assert internal_pressure(model, rho, T) == pytest.approx(
            -(d / alpha) * delta_p, rel=1e-12
        )


def test_internal_pressure_hardcore_2d_statistics_model():
    # hard-core two-dimensional statistics coefficient: B2 proportional to
    # 1/T, so the interaction pressure is exactly cancelled: pi_T = -dP
    amp = b2_hardcore(0.3) * 2.0 * math.pi
    model = power_law_model(2, 2.0, (amp,))
    rho, T = 0.02, 7.0
    delta_p = (thermo_from_virial(model, rho, T).pressure - 1.0) * rho * T
    assert internal_pressure(model, rho, T) == pytest.approx(-delta_p, rel=1e-12)


# ---------------------------------------------------------------------------
# Isoentropic scaling


def test_isoentropic_identity_and_worked_case():
    state = (8.0, 2.0, 1.0)
    assert isoentropic_scale(state, 1.0, 2, 2.0) == state
    scaled = isoentropic_scale(state, 2.0, 2, 2.0)
    assert scaled == (2.0, 0.5, 4.0)
    assert scaled[0] * scaled[2] == pytest.approx(state[0] * state[2])


@given(
    lam=st.floats(min_value=0.1, max_value=10.0),
    d=st.integers(min_value=1, max_value=3),
    alpha=st.floats(min_value=0.5, max_value=4.0),
    e=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=0.1, max_value=10.0),
    v=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_isoentropic_invariants(lam, d, alpha, e, t, v):
    e2, t2, v2 = isoentropic_scale((e, t, v), lam, d, alpha)
    assert e2 * v2 ** (alpha / d) == pytest.approx(e * v ** (alpha / d), rel=1e-10)
    assert t2 * v2 ** (alpha / d) == pytest.approx(t * v ** (alpha / d), rel=1e-10)
    # pressure from E = (d/alpha) P V, so P V^(1 + alpha/d) is conserved
    p, p2 = (alpha / d) * e / v, (alpha / d) * e2 / v2
    gamma_tilde = 1.0 + alpha / d
    assert p2 * v2**gamma_tilde == pytest.approx(p * v**gamma_tilde, rel=1e-10)
    # dilution rho * lambda_T^d with lambda_T ~ T^(-1/alpha), rho = N/V
    assert (1.0 / v2) * t2 ** (-d / alpha) == pytest.approx(
        (1.0 / v) * t ** (-d / alpha), rel=1e-10
    )


def test_isoentropic_rejects_bad_factor():
    for lam in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="lambda_factor"):
            isoentropic_scale((1.0, 1.0, 1.0), lam, 2, 2.0)
    for d in (0, 2.5, float("nan")):
        with pytest.raises(ValueError, match="positive integer"):
            isoentropic_scale((1.0, 1.0, 1.0), 2.0, d, 2.0)
    for alpha in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError, match="alpha_scaling"):
            isoentropic_scale((1.0, 1.0, 1.0), 2.0, 2, alpha)


# ---------------------------------------------------------------------------
# 1d hard core


def test_hardcore_point_values():
    assert hardcore_1d(4.0, 0.5, 0.0, 2.0) == (1.0, 0.0)
    # P L = 2 with half the box excluded
    assert hardcore_1d(4.0, 0.5, 0.25, 2.0) == (0.5, -0.5)


@given(
    p=st.floats(min_value=0.01, max_value=10.0),
    ell=st.floats(min_value=0.1, max_value=10.0),
    a=st.floats(min_value=1e-6, max_value=1.0),
    frac=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_hardcore_shift_negative_and_consistent(p, ell, a, frac):
    rho = frac / a  # keeps a*rho = frac < 1
    energy, shift = hardcore_1d(p, ell, a, rho)
    assert shift < 0.0
    assert energy + abs(shift) == pytest.approx(0.5 * p * ell, rel=1e-12)
    # the shift is the departure from the scale-invariant half of PL
    assert shift == pytest.approx(energy - 0.5 * p * ell, rel=1e-12, abs=1e-15)


def test_hardcore_domain_errors():
    with pytest.raises(ValueError, match="excluded volume"):
        hardcore_1d(1.0, 1.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="non-negative"):
        hardcore_1d(1.0, 1.0, -0.1, 1.0)
    with pytest.raises(ValueError, match="finite"):
        hardcore_1d(float("nan"), 1.0, 0.1, 1.0)


# ---------------------------------------------------------------------------
# Boundedness classifier


def test_classifier_canonical_shapes():
    assert classify_shift(B2SmallBetaShape(sqrt_beta=0.7, beta=3.0), 1) == (
        ShiftClassification("bounded", 1.5)
    )
    assert classify_shift(B2SmallBetaShape(beta_log_beta=2.0, beta=7.0), 2) == (
        ShiftClassification("bounded", 2.0)
    )
    assert classify_shift(B2SmallBetaShape(beta=4.0), 3) == (
        ShiftClassification("bounded", -2.0)
    )


def test_classifier_divergent_shapes():
    assert classify_shift(B2SmallBetaShape(beta_log_beta=1.0), 1).verdict == "unbounded"
    assert classify_shift(B2SmallBetaShape(sqrt_beta=1.0), 2).verdict == "unbounded"
    assert classify_shift(B2SmallBetaShape(sqrt_beta=1.0), 3).verdict == "unbounded"
    assert classify_shift(B2SmallBetaShape(beta_log_beta=1.0), 3).verdict == "unbounded"
    slow = B2SmallBetaShape(extra=((0.5, 0.25, 0),))
    assert classify_shift(slow, 1).verdict == "unbounded"
    log_squared = B2SmallBetaShape(extra=((0.5, 1.0, 2),))
    assert classify_shift(log_squared, 2).verdict == "unbounded"


def test_classifier_harmless_terms():
    # beta^(d/2) solves the homogeneous problem and contributes nothing
    assert classify_shift(B2SmallBetaShape(sqrt_beta=5.0, beta=1.0), 1).limit_value == 0.5
    half_integer = B2SmallBetaShape(beta=1.0, extra=((9.0, 1.5, 0),))
    assert classify_shift(half_integer, 3).limit_value == -0.5
    # soft-core two-dimensional statistics shape: pure beta leading plus
    # a beta^(1+|alpha|) correction -> bounded with vanishing limit
    soft = B2SmallBetaShape(beta=0.8, extra=((0.4, 1.3, 0),))
    out = classify_shift(soft, 2)
    assert out.verdict == "bounded" and out.limit_value == 0.0


def test_classifier_indeterminate_cases():
    assert classify_shift(None, 2).verdict == "indeterminate"
    assert classify_shift(B2SmallBetaShape(beta=float("nan")), 1).verdict == "indeterminate"
    for d in (0, 1.5, float("inf")):
        with pytest.raises(ValueError, match="positive integer"):
            classify_shift(B2SmallBetaShape(beta=1.0), d)


def test_classification_invariants():
    with pytest.raises(ValueError, match="verdict"):
        ShiftClassification("mostly-bounded", None)
    with pytest.raises(ValueError, match="limit_value"):
        ShiftClassification("bounded", None)
    with pytest.raises(ValueError, match="limit_value"):
        ShiftClassification("unbounded", 1.0)


@pytest.mark.parametrize(
    "shape,d",
    [
        (B2SmallBetaShape(sqrt_beta=0.7, beta=3.0, extra=((0.4, 1.5, 0),)), 1),
        (B2SmallBetaShape(beta_log_beta=2.0, beta=7.0, extra=((0.4, 1.7, 0),)), 2),
        (B2SmallBetaShape(beta=4.0, extra=((0.5, 1.5, 0), (-0.2, 2.0, 1))), 3),
    ],
)
def test_classifier_agrees_with_brute_force_limit(shape, d):
    out = classify_shift(shape, d)
    assert out.verdict == "bounded"
    errors = []
    for T in (1e2, 1e4, 1e6):
        beta = 1.0 / T
        slope = derivative(shape.evaluate, beta, scale=beta * 1e-3)[0]
        e_res = shift_from_b2(shape.evaluate(beta), slope, d, 1.0, beta)
        errors.append(abs(e_res - out.limit_value))
    assert errors[2] <= errors[1] <= errors[0]
    assert errors[2] < 0.01 * max(abs(out.limit_value), 1e-3)


def test_delta_gas_small_beta_coefficients():
    # B2(beta) = -sqrt(pi/2) sqrt(beta) + 2 c beta + O(beta^(3/2)):
    # extract both coefficients numerically and classify
    c = 1.3
    b2 = lambda beta: b2_ll(LLParams(gamma=c, tau=1.0 / beta)) * 2.0 * math.sqrt(
        math.pi * beta
    )
    c1 = -math.sqrt(math.pi / 2.0)
    for beta in (1e-8, 1e-10):
        assert b2(beta) / math.sqrt(beta) == pytest.approx(c1, rel=1e-3)
        assert (b2(beta) - c1 * math.sqrt(beta)) / beta == pytest.approx(
            2.0 * c, rel=1e-3
        )
    verdict = classify_shift(B2SmallBetaShape(sqrt_beta=c1, beta=2.0 * c), 1)
    assert verdict.verdict == "bounded"
    # the limit c2/2 = c is the high-temperature shift asymptote (at unit
    # density the coupling and the shift share the same scale)
    assert verdict.limit_value == pytest.approx(c, rel=1e-15)
    assert e_res_high_T(LLParams(gamma=c, tau=1e8)) == pytest.approx(c, rel=1e-3)


def test_shift_from_b2_formula():
    assert shift_from_b2(0.0, 3.0, 1, 2.0, 0.5) == 6.0
    assert shift_from_b2(4.0, 0.0, 2, 1.0, 2.0) == -2.0
    with pytest.raises(ValueError, match="beta"):
        shift_from_b2(1.0, 1.0, 1, 1.0, 0.0)


def test_leading_exponent_diagnostic():
    betas = [1e-6, 1e-5, 1e-4]
    assert leading_exponent(lambda b: 2.0 * math.sqrt(b), betas) == pytest.approx(
        0.5, abs=1e-12
    )
    assert leading_exponent(lambda b: -3.0 * b, betas) == pytest.approx(1.0, abs=1e-12)
    # the delta gas B2 is sqrt(beta)-led at high temperature
    c = 1.0
    b2 = lambda beta: b2_ll(LLParams(gamma=c, tau=1.0 / beta)) * 2.0 * math.sqrt(
        math.pi * beta
    )
    assert leading_exponent(b2, [1e-10, 1e-9, 1e-8]) == pytest.approx(0.5, abs=1e-2)
    with pytest.raises(ValueError, match="positive beta"):
        leading_exponent(lambda b: b, [0.0, 1.0])
    with pytest.raises(ValueError, match="finite and nonzero"):
        leading_exponent(lambda b: 0.0, betas)


def test_shape_validation_and_terms():
    with pytest.raises(ValueError, match="log powers"):
        B2SmallBetaShape(extra=((1.0, 1.0, -1),))
    shape = B2SmallBetaShape(sqrt_beta=1.0, beta=2.0)
    assert shape.evaluate(0.01) == pytest.approx(0.1 + 0.02, rel=1e-15)
    with pytest.raises(ValueError, match="beta must be positive"):
        shape.evaluate(0.0)


# ---------------------------------------------------------------------------
# Coefficient factories


def test_delta_gas_model_wiring():
    model = lieb_liniger_b2_model(1.0)
    assert (model.d, model.alpha_scaling, model.k_max) == (1, 2.0, 1)
    b2_eval = model.coeffs[0][0]
    direct = b2_ll(LLParams(gamma=1.0, tau=100.0)) * 2.0 * math.sqrt(math.pi / 100.0)
    assert b2_eval(100.0) == pytest.approx(direct, rel=1e-15)
    with pytest.raises(ValueError, match="repulsion strength"):
        lieb_liniger_b2_model(-1.0)


@pytest.mark.parametrize("c", [0.0, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e4])
def test_delta_gas_model_pair_matches_mpmath(c):
    # B_2 = lambda_T (1/(2 sqrt 2) - erfcx(x)/sqrt 2), x = c/sqrt(2T), and
    # its T-derivative by mpmath at 50 digits, down to T = 1e-6 (x = 7e6)
    def b2_ref(T):
        x = c / mp.sqrt(2 * T)
        return 2 * mp.sqrt(mp.pi / T) * (1 / (2 * mp.sqrt(2)) - mp.exp(x * x) * mp.erfc(x) / mp.sqrt(2))

    b2, slope = lieb_liniger_b2_model(c).coeffs[0]
    for T in (1e-6, 5e-5, 1e-4, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5):
        with mp.workdps(50):
            ref, ref_slope = float(b2_ref(mp.mpf(T))), float(mp.diff(b2_ref, mp.mpf(T)))
        assert b2(T) == pytest.approx(ref, rel=1e-13)
        assert slope(T) == pytest.approx(ref_slope, rel=1e-13)


@pytest.mark.parametrize("T", [50.0, 100.0, 200.0])
def test_delta_gas_virial_shift_matches_closed_form(T):
    model = lieb_liniger_b2_model(1.0)
    out = thermo_from_virial(model, 1.0, T)
    e_res = (out.energy - 0.5 * out.pressure) * T
    assert e_res == pytest.approx(e_res_high_T(LLParams(gamma=1.0, tau=T)), rel=1e-13)


def test_delta_gas_shift_linear_in_density():
    model = lieb_liniger_b2_model(1.0)
    T = 100.0
    shifts = []
    for rho in (0.01, 0.02):
        out = thermo_from_virial(model, rho, T)
        shifts.append((out.energy - 0.5 * out.pressure) * T / rho)
    assert shifts[0] == pytest.approx(shifts[1], rel=1e-12)
