"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single pass/fail line
under ``pytest -v``.  These are deliberately coarse, user-visible
contracts (endpoint values, curve shapes, closed-form oracles, solver
cross-checks, CLI determinism) rather than unit-level checks; the
module test files hold the fine-grained ones.  Runtime budgets are
asserted where the contract includes one.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from lowdgas import (
    B2SmallBetaShape,
    LLParams,
    NACSSystem,
    SoftCoreBC,
    b2_hardcore,
    b2_ll,
    b2_nacs_general,
    b2_nacs_isotropic,
    b2_softcore,
    classify_shift,
    composite_rule,
    derivative,
    e_rel_abelian,
    e_rel_nacs,
    e_rel_semion,
    e_res_finite_T,
    e_res_high_T,
    e_res_zero_T,
    erfcx,
    golden_section_max,
    integrate,
    lieb_liniger_b2_model,
    power_law_model,
    scale_invariance_residuals,
    shift_from_b2,
    solve_ground_state,
)
from lowdgas.cli import main


def test_01_ground_state_energy_endpoints():
    """Scaled T=0 energy hits the free-fermion value at strong coupling
    and the mean-field line at weak coupling, in under five seconds."""
    t0 = time.perf_counter()
    strong = solve_ground_state(1e4).energy
    weak = solve_ground_state(0.01).energy
    elapsed = time.perf_counter() - t0
    assert strong == pytest.approx(math.pi**2 / 3.0, rel=5e-3)
    assert weak / 0.01 == pytest.approx(1.0, rel=0.10)
    assert elapsed < 5.0


def test_02_zero_temperature_shift_peak_location():
    """The T=0 energy-pressure shift per particle peaks at an
    intermediate coupling in [4.5, 4.9], found by Brent's method."""
    t0 = time.perf_counter()
    gamma_star, _ = golden_section_max(e_res_zero_T, 1.0, 10.0, tol=1e-6)
    elapsed = time.perf_counter() - t0
    assert 4.5 <= gamma_star <= 4.9
    assert elapsed < 60.0


def test_03_shift_curves_positive_vanishing_unimodal():
    """At every sampled temperature the shift curve is positive, decays
    to below 1e-2 at both coupling extremes, and rises to a single
    interior peak before falling."""
    t0 = time.perf_counter()
    gammas = np.sort(np.append(np.geomspace(1e-3, 1e4, 13), 4.7))
    for tau in (0.0, 0.1, 0.5, 1.0, 2.0):
        if tau == 0.0:
            values = [e_res_zero_T(g) for g in gammas]
        else:
            values = [e_res_finite_T(LLParams(gamma=g, tau=tau)) for g in gammas]
        values = np.asarray(values)
        assert np.all(values > 0.0), f"tau={tau}: shift must stay positive"
        assert abs(values[0]) < 1e-2 and abs(values[-1]) < 1e-2
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1, f"tau={tau}: peak must be interior"
        diffs = np.diff(values)
        assert np.all(diffs[:peak] > 0.0), f"tau={tau}: must rise to the peak"
        assert np.all(diffs[peak:] < 0.0), f"tau={tau}: must fall past the peak"
    assert time.perf_counter() - t0 < 600.0


def test_04_high_temperature_shift_saturates_at_gamma():
    """e_res_high_T/gamma climbs monotonically to 1 as tau/gamma^2 grows.
    The shortfall depends on tau/gamma^2 alone; at tau = 100 gamma^2 it
    equals sqrt(pi/200)*erfcx(sqrt(1/200)) = 11.6% (so the 1% band is
    not yet reached there), and it is inside 1% by tau/gamma^2 = 1e5."""
    t0 = time.perf_counter()
    boundary_gap = math.sqrt(math.pi / 200.0) * erfcx(math.sqrt(1.0 / 200.0))
    assert 0.115 < boundary_gap < 0.117
    for gamma in (0.1, 0.3, 1.0, 3.0, 10.0):
        ratios = [
            e_res_high_T(LLParams(gamma=gamma, tau=r * gamma**2)) / gamma
            for r in (1e2, 1e3, 1e4, 1e5)
        ]
        assert ratios[0] == pytest.approx(1.0 - boundary_gap, abs=1e-12)
        assert ratios == sorted(ratios) and ratios[-1] < 1.0
        assert abs(ratios[-1] - 1.0) < 0.01
    assert time.perf_counter() - t0 < 1.0


def test_05_pair_coefficient_endpoints():
    """b2 equals -1/(2 sqrt 2) exactly on the free-boson axis and
    approaches +1/(2 sqrt 2) on the fermionized side.  The residual gap
    is erfcx(x)/sqrt(2): still 3.99e-3 at gamma^2/2tau = 1e4, inside
    1e-3 from gamma^2/2tau = 1e6 on."""
    t0 = time.perf_counter()
    fermi_limit = 0.5 / math.sqrt(2.0)
    for tau in (0.3, 2.0, 50.0):
        assert b2_ll(LLParams(gamma=0.0, tau=tau)) == -fermi_limit
    gap_1e4 = fermi_limit - b2_ll(LLParams(gamma=math.sqrt(2e4), tau=1.0))
    assert gap_1e4 == pytest.approx(erfcx(100.0) / math.sqrt(2.0), rel=1e-13)
    assert 1e-3 < gap_1e4 < 4.1e-3
    for x2 in (1e6, 1e8):
        gap = fermi_limit - b2_ll(LLParams(gamma=math.sqrt(2.0 * x2), tau=1.0))
        assert 0.0 < gap < 1e-3
    assert time.perf_counter() - t0 < 1.0


def test_06_tba_solver_agrees_with_pair_expansion():
    """The full finite-T solver and the leading virial closed form agree
    to 5% throughout the dilute high-temperature window."""
    t0 = time.perf_counter()
    for tau in (50.0, 100.0, 200.0):
        params = LLParams(gamma=1.0, tau=tau)
        full = e_res_finite_T(params)
        leading = e_res_high_T(params)
        assert abs(full - leading) / leading < 0.05, f"tau={tau}"
    assert time.perf_counter() - t0 < 120.0


def test_07_hardcore_statistics_endpoint_values():
    """Hard-core pair coefficient at the boson, semion, and fermion
    points: -1/4, +1/8, +1/4 (units of the squared thermal length)."""
    assert b2_hardcore(0.0) == -0.25
    assert b2_hardcore(0.5) == 0.125
    assert b2_hardcore(1.0) == 0.25


def test_08_fermionic_point_shift_closed_form_and_tails():
    """At the fermion point the relative shift per unit dilution is
    2 eps exp(-eps): maximum 2/e at eps = 1, slope 1 on a log-log plot
    at small eps, pure exponential decay once the prefactor is removed."""
    bc = lambda eps: SoftCoreBC(+1, eps)
    for eps in (0.01, 0.5, 1.0, 4.0, 12.0):
        assert e_rel_abelian(1.0, bc(eps), 1.0) == pytest.approx(
            2.0 * eps * math.exp(-eps), rel=1e-10
        )
    eps_star, peak = golden_section_max(
        lambda e: e_rel_abelian(1.0, bc(e), 1.0), 0.5, 2.0, tol=1e-9
    )
    assert abs(peak - 2.0 / math.e) < 1e-6
    assert eps_star == pytest.approx(1.0, abs=1e-4)
    small = np.geomspace(1e-4, 1e-3, 8)
    slope_small = np.polyfit(
        np.log(small), np.log([e_rel_abelian(1.0, bc(e), 1.0) for e in small]), 1
    )[0]
    assert slope_small == pytest.approx(1.0, abs=0.01)
    large = np.linspace(5.0, 15.0, 8)
    decay = np.polyfit(
        large,
        np.log([e_rel_abelian(1.0, bc(e), 1.0) / (2.0 * e) for e in large]),
        1,
    )[0]
    assert decay == pytest.approx(-1.0, abs=1e-6)


def test_09_semion_closed_form_vs_quadrature():
    """The semion shift closed form reproduces the generic quadrature on
    both extension branches, and its repulsive-branch maximum over the
    core scale is 0.14 +- 0.01 per unit dilution."""
    for sigma in (+1, -1):
        for eps in (0.01, 1.0, 100.0):
            bc = SoftCoreBC(sigma, eps)
            closed = e_rel_semion(bc, 1.0)
            generic = e_rel_abelian(0.5, bc, 1.0)
            assert abs(closed - generic) / abs(generic) < 1e-8
    _, peak = golden_section_max(
        lambda e: e_rel_semion(SoftCoreBC(+1, e), 1.0), 0.1, 20.0, tol=1e-9
    )
    assert peak == pytest.approx(0.14, abs=0.01)


def test_10_shift_consistent_with_b2_temperature_derivative():
    """The quadrature shift equals the thermodynamic route
    -x (B2 + T dB2/dT)/lambda_T^2 at fixed core scale -- equivalently
    -x d/dT b2(eps0/T) -- by central finite difference, on a 5x3 grid."""
    h = 1e-5
    for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
        for eps0 in (0.3, 1.0, 3.0):
            b = lambda T: b2_softcore(alpha, SoftCoreBC(+1, eps0 / T)).value
            fd = -(b(1.0 + h) - b(1.0 - h)) / (2.0 * h)
            got = e_rel_abelian(alpha, SoftCoreBC(+1, eps0), 1.0)
            assert abs(got - fd) / abs(fd) < 1e-5, f"alpha={alpha}, eps={eps0}"


def test_11_nacs_hardcore_channel_average():
    """The two-channel hard-core gas at coupling 3, isospin 1/2 averages
    to -1/24 (exact up to one last-bit rounding of the channel sum)."""
    system = NACSSystem.isotropic(3, 0.5, math.inf, +1)
    assert b2_nacs_general(system) == pytest.approx(-1.0 / 24.0, abs=1e-16)
    # the (2j+1)-weighted route cancels more heavily: a few extra ulps
    assert b2_nacs_isotropic(system) == pytest.approx(-1.0 / 24.0, abs=1e-15)


def _b2_single_integral_form(eps: float) -> float:
    """Independent one-integral closed form for the uniform
    (k=3, l=1/2, sigma=+1) gas; coefficients {1/pi, 6, 3} re-derived from
    the channel sum.  Smoothing substitutions t = r**2 and t = s**6."""
    top_r = math.sqrt(60.0 / eps)
    rule_r = composite_rule(
        np.concatenate(([0.0], np.geomspace(top_r / 256, top_r, 28))), n=24
    )
    i_half = integrate(lambda r: np.exp(-eps * r * r) * 2.0 / (1.0 + r * r), rule_r)
    top_s = (60.0 / eps) ** (1.0 / 6.0)
    rule_s = composite_rule(
        np.concatenate(([0.0], np.geomspace(top_s / 256, top_s, 28))), n=24
    )
    i_sixth = integrate(
        lambda s: np.exp(-eps * s**6) * 6.0 / (1.0 + math.sqrt(3.0) * s + s * s),
        rule_s,
    )
    return -(1.0 + (6.0 * i_half + 3.0 * i_sixth) / math.pi) / 24.0


@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
def test_12_nacs_matches_single_integral_oracle(eps):
    """Channel-sum pair coefficient equals the independently derived
    single-integral form to 1e-8 relative."""
    value = b2_nacs_isotropic(NACSSystem.isotropic(3, 0.5, eps, +1))
    oracle = _b2_single_integral_form(eps)
    assert abs(value - oracle) / abs(oracle) < 1e-8


def test_13_nacs_shift_power_law_tails():
    """Per-pair shift of the two-channel gas follows eps^0.15 at small
    core scale and eps^-0.15 at large, with magnitude 2e-2 (+-50%) at
    eps = 1e5."""
    t0 = time.perf_counter()

    def shift(eps: float) -> float:
        system = NACSSystem.isotropic(3, 0.5, eps, +1)
        return 4.0 * e_rel_nacs(system, 1.0)  # (2l+1)^2 pairs per average

    small = np.geomspace(1e-6, 1e-3, 7)
    slope_small = np.polyfit(np.log(small), np.log([shift(e) for e in small]), 1)[0]
    assert slope_small == pytest.approx(0.15, abs=0.03)
    large = np.geomspace(1e3, 1e6, 7)
    slope_large = np.polyfit(np.log(large), np.log([shift(e) for e in large]), 1)[0]
    assert slope_large == pytest.approx(-0.15, abs=0.03)
    value = shift(1e5)
    assert 0.01 <= value <= 0.03
    assert time.perf_counter() - t0 < 120.0


def test_14_scale_invariance_order_by_order():
    """Models whose coefficients carry the dilation-forced power law
    leave every order of E - (d/alpha) PV at zero (< 1e-12); the
    delta-interacting 1d gas does not."""
    rng = np.random.default_rng(20260815)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n_coeff = int(rng.integers(1, 5))
        amps = tuple(float(a) for a in rng.uniform(-2.0, 2.0, n_coeff))
        model = power_law_model(d, 2.0, amps)
        rho = float(rng.uniform(0.05, 0.5))
        T = float(rng.uniform(0.5, 50.0))
        residuals = scale_invariance_residuals(model, rho, T)
        assert max(abs(r) for r in residuals) < 1e-12
    # non-quadratic dilation exponent: interaction orders still vanish,
    # the kinetic (order-zero) term is off by exactly d/2 - d/alpha
    loose = scale_invariance_residuals(power_law_model(3, 1.5, (0.7,)), 0.4, 3.0)
    assert loose[0] == pytest.approx(1.5 - 2.0, abs=1e-15)
    assert abs(loose[1]) < 1e-12
    ll = scale_invariance_residuals(lieb_liniger_b2_model(1.0), 0.5, 10.0)
    assert max(abs(r) for r in ll) > 1e-3


@pytest.mark.parametrize(
    "d,shape,limit",
    [
        (1, B2SmallBetaShape(sqrt_beta=-1.25, beta=2.6, extra=((0.4, 1.5, 0),)), 1.3),
        (2, B2SmallBetaShape(beta_log_beta=0.8, beta=5.0, extra=((0.3, 2.0, 0),)), 0.8),
        (3, B2SmallBetaShape(beta=2.4, extra=((0.5, 2.0, 0),)), -1.2),
    ],
)
def test_15_classifier_agrees_with_brute_force(d, shape, limit):
    """For each dimension's bounded-shift shape the classifier limit is
    confirmed by direct evaluation of the shift at T = 1e2, 1e4, 1e6:
    errors shrink and end within 1%."""
    out = classify_shift(shape, d)
    assert out.verdict == "bounded"
    assert out.limit_value == pytest.approx(limit, rel=1e-12)
    errors = []
    for T in (1e2, 1e4, 1e6):
        beta = 1.0 / T
        slope = derivative(shape.evaluate, beta, scale=beta * 1e-3)[0]
        errors.append(abs(shift_from_b2(shape.evaluate(beta), slope, d, 1.0, beta) - limit))
    assert errors[2] <= errors[1] <= errors[0]
    assert errors[2] < 0.01 * abs(limit)


def test_16_cli_sweep_is_byte_deterministic(tmp_path, monkeypatch):
    """Two CLI runs of the same shift-versus-coupling sweep write
    byte-identical CSV."""
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    specfile = tmp_path / "shift.sweep"
    specfile.write_text(
        "quantity = ll-shift\naxis = gamma log 0.1 100 9\ntau = 0.5\n",
        encoding="utf-8",
    )
    outs = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
    assert main(["sweep", str(specfile), "--out", outs[0]]) == 0
    assert main(["sweep", str(specfile), "--out", outs[1]]) == 0
    first = Path(outs[0]).read_bytes()
    assert Path(outs[1]).read_bytes() == first
    assert first.endswith(b"\n") and b"\r" not in first
