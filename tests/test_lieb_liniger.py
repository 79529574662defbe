"""Tests for the interacting-gas solvers: zero-temperature ground state,
finite-temperature thermodynamics, and the closed-form high-temperature
and virial limits.

The frozen numbers below were pinned by dual routes before being written
down: the ground-state energies against a fixed-node solve at 8x the
accepted resolution plus the weak- and strong-coupling series, and the
finite-temperature states against their defining invariants
(normalization, evenness, the free-fermion closure) and the analytic
ideal branches.  The tolerances reflect the weaker route, not the
solver's self-reported convergence.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdgas import (
    LLParams,
    b2_ll,
    e_res_finite_T,
    e_res_high_T,
    e_res_zero_T,
    observables,
    solve_ground_state,
    solve_tba,
)
from lowdgas import lieb_liniger
from lowdgas.numerics import ConvergenceError, derivative

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_accept_endpoints():
    assert LLParams(0.0, 1.0).gamma == 0.0
    assert math.isinf(LLParams(math.inf, 1.0).gamma)
    assert LLParams(1.0, 0.0).tau == 0.0


@pytest.mark.parametrize(
    "gamma, tau",
    [(-1.0, 1.0), (math.nan, 1.0), (1.0, -0.5), (1.0, math.inf), (1.0, math.nan)],
)
def test_params_reject_bad_values(gamma, tau):
    with pytest.raises(ValueError):
        LLParams(gamma, tau)


# ---------------------------------------------------------------------------
# zero temperature
# ---------------------------------------------------------------------------

# energy per particle in units of hbar^2 rho^2 / 2m, frozen (rel ~1e-7)
GROUND_ENERGY = {
    0.01: 0.0095821068,
    0.1: 0.0872271484,
    1.0: 0.6391513707,
    4.7: 1.7176645445,
    10.0: 2.3107806700,
    100.0: 3.1621816044,
    1e4: 3.2885529923,
}


@pytest.mark.parametrize("gamma", sorted(GROUND_ENERGY))
def test_ground_energy_frozen(gamma):
    state = solve_ground_state(gamma)
    assert state.energy == pytest.approx(GROUND_ENERGY[gamma], rel=1e-6)


def test_ground_energy_weak_coupling_is_linear():
    # energy ~ gamma for gamma -> 0 (mean-field slope 1)
    assert solve_ground_state(1e-3).energy == pytest.approx(1e-3, rel=0.05)


def test_ground_energy_approaches_impenetrable_limit():
    # pi^2/3 from below, with a -4/ell correction that dies as 1/gamma
    e_inf = math.pi**2 / 3.0
    assert solve_ground_state(1e4).energy < e_inf
    assert solve_ground_state(1e4).energy == pytest.approx(e_inf, rel=2e-3)


def test_ground_state_closes_its_own_equations():
    state = solve_ground_state(1.0)
    assert state.ell == pytest.approx(0.6983838192166961, rel=1e-9)
    # the cutoff condition ell = gamma * integral(g) holds exactly
    assert state.gamma * float(state.weights @ state.g_nodes) == pytest.approx(
        state.ell, abs=1e-12
    )
    # energy = (gamma/ell)^3 * integral t^2 g(t)
    moment = float(state.weights @ (state.nodes**2 * state.g_nodes))
    assert (state.gamma / state.ell) ** 3 * moment == pytest.approx(
        state.energy, rel=1e-12
    )


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(0.05, 50.0))
def test_ground_state_density_properties(gamma):
    state = solve_ground_state(gamma, tol=1e-8)
    g = state.g_nodes
    assert np.all(g > 0.0)
    # even in the quasi-momentum, peaked at the center
    assert np.allclose(g, g[::-1], rtol=0.0, atol=1e-12 * g.max())
    assert g[np.argmin(np.abs(state.nodes))] == pytest.approx(g.max())
    # free-particle floor 1/2pi at the band edge
    assert g.min() > 1.0 / TWO_PI - 1e-12


def test_ground_state_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        solve_ground_state(0.0)
    with pytest.raises(ValueError):
        solve_ground_state(-2.0)


def test_ground_state_names_the_tonks_limit_at_infinite_gamma():
    with pytest.raises(ValueError, match=r"Tonks-Girardeau limit has energy = pi\^2/3"):
        solve_ground_state(math.inf)


def test_ground_state_newton_failure_names_gamma_and_nodes(monkeypatch):
    monkeypatch.setattr(lieb_liniger, "_MAX_ELL_NEWTON", 0)
    with pytest.raises(ConvergenceError, match=r"gamma=1.0, n=64"):
        solve_ground_state(1.0)


@pytest.mark.parametrize("scale", [-1e6, math.nan])
def test_ground_state_newton_stops_where_m_prime_is_not_positive(monkeypatch, scale):
    # an I' that makes m' = 1 - gamma I' negative (or NaN) leaves no
    # Newton step: the first step fails the solve, named by gamma and nodes
    calls = []

    def steep(*args):
        calls.append(1)
        return scale * width_product(*args)

    width_product = lieb_liniger._width_product
    monkeypatch.setattr(lieb_liniger, "_width_product", steep)
    with pytest.raises(ConvergenceError, match=r"^cutoff-ratio Newton solve failed .*\(gamma=1.0, n=64\)$"):
        solve_ground_state(1.0)
    assert len(calls) == 1


@pytest.mark.parametrize("trials", [0, 1])
def test_a_rung_out_of_mu_trials_carries_its_last_solve(monkeypatch, trials):
    # the mu solve of the first rung gives up after its trials: with one
    # trial it carries that trial's solution and normalization residual,
    # with none it has neither
    monkeypatch.setattr(lieb_liniger, "_MAX_MU_TRIALS", trials)
    with pytest.raises(ConvergenceError, match=f"^density normalization not reached in {trials} trials of mu$") as exc:
        solve_tba(LLParams(1.0, 1.0))
    if trials:
        assert isinstance(exc.value.best, lieb_liniger.TBASolution)
        assert exc.value.residual > lieb_liniger._NORM_TOL
    else:
        assert exc.value.best is None and math.isnan(exc.value.residual)


# frozen shift values (abs ~1e-6); max sits between gamma = 4 and 5
E_RES_ZERO = {1.0: 0.24475354, 4.7: 0.41385007, 100.0: 0.06191154}


@pytest.mark.parametrize("gamma", sorted(E_RES_ZERO))
def test_zero_T_shift_frozen(gamma):
    assert e_res_zero_T(gamma) == pytest.approx(E_RES_ZERO[gamma], abs=1e-5)


# gamma -> (e_res_zero_T, energy) of the Newton solve with a lagged slope
# right-hand side and a confirming solve; later solvers must reproduce them
# to rounding.  The shifts at 1e4 and 1e5 were re-pinned (by 3.9e-13 and
# 1.6e-11 relative) when the slope lost the cancellation of its chain
# rule: the old value at 1e5 was 1.7e-11 off the strong-coupling series,
# the new one is 1.3e-13 off (see test_zero_T_shift_strong_coupling_tail)
ZERO_T_FROZEN = {
    1e-3: (0.0004899994400489283, 0.00098664417187856),
    0.01: (0.004688204559463923, 0.00958210531914644),
    0.1: (0.04058107155741464, 0.08722713545902133),
    1.0: (0.24475349534509505, 0.6391512852720748),
    4.7: (0.41384991734913396, 1.717664327325743),
    100.0: (0.06191147076111251, 3.1621812091201775),
    1e4: (0.0006575788966597202, 3.2885525811910985),
    1e5: (6.579341488618778e-05, 3.2897365429189103),
}


@pytest.mark.parametrize("gamma", sorted(ZERO_T_FROZEN))
def test_zero_T_shift_and_energy_frozen_to_rounding(gamma):
    shift, energy = ZERO_T_FROZEN[gamma]
    assert e_res_zero_T(gamma) == pytest.approx(shift, rel=1e-12, abs=0.0)
    assert solve_ground_state(gamma).energy == pytest.approx(energy, rel=1e-12, abs=0.0)


def test_ground_state_solve_budget(monkeypatch):
    # two solves per Newton step (A for g, its transpose for the slopes)
    # and a warm-started ladder: 3 steps on the 224-node first rung, which
    # stops at a step below 1e-7 ell, then one on the 256-node rung, whose
    # step is already below 1e-13 ell
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    assert solve_ground_state(1e-3).nodes.size == 256
    assert len(calls) <= 8


def test_n0_above_the_ladder_ceiling_is_named():
    # no rung runs, so the error names n0 and the ceiling, not a tolerance
    with pytest.raises(ConvergenceError, match=r"^n0=1025 is above the ladder's 1024-node ceiling$"):
        solve_ground_state(1.0, n0=1025)
    with pytest.raises(ConvergenceError, match=r"^n0=6501 is above the ladder's 6500-node ceiling$"):
        solve_tba(LLParams(1.0, 1.0), n0=6501)


def test_n0_without_a_second_rung_fails_before_any_rung(monkeypatch):
    # stability is judged between two rungs, so an n0 whose next rung is
    # above the ceiling is refused up front instead of after one solve
    def no_rung(*args):
        raise AssertionError("a rung ran")

    monkeypatch.setattr(lieb_liniger, "_ground_at", no_rung)
    monkeypatch.setattr(lieb_liniger, "_TBAGrid", no_rung)
    monkeypatch.setattr(lieb_liniger, "_IdealGrid", no_rung)
    # at gamma = 1 no first rung is graded (ell = 0.7 is wider than its
    # panels), so both are 32 * (n0 // 32) nodes: 544 from n0 = 544, 992
    # from 1000 and 3264 from 3264
    with pytest.raises(ConvergenceError, match=(
        r"^n0=544 leaves no second rung to compare: the next rung, 1088 nodes, "
        r"is above the ladder's 1024-node ceiling$"
    )):
        solve_ground_state(1.0, n0=544)
    with pytest.raises(ConvergenceError, match=r"^n0=1000 leaves .* 1984 nodes"):
        solve_ground_state(1.0, n0=1000)
    for gamma in (1.0, 0.0, math.inf):
        with pytest.raises(ConvergenceError, match=(
            r"^n0=3264 leaves no second rung to compare: the next rung, 6528 nodes, "
            r"is above the ladder's 6500-node ceiling$"
        )):
            solve_tba(LLParams(gamma, 1.0), n0=3264)
    # at gamma = 1e-12 the first T = 0 rung from n0 = 512 is graded at
    # y = 1 down to ell ~ 5e-7, 17 halvings of one more panel pair each:
    # 1056 nodes, above the ceiling on its own
    with pytest.raises(ConvergenceError, match=(
        r"^n0=512 leaves no second rung to compare: the next rung, 1056 nodes, "
        r"is above the ladder's 1024-node ceiling$"
    )):
        solve_ground_state(1e-12, n0=512)
    # the largest n0 that still has a second rung gets as far as its first
    with pytest.raises(AssertionError, match="a rung ran"):
        solve_ground_state(1.0, n0=543)
    for gamma in (1.0, 0.0, math.inf):
        with pytest.raises(AssertionError, match="a rung ran"):
            solve_tba(LLParams(gamma, 1.0), n0=3263)


def test_a_graded_second_rung_past_the_ceiling_leaves_no_second_rung(monkeypatch):
    # at (1, 0.5) the 64-node first rung fits twice under a 200-node
    # ceiling, but grading at its Fermi point takes the second past it
    monkeypatch.setattr(lieb_liniger, "_TBA_MAX_NODES", 200)
    with pytest.raises(ConvergenceError, match=(
        r"^n0=64 leaves no second rung to compare: the next rung, \d+ nodes, "
        r"is above the ladder's 200-node ceiling$"
    )) as err:
        solve_tba(LLParams(1.0, 0.5))
    assert int(str(err.value).split("rung, ")[1].split()[0]) > 200


@pytest.mark.parametrize("tol", [-1.0, 0.0, -0.0, math.nan, -math.inf])
def test_a_tolerance_that_is_not_positive_fails_before_any_rung(monkeypatch, tol):
    # no ladder can meet such a tolerance: both solvers raise at once,
    # where they would climb to the ceiling and only then give up
    def no_rung(*args):
        raise AssertionError("a rung ran")

    monkeypatch.setattr(lieb_liniger, "_tba_rungs", no_rung)
    monkeypatch.setattr(lieb_liniger, "_ground_rungs", no_rung)
    with pytest.raises(ValueError, match=rf"^tol must be > 0, got {tol}$"):
        solve_tba(LLParams(1.0, 1.0), tol=tol)
    with pytest.raises(ValueError, match=rf"^tol must be > 0, got {tol}$"):
        solve_ground_state(1.0, tol=tol)


def test_an_unstable_ladder_carries_its_last_rung_and_change(monkeypatch):
    # the TBA ladder reports its last energy change, as the T = 0 one does
    monkeypatch.setattr(lieb_liniger, "_TBA_MAX_NODES", 300)
    with pytest.raises(ConvergenceError, match=r"^TBA energy not stable to 1e-300 by 300 nodes") as err:
        solve_tba(LLParams(1.0, 1e3), tol=1e-300)
    assert err.value.best.grid.size == 256
    assert 0.0 < err.value.residual < 1e-6
    # the T = 0 ladder is stable to rounding from its second rung on (at
    # gamma = 1 the 64-, 128- and 256-node energies can agree to the last
    # bit), so each rung's energy is offset by 1e-9 per node to keep it
    # climbing to the ceiling
    ground_at = lieb_liniger._ground_at

    def drifting(*args):
        state = ground_at(*args)
        return dataclasses.replace(state, energy=state.energy + 1e-9 * state.nodes.size)

    monkeypatch.setattr(lieb_liniger, "_ground_at", drifting)
    monkeypatch.setattr(lieb_liniger, "_GROUND_MAX_NODES", 256)
    with pytest.raises(ConvergenceError, match=r"^ground-state energy not stable to 1e-10 by 256") as err:
        solve_ground_state(1.0)
    assert err.value.best.nodes.size == 256
    assert err.value.residual == pytest.approx(128e-9, rel=1e-6)


def test_ground_state_peak_memory_is_a_few_half_size_matrices():
    # the deepest default rung, 544 nodes at gamma = 1e-8, solves on 272
    # nodes: the operator is the one matrix of that size, the width
    # derivative is applied to g row block by row block and never stored,
    # and the previous step's operator is freed first.  The two row-block
    # buffers (0.9 of such a matrix here) and the near pairs with their
    # moments bring the traced peak to 2.45 matrices (a warm-up call
    # imports what the moment pass needs)
    solve_ground_state(1e-3)
    tracemalloc.start()
    try:
        state = solve_ground_state(1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.nodes.size == 544
    assert peak < 2.75 * 272**2 * 8


def test_zero_T_shift_asymptotes():
    # weak coupling: gamma/2 with a -2 sqrt(gamma)/pi slope correction
    gamma = 0.01
    two_term = 0.5 * gamma * (1.0 - 2.0 * math.sqrt(gamma) / math.pi)
    assert e_res_zero_T(gamma) == pytest.approx(two_term, rel=5e-3)
    # strong coupling: 2 pi^2 / 3 gamma
    assert e_res_zero_T(100.0) == pytest.approx(2.0 * math.pi**2 / 300.0, rel=0.10)


def test_zero_T_shift_vanishes_at_scale_invariant_endpoints():
    assert e_res_zero_T(0.0) == 0.0
    assert e_res_zero_T(math.inf) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            e_res_zero_T(bad)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 4.7, 100.0])
def test_zero_T_shift_matches_finite_difference_of_energy(gamma):
    # implicit-differentiation slope against a Richardson-extrapolated
    # central difference of tightly converged energies
    scale = 1e-3 * gamma / max(gamma, 1.0)
    slope, _ = derivative(lambda g: solve_ground_state(g, tol=1e-12).energy, gamma, scale=scale)
    assert e_res_zero_T(gamma) == pytest.approx(0.5 * gamma * slope, rel=1e-8)


def test_zero_T_shift_strong_coupling_series():
    # pi^2/3 (2/g - 12/g^2 + 48 (1 - pi^2/15)/g^3); the next term is ~1e-13 here
    gamma = 1e5
    series = math.pi**2 / 3.0 * (
        2.0 / gamma - 12.0 / gamma**2 + 48.0 * (1.0 - math.pi**2 / 15.0) / gamma**3
    )
    assert e_res_zero_T(gamma) == pytest.approx(series, rel=1e-10, abs=0.0)


def _weak_shift(gamma):
    """``gamma/2 - gamma^{3/2}/pi + (1/6 - 1/pi^2) gamma^2 + (5/4) c_{5/2}
    gamma^{5/2}``, ``c_{5/2} = (3 zeta(3)/8 - 1/2)/pi^3``: the shift
    ``gamma e'/2`` of the weak-coupling series of the energy (Tracy &
    Widom, J. Phys. A 49, 294001, 2016)."""
    c52 = (3.0 * float(mpmath.zeta(3)) / 8.0 - 0.5) / math.pi**3
    return (gamma / 2.0 - gamma**1.5 / math.pi + (1.0 / 6.0 - 1.0 / math.pi**2) * gamma**2
            + 1.25 * c52 * gamma**2.5)


def _strong_shift(gamma):
    """``(pi^2/3) (2/g - 12/g^2 - (3/2) (32 pi^2/15 - 32)/g^3)``, the shift
    of the strong-coupling series to ``1/gamma^3``."""
    return math.pi**2 / 3.0 * (
        2.0 / gamma - 12.0 / gamma**2 - 1.5 * (32.0 * math.pi**2 / 15.0 - 32.0) / gamma**3
    )


def test_zero_T_shift_meets_the_weak_coupling_series():
    # the panels keep the narrow kernel exact, so what is left is the
    # gamma^3 term (-2.5e-4 gamma^3) and rounding
    for gamma in (1e-6, 1e-5, 1e-4, 1e-3):
        assert abs(e_res_zero_T(gamma) - _weak_shift(gamma)) <= 1e-3 * gamma**3 + 1e-12 * gamma


@pytest.mark.parametrize("gamma", np.geomspace(1e6, 1e10, 9).tolist())
def test_zero_T_shift_strong_coupling_tail(gamma):
    # the omitted 1/gamma^4 term is below 1e-17 relative here; the chain
    # rule's slope, a difference of two O(1/gamma) terms, was 1e-6 off at 1e10
    assert e_res_zero_T(gamma) == pytest.approx(_strong_shift(gamma), rel=1e-13, abs=0.0)


def test_zero_T_shift_solves_from_the_ideal_gas_to_the_tonks_edge():
    # every gamma of 65 log-spaced from 1e-6 to 1e10 returns a positive
    # shift below the maximum, within both series at their ends
    for gamma in np.geomspace(1e-6, 1e10, 65):
        shift = e_res_zero_T(float(gamma))
        assert 0.0 < shift < 0.4139
        if gamma <= 1e-3:
            assert abs(shift - _weak_shift(gamma)) <= 1e-3 * gamma**3 + 1e-12 * gamma
        if gamma >= 1e6:
            assert shift == pytest.approx(_strong_shift(gamma), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("gamma", [1e-3, 0.01])
def test_zero_T_shift_weak_coupling_series(gamma):
    # the gamma^{5/2} term, measured coefficient -0.002, bounded by 0.01
    series = gamma / 2.0 - gamma**1.5 / math.pi + (1.0 / 6.0 - 1.0 / math.pi**2) * gamma**2
    assert abs(e_res_zero_T(gamma) - series) <= 0.01 * gamma**2.5


def test_ground_energy_weak_and_strong_coupling_series():
    # weak: the omitted gamma^{5/2} term has coefficient -0.0016; bound it by 0.01
    gamma = 0.01
    weak = gamma - 4.0 * gamma**1.5 / (3.0 * math.pi) + (1.0 / 6.0 - 1.0 / math.pi**2) * gamma**2
    assert abs(solve_ground_state(gamma).energy - weak) <= 0.01 * gamma**2.5
    # strong: the omitted term is -pi^2/3 * 32 (1 - pi^2/15) / gamma^3
    gamma = 1e4
    strong = math.pi**2 / 3.0 * (1.0 - 4.0 / gamma + 12.0 / gamma**2)
    omitted = math.pi**2 / 3.0 * 32.0 * (1.0 - math.pi**2 / 15.0) / gamma**3
    assert abs(solve_ground_state(gamma).energy - strong) <= 1.1 * omitted


# ---------------------------------------------------------------------------
# finite temperature: frozen states
# ---------------------------------------------------------------------------

# (gamma, tau) -> energy - pressure/2 per particle, units k_B T_D
TBA_E_RES = {
    (1.0, 1.0): 0.29830479,
    (10.0, 2.0): 0.42139552,
    (0.5, 0.5): 0.17361136,
    (1.0, 0.1): 0.24539994,
    (0.1, 0.5): 0.05665668,
    (1e4, 1.0): 0.00067467,
    (1.0, 100.0): 0.85933749,
}

# (gamma, tau) -> (mu, pressure, energy)
TBA_STATE = {
    (1.0, 1.0): (1.55906783, 1.20826314, 0.90243636),
    (10.0, 2.0): (6.60554847, 4.78545312, 2.81412208),
}


@pytest.mark.parametrize("gamma, tau", sorted(TBA_E_RES))
def test_finite_T_shift_frozen(gamma, tau):
    got = e_res_finite_T(LLParams(gamma, tau))
    assert got == pytest.approx(TBA_E_RES[(gamma, tau)], abs=1e-7)


# gamma -> shift at tau = 1, deep in the strong-coupling tail, where it
# falls like 6.75/gamma; frozen from the plain subtracted kernel, which
# resolves this flat kernel on the first rung.  At 1e7 the shift is 2e-7
# of E, so E - P/2 resolves it only to a few 1e-9 (the node count moves
# it by that much); that entry is frozen from the panel ladder's default
STRONG_SHIFT = {
    1e5: 6.750260901311478e-05,
    1e6: 6.750611875272483e-06,
    1e7: 6.750638279484633e-07,
}


@pytest.mark.parametrize("gamma", sorted(STRONG_SHIFT))
def test_strong_coupling_shift_keeps_precision(gamma):
    # the kernel is flat and weak here, so the product weights must not
    # turn rounding into an O(1) relative error of the shift
    got = e_res_finite_T(LLParams(gamma, 1.0))
    assert got == pytest.approx(STRONG_SHIFT[gamma], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("gamma, tau", sorted(TBA_STATE))
def test_finite_T_state_frozen(gamma, tau):
    sol = solve_tba(LLParams(gamma, tau))
    mu, pressure, energy = TBA_STATE[(gamma, tau)]
    p_got, e_got = observables(sol)
    assert sol.mu == pytest.approx(mu, rel=1e-7)
    assert p_got == pytest.approx(pressure, rel=1e-7)
    assert e_got == pytest.approx(energy, rel=1e-7)


# ---------------------------------------------------------------------------
# finite temperature: invariants
# ---------------------------------------------------------------------------

def test_solution_closes_its_own_equations():
    sol = solve_tba(LLParams(1.0, 1.0))
    # density normalized to one particle
    assert float(sol.weights @ sol.density) == pytest.approx(1.0, abs=1e-8)
    # even functions of K on the symmetric grid
    assert np.allclose(sol.eps, sol.eps[::-1], rtol=0.0, atol=1e-10)
    assert np.allclose(sol.density, sol.density[::-1], rtol=0.0, atol=1e-12)
    # one extra sweep of the pseudo-energy map reproduces the stored values
    # (a plain Nystrom sweep: gamma = 1 is wide against the node spacing)
    k = sol.grid[::40, None]
    ker = (1.0 / math.pi) / ((k - sol.grid) ** 2 + 1.0)
    resweep = k[:, 0] ** 2 - sol.mu - ker @ (sol.weights * np.logaddexp(0.0, -sol.eps))
    assert np.allclose(resweep, sol.eps[::40], rtol=0.0, atol=1e-8)
    # far tail is free-particle: E(k) -> k^2 - mu
    k_far = 150.0
    assert sol.pseudo_energy_at(k_far) == pytest.approx(k_far**2 - sol.mu, rel=1e-6)


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_pseudo_energy_at_the_coupling_endpoints(tau):
    # the two closed-form branches: the ideal Bose gas gives back its
    # rung's eps at every node bit for bit, and the impenetrable gas is
    # exactly k^2 - mu everywhere, inside and beyond kmax
    bose = solve_tba(LLParams(0.0, tau))
    assert [bose.pseudo_energy_at(k) for k in bose.grid.tolist()] == bose.eps.tolist()
    fermi = solve_tba(LLParams(math.inf, tau))
    for k in (*fermi.grid.tolist(), 0.0, 3.0 * fermi.kmax, -2.0 * fermi.kmax):
        assert fermi.pseudo_energy_at(k) == k * k - fermi.mu


@pytest.mark.parametrize("gamma, tau", [(0.01, 1e3), (1.0, 1e3)])
def test_pseudo_energy_between_nodes_matches_a_deeper_ladder(gamma, tau):
    # off-node bulk values interpolate eps on the solution's own rule; at
    # gamma below the node spacing a Nystrom sweep misses by ~0.1 max|E|
    params = LLParams(gamma, tau)
    sol = solve_tba(params)
    deep = solve_tba(params, n0=2 * sol.grid.size + 1)
    inside = np.abs(deep.grid) < sol.kmax
    got = np.array([sol.pseudo_energy_at(k) for k in deep.grid[inside]])
    assert np.max(np.abs(got - deep.eps[inside])) <= 1e-8 * np.max(np.abs(deep.eps))


def _product_operator(nodes, weights, edges, gamma):
    """Full-grid oracle for the solver's folded kernel: ``C_ij`` integrates
    ``ker(K_i - K)`` against the Lagrange basis polynomial of node ``j`` on
    its panel (16 nodes per panel of ``edges``).  With ``q = c + h t`` on the
    panel ``[c - h, c + h]`` and ``zeta = (K_i - c)/h + i gamma/h`` that is
    ``sum_k Im I_k(zeta)/pi (k + 1/2) w_j P_k(t_j)``, where the moments
    ``I_k = integral_-1^1 P_k(t)/(t - zeta) dt`` come from the forward
    recurrence at 40 digits wherever the Bernstein radius of ``zeta`` is
    below the solver's ``_FAR_RHO``; beyond it the plain
    ``w_j ker(K_i - K_j)``, as the solver defines the operator (there the
    plain rule integrates a smooth density to rounding, though each entry
    of the basis is off by up to ``rho^-17``)."""
    p = 16
    n = nodes.size
    out = np.empty((n, n))
    k = np.arange(p)
    for panel, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        on = slice(panel * p, (panel + 1) * p)
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t, w = (nodes[on] - c) / h, weights[on] / h
        proj = (np.polynomial.legendre.legvander(t, p - 1) * w[:, None] * (k + 0.5)).T / math.pi
        d = nodes[:, None] - nodes[on]
        out[:, on] = weights[on] * (gamma / math.pi) / (d * d + gamma * gamma)
        for i in range(n):
            zeta = complex((nodes[i] - c) / h, gamma / h)
            if abs(zeta + np.sqrt(zeta - 1.0) * np.sqrt(zeta + 1.0)) >= lieb_liniger._FAR_RHO:
                continue
            with mpmath.workdps(40):
                z = mpmath.mpc(zeta.real, zeta.imag)
                moments = [mpmath.log((1 - z) / (-1 - z))]
                moments.append(2 + z * moments[0])
                for j in range(1, p - 1):
                    moments.append(((2 * j + 1) * z * moments[j] - j * moments[j - 1]) / (j + 1))
                im = np.array([float(m.imag) for m in moments])
            out[i, on] = im @ proj
    return out


@pytest.mark.parametrize("gamma, tau", [(1.0, 1.0), (0.1, 0.5), (10.0, 2.0), (1.0, 1e3)])
def test_density_solves_the_level_density_equation(gamma, tau):
    # the density taken from the Newton Jacobian solves the Nystrom form of
    # f (1 + e^{E/tau}) = 1/2pi + ker * f, (I - diag(fermi) C) f = fermi/2pi,
    # with C the product-integrated kernel rebuilt on the solution's full grid
    sol = solve_tba(LLParams(gamma, tau))
    conv = _product_operator(sol.grid, sol.weights, sol.edges, gamma)
    fermi = 1.0 / (1.0 + np.exp(sol.eps / tau))
    density = np.linalg.solve(np.eye(sol.grid.size) - fermi[:, None] * conv, fermi / TWO_PI)
    assert np.max(np.abs(sol.density - density)) < 1e-12


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [63, 64])
def test_folded_convolution_matches_the_full_grid(n, gamma):
    # the solver's folded product-integrated convolution on the K >= 0 half
    # of an even vector against the full-grid oracle, on the first rung
    # solve_tba builds from n0 = n: n // 32 uniform panels per half-line
    # (one at n = 63, two at 64), each half mirrored onto the other, so no
    # node sits at K = 0
    kmax = 6.0
    tba = lieb_liniger._TBAGrid(gamma, 1.0, kmax, lieb_liniger._graded_edges(kmax, n // 32, []))
    nodes, weights = tba.nodes, tba.weights
    k2 = nodes * nodes
    v = np.exp(-0.5 * k2) * (2.0 + np.cos(k2))
    full = _product_operator(nodes, weights, tba.edges, gamma) @ v
    half = nodes.size // 2
    assert nodes.size == 32 * (n // 32) and tba.grid[0] > 0.0
    assert np.array_equal(nodes[:half], -nodes[half:][::-1])
    # normwise: a panel's product weights cancel to ~eps entrywise (at
    # gamma -> 0 they tend to the Kronecker delta), so where v has fallen
    # by 1e5 the output keeps an absolute rounding of eps * max|v|
    miss = np.max(np.abs(tba.kw @ v[half:] - full[half:]))
    assert miss <= 1e-13 * np.max(np.abs(full))
    assert float(tba.w @ v[half:]) == pytest.approx(float(weights @ v), rel=1e-14)


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [63, 64])
def test_plain_fold_matches_the_full_grid(n, gamma):
    # the plain folded kernel of the row-block pass, on the y > 0 half of
    # the first T = 0 rung from n0 = n (n // 32 uniform panels per
    # half-line of [-1, 1], graded at y = 1 down to the width gamma),
    # against the full-grid plain kernel w_j ker(y_i - y_j), zero on the
    # diagonal, with each column added onto its half node
    edges = lieb_liniger._graded_edges(1.0, n // 32, [(1.0, gamma)])
    nodes, weights, y, cw = lieb_liniger._mirrored_rule(edges)
    assert np.array_equal(nodes[: y.size], -y[::-1]) and y[0] > 0.0
    q = nodes[:, None] - nodes
    plain = weights * (gamma / math.pi) / (q * q + gamma * gamma)
    np.fill_diagonal(plain, 0.0)
    full = plain[y.size:]
    folded = full[:, y.size:] + full[:, : y.size][:, ::-1]
    blocks = np.empty_like(folded)
    for rs, minus, plus in lieb_liniger._folded_blocks(y, gamma):
        blocks[rs] = (minus + plus) * cw
    np.testing.assert_allclose(blocks, folded, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("ell", [1e-3, 0.01, 0.12, 2.0])
def test_width_derivative_matches_central_differences(ell):
    # dC/dell of the ground state's folded product-integrated operator,
    # applied column by column by the row-blocked _width_product, on a
    # T = 0 rung graded at y = 1 down to ell, against a fourth-order
    # central difference of C itself (step 1e-3 ell, measured within 7e-12
    # relative to max|dC|); every pair is far at 2, near and far pairs mix
    # below.  C jumps by ~rho^-17 of an entry where a pair crosses the far
    # ellipse, so no pair crosses it inside these stencils (at ell = 0.1
    # one does, and the difference misses by 4e-8)
    edges = lieb_liniger._graded_edges(1.0, 4, [(1.0, ell)])
    _, _, y, cw = lieb_liniger._mirrored_rule(edges)
    near = lieb_liniger._near_pairs(y, edges, ell)
    assert (near is None) == (ell == 2.0)
    dconv = np.column_stack([
        lieb_liniger._width_product(y, cw, ell, near, e) for e in np.eye(y.size)
    ])

    def op(width):
        return lieb_liniger._panel_operator(y, cw, width, lieb_liniger._near_pairs(y, edges, width))

    d = 1e-3 * ell
    diff = (8.0 * (op(ell + d) - op(ell - d)) - (op(ell + 2 * d) - op(ell - 2 * d))) / (12.0 * d)
    assert np.max(np.abs(dconv - diff)) <= 1e-10 * np.max(np.abs(dconv))


def _even_power_integrals(x, gamma, kmax):
    """``integral_-kmax^kmax ker(x - q) q^2m dq`` for ``2m < 16``, at 130
    digits: with ``q = x + u``, the binomial sum of ``x^(2m - r)`` times
    ``(gamma/pi) J_r``, ``J_r = integral u^r/(u^2 + gamma^2) du`` over
    ``[-kmax - x, kmax - x]``, from ``J_0 = (atan(b/gamma) - atan(a/gamma))/gamma``,
    ``J_1 = log((b^2 + gamma^2)/(a^2 + gamma^2))/2`` and
    ``J_r = (b^(r-1) - a^(r-1))/(r-1) - gamma^2 J_(r-2)``, which cancels
    like ``gamma^r``."""
    with mpmath.workdps(130):
        g, x = mpmath.mpf(gamma), mpmath.mpf(float(x))
        a, b = -kmax - x, kmax - x
        j = [(mpmath.atan(b / g) - mpmath.atan(a / g)) / g,
             mpmath.log((b * b + g * g) / (a * a + g * g)) / 2]
        for r in range(2, 15):
            j.append((b ** (r - 1) - a ** (r - 1)) / (r - 1) - g * g * j[r - 2])
        return [
            float(g / mpmath.pi * sum(math.comb(n, r) * x ** (n - r) * j[r] for r in range(n + 1)))
            for n in range(0, 16, 2)
        ]


@pytest.mark.parametrize("gamma", [1e-4, 0.025, 1.0, 1e3])
def test_panel_operator_is_exact_on_even_polynomials(gamma):
    # product integration integrates ker(K_i - K) exactly against each
    # panel's interpolant, so C K^2m matches the integral over [-kmax,
    # kmax] for 2m < 16 at every node, whether or not the panels resolve
    # the kernel; the grid is graded like a rung at a Fermi point
    kmax = 2.0
    edges = np.array([0.0, 0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2, 1.5, 2.0])
    tba = lieb_liniger._TBAGrid(gamma, 1.0, kmax, edges)
    k = tba.grid
    exact = np.array([_even_power_integrals(x, gamma, kmax) for x in k])
    for m in range(8):
        np.testing.assert_allclose(tba.kw @ k ** (2 * m), exact[:, m], rtol=1e-12, atol=0.0)
    # the closed form against adaptive quadrature at one node
    x = k[k.size // 2]
    peak = [p for p in (x - gamma, x, x + gamma) if -kmax < p < kmax]
    with mpmath.workdps(30):
        quad = mpmath.quad(
            lambda q: gamma / mpmath.pi * q**14 / ((q - x) ** 2 + gamma**2),
            [-kmax, *peak, kmax],
        )
    assert _even_power_integrals(x, gamma, kmax)[7] == pytest.approx(float(quad), rel=1e-12)


def _quad_moments(zeta):
    """``I_k(zeta) = integral_-1^1 P_k(t) / (t - zeta) dt``, ``k < 16``, at 30
    digits: ``P_k(zeta) log((1 - zeta)/(-1 - zeta))`` plus mpmath quadrature
    of the polynomial ``(P_k(t) - P_k(zeta)) / (t - zeta)``."""
    with mpmath.workdps(30):
        z = mpmath.mpc(zeta.real, zeta.imag)

        def legendre(x):
            p = [mpmath.mpf(1), x]
            for j in range(1, 15):
                p.append(((2 * j + 1) * x * p[j] - j * p[j - 1]) / (j + 1))
            return p

        at_z, cache = legendre(z), {}

        def regular(t):
            if t not in cache:
                cache[t] = [(a - b) / (t - z) for a, b in zip(legendre(t), at_z)]
            return cache[t]

        i0 = mpmath.log((1 - z) / (-1 - z))
        return np.array([complex(at_z[k] * i0 + mpmath.quad(lambda t: regular(t)[k], [-1, 1]))
                         for k in range(16)])


@pytest.mark.parametrize("rho", [1.001, 1.1, 1.2, 1.25, 2.0, 3.7])
def test_cauchy_moments_match_quadrature(rho):
    # both branches: the forward recurrence below rho^32 = 1e3 (rho ~ 1.24),
    # whose rounding grows to ~5e-15 |I_0| next to zeta = +-1, and the
    # upsampled 96-node rule above it; Im zeta from 1e-6 to 1 on the
    # ellipse of radius rho, on alternate sides of the panel's centre
    assert rho < lieb_liniger._FAR_RHO
    semi_minor = 0.5 * (rho - 1.0 / rho)
    zetas = []
    for side, im in enumerate(im for im in (1e-6, 1e-3, 1.0) if im < semi_minor):
        theta = math.asin(im / semi_minor)
        u = complex(math.cos(theta), math.sin(theta)) * (-1) ** side
        zetas.append(complex(0.5 * (rho * u + 1.0 / (rho * u)).real, im))
    zetas = np.array(zetas)
    np.testing.assert_allclose(lieb_liniger._bernstein_rho(zetas), rho, rtol=1e-9)
    bound = 2e-15 if rho**32 >= 1e3 else 1e-14
    for zeta, got in zip(zetas, lieb_liniger._cauchy_moments(zetas)):
        want = _quad_moments(zeta)
        assert np.max(np.abs(got - want)) <= bound * abs(want[0])


def test_cauchy_moments_do_not_depend_on_their_neighbours():
    # forward-recurrence zetas (rho < 1.24) interleaved with upsampled ones:
    # each forward row has the bits its zeta gives alone, and the upsampled
    # rows the bits of the upsampled zetas on their own (one matrix product;
    # a lone zeta's vector product may round differently); so does no zeta
    rng = np.random.default_rng(7)
    zetas = rng.uniform(-1.5, 1.5, 40) + 1j * 10.0 ** rng.uniform(-6.0, 0.0, 40)
    fwd = lieb_liniger._bernstein_rho(zetas) ** 32 < 1e3
    assert 5 < np.count_nonzero(fwd) < 35 and np.count_nonzero(fwd[1:] != fwd[:-1]) > 5
    together = lieb_liniger._cauchy_moments(zetas)
    for zeta, row in zip(zetas[fwd], together[fwd]):
        assert row.tobytes() == lieb_liniger._cauchy_moments(np.array([zeta])).tobytes()
    assert together[~fwd].tobytes() == lieb_liniger._cauchy_moments(zetas[~fwd]).tobytes()
    for zeta, row in zip(zetas[~fwd], together[~fwd]):
        alone = lieb_liniger._cauchy_moments(np.array([zeta]))[0]
        assert np.max(np.abs(row - alone)) <= 1e-15 * np.max(np.abs(alone))
    assert lieb_liniger._cauchy_moments(np.array([], dtype=complex)).shape == (0, lieb_liniger._PANEL_NODES)


def test_both_grid_parities_agree_and_mirror_exactly():
    # every grid of both solvers is even (mirrored 16-node panels, no
    # middle node), from the default n0 = 64 as from n0 = 200 (six panels
    # per half-line); the arrays come back exactly even
    def shift(sol):
        pressure, energy = observables(sol)
        return energy - 0.5 * pressure

    params = LLParams(1.0, 1.0)
    tba_default, tba_wide = solve_tba(params), solve_tba(params, n0=200)
    assert shift(tba_wide) == pytest.approx(shift(tba_default), rel=1e-8)
    ground_default, ground_wide = solve_ground_state(1.0), solve_ground_state(1.0, n0=200)
    assert ground_wide.nodes.size == 384
    assert ground_wide.energy == pytest.approx(ground_default.energy, rel=1e-10)
    for a in (tba_default.eps, tba_default.density, tba_wide.eps, tba_wide.density,
              ground_default.g_nodes, ground_wide.g_nodes):
        assert np.array_equal(a, a[::-1])


def test_tba_peak_memory_is_a_few_half_size_matrices():
    # from n0 = 1615 (50 panels per half-line) the 3200-node top rung
    # solves on 1600 nodes: its kernel and Jacobian are two matrices of
    # that size, and the previous rung's are freed first, so 2.25
    # matrices of 1616^2 bound the traced peak (one full-size matrix
    # would be 80 MiB)
    tracemalloc.start()
    try:
        solve_tba(LLParams(1.0, 1e3), n0=1615)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 1616**2 * 8


# (gamma, tau) -> shift of a moment-corrected ladder started at n0 = 3231 (it
# stops at 6463 nodes), the reference for the default ladder below
DEEP_SHIFT = {
    (0.01, 1e3): 0.009995683059969451,
    (0.1, 1e3): 0.09956985447689704,
    (0.0038, 0.5): 0.003507655077658489,
}


def test_ladder_stops_low_and_matches_a_deep_ladder():
    # product integration is exact on each panel's interpolant whatever
    # gamma, so the default ladder stops low: the moment-corrected kernel
    # stopped at 403 and 1615 nodes here, the plain subtracted one at 3231
    assert solve_tba(LLParams(1.0, 1e3)).grid.size == 128
    assert solve_tba(LLParams(0.025, 0.5)).grid.size <= 807
    for (gamma, tau), deep in DEEP_SHIFT.items():
        rel = 1e-8 if tau < 1.0 else 1e-7
        assert e_res_finite_T(LLParams(gamma, tau)) == pytest.approx(deep, rel=rel)


def test_tba_rung_budget_on_the_benchmark_grid(monkeypatch):
    # the nominal ll-finite-T points: each Fermi point is graded down to
    # its singularity distance pi tau/|E'(K_F)|, so the last rung at tau =
    # 0.5 has at most 384 nodes (448 when graded down to the Fermi width
    # tau/|E'|); tau = 1e3 has no Fermi point and stops on the ungraded 128.
    # Both temperatures are above _SEED_TAU: no ladder pays for a T = 0 solve.
    # One np.linalg.solve per pseudo-energy Newton step: 209 steps at tau =
    # 0.5 and 108 at tau = 1e3, so added Newton steps or mu trials show here
    def no_ground_state(*args, **kwargs):
        raise AssertionError("a ladder above _SEED_TAU solved the ground state")

    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lieb_liniger, "solve_ground_state", no_ground_state)
    monkeypatch.setattr(np.linalg, "solve", counted)
    sizes = [solve_tba(LLParams(float(gamma), 0.5)).grid.size for gamma in np.geomspace(0.025, 100.0, 8)]
    assert sizes == [256, 256, 256, 320, 320, 288, 384, 384]
    assert len(calls) == 209
    for gamma in np.geomspace(0.01, 100.0, 9):
        assert solve_tba(LLParams(float(gamma), 1e3)).grid.size == 128
    assert len(calls) == 209 + 108


# (gamma, tau) -> shift of a deep ladder (started at 1615 nodes); the
# moment-corrected kernel missed the first two by 3.3e-7 and 4.5e-7
HIGH_T_SHIFT = {
    (1.0, 1e3): (0.9582198810223872, 1e-8),
    (0.8, 1e3): (0.7730893330245294, 1e-8),
    (1.0, 1e4): (0.9872349936422324, 5e-8),
}


@pytest.mark.parametrize("gamma, tau", list(HIGH_T_SHIFT))
def test_high_T_shift_matches_a_deep_ladder(gamma, tau):
    deep, rel = HIGH_T_SHIFT[(gamma, tau)]
    assert e_res_finite_T(LLParams(gamma, tau)) == pytest.approx(deep, rel=rel, abs=0.0)


@pytest.mark.parametrize("gamma, tau", [(0.001, 0.05), (0.001, 0.1), (0.005, 0.5)])
def test_ideal_bose_edge_converges_by_the_energy_stop(gamma, tau):
    # near the ideal-Bose edge at low tau the ladder used to converge only
    # algebraically and stop by a tail rule; the energy stop alone now
    # lands within 1e-10 of a ladder started two rungs deeper
    params = LLParams(gamma, tau)
    deeper = e_res_finite_T(params, n0=4 * lieb_liniger._PANEL_N0)
    assert e_res_finite_T(params) == pytest.approx(deeper, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("gamma", [0.001, 1.93e-3])
def test_near_bose_edge_shift_matches_a_deep_ladder(gamma):
    # panels graded at each Fermi point down to the Fermi width tau/|E'|
    # stopped these ladders early, 9.5e-9 and 1.9e-9 (relative) off, with
    # status ok; graded down to the singularity distance pi tau/|E'| they
    # climb on and stop within 1e-10 of a ladder from n0 = 256 at tol = 1e-10
    params = LLParams(gamma, 0.03)
    deep = e_res_finite_T(params, n0=256, tol=1e-10)
    assert e_res_finite_T(params) == pytest.approx(deep, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("points", [
    pytest.param([(1.0, float(tau)) for tau in np.geomspace(1e-3, 1e4, 29)], id="1.0"),
    pytest.param([(100.0, float(tau)) for tau in np.geomspace(1e-3, 1e4, 29)], id="100.0"),
    pytest.param([(float(g), tau) for g in np.geomspace(1e-3, 1e4, 15)
                  for tau in (1e-3, 3e-3, 1e-2, 3e-2)], id="low-tau-grid"),
    pytest.param([(0.01, 3e-3), (0.001, 0.02), (10**-2.6, 0.03), (0.001, 10**-2.75)], id="mu-stall"),
    pytest.param([(1e-10, 0.01), (1e-8, 0.1), (1e-6, 1e-3), (1e-14, 0.3)], id="tiny-gamma"),
])
def test_every_low_and_high_tau_point_solves(points):
    # at low tau the dressed Fermi sea reaches past the free-particle grid
    # edge sqrt(mu + ln(1e12) tau); a rung grid that stops short of it
    # saturates integral(f) and the mu solve runs out of trials.  From the
    # Boltzmann mu on an ungraded first rung the mu solve stalled at
    # (0.01, 3e-3), (0.001, 0.02), (10^-2.6, 0.03) and (0.001, 10^-2.75),
    # and the pseudo-energy Newton solve failed at the tiny gammas; the
    # T = 0 state starts every ladder at tau <= 0.3
    for gamma, tau in points:
        sol = solve_tba(LLParams(gamma, tau))
        assert float(sol.weights @ sol.density) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tau", [0.4, 1.0, 10.0])
def test_near_bose_gas_solves_above_the_seeded_band(tau):
    # at 0.3 < tau <= 10 the first rung's Boltzmann mu is above the one
    # that normalizes a near-ideal Bose gas, where its pseudo-energy
    # Newton solve fails; the mu solve counts that trial as too high
    energy = lambda gamma: observables(solve_tba(LLParams(gamma, tau)))[1]
    bose = energy(0.0)
    assert energy(1e-14) == pytest.approx(bose, rel=1e-10)
    # first order in gamma: the interaction energy per particle of the
    # 2c delta coupling is gamma g2(0), and the ideal Bose gas has the
    # thermal pair correlation g2(0) = 2
    assert (energy(1e-6) - bose) / 2e-6 == pytest.approx(1.0, abs=2e-3)
    sol = solve_tba(LLParams(1e-8, tau))
    assert float(sol.weights @ sol.density) == pytest.approx(1.0, abs=1e-9)


def _sound_velocity(gamma, h=1e-3):
    """``v_s = sqrt(2 (6e - 4 gamma e' + gamma^2 e''))`` at unit density
    (``hbar = 2m = 1``), with ``e''`` a central difference of the slope."""
    state = solve_ground_state(gamma)
    d = h * gamma
    curvature = (solve_ground_state(gamma + d).slope - solve_ground_state(gamma - d).slope) / (2 * d)
    return math.sqrt(2.0 * (6.0 * state.energy - 4.0 * gamma * state.slope + gamma**2 * curvature))


@pytest.mark.parametrize("gamma", [0.1, 1.0, 100.0])
def test_low_tau_shift_follows_the_cft_law(gamma):
    # F/L = E0/L - pi T^2 / 6 v_s (c = 1) puts the shift's tau^2 term at
    # (pi gamma / 12) v_s' / v_s^2 above the ground state's shift
    d = 1e-2 * gamma
    dv = (_sound_velocity(gamma + d) - _sound_velocity(gamma - d)) / (2 * d)
    law = math.pi * gamma / 12.0 * dv / _sound_velocity(gamma) ** 2
    zero = e_res_zero_T(gamma)
    for tau in (1e-3, 2e-3, 4e-3):
        coeff = (e_res_finite_T(LLParams(gamma, tau)) - zero) / tau**2
        assert coeff == pytest.approx(law, rel=2e-3)


def test_density_positive_peaked_and_dressed():
    # f > 0, peaked at K = 0, and the dressed combination
    # f (1 + e^{E/tau}) stays above the bare 1/2pi (the interaction
    # convolution only ever adds states)
    for gamma, tau in [(1.0, 1.0), (0.1, 0.5), (10.0, 2.0)]:
        sol = solve_tba(LLParams(gamma, tau))
        assert np.all(sol.density > 0.0)
        assert sol.density[np.argmin(np.abs(sol.grid))] == sol.density.max()
        dressed = sol.density * (1.0 + np.exp(sol.eps / sol.tau))
        assert np.all(dressed > 1.0 / TWO_PI - 1e-12)


def test_strong_coupling_closes_free_fermion_relation():
    # at gamma = 1e4 the dressing is ~1e-4, so f (1 + e^{E/tau}) = 1/2pi
    sol = solve_tba(LLParams(1e4, 1.0))
    lhs = sol.density * (1.0 + np.exp(sol.eps / sol.tau))
    assert np.max(np.abs(lhs - 1.0 / TWO_PI)) < 1e-4


@pytest.mark.parametrize("gamma", [0.1, 1.0, 4.7, 10.0, 100.0])
@pytest.mark.parametrize("tau", [0.1, 0.5, 1.0, 2.0])
def test_finite_T_shift_positive(gamma, tau):
    assert e_res_finite_T(LLParams(gamma, tau)) > 0.0


@pytest.mark.parametrize("tau", [1e-3, 1.0, 1e3, 1e7])
def test_ideal_branches_are_scale_invariant(tau):
    # gamma = 0 and gamma = inf short-circuit to exactly zero shift
    assert e_res_finite_T(LLParams(0.0, tau)) == 0.0
    assert e_res_finite_T(LLParams(math.inf, tau)) == 0.0
    # ... and the solved branches confirm it, down to a Fermi edge (and a
    # Bose peak) of width ~ tau / 2 at tau = 1e-3
    for gamma in (0.0, math.inf):
        sol = solve_tba(LLParams(gamma, tau))
        pressure, energy = observables(sol)
        assert abs(energy - 0.5 * pressure) <= 1e-10 * energy
        assert float(sol.weights @ sol.density) == pytest.approx(1.0, abs=1e-10)
    # the Bose branch is below condensation threshold: mu < 0
    assert solve_tba(LLParams(0.0, tau)).mu < 0.0


# (gamma, tau) -> (last rung's node count, pressure, energy); the node
# counts are from panels graded at each Fermi point down to pi tau/|E'|
# (gamma = inf, whose ladder starts from K_F = pi and mu = pi^2 at tau <=
# 0.3: from the Boltzmann mu it climbed to 2432, 640 and 512 nodes there)
# and at the Bose peak only (gamma = 0), and the states, frozen from finer
# grids, hold there to 3e-10
ENDPOINT_STATE = {
    (0.0, 1e-3): (448, 2.281361249046e-05, 1.140680624520e-05),
    (0.0, 1e-2): (384, 6.898650303596e-04, 3.449325151790e-04),
    (0.0, 0.1): (256, 1.913361995976e-02, 9.566809979852e-03),
    (0.0, 1.0): (192, 4.326954028799e-01, 2.163477014392e-01),
    (0.0, 10.0): (160, 7.114845003698e+00, 3.557422501833e+00),
    (0.0, 1e3): (128, 9.617664110600e+02, 4.808832055273e+02),
    (0.0, 1e5): (128, 9.960510886236e+04, 4.980255443089e+04),
    (0.0, 1e7): (128, 9.996038118607e+06, 4.998019059274e+06),
    (math.inf, 1e-3): (640, 6.579736434066e+00, 3.289868216882e+00),
    (math.inf, 1e-2): (544, 6.579752934093e+00, 3.289876467047e+00),
    (math.inf, 0.1): (448, 6.581403272354e+00, 3.290701636177e+00),
    (math.inf, 1.0): (320, 6.750651944829e+00, 3.375325972413e+00),
    (math.inf, 10.0): (128, 1.607319160868e+01, 8.036595804306e+00),
    (math.inf, 1e3): (128, 1.041129209071e+03, 5.205646045322e+02),
    (math.inf, 1e5): (128, 1.003977839401e+05, 5.019889196974e+04),
    (math.inf, 1e7): (128, 1.000396477417e+07, 5.001982387053e+06),
}


@pytest.mark.parametrize("gamma, tau", list(ENDPOINT_STATE))
def test_endpoint_states_frozen(gamma, tau):
    # the endpoints' stopping rung and state, on panels graded at the
    # Fermi points (gamma = inf) and at the Bose peak K = 0 (gamma = 0)
    nodes, pressure, energy = ENDPOINT_STATE[(gamma, tau)]
    sol = solve_tba(LLParams(gamma, tau))
    p_got, e_got = observables(sol)
    assert sol.grid.size == nodes
    assert float(sol.weights @ sol.density) == pytest.approx(1.0, abs=1e-10)
    assert e_got == pytest.approx(energy, rel=1e-8)
    assert p_got == pytest.approx(pressure, rel=1e-8)


def test_ideal_endpoints_meet_their_low_and_high_T_limits():
    # free fermions below tau ~ 1: Sommerfeld, E = pi^2/3 + tau^2/12 + O(tau^4)
    for tau in (0.05, 0.1):
        _, energy = observables(solve_tba(LLParams(math.inf, tau)))
        assert energy - math.pi**2 / 3.0 == pytest.approx(tau * tau / 12.0, rel=1e-3)
    # both statistics at high tau: E / (tau/2) = 1 + b2 lambda_T + O(lambda_T^2)
    # with the thermal wavelength lambda_T = 2 sqrt(pi/tau) in units of 1/rho
    for gamma in (0.0, math.inf):
        for tau in (1e3, 1e5):
            params = LLParams(gamma, tau)
            _, energy = observables(solve_tba(params))
            lam = 2.0 * math.sqrt(math.pi / tau)
            assert abs(energy / (0.5 * tau) - 1.0 - b2_ll(params) * lam) <= 0.15 * lam**2


def test_interacting_branches_interpolate_ideal_ones():
    # weak coupling hugs the Bose branch from above, strong coupling the
    # Fermi branch from below (in energy per particle)
    tau = 1.0
    e_bose = observables(solve_tba(LLParams(0.0, tau)))[1]
    e_fermi = observables(solve_tba(LLParams(math.inf, tau)))[1]
    e_weak = observables(solve_tba(LLParams(0.05, tau)))[1]
    e_strong = observables(solve_tba(LLParams(1e4, tau)))[1]
    assert e_bose < e_weak < e_strong < e_fermi
    assert e_strong == pytest.approx(e_fermi, rel=1e-3)


def test_solver_rejects_tiny_tau():
    with pytest.raises(ValueError, match="solve_ground_state"):
        solve_tba(LLParams(1.0, 1e-4))
    # the high-temperature edge points to the closed form instead
    for tau in (2e4, 1e7):
        with pytest.raises(ValueError, match="e_res_high_T"):
            solve_tba(LLParams(1.0, tau))


# ---------------------------------------------------------------------------
# closed-form limits
# ---------------------------------------------------------------------------

def test_b2_endpoints():
    weight = 1.0 / (2.0 * math.sqrt(2.0))
    assert b2_ll(LLParams(0.0, 1.0)) == pytest.approx(-weight, abs=1e-16)
    assert b2_ll(LLParams(0.0, 37.0)) == pytest.approx(-weight, abs=1e-16)
    # fermionization: +1/(2 sqrt 2) reached like 1/x for x = gamma/sqrt(2 tau)
    assert b2_ll(LLParams(200.0, 2.0)) == pytest.approx(weight, abs=4e-3)
    assert b2_ll(LLParams(2e4, 2.0)) == pytest.approx(weight, abs=4e-5)


def test_b2_crossover_value():
    # x = 1 midpoint, frozen from a 30-digit evaluation
    assert b2_ll(LLParams(math.sqrt(2.0), 1.0)) == pytest.approx(
        0.051206144369508059, rel=1e-13
    )


def test_b2_monotone_in_coupling():
    tau = 0.7
    values = [b2_ll(LLParams(g, tau)) for g in np.logspace(-3, 5, 30)]
    assert np.all(np.diff(values) > 0.0)


def test_b2_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        b2_ll(LLParams(1.0, 0.0))


def test_high_T_shift_matches_hand_evaluation():
    # gamma - sqrt(pi/2tau) gamma^2 erfcx(gamma/sqrt(2tau)) via math.erfc
    gamma, tau = 1.0, 100.0
    x = gamma / math.sqrt(2.0 * tau)
    expected = gamma - math.sqrt(math.pi / (2.0 * tau)) * gamma**2 * (
        math.exp(x * x) * math.erfc(x)
    )
    assert e_res_high_T(LLParams(gamma, tau)) == pytest.approx(expected, rel=1e-14)


def test_high_T_shift_asymptotes():
    # -> gamma when gamma^2 << tau; decays toward tau/gamma beyond
    assert e_res_high_T(LLParams(0.1, 100.0)) == pytest.approx(0.1, rel=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # tau = 100 >> 4 pi: no warning
        val = e_res_high_T(LLParams(30.0, 100.0))
    assert 0.0 < val < 100.0 / 30.0 * 1.5


def _mp_high_T_shift(gamma: float, tau: float) -> float:
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        x = g / mpmath.sqrt(2 * mpmath.mpf(tau))
        return float(g * (1 - mpmath.sqrt(mpmath.pi) * x * mpmath.exp(x * x) * mpmath.erfc(x)))


@pytest.mark.parametrize("tau", [100.0, 1e3])
def test_high_T_shift_keeps_precision_at_strong_coupling(tau):
    # the direct form cancels for gamma^2 >> tau: it was off by 5.3e-7 at
    # (1e6, 100) and by 1.6e-3 at (1e8, 1e3)
    for x in np.geomspace(0.07, 7e4, 60):
        gamma = float(x) * math.sqrt(2.0 * tau)
        got = e_res_high_T(LLParams(gamma, tau))
        assert got == pytest.approx(_mp_high_T_shift(gamma, tau), rel=1e-12, abs=0.0)


def test_high_T_shift_vanishes_at_tonks_end():
    assert e_res_high_T(LLParams(math.inf, 100.0)) == 0.0


def test_high_T_shift_warns_outside_validity():
    with pytest.warns(UserWarning, match="high-temperature closed form"):
        e_res_high_T(LLParams(1.0, 1.0))


def test_high_T_shift_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        e_res_high_T(LLParams(1.0, -1.0))
    # tau = 0 is a valid state point, but not of the high-temperature form
    with pytest.raises(ValueError, match=r"^the high-temperature form needs tau > 0, got 0.0$"):
        e_res_high_T(LLParams(1.0, 0.0))


def test_high_T_shift_agrees_with_full_solver():
    # the degeneracy corrections die off like 1/tau; at tau = 100 the
    # full solution sits within 3% of the closed form
    params = LLParams(1.0, 100.0)
    closed = e_res_high_T(params)
    full = e_res_finite_T(params)
    assert abs(full - closed) / closed < 0.03


@pytest.mark.parametrize(
    "gamma, tau", [(0.01, 1e3), (0.1, 1e3), (0.32, 1e3), (1.0, 1e3), (3.16, 1e3), (1.0, 1e4)]
)
def test_finite_T_shift_sits_just_below_the_high_T_form(gamma, tau):
    # the first degeneracy correction lowers the shift by c gamma^2 / tau,
    # with c between 2.4 and 3.55 where gamma^2 <= tau/10 and tau >= 1e3;
    # a shift that misses it is not converged in the kernel width.  At
    # (0.01, 1e4) the bound, 4e-8, is below the energy stop's error.
    gap = e_res_high_T(LLParams(gamma, tau)) - e_res_finite_T(LLParams(gamma, tau))
    assert 0.0 < gap <= 4.0 * gamma * gamma / tau
