"""Tests for the isospin-channel decomposition of the NACS gas.

Oracle provenance: reference values below were frozen from a 40-digit
mpmath evaluation of the channel integrals in smoothing variables
(``t = u**(1/a)`` for generic statistics ``a``, so every integrand is
analytic on the path), cross-checked against a second, independent
single-integral form where one exists.  The level -4, isospin-1 system
collapses entirely to error functions and is checked in closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdgas import anyon_abelian, anyon_nacs
from lowdgas.anyon_abelian import SoftCoreBC, b2_softcore, e_rel_abelian
from lowdgas.anyon_nacs import (
    ChannelWeights,
    NACSSystem,
    b2_nacs_general,
    b2_nacs_grid,
    b2_nacs_isotropic,
    channel_weights,
    e_rel_nacs,
    e_rel_nacs_grid,
)
from lowdgas.numerics import composite_rule, erfcx, integrate

# ---------------------------------------------------------------------------
# Frozen references (mpmath, dps=40).  Keys: (k, l, sigma, eps) -> B2/lambda^2
# for a uniform soft-core matrix.
B2_NACS_REFERENCE = {
    (3, 0.5, +1, 0.1): -0.365665739250750831,
    (3, 0.5, +1, 1.0): -0.267544166815955225,
    (3, 0.5, +1, 10.0): -0.179603456495780995,
    (3, 0.5, -1, 0.7): -3.34841554279937344,
}

# (eps,) -> e_rel at dilution x = 1 for the uniform (k=3, l=1/2, sigma=+1) gas.
E_REL_NACS_REFERENCE = {
    1e-5: 0.0053986070398620795,
    1.0: 0.0446644057430129641,
    1e5: 0.00451185349936935571,
}

# Anisotropic system: k=3, l=1/2, sigma=+1, eps rows ((0.5,), (0.2, 1.0, 3.0)).
ANISO_EPS = ((0.5,), (0.2, 1.0, 3.0))
ANISO_B2 = -0.293256530977268885
ANISO_E_REL = 0.0447734246919642495


# ---------------------------------------------------------------------------
# Construction and validation


def test_rejects_zero_or_fractional_level():
    with pytest.raises(ValueError, match="nonzero integer"):
        NACSSystem.isotropic(0, 0.5, 1.0, +1)
    with pytest.raises(ValueError, match="nonzero integer"):
        NACSSystem.isotropic(2.5, 0.5, 1.0, +1)


def test_accepts_integral_float_level():
    sys = NACSSystem.isotropic(3.0, 0.5, 1.0, +1)
    assert sys.k == 3 and isinstance(sys.k, int)
    assert NACSSystem.isotropic(-2, 1.0, 0.3, +1).k == -2


def test_rejects_bad_isospin():
    for bad in (-0.5, 0.3, 0.75, float("nan")):
        with pytest.raises(ValueError, match="half-integer"):
            NACSSystem.isotropic(3, bad, 1.0, +1)


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_a_non_finite_level_is_the_level_error(k):
    # int(inf) raises OverflowError and int(nan) a ValueError of its own:
    # both are the domain error that names k, from either constructor
    with pytest.raises(ValueError, match=r"^k must be a nonzero integer, got "):
        NACSSystem.isotropic(k, 1.0, 1.0, +1)
    with pytest.raises(ValueError, match=r"^k must be a nonzero integer, got "):
        NACSSystem(k, 0.0, ((1.0,),), +1)


@pytest.mark.parametrize("l", [math.inf, math.nan])
def test_a_non_finite_isospin_is_the_isospin_error(l):
    # round(inf) raises OverflowError: a non-finite l is no half-integer
    with pytest.raises(ValueError, match=r"^l must be a non-negative half-integer, got "):
        NACSSystem.isotropic(3, l, 1.0, +1)
    with pytest.raises(ValueError, match=r"^l must be a non-negative half-integer, got "):
        NACSSystem(3, l, ((1.0,),), +1)


def test_rejects_misshapen_matrix():
    with pytest.raises(ValueError, match="one row per channel"):
        NACSSystem(3, 0.5, ((1.0,),), +1)
    with pytest.raises(ValueError, match="2j\\+1"):
        NACSSystem(3, 0.5, ((1.0,), (1.0, 1.0)), +1)


def test_entry_validation_delegates_to_soft_core_rules():
    with pytest.raises(ValueError):
        NACSSystem(3, 0.5, ((1.0,), (0.2, -1.0, 3.0)), +1)
    with pytest.raises(ValueError):
        NACSSystem.isotropic(3, 0.5, 1.0, 0)
    # the hard-core sentinel is only meaningful on the repulsive branch
    with pytest.raises(ValueError):
        NACSSystem(3, 0.5, ((float("inf"),), (0.2, 1.0, 3.0)), -1)
    NACSSystem(3, 0.5, ((float("inf"),), (0.2, 1.0, 3.0)), +1)  # fine


def test_isotropic_constructor_shape():
    sys = NACSSystem.isotropic(5, 1.5, 0.4, +1)
    assert sys.channel_count == 4
    assert tuple(len(row) for row in sys.eps) == (1, 3, 5, 7)
    assert sum(len(row) for row in sys.eps) == 16  # (2l+1)**2
    assert sys.uniform_eps == 0.4


def test_uniform_eps_detects_mixed_matrix():
    assert NACSSystem(3, 0.5, ANISO_EPS, +1).uniform_eps is None
    assert NACSSystem(3, 0.5, ((2.0,), (2.0, 2.0, 2.0)), +1).uniform_eps == 2.0


# ---------------------------------------------------------------------------
# Channel statistics


def test_channel_weights_two_channel_case():
    w = channel_weights(NACSSystem.isotropic(3, 0.5, 1.0, +1))
    assert w.omega == (-0.5, pytest.approx(1 / 6, abs=0))
    assert w.bosonic == (False, True)
    # fermionic channel reduces after the one-unit shift
    assert w.gamma[0] == 0.5
    assert w.nu[0] == 0.5
    assert w.delta[1] == pytest.approx(1 / 6, abs=1e-15)
    assert w.nu[1] == pytest.approx(1 / 6, abs=1e-15)


def test_channel_weights_three_channel_case():
    w = channel_weights(NACSSystem.isotropic(-4, 1.0, 1.0, +1))
    assert w.omega == (1.0, 0.5, -0.5)
    assert w.bosonic == (True, False, True)
    assert w.nu == (-1.0, -0.5, -0.5)


def test_channel_weights_large_phase_reduction():
    # omega_0 = -7.5 reduces to semionic statistics either way round
    w = channel_weights(NACSSystem.isotropic(1, 1.5, 1.0, +1))
    assert w.omega[0] == -7.5
    assert not w.bosonic[0]
    assert w.gamma[0] == -0.5
    assert w.nu[0] == -0.5


def test_single_channel_ideal_bose_point():
    w = channel_weights(NACSSystem.isotropic(7, 0.0, 2.0, +1))
    assert w == ChannelWeights((0.0,), (0.0,), (-1.0,), (0.0,), (True,))


@given(
    k=st.integers(min_value=-8, max_value=8).filter(lambda v: v != 0),
    twice_l=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_channel_weights_invariants(k, twice_l):
    l = twice_l / 2.0
    sys = NACSSystem.isotropic(k, l, 1.0, +1)
    w = channel_weights(sys)
    assert len(w.omega) == twice_l + 1
    assert sum(2 * j + 1 for j in range(twice_l + 1)) == (twice_l + 1) ** 2
    for j in range(twice_l + 1):
        omega = Fraction(j * (j + 1)) - Fraction(twice_l * (twice_l + 2), 2)
        omega /= k
        assert w.omega[j] == float(omega)
        for red in (w.delta[j], w.gamma[j], w.nu[j]):
            assert -1.0 <= red < 1.0
        # each reduction is the exact one mod 2, rounded once
        for exact, red in ((omega, w.delta[j]), (omega + 1, w.gamma[j])):
            assert red == float(exact - 2 * math.floor((exact + 1) / 2))
        # nu is delta on bosonic channels, gamma on fermionic ones, bit for bit
        assert w.nu[j] == (w.delta[j] if w.bosonic[j] else w.gamma[j])
        assert w.bosonic[j] == ((j + twice_l) % 2 == 0)


def test_uniform_sums_are_their_channel_terms_bit_for_bit():
    # a uniform system is exactly sum_j (2j+1) * term(nu_j) / (2l+1)**2,
    # with equal statistics in two channels giving equal terms
    b2, shift = {}, {}
    for k in [k for k in range(-6, 7) if k]:
        for twice_l in range(7):
            nu = channel_weights(NACSSystem.isotropic(k, twice_l / 2, 1.0, +1)).nu
            for eps in (0.3, 2.0):
                for sigma in (+1, -1):
                    sys = NACSSystem.isotropic(k, twice_l / 2, eps, sigma)
                    bc = SoftCoreBC(sigma, eps)
                    b2_sum = shift_sum = 0.0
                    for j, a in enumerate(nu):
                        if (a, sigma, eps) not in b2:
                            b2[a, sigma, eps] = b2_softcore(a, bc).value
                            shift[a, sigma, eps] = e_rel_abelian(a, bc, 0.7)
                        b2_sum += (2 * j + 1) * b2[a, sigma, eps]
                        shift_sum += (2 * j + 1) * shift[a, sigma, eps]
                    norm = (twice_l + 1) ** 2
                    assert b2_nacs_isotropic(sys) == b2_sum / norm, (k, twice_l, eps, sigma)
                    assert e_rel_nacs(sys, 0.7) == shift_sum / norm, (k, twice_l, eps, sigma)


# ---------------------------------------------------------------------------
# Hard-core limits (exact rational values)


def test_hardcore_two_channel_value():
    sys = NACSSystem.isotropic(3, 0.5, float("inf"), +1)
    assert b2_nacs_general(sys) == pytest.approx(-1 / 24, abs=1e-15)
    assert b2_nacs_isotropic(sys) == pytest.approx(-1 / 24, abs=1e-15)


def test_hardcore_unit_level_value():
    # both channels semionic: B2 = (1/4)(4 * 1/8) = 1/8
    sys = NACSSystem.isotropic(1, 0.5, float("inf"), +1)
    assert b2_nacs_general(sys) == pytest.approx(1 / 8, abs=1e-15)


def test_zero_isospin_is_ideal_bose():
    for k in (1, -3, 6):
        sys = NACSSystem.isotropic(k, 0.0, float("inf"), +1)
        assert b2_nacs_general(sys) == -0.25
        soft = NACSSystem.isotropic(k, 0.0, 1.7, +1)
        assert b2_nacs_general(soft) == b2_softcore(0.0, SoftCoreBC(+1, 1.7)).value
        assert e_rel_nacs(soft, 0.5) == 0.0


# ---------------------------------------------------------------------------
# Frozen soft-core values and route agreement


@pytest.mark.parametrize("key", sorted(B2_NACS_REFERENCE))
def test_b2_frozen_values(key):
    k, l, sigma, eps = key
    sys = NACSSystem.isotropic(k, l, eps, sigma)
    ref = B2_NACS_REFERENCE[key]
    assert b2_nacs_isotropic(sys) == pytest.approx(ref, rel=1e-12)
    assert b2_nacs_general(sys) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("k,l", [(3, 0.5), (-4, 1.0), (5, 1.5), (2, 2.0)])
@pytest.mark.parametrize("eps", [0.4, 2.0])
def test_general_equals_isotropic_for_uniform_matrix(k, l, eps):
    sys = NACSSystem.isotropic(k, l, eps, +1)
    gen, iso = b2_nacs_general(sys), b2_nacs_isotropic(sys)
    assert gen == pytest.approx(iso, rel=1e-12, abs=1e-12)


def test_isotropic_path_rejects_mixed_matrix():
    with pytest.raises(ValueError, match="uniform"):
        b2_nacs_isotropic(NACSSystem(3, 0.5, ANISO_EPS, +1))


def test_level_minus_four_isospin_one_closed_form():
    # channels reduce to one unit-statistics and eight semionic entries:
    #   B2    = (1/9) [ 5/4 - 2 exp(-eps) - 8 erfcx(sqrt(eps)) ]
    #   e_rel = (x/9) [ 2 eps exp(-eps) + 8 (sqrt(eps/pi) - eps erfcx(sqrt(eps))) ]
    for eps in (0.3, 1.3, 8.0):
        sys = NACSSystem.isotropic(-4, 1.0, eps, +1)
        b2_closed = (1.25 - 2.0 * math.exp(-eps) - 8.0 * erfcx(math.sqrt(eps))) / 9.0
        assert b2_nacs_isotropic(sys) == pytest.approx(b2_closed, rel=1e-12)
        e_closed = (
            2.0 * eps * math.exp(-eps)
            + 8.0 * (math.sqrt(eps / math.pi) - eps * erfcx(math.sqrt(eps)))
        ) / 9.0
        assert e_rel_nacs(sys, 1.0) == pytest.approx(e_closed, rel=1e-12)


def _b2_single_integral_form(eps: float) -> float:
    """Collapsed one-integral form for the uniform (k=3, l=1/2, sigma=+1) gas.

    The two channel weights fold into
        B2 = -(1/24) [ 1 + (1/pi) (6 I_half + 3 I_sixth) ],
        I_half  = int_0^inf e^{-eps t} t^{-1/2} / (1 + t) dt,
        I_sixth = int_0^inf e^{-eps t} t^{-5/6} / (1 + sqrt(3) t^{1/6} + t^{1/3}) dt,
    evaluated after the smoothing substitutions t = r**2 and t = s**6.
    """
    top_r = math.sqrt(60.0 / eps)
    rule_r = composite_rule(np.concatenate(([0.0], np.geomspace(top_r / 256, top_r, 28))), n=24)
    i_half = integrate(lambda r: np.exp(-eps * r * r) * 2.0 / (1.0 + r * r), rule_r)
    top_s = (60.0 / eps) ** (1.0 / 6.0)
    rule_s = composite_rule(np.concatenate(([0.0], np.geomspace(top_s / 256, top_s, 28))), n=24)
    i_sixth = integrate(
        lambda s: np.exp(-eps * s**6) * 6.0 / (1.0 + math.sqrt(3.0) * s + s * s), rule_s
    )
    return -(1.0 + (6.0 * i_half + 3.0 * i_sixth) / math.pi) / 24.0


@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
def test_two_channel_gas_matches_single_integral_form(eps):
    sys = NACSSystem.isotropic(3, 0.5, eps, +1)
    assert b2_nacs_isotropic(sys) == pytest.approx(_b2_single_integral_form(eps), rel=1e-10)


def test_channel_sum_is_deterministic():
    a = b2_nacs_general(NACSSystem(3, 0.5, ANISO_EPS, +1))
    b = b2_nacs_general(NACSSystem(3, 0.5, ANISO_EPS, +1))
    assert a == b  # bit-equal, not merely close


# ---------------------------------------------------------------------------
# Anisotropic matrices


def test_anisotropic_frozen_values():
    sys = NACSSystem(3, 0.5, ANISO_EPS, +1)
    assert b2_nacs_general(sys) == pytest.approx(ANISO_B2, rel=1e-12)
    assert e_rel_nacs(sys, 1.0) == pytest.approx(ANISO_E_REL, rel=1e-12)


def test_anisotropic_matches_hand_assembled_channel_sum():
    # the second matrix has a run of equal entries next to a lone one
    for rows in (ANISO_EPS, ((0.5,), (0.2, 0.2, 3.0))):
        sys = NACSSystem(3, 0.5, rows, +1)
        w = channel_weights(sys)
        by_hand = b2_softcore(w.omega[0] + 1.0, SoftCoreBC(+1, rows[0][0])).value
        for eps in rows[1]:
            by_hand += b2_softcore(w.omega[1], SoftCoreBC(+1, eps)).value
        assert b2_nacs_general(sys) == pytest.approx(by_hand / 4.0, rel=1e-14)
        e_hand = e_rel_abelian(w.nu[0], SoftCoreBC(+1, rows[0][0]), 1.0)
        for eps in rows[1]:
            e_hand += e_rel_abelian(w.nu[1], SoftCoreBC(+1, eps), 1.0)
        assert e_rel_nacs(sys, 1.0) == pytest.approx(e_hand / 4.0, rel=1e-14)


def test_uniform_rows_cost_one_abelian_call_each(monkeypatch):
    # an isotropic system pays one Abelian integral per distinct reduced
    # statistics |nu_j|, not one per (j, jz) entry or per row:
    # (4, 3/2) has 4 rows but |nu| in {7/8, 5/8}, (2, 1/2) has 2 rows
    # both at 1/4, and (3, 1) has rows 0 and 2 both at 2/3, which the
    # exact reduction rounds to the same bits
    calls = []
    chunked = anyon_abelian._integrate_chunk

    def counting(keys, *chunk):
        calls.extend(keys.tolist())
        return chunked(keys, *chunk)

    monkeypatch.setattr(anyon_abelian, "_integrate_chunk", counting)
    for k, l, expected in [(4, 1.5, 2), (2, 0.5, 1), (3, 1.0, 2)]:
        calls.clear()
        e_rel_nacs(NACSSystem.isotropic(k, l, 1.0, +1), 0.1)
        assert len(calls) == expected, (k, l)


def test_isotropic_grids_need_no_eps_matrix(monkeypatch):
    # a grid takes each channel's 2j + 1 entries and |nu_j| from (k, 2l)
    # alone: its values are the matrix route's bits, on both branches, and
    # its valid points evaluate while the matrix cannot be built; a point
    # that fails its checks still goes through NACSSystem.isotropic
    points = [
        (k, l, eps, sigma)
        for k in (3, -4)
        for l in (0.0, 0.5, 1.0, 1.5, 7.5)
        for sigma in (1.0, -1.0)
        for eps in (0.0, 0.37, 5.0, math.inf)
        if not (sigma == -1.0 and math.isinf(eps))
    ]
    b2 = [b2_nacs_isotropic(NACSSystem.isotropic(k, l, eps, int(s))) for k, l, eps, s in points]
    shift = [e_rel_nacs(NACSSystem.isotropic(k, l, eps, int(s)), 0.1) for k, l, eps, s in points]

    def refuse(*args):
        raise RuntimeError("no eps matrix")

    monkeypatch.setattr(anyon_nacs.NACSSystem, "isotropic", refuse)
    bad = (3, 0.25, 1.0, 1.0)  # l is no half-integer
    got = b2_nacs_grid(points + [bad])
    assert [v.hex() for v in got[:-1]] == [v.hex() for v in b2]
    assert f"{type(got[-1]).__name__}: {got[-1]}" == "RuntimeError: no eps matrix"
    got = e_rel_nacs_grid([(*p, 0.1) for p in points] + [(*bad, 0.1)])
    assert [v.hex() for v in got[:-1]] == [v.hex() for v in shift]
    assert isinstance(got[-1], RuntimeError)


def test_hardcore_sentinel_routes_per_channel():
    # freezing out one channel removes exactly its soft-core contribution
    mixed = NACSSystem(3, 0.5, ((float("inf"),), (0.2, 1.0, 3.0)), +1)
    soft = NACSSystem(3, 0.5, ANISO_EPS, +1)
    semion_soft = b2_softcore(0.5, SoftCoreBC(+1, 0.5)).value
    semion_hard = b2_softcore(0.5, SoftCoreBC(+1, float("inf"))).value
    assert b2_nacs_general(mixed) == pytest.approx(
        b2_nacs_general(soft) + (semion_hard - semion_soft) / 4.0, rel=1e-13
    )
    # frozen channels carry no interaction-energy shift
    e_mixed = e_rel_nacs(mixed, 1.0)
    e_soft_channels = sum(
        e_rel_abelian(1 / 6, SoftCoreBC(+1, eps), 1.0) for eps in (0.2, 1.0, 3.0)
    )
    assert e_mixed == pytest.approx(e_soft_channels / 4.0, rel=1e-13)


# ---------------------------------------------------------------------------
# Energy shift


@pytest.mark.parametrize("eps", sorted(E_REL_NACS_REFERENCE))
def test_e_rel_frozen_values(eps):
    sys = NACSSystem.isotropic(3, 0.5, eps, +1)
    assert e_rel_nacs(sys, 1.0) == pytest.approx(E_REL_NACS_REFERENCE[eps], rel=1e-12)


def test_e_rel_linear_in_dilution():
    sys = NACSSystem.isotropic(3, 0.5, 1.0, +1)
    base = e_rel_nacs(sys, 1.0)
    assert e_rel_nacs(sys, 0.25) == pytest.approx(0.25 * base, rel=1e-15)
    assert e_rel_nacs(sys, 0.0) == 0.0


def test_e_rel_vanishes_in_both_limits():
    assert e_rel_nacs(NACSSystem.isotropic(3, 0.5, float("inf"), +1), 1.0) == 0.0
    assert e_rel_nacs(NACSSystem.isotropic(3, 0.5, 0.0, +1), 1.0) == 0.0


def test_e_rel_sign_follows_branch():
    for k, l in [(3, 0.5), (-4, 1.0), (5, 1.5)]:
        for eps in (0.3, 2.0):
            assert e_rel_nacs(NACSSystem.isotropic(k, l, eps, +1), 0.5) > 0.0
            assert e_rel_nacs(NACSSystem.isotropic(k, l, eps, -1), 0.5) < 0.0


def test_e_rel_rises_then_falls_with_stiffness():
    values = [
        e_rel_nacs(NACSSystem.isotropic(3, 0.5, eps, +1), 1.0)
        for eps in (1e-5, 1.0, 1e5)
    ]
    assert values[0] < values[1] > values[2]
    assert all(v > 0 for v in values)


@given(
    k=st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0),
    twice_l=st.integers(min_value=0, max_value=3),
    eps=st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=30, deadline=None)
def test_uniform_system_properties(k, twice_l, eps):
    sys = NACSSystem.isotropic(k, twice_l / 2.0, eps, +1)
    b2 = b2_nacs_general(sys)
    assert -1.75 < b2 <= 0.25
    assert b2 == pytest.approx(b2_nacs_isotropic(sys), rel=1e-12, abs=1e-12)
    assert e_rel_nacs(sys, 1.0) >= 0.0
