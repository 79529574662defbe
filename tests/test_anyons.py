"""Tests for the 2d anyon second virial coefficient and energy shift.

Frozen numbers come from two independent routes: the semion closed forms
(30-digit erfc evaluations) and tanh-sinh quadrature of the transformed
scattering integral at 25+ digits.  The untransformed integral makes a
poor oracle at small ``|delta|`` (endpoint singularity plus a slow tail),
which is the same reason the implementation integrates in ``u = t**a``.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdgas import anyon_abelian, numerics
from lowdgas.anyon_abelian import (
    B2Value,
    SoftCoreBC,
    StatisticsParameter,
    b2_hardcore,
    b2_softcore,
    e_rel_abelian,
    e_rel_semion,
    y_dilute,
)
from lowdgas.anyon_nacs import NACSSystem, b2_nacs_isotropic, e_rel_nacs
from lowdgas.numerics import golden_section_max


# ---------------------------------------------------------------------------
# parameter reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "alpha, j, delta",
    [(0.0, 0, 0.0), (0.4, 0, 0.4), (1.0, 0, 1.0), (3.0, 2, -1.0),
     (-0.3, 0, -0.3), (-1.7, -1, 0.3), (2.0, 1, 0.0), (5.5, 3, -0.5)],
)
def test_reduction_cases(alpha, j, delta):
    p = StatisticsParameter(alpha)
    assert p.j == j
    assert p.delta == pytest.approx(delta, abs=1e-15)


@settings(max_examples=200)
@given(alpha=st.floats(-100.0, 100.0))
def test_reduction_exact_and_bounded(alpha):
    p = StatisticsParameter(alpha)
    assert 2.0 * p.j + p.delta == alpha  # exact in floating point
    assert abs(p.delta) <= 1.0


def test_reduction_rejects_nonfinite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            StatisticsParameter(bad)


def test_boundary_condition_validation():
    assert SoftCoreBC(1, math.inf).hard_core
    assert not SoftCoreBC(-1, 5.0).hard_core
    with pytest.raises(ValueError):
        SoftCoreBC(0, 1.0)
    with pytest.raises(ValueError):
        SoftCoreBC(1, -0.1)
    with pytest.raises(ValueError):
        SoftCoreBC(1, math.nan)
    with pytest.raises(ValueError):
        SoftCoreBC(-1, math.inf)  # bound-state weight exp(eps) diverges


# ---------------------------------------------------------------------------
# hard-core B2
# ---------------------------------------------------------------------------

def test_hardcore_reference_points():
    assert b2_hardcore(0.0) == -0.25
    assert b2_hardcore(1.0) == 0.25
    assert b2_hardcore(0.5) == 0.125


@settings(max_examples=100)
@given(alpha=st.floats(-50.0, 50.0), k=st.integers(-5, 5))
def test_hardcore_periodic_even_bounded(alpha, k):
    v = b2_hardcore(alpha)
    assert -0.25 <= v <= 0.25
    assert b2_hardcore(alpha + 2.0 * k) == pytest.approx(v, abs=1e-12)
    assert b2_hardcore(-alpha) == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# soft-core B2
# ---------------------------------------------------------------------------

def test_softcore_semion_closed_form():
    # at |delta|=1/2, sigma=+1 the scattering part is exactly -erfcx(1)
    # for eps = 1 (the u-integral reduces to an erfc moment)
    got = b2_softcore(0.5, SoftCoreBC(1, 1.0))
    assert got.value == pytest.approx(0.125 - 0.42758357615580697, rel=1e-13)
    assert got.hard_core_part == 0.125
    assert got.bound_state_part == 0.0


# frozen 25-digit tanh-sinh values of the transformed integral
B2_SOFTCORE_REFERENCE = {
    (0.12, +1, 0.3): -0.2617580931494057,
    (0.7, -1, 2.5): -23.990621565839255,
    (0.3, +1, 1.0): -0.2689566449978144,
    (0.9, -1, 0.05): -1.686285093654407,
}


@pytest.mark.parametrize("key", sorted(B2_SOFTCORE_REFERENCE))
def test_softcore_frozen_values(key):
    alpha, sigma, eps = key
    got = b2_softcore(alpha, SoftCoreBC(sigma, eps))
    assert got.value == pytest.approx(B2_SOFTCORE_REFERENCE[key], rel=1e-12)


def test_softcore_parts_sum_and_signs():
    for alpha, sigma, eps in [(0.3, 1, 0.7), (0.8, -1, 1.5), (0.5, -1, 0.01)]:
        b2 = b2_softcore(alpha, SoftCoreBC(sigma, eps))
        assert b2.value == sum(b2.parts)  # exact by construction
        assert b2.hard_core_part == b2_hardcore(alpha)
        if sigma == -1:
            assert b2.bound_state_part == -2.0 * math.exp(eps)
        else:
            assert b2.bound_state_part == 0.0
        assert b2.scattering_part < 0.0 if sigma == 1 else b2.scattering_part > 0.0


def test_softcore_hard_core_sentinel():
    for alpha in (0.5, 0.3, 1.0):
        b2 = b2_softcore(alpha, SoftCoreBC(1, math.inf))
        assert b2.value == b2_hardcore(alpha)
        assert b2.parts[1:] == (0.0, 0.0)


def test_softcore_bosonic_point_is_bound_state_only():
    eps = 1.7
    assert b2_softcore(0.0, SoftCoreBC(1, eps)).value == -0.25
    assert b2_softcore(2.0, SoftCoreBC(-1, eps)).value == pytest.approx(
        -0.25 - 2.0 * math.exp(eps), rel=1e-15
    )


def test_softcore_eps0_joins_the_branches():
    # at eps = 0 the bound state costs nothing and both branches meet:
    # B2 -> -(1 + 4|d| + 2 d^2)/4, from theta/sin(theta) on either side,
    # also where cos(pi d) rounds to +-1 (d near 0 or 1)
    for alpha in (0.3, 0.7, 1e-9, 1e-6, 0.999999, 1e-300):
        d = abs(StatisticsParameter(alpha).delta)
        expected = -0.25 * (1.0 + 4.0 * d + 2.0 * d * d)
        plus = b2_softcore(alpha, SoftCoreBC(1, 0.0)).value
        minus = b2_softcore(alpha, SoftCoreBC(-1, 0.0)).value
        assert plus == pytest.approx(expected, rel=1e-14)
        assert minus == pytest.approx(expected, rel=1e-14)


def test_softcore_approaches_hardcore_at_rate_eps_to_minus_delta():
    # B2(eps) - B2(inf) ~ -C eps^(-|delta|): halving ratio -> 2^|delta|
    for a in (0.3, 0.5, 0.8):
        d1 = b2_softcore(a, SoftCoreBC(1, 1e8)).value - b2_hardcore(a)
        d2 = b2_softcore(a, SoftCoreBC(1, 2e8)).value - b2_hardcore(a)
        assert d1 < 0.0 and d2 < 0.0
        assert d1 / d2 == pytest.approx(2.0**a, rel=5e-3)


@pytest.mark.parametrize("alpha", [-1.7, -0.3, 0.4, 0.9])
def test_softcore_periodicity_and_evenness(alpha):
    bc = SoftCoreBC(1, 0.8)
    base = b2_softcore(alpha, bc).value
    assert b2_softcore(alpha + 2.0, bc).value == pytest.approx(base, abs=1e-12)
    assert b2_softcore(-alpha, bc).value == pytest.approx(base, abs=1e-12)
    assert b2_softcore(2.0 - alpha, bc).value == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# energy shift
# ---------------------------------------------------------------------------

def test_anyon_calls_build_one_reference_rule():
    # every scattering integral maps the same cached 32-node panel rule
    numerics._legendre_rule.cache_clear()
    numerics._panel_reference.cache_clear()
    for alpha in (0.1, 0.35, 0.6, 0.85, 1.3):
        for sigma in (1, -1):
            for eps in (0.05, 0.7, 3.0, 20.0, 150.0):
                bc = SoftCoreBC(sigma, eps)
                b2_softcore(alpha, bc)
                e_rel_abelian(alpha, bc, 0.1)
    assert numerics._legendre_rule.cache_info().misses == 1


# values of the scattering-integral rule frozen bit for bit: (alpha,
# sigma, eps) -> (B2 value, its scattering part, shift at dilution 0.1).
# The rows cover both branches, the near-pole layout (sigma*cos(pi a) ->
# -1), the refined shoulder at |delta| < 1/2, the integer endpoints and
# eps from 1e-3 to 700.
SCATTER_PINS = {
    (0.03, +1, 0.001): (-0.25329133139951515, -0.032841331399515124, 4.4612633917451564e-05),
    (0.03, +1, 700.0): (-0.24725334371572383, -0.026803343715723817, 4.450542706255198e-05),
    (0.3, +1, 0.37): (-0.31528260599232544, -0.32028260599232544, 0.004641489679289913),
    (0.3, +1, 5.0): (-0.1973110219644318, -0.20231102196443176, 0.004179855628657459),
    (0.49, +1, 0.001): (-0.8236742715289326, -0.9436242715289326, 0.001729589548385226),
    (0.5, +1, 0.37): (-0.4391255412266347, -0.5641255412266347, 0.013445667562503016),
    (0.77, +1, 5.0): (0.06759208393478125, -0.15595791606521878, 0.015079599696366807),
    (0.999, +1, 0.001): (-1.7459888148431275, -1.9959883148431274, 0.00020086604002853836),
    (0.999, +1, 0.37): (-1.129464877486079, -1.3794643774860789, 0.051040604051874404),
    (0.999999, +1, 5.0): (0.2365233983389672, -0.013476601660532807, 0.006738030063846113),
    (-1.001, +1, 0.37): (-1.129464877486079, -1.3794643774860789, 0.051040604051874404),
    (1.0, +1, 0.37): (-1.1314686612747094, -1.3814686612747094, 0.051114340467164246),
    (0.0, +1, 0.37): (-0.25, -0.0, 0.0),
    (2.0, +1, 700.0): (-0.25, -0.0, 0.0),
    (0.6, +1, 700.0): (0.15930208072433272, -0.010697919275667262, 0.0006464398513056416),
    (0.2, +1, 60.0): (-0.18170891939217043, -0.11170891939217044, 0.0016347634035996984),
    (0.001, -1, 0.37): (-2.063193473851374, 1.0812762554752753, -0.12481889319061068),
    (1e-06, -1, 5.0): (-296.4347391784742, 0.6415780266794984, -148.42715501543108),
    (0.03, -1, 0.37): (-2.0637054697136845, 1.0522137596129646, -0.12480390886444205),
    (0.3, -1, 0.001): (-0.6912049148839476, 1.3057960854494692, -0.003294376489353659),
    (0.49, -1, 5.0): (-296.4676215329698, 0.23874667218334408, -148.42330479973896),
    (0.5, -1, 700.0): (-2.028464109470009e+304, 0.0213091626985873, -1.4199248766290064e+306),
    (0.77, -1, 0.37): (-2.405283261952372, 0.26663596737427714, -0.11454359300330577),
    (0.999, -1, 5.0): (-296.5760226012318, 0.00029610392142313325, -148.41318163551534),
    (1.0, -1, 5.0): (-296.5763182051532, -0.0, -148.4131591025766),
    (0.0, -1, 0.001): (-2.2520010003334168, -0.0, -0.00020020010003334168),
    (3.0, -1, 0.37): (-2.645469229326649, -0.0, -0.10713236148508601),
    (0.4, -1, 700.0): (-2.028464109470009e+304, 0.039956931264033185, -1.4199248766290064e+306),
    (0.1, -1, 60.0): (-2.2840147796313685e+26, 0.2984137334078468, -1.370408867778821e+27),
    (2.001, -1, 0.001): (-0.5559516008878431, 1.6950498994455738, -0.004561412851329373),
}


@pytest.mark.parametrize("key", list(SCATTER_PINS))
def test_scattering_rule_values_are_pinned_bit_for_bit(key):
    alpha, sigma, eps = key
    bc = SoftCoreBC(sigma, eps)
    b2 = b2_softcore(alpha, bc)
    assert (b2.value, b2.scattering_part, e_rel_abelian(alpha, bc, 0.1)) == SCATTER_PINS[key]


def _reference_panel_edges(a, sc, eps):
    # the panel layout as first written: Python lists, one sorted
    # generator over the filtered points, then the dedup pass
    u_star = (anyon_abelian._EXP_CUT / eps) ** a
    u_end = (anyon_abelian._EXP_END / eps) ** a
    pts = [0.0, u_end]
    base = min(1.0, u_star)
    pts += [base * 2.0**-k for k in range(13)]
    v = base
    while v < u_end:
        v *= 2.0
        pts.append(min(v, u_end))

    def refine(centre, width):
        w = 1.0
        while w > width:
            w *= 0.5
            pts.extend((centre * (1.0 - w), centre * (1.0 + w)))

    if sc < -0.5 and u_end > 1.0:
        refine(1.0, max(min(math.sqrt(2.0 * (1.0 + sc)), a) / 16.0, 1e-10))
    if a < 0.5:
        refine(u_star, max(a / 16.0, 1e-10))
    edges = [0.0]
    for p in sorted(p for p in pts if 0.0 < p <= u_end):
        if p - edges[-1] > 1e-11 * p:
            edges.append(p)
    return np.asarray(edges)


def test_panel_edges_match_the_reference_layout():
    rng = np.random.default_rng(20141)
    a = np.concatenate([rng.uniform(1e-4, 1.0, 5000), rng.uniform(0.9, 1.0, 1000), [1e-6, 0.5, 1.0]])
    sigma = rng.choice([-1.0, 1.0], a.size)
    # the layout's own sc = sigma*cos(pi a), plus arbitrary sc near the pole
    sc = np.where(rng.uniform(size=a.size) < 0.8, sigma * np.cos(np.pi * a), rng.uniform(-1.0, -0.5, a.size))
    eps = 10.0 ** rng.uniform(-3.0, np.log10(700.0), a.size)
    keys = list(zip(a.tolist(), sc.tolist(), eps.tolist()))
    # the domain end lies 7.9e-12 (relative) above the shoulder edge 0.75:
    # a gap of 1e-11 max(p, 1) would drop it, the layout's 1e-11 p keeps it
    keys.append((0.2107347924403473, -0.7887380623443557, 234.97580682876546))
    assert anyon_abelian._panel_edges(*keys[-1]).size == 25
    for ai, si, ei in keys:
        got = anyon_abelian._panel_edges(ai, si, ei)
        assert np.array_equal(got, _reference_panel_edges(ai, si, ei)), (ai, si, ei)


def _near_coincident_keys():
    # sigma = -1 keys whose pole refinement edge c = 1 + 2^-k1, shoulder
    # refinement edge u_star (1 + 2^-4) = c (1 + d1) and domain end u_end =
    # u_star (4/3)^a = c (1 + d2) lie within a few 1e-11 of each other, with
    # d1 and d2 - d1 on both sides of the 1e-11 gap; a, eps from d1, d2
    # (c = 1 + 2^-4 would centre both refinements on 1)
    keys = []
    for c in (1.5, 1.25, 1.125, 1.03125):
        for d1 in (0.0, 3e-12, 6e-12, 9.5e-12, 1.05e-11, 2e-11):
            for step in (0.0, 4e-12, 8e-12, 1.05e-11, 1.6e-11):
                a = math.log(1.0625 * (1.0 + d1 + step) / (1.0 + d1)) / math.log(4.0 / 3.0)
                u_star = c * (1.0 + d1) / 1.0625
                keys.append((a, -math.cos(math.pi * a), anyon_abelian._EXP_CUT / u_star ** (1.0 / a)))
    return keys


def test_one_layout_pass_matches_the_reference_layout():
    # the keys of test_panel_edges_match_the_reference_layout laid out as one
    # grid, plus keys at the 1e-10 refinement floor and keys whose edges
    # nearly coincide, in every block and key order the layout picks
    rng = np.random.default_rng(20141)
    a = np.concatenate([rng.uniform(1e-4, 1.0, 5000), rng.uniform(0.9, 1.0, 1000), [1e-6, 0.5, 1.0]])
    sigma = rng.choice([-1.0, 1.0], a.size)
    sc = np.where(rng.uniform(size=a.size) < 0.8, sigma * np.cos(np.pi * a), rng.uniform(-1.0, -0.5, a.size))
    eps = 10.0 ** rng.uniform(-3.0, np.log10(700.0), a.size)
    keys = list(zip(a.tolist(), sc.tolist(), eps.tolist()))
    # the floor: pole width sqrt(2 (1 + sc)) = 0, shoulder width a / 16 <
    # 1e-10 (at an eps that keeps u_star = (45/eps)^a off 1, where both
    # refinements would meet below 1)
    keys += [(x, -1.0, e) for x in (0.1, 0.3) for e in (1e-3, 1.0, 59.0)]
    keys += [(x, s, e) for x in (1e-12, 1e-9) for s in (-1.0, -0.75) for e in (1e-300, 1e-200)]
    near = _near_coincident_keys()
    keys += near
    a, sc, eps = map(np.array, zip(*keys))
    seen = np.zeros(a.size, dtype=bool)
    for block, lo, hi, panels in anyon_abelian._panel_blocks(a, sc, eps):
        wants = [_reference_panel_edges(*keys[key]) for key in block.tolist()]
        for key, top, want in zip(block.tolist(), np.split(hi, panels.cumsum()[:-1]), wants):
            assert np.array_equal(np.concatenate(([0.0], top)), want), keys[key]
        assert np.array_equal(lo, np.concatenate([want[:-1] for want in wants]))
        seen[block] = True
    assert seen.all()
    # where the shoulder edge is within 1e-11 of the pole edge and the domain
    # end within 1e-11 of the shoulder edge but not of the pole edge, the end
    # is kept: a gap to the previous candidate, not the last edge kept, would
    # drop it
    tight = 0
    for x, s, e in near:
        u_end = (anyon_abelian._EXP_END / e) ** x
        shoulder = (anyon_abelian._EXP_CUT / e) ** x * 1.0625
        pole = min(anyon_abelian._REFINE, key=lambda f: abs(f - shoulder))
        if pole < shoulder < u_end and shoulder - pole <= 1e-11 * shoulder and u_end - shoulder <= 1e-11 * u_end < u_end - pole:
            edges = _reference_panel_edges(x, s, e)
            assert shoulder not in edges and edges[-1] == u_end
            tight += 1
    assert tight >= 3


def test_integrate_on_an_anyon_rule_names_a_nonfinite_node():
    # the panel rule of a scattering integral keeps the integrand check
    a = 0.3
    rule = numerics.composite_rule(anyon_abelian._panel_edges(a, math.cos(math.pi * a), 1.0), n=32)
    bad = rule.nodes[len(rule) // 3]
    with pytest.raises(numerics.EvaluationError, match=r"^integrand returned inf at node ") as exc:
        numerics.integrate(lambda u: np.where(u == bad, math.inf, 1.0), rule)
    assert exc.value.node == bad


def test_shift_fermionic_point_closed_form():
    for eps in (0.3, 1.0, 4.0):
        got = e_rel_abelian(1.0, SoftCoreBC(1, eps), 1.0)
        assert got == pytest.approx(2.0 * eps * math.exp(-eps), rel=1e-15)
    # maximum 2/e sits at eps = 1
    assert e_rel_abelian(1.0, SoftCoreBC(1, 1.0), 1.0) == pytest.approx(
        2.0 / math.e, rel=1e-15
    )


def test_shift_bosonic_points_and_hard_core_limit_vanish():
    assert e_rel_abelian(0.0, SoftCoreBC(1, 2.0), 1.0) == 0.0
    assert e_rel_abelian(2.0, SoftCoreBC(1, 0.5), 1.0) == 0.0
    assert e_rel_abelian(0.4, SoftCoreBC(1, math.inf), 1.0) == 0.0
    assert e_rel_abelian(0.4, SoftCoreBC(1, 0.0), 1.0) == 0.0


def test_shift_linear_in_dilution_and_validates_it():
    bc = SoftCoreBC(1, 0.9)
    one = e_rel_abelian(0.3, bc, 1.0)
    assert e_rel_abelian(0.3, bc, 0.25) == pytest.approx(0.25 * one, rel=1e-15)
    with pytest.raises(ValueError):
        e_rel_abelian(0.3, bc, -0.1)
    with pytest.raises(ValueError):
        e_rel_semion(bc, math.inf)


def test_shift_sign_follows_sigma():
    for alpha in (0.25, 0.5, 0.8):
        for eps in (0.1, 1.0, 10.0):
            assert e_rel_abelian(alpha, SoftCoreBC(1, eps), 1.0) > 0.0
            assert e_rel_abelian(alpha, SoftCoreBC(-1, eps), 1.0) < 0.0


@pytest.mark.parametrize("alpha", [-1.7, -0.3, 0.4, 0.9])
def test_shift_periodicity_and_evenness(alpha):
    bc = SoftCoreBC(-1, 1.2)
    base = e_rel_abelian(alpha, bc, 1.0)
    assert e_rel_abelian(alpha + 2.0, bc, 1.0) == pytest.approx(base, abs=1e-12)
    assert e_rel_abelian(-alpha, bc, 1.0) == pytest.approx(base, abs=1e-12)
    assert e_rel_abelian(2.0 - alpha, bc, 1.0) == pytest.approx(base, abs=1e-12)


def test_shift_matches_b2_temperature_derivative():
    # e_rel == -x (B2 + T dB2/dT)/lambda_T^2 at fixed kappa, which folds
    # to x * eps * d(B2/lambda_T^2)/d(eps); central difference in T
    h = 1e-5
    for alpha, sigma, eps0 in [(0.3, 1, 0.7), (0.5, -1, 1.2), (0.85, 1, 3.0)]:
        b = lambda T: b2_softcore(alpha, SoftCoreBC(sigma, eps0 / T)).value
        fd = -(b(1.0 + h) - b(1.0 - h)) / (2.0 * h)
        got = e_rel_abelian(alpha, SoftCoreBC(sigma, eps0), 1.0)
        assert got == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("eps", [702.0, 705.0, 709.0, 710.0, 1e3])
def test_attractive_core_beyond_float_range_is_a_domain_error(eps):
    # the bound-state weight exp(eps) takes B_2 and the shifts past
    # 1.8e308: each call returns a finite float or raises one ValueError
    # that names eps, never -inf or a bare OverflowError
    bc = SoftCoreBC(-1, eps)
    nacs = NACSSystem.isotropic(3, 0.5, eps, -1)
    calls = {
        "b2_softcore": lambda: b2_softcore(0.3, bc).value,
        "e_rel_abelian": lambda: e_rel_abelian(0.3, bc, 1.0),
        "e_rel_semion": lambda: e_rel_semion(bc, 1.0),
        "b2_nacs_isotropic": lambda: b2_nacs_isotropic(nacs),
        "e_rel_nacs": lambda: e_rel_nacs(nacs, 1.0),
    }
    raised = set()
    for name, call in calls.items():
        try:
            value = call()
        except ValueError as err:
            assert str(err).startswith(f"eps={eps!r}: the result exceeds float range"), name
            raised.add(name)
        else:
            assert math.isfinite(value), name
    if eps == 702.0:
        assert not raised
        assert e_rel_abelian(0.3, bc, 1.0) == pytest.approx(-1.05e308, rel=3e-3)
    if eps >= 705.0:
        assert {"e_rel_abelian", "e_rel_semion", "e_rel_nacs"} <= raised
    if eps >= 710.0:
        assert raised == set(calls)


def test_vanishing_core_strength_does_not_warn():
    # at eps = 1e-250 the domain reaches u ~ 1e176, where the denominator
    # overflows to inf inside the integrand's errstate; the value is the
    # eps = 0 limit (tier-1 turns a RuntimeWarning into an error)
    got = b2_softcore(0.7, SoftCoreBC(1, 1e-250))
    assert got.value == pytest.approx(b2_softcore(0.7, SoftCoreBC(1, 0.0)).value, rel=1e-12)


def _e_rel_repulsive_mpmath(alpha, eps):
    # 2 eps (1/pi) sin(pi a) a integral exp(-eps t) t^a / D(t) dt for
    # 0 < a = alpha < 1 and sigma = +1, with s = eps t: the integrand
    # lives at t ~ 1/eps whatever eps
    with mpmath.workdps(30):
        a, e = mpmath.mpf(alpha), mpmath.mpf(eps)
        c = mpmath.cos(mpmath.pi * a)
        f = lambda s: mpmath.exp(-s) * s**a / (1 + 2 * c * (s / e) ** a + (s / e) ** (2 * a))
        integral = mpmath.quad(f, [0, 1, 10, 100, mpmath.inf])
        return float(2 * mpmath.sin(mpmath.pi * a) / mpmath.pi * a * e ** (-a) * integral)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("eps", [10.0**k for k in range(9, 16)])
def test_large_repulsive_core_matches_mpmath(alpha, eps):
    # the domain [0, (60/eps)^a] shrinks far below 1 here, so the panel
    # edges must stay apart by a gap relative to their position, or the
    # bulk ladder merges into too few panels
    got = e_rel_abelian(alpha, SoftCoreBC(1, eps), 1.0)
    assert got == pytest.approx(_e_rel_repulsive_mpmath(alpha, eps), rel=1e-9, abs=0.0)


# the deterministic domain-edge grid: alpha, sigma = +-1 and eps from 0
# through the attractive overflow edge (~703-709.8) and 1e-300 .. 1e300
EDGE_ALPHAS = sorted({*np.linspace(-3.0, 3.0, 25).tolist(), 0.5, 0.999999, 2.0, -1.0, 1e-9})
EDGE_EPS = [0.0, 703.0, 709.0, 709.9, 1e13, 1e15] + [10.0**k for k in range(-300, 301, 7)]


@pytest.mark.parametrize("sigma", [1, -1])
def test_domain_edges_return_a_finite_float_or_the_range_error(sigma):
    # every call returns a finite float or raises the one ValueError that
    # says the result exceeds float range, and nothing warns.  Left out:
    # (1e-9, -1, 1e-300), where e_rel_abelian warns of an overflow in the
    # moment-1 integral, which itself exceeds float range
    def check(name, call):
        try:
            value = call()
        except ValueError as err:
            assert "exceeds float range" in str(err), (name, err)
        else:
            assert isinstance(value, float) and math.isfinite(value), (name, value)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in EDGE_EPS:
            bc = SoftCoreBC(sigma, eps)
            for alpha in EDGE_ALPHAS:
                if (alpha, sigma, eps) == (1e-9, -1, 1e-300):
                    continue
                check(("b2_softcore", alpha, eps), lambda: b2_softcore(alpha, bc).value)
                check(("e_rel_abelian", alpha, eps), lambda: e_rel_abelian(alpha, bc, 1.0))
            check(("e_rel_semion", eps), lambda: e_rel_semion(bc, 1.0))
            for k, l in ((3, 0.5), (2, 1.0), (5, 1.5)):
                nacs = NACSSystem.isotropic(k, l, eps, sigma)
                check(("b2_nacs_isotropic", k, l, eps), lambda: b2_nacs_isotropic(nacs))
                check(("e_rel_nacs", k, l, eps), lambda: e_rel_nacs(nacs, 1.0))


def test_a_moment_integral_beyond_float_range_fails_its_own_point():
    # at (1e-9, -1, 1e-300) the moment-1 integrand passes 1.8e308 at one
    # node: the call raises the EvaluationError that names that node, and
    # nothing warns, so in a batch the points beside it keep their values
    bad = (1e-9, -1, 1e-300, 1.0)
    good = [(0.3, -1, 0.37, 1.0), (0.7, 1, 5.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(numerics.EvaluationError, match=r"^integrand returned inf at node ") as exc:
            e_rel_abelian(1e-9, SoftCoreBC(-1, 1e-300), 1.0)
        first, failed, last = anyon_abelian.e_rel_abelian_grid([good[0], bad, good[1]])
    assert math.isfinite(exc.value.node) and exc.value.node > 0.0
    assert isinstance(failed, numerics.EvaluationError) and str(failed) == str(exc.value)
    assert [first, last] == [e_rel_abelian(a, SoftCoreBC(s, e), x) for a, s, e, x in good]


def test_a_grid_chunk_stays_below_half_a_mebibyte():
    # a 400-point anyon-b2 grid evaluates a chunk of ~4096 quadrature nodes
    # at a time; larger chunks would raise the peak memory of every sweep
    points = [(a, s, e) for a in np.linspace(0.05, 0.95, 10) for e in np.geomspace(0.01, 100.0, 20) for s in (1, -1)]
    anyon_abelian.b2_softcore_grid(points[:4])  # caches built outside the trace
    tracemalloc.start()
    try:
        out = anyon_abelian.b2_softcore_grid(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 400 and all(isinstance(v, B2Value) for v in out)
    assert peak < 1 << 19, peak


def test_shift_near_integer_continuity_and_jump():
    # repulsive branch: continuous onto the fermionic closed form ...
    eps = 1.3
    lim = e_rel_abelian(1.0, SoftCoreBC(1, eps), 1.0)
    assert e_rel_abelian(1.0 - 1e-8, SoftCoreBC(1, eps), 1.0) == pytest.approx(
        lim, abs=1e-7
    )
    # ... attractive branch: the alpha -> 0 limit genuinely disagrees with
    # the bosonic point (the scattering peak rides on top of the step of
    # the exponential), plateauing at a frozen 25-digit value
    plateau = e_rel_abelian(1e-7, SoftCoreBC(-1, eps), 1.0)
    assert plateau == pytest.approx(-9.715870854619029, rel=1e-10)
    at_zero = e_rel_abelian(0.0, SoftCoreBC(-1, eps), 1.0)
    assert at_zero == pytest.approx(-2.0 * eps * math.exp(eps), rel=1e-15)
    assert abs(plateau - at_zero) > 0.17


# ---------------------------------------------------------------------------
# semion closed forms
# ---------------------------------------------------------------------------

E_REL_SEMION_REFERENCE = {
    (+1, 0.01): 0.0474543885551,
    (+1, 1.0): 0.136606007392,
    (+1, 100.0): 0.0277965610953,
    (-1, 0.01): -0.0676553918968,
    (-1, 1.0): -5.57316966431,
    (-1, 100.0): -5.37623428363e45,
}


@pytest.mark.parametrize("key", sorted(E_REL_SEMION_REFERENCE))
def test_semion_frozen_values(key):
    sigma, eps = key
    got = e_rel_semion(SoftCoreBC(sigma, eps), 1.0)
    assert got == pytest.approx(E_REL_SEMION_REFERENCE[key], rel=1e-11)


@pytest.mark.parametrize("eps", [1e-6, 0.01, 0.5, 1.0, 7.0, 100.0, 1e4])
def test_semion_closed_form_equals_quadrature(eps):
    for sigma in (+1, -1):
        if sigma == -1 and eps > 500.0:
            continue  # exp(eps) exceeds float range; both routes overflow
        bc = SoftCoreBC(sigma, eps)
        closed = e_rel_semion(bc, 1.0)
        quad = e_rel_abelian(0.5, bc, 1.0)
        assert quad == pytest.approx(closed, rel=1e-10)


def test_semion_asymptotics_and_maximum():
    # small eps: sqrt(eps/pi); large eps: 1/(2 sqrt(pi eps)) (repulsive)
    assert e_rel_semion(SoftCoreBC(1, 1e-8), 1.0) == pytest.approx(
        math.sqrt(1e-8 / math.pi), rel=1e-3
    )
    assert e_rel_semion(SoftCoreBC(1, 1e8), 1.0) == pytest.approx(
        0.5 / math.sqrt(math.pi * 1e8), rel=1e-3
    )
    assert e_rel_semion(SoftCoreBC(-1, 50.0), 1.0) == pytest.approx(
        -2.0 * 50.0 * math.exp(50.0), rel=1e-2
    )
    # the repulsive curve peaks at ~0.1384 near eps ~ 0.675
    eps_star, peak = golden_section_max(
        lambda e: e_rel_semion(SoftCoreBC(1, e), 1.0), 0.1, 3.0
    )
    assert eps_star == pytest.approx(0.6745735188, rel=1e-5)
    assert peak == pytest.approx(0.1383583879, rel=1e-9)
    assert e_rel_semion(SoftCoreBC(1, math.inf), 1.0) == 0.0


# ---------------------------------------------------------------------------
# shape in alpha: the monotonicity window
# ---------------------------------------------------------------------------

def _is_monotone_to_fermi_point(eps: float) -> bool:
    alphas = np.linspace(0.04, 1.0, 25)
    vals = [e_rel_abelian(a, SoftCoreBC(1, eps), 1.0) for a in alphas]
    return bool(np.all(np.diff(vals) > 0.0))


def test_shift_monotone_in_alpha_only_inside_window():
    # increasing up to the fermionic cusp for eps in roughly [0.13, 3.0],
    # interior maximum outside that window
    assert _is_monotone_to_fermi_point(0.2)
    assert _is_monotone_to_fermi_point(1.0)
    assert _is_monotone_to_fermi_point(2.5)
    assert not _is_monotone_to_fermi_point(0.08)
    assert not _is_monotone_to_fermi_point(5.0)
    # bracket the published 2-significant-figure endpoints
    assert not _is_monotone_to_fermi_point(0.10)
    assert _is_monotone_to_fermi_point(0.16)
    assert _is_monotone_to_fermi_point(2.8)
    assert not _is_monotone_to_fermi_point(3.3)


# ---------------------------------------------------------------------------
# dilute equation of state
# ---------------------------------------------------------------------------

def test_y_dilute_reference_slopes():
    assert y_dilute(0.3, 0.0) == pytest.approx(1.0 - 0.3 / 4.0, rel=1e-15)
    assert y_dilute(0.3, 1.0) == pytest.approx(1.0 + 0.3 / 4.0, rel=1e-15)
    flat = 1.0 - math.sqrt(0.5)
    assert y_dilute(0.5, flat) == pytest.approx(1.0, abs=1e-15)


def test_y_dilute_is_virial_form():
    for alpha in (-0.6, 0.2, 1.4):
        for x in (0.0, 0.1, 0.8):
            assert y_dilute(x, alpha) == 1.0 + b2_hardcore(alpha) * x
    with pytest.raises(ValueError):
        y_dilute(-0.2, 0.5)
