"""Tests for the shared numerical kernels.

Reference values are frozen from independent sources: Gauss-Legendre
exactness is checked against closed-form monomial integrals and the
weights of large rules against a 40-digit mpmath recurrence, the error
function family against 30-digit mpmath evaluations, and the root /
fixed-point helpers against textbook constants recomputed inline by a
different method (bisection, series).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdgas import numerics
from lowdgas.numerics import (
    BracketError,
    ConvergenceError,
    EvaluationError,
    FixedPointConfig,
    QuadratureRule,
    composite_rule,
    derivative,
    erfcx,
    find_root,
    gauss_legendre,
    golden_section_max,
    integrate,
    solve_fixed_point,
)

# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 16, 64])
def test_gauss_legendre_polynomial_exactness(n):
    # an n-point rule integrates monomials through degree 2n-1 exactly
    rule = gauss_legendre(n, 0.0, 1.0)
    for p in (0, 1, n, 2 * n - 1):
        got = float(rule.weights @ rule.nodes**p)
        assert got == pytest.approx(1.0 / (p + 1), abs=5e-14)


def test_gauss_legendre_degree_boundary():
    # ...and fails at degree 2n by a nonzero margin
    rule = gauss_legendre(4, 0.0, 1.0)
    got = float(rule.weights @ rule.nodes**8)
    assert abs(got - 1.0 / 9.0) > 1e-10


def test_gauss_legendre_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(8, 1.0, 1.0)


def test_gauss_legendre_rejects_non_integer_n():
    with pytest.raises(TypeError):
        gauss_legendre(2.5)
    with pytest.raises(TypeError):
        gauss_legendre(4.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 32, 64, 201, 1615])
def test_gauss_legendre_symmetric_and_matches_leggauss(n):
    rule = gauss_legendre(n)
    x, w = rule.nodes, rule.weights
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    ref_x, _ = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= 2.3e-16


def test_gauss_legendre_newton_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(numerics, "_GL_MAX_EVALS", 2)
    numerics._legendre_rule.cache_clear()  # an earlier test may have cached n = 64
    with pytest.raises(ConvergenceError, match="n=64"):
        gauss_legendre(64)


def _mp_gauss_legendre_weight(n: int, x0: float) -> mpmath.mpf:
    """40-digit weight of the node of ``P_n`` next to ``x0``: Newton on
    the three-term recurrence, then ``2 / ((1 - x^2) P_n'(x)^2)``."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for step in range(4):  # 1e-16 -> 1e-32 -> 1e-64: the last pass only evaluates
            p0, p1 = mpmath.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / ((x - 1) * (x + 1))
            if step < 3:
                x -= p1 / dp
        return 2 / ((1 - x) * (1 + x) * dp * dp)


@pytest.mark.parametrize("n", [807, 3231])
@pytest.mark.parametrize("i", [0, 5])
def test_gauss_legendre_weights_match_40_digits(n, i):
    # numpy's leggauss misses the edge weight of the 3231-node rule by 2.9e-7
    rule = gauss_legendre(n)
    exact = _mp_gauss_legendre_weight(n, rule.nodes[i])
    assert abs(rule.weights[i] - float(exact)) <= 1e-9 * float(exact)


def test_quadrature_rule_weight_sum_invariant():
    rule = gauss_legendre(32, -2.0, 5.0)
    assert float(rule.weights.sum()) == pytest.approx(7.0, rel=1e-12)
    assert len(rule) == 32


def test_composite_rule_matches_single_panel():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    single = integrate(f, gauss_legendre(64, 0.0, 4.0))
    split = integrate(f, composite_rule([0.0, 0.5, 1.0, 2.5, 4.0], n=24))
    assert split == pytest.approx(single, rel=1e-13)


def test_composite_rule_maps_each_panel_exactly():
    # the broadcast panel map against a per-panel loop over the same rule
    edges = np.array([-1.5, -1.4, 0.0, 0.3, 2.0, 9.75])
    x, w = numerics._legendre_rule(24)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x + 1.0))
        weights.append(half * w)
    rule = composite_rule(edges, n=24)
    assert np.array_equal(rule.nodes, np.concatenate(nodes))
    assert np.array_equal(rule.weights, np.concatenate(weights))
    assert rule.domain == (-1.5, 9.75)


def test_cached_reference_rule_is_read_only():
    x, w = numerics._legendre_rule(24)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert numerics._legendre_rule(24)[0] is x
    with pytest.raises(ValueError):
        numerics._panel_reference(24)[0, 0, 0] = 0.0


def test_importing_the_package_builds_no_rule_and_pulls_in_no_extras():
    # interpreter start and these imports are the fixed cost of every CLI
    # call: no rule or table is built and no optional or lazily loaded
    # module is imported until a solver asks for it
    code = (
        "import sys, lowdgas, lowdgas.cli\n"
        "from lowdgas import lieb_liniger, numerics\n"
        "extras = ('numpy.polynomial', 'mpmath', 'scipy', 'sympy', 'hypothesis')\n"
        "print([m for m in extras if m in sys.modules])\n"
        "print(numerics._legendre_rule.cache_info().currsize,"
        " lieb_liniger._legendre_projection.cache_info().currsize,"
        " lieb_liniger._upsampled_legendre.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["[]", "0 0 0"]


def test_gauss_legendre_returns_fresh_arrays():
    first = gauss_legendre(201, -3.0, 3.0)
    nodes, weights = first.nodes.copy(), first.weights.copy()
    assert first.nodes.flags.writeable and first.weights.flags.writeable
    first.nodes[:] = 0.0
    first.weights[:] = -1.0
    second = gauss_legendre(201, -3.0, 3.0)
    assert np.array_equal(second.nodes, nodes)
    assert np.array_equal(second.weights, weights)


def test_composite_rule_rejects_no_nodes():
    with pytest.raises(ValueError, match="at least one node"):
        composite_rule([0.0, 1.0], n=0)


_GOOD = ([0.25, 0.5, 0.75], [1 / 3, 1 / 3, 1 / 3], (0.0, 1.0))


@pytest.mark.parametrize(
    "nodes, weights, domain, message",
    [
        ([0.25, 0.5], [0.5, 0.25, 0.25], (0.0, 1.0), "1-d arrays of equal length"),
        ([[0.25, 0.5]], [[0.5, 0.5]], (0.0, 1.0), "1-d arrays of equal length"),
        ([0.25, 0.25, 0.75], _GOOD[1], (0.0, 1.0), "strictly increasing"),
        ([0.25, 0.75, 0.5], _GOOD[1], (0.0, 1.0), "strictly increasing"),
        ([0.75, 0.5, 0.25], _GOOD[1], (0.0, 1.0), "strictly increasing"),
        ([0.0, 0.5, 0.75], _GOOD[1], (0.0, 1.0), "strictly inside the domain"),
        ([0.25, 0.5, 1.0], _GOOD[1], (0.0, 1.0), "strictly inside the domain"),
        ([-0.5, 0.5, 0.75], _GOOD[1], (0.0, 1.0), "strictly inside the domain"),
        ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], (0.0, math.inf), "strictly inside the domain"),
        (_GOOD[0], [0.5, 0.0, 0.5], (0.0, 1.0), "weights must be positive"),
        (_GOOD[0], [0.75, -0.25, 0.5], (0.0, 1.0), "weights must be positive"),
        (_GOOD[0], [0.5, 0.5, 0.5], (0.0, 1.0), "sum to the domain length"),
        (_GOOD[0], [0.3, 0.3, 0.3], (0.0, 1.0), "sum to the domain length"),
        # every comparison with a NaN is False, so a check written as a
        # condition for failure would let these through
        ([0.25, math.nan, 0.75], _GOOD[1], (0.0, 1.0), "strictly increasing"),
        ([math.nan, 0.5, 0.75], _GOOD[1], (0.0, 1.0), "strictly increasing"),
        ([1.0, math.nan], [1.0, 1.0], (0.0, math.inf), "strictly increasing"),
        ([math.nan], [1.0], (0.0, 1.0), "strictly inside the domain"),
        ([math.nan], [1.0], (0.0, math.inf), "strictly inside the domain"),
        (_GOOD[0], [1 / 3, math.nan, 1 / 3], (0.0, 1.0), "weights must be positive"),
        ([1.0, 2.0], [math.nan, 1.0], (0.0, math.inf), "weights must be positive"),
        (_GOOD[0], [1 / 3, math.inf, 1 / 3], (0.0, 1.0), "sum to the domain length"),
    ],
)
def test_quadrature_rule_rejects_malformed_input(nodes, weights, domain, message):
    with pytest.raises(ValueError, match=message):
        QuadratureRule(np.array(nodes), np.array(weights), domain)


def test_quadrature_rule_accepts_the_edge_of_each_check():
    QuadratureRule(np.array(_GOOD[0]), np.array(_GOOD[1]), _GOOD[2])
    # the sum is checked only on a finite domain, and only to 1e-12
    QuadratureRule(np.array([1.0, 2.0]), np.array([5.0, 7.0]), (0.0, math.inf))
    QuadratureRule(np.array(_GOOD[0]), np.array([1 / 3, 1 / 3, 1 / 3 + 5e-13]), _GOOD[2])
    QuadratureRule(np.array([0.5]), np.array([1.0]), (0.0, 1.0))
    QuadratureRule(np.array([]), np.array([]), (0.0, math.inf))


@pytest.mark.parametrize(
    "edges",
    [[0.0], [], [0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5], [1.0, 0.0], [[0.0, 1.0]]],
)
def test_composite_rule_rejects_edges_that_do_not_increase(edges):
    with pytest.raises(ValueError, match="strictly increasing sequence of at least two points"):
        composite_rule(edges, n=4)


def test_composite_rule_rejects_a_nan_edge():
    with pytest.raises(ValueError, match="strictly increasing sequence of at least two points"):
        composite_rule([0.0, math.nan, 1.0], n=4)


def test_composite_rule_rejects_a_panel_whose_nodes_alias():
    # the middle panel is one ulp wide: its 32 mapped nodes round onto a
    # few floats, which the node-order check of the rule catches
    with pytest.raises(ValueError, match="quadrature nodes must be strictly increasing"):
        composite_rule([0.0, 1.0, math.nextafter(1.0, 2.0), 2.0], n=32)


def test_composite_rule_rejects_a_panel_whose_weights_underflow():
    # a panel one subnormal wide has a half-width of 0: its weight
    # underflows to 0 (with n = 1 the order check has nothing to catch)
    with pytest.raises(ValueError, match="quadrature weights must be positive"):
        composite_rule([-1.0, 0.0, 5e-324, 1.0], n=1)


def test_integrate_rejects_nonfinite_values():
    rule = gauss_legendre(16, 0.0, 1.0)
    with pytest.raises(EvaluationError) as exc, np.errstate(divide="ignore"):
        integrate(lambda x: 1.0 / (x - rule.nodes[3]), rule)
    assert exc.value.node == pytest.approx(rule.nodes[3])


def test_integrate_names_the_first_nonfinite_node():
    rule = gauss_legendre(8, 0.0, 1.0)
    values = np.ones(8)
    values[[2, 5]] = math.inf, math.nan
    with pytest.raises(EvaluationError, match=r"^integrand returned \S*inf\S* at node ") as exc:
        integrate(lambda x: values, rule)
    assert exc.value.node == rule.nodes[2]


def test_nonfinite_message_prints_plain_floats():
    # the CLI writes the message into a status cell: no numpy reprs there
    rule = gauss_legendre(8, 0.0, 1.0)
    values = np.ones(8)
    values[2] = math.inf
    with pytest.raises(EvaluationError) as exc:
        integrate(lambda x: values, rule)
    assert str(exc.value) == f"integrand returned inf at node {float(rule.nodes[2])!r}"
    assert "np.float64" not in str(exc.value)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


def test_fixed_point_scalar_cosine():
    # Dottie number, re-derived here by plain bisection of cos(x) - x
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    dottie = 0.5 * (lo + hi)
    got = solve_fixed_point(math.cos, 0.5, FixedPointConfig())
    assert isinstance(got, float)
    assert got == pytest.approx(dottie, abs=1e-9)
    assert got == pytest.approx(0.7390851332151607, abs=1e-9)


def test_fixed_point_vector_and_idempotence():
    a = np.array([[0.5, 0.1], [0.0, 0.4]])
    b = np.array([1.0, 2.0])
    exact = np.linalg.solve(np.eye(2) - a, b)
    step = lambda x: a @ x + b
    x = solve_fixed_point(step, np.zeros(2), FixedPointConfig(tol=1e-13))
    assert np.allclose(x, exact, atol=1e-11)
    # feeding a converged point back in returns immediately
    again = solve_fixed_point(step, x, FixedPointConfig(tol=1e-13, max_iter=2))
    assert np.allclose(again, x, atol=1e-12)


def test_fixed_point_nonconvergence_carries_state():
    cfg = FixedPointConfig(damping=1.0, tol=1e-15, max_iter=10)
    with pytest.raises(ConvergenceError) as exc:
        solve_fixed_point(lambda x: x + 1.0, 0.0, cfg)
    assert exc.value.residual == pytest.approx(1.0)
    assert exc.value.best is not None


def test_fixed_point_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(damping=0.0)
    with pytest.raises(ValueError):
        FixedPointConfig(max_iter=0)


# ---------------------------------------------------------------------------
# root finding / extremum
# ---------------------------------------------------------------------------


def test_find_root_erf_half():
    # erf(x) = 1/2 at x = 0.47693627620447, re-derived from the Taylor
    # series of erf evaluated at the candidate root
    root = find_root(lambda x: math.erf(x) - 0.5, (0.0, 1.0), tol=1e-14)
    series = 0.0
    term = root
    k = 0
    while abs(term) > 1e-18:
        series += term / (2 * k + 1)
        k += 1
        term *= -root * root / k
    assert 2.0 / math.sqrt(math.pi) * series == pytest.approx(0.5, abs=1e-13)
    assert root == pytest.approx(0.47693627620447, abs=1e-11)


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: 1.0 + x * x, (-1.0, 1.0))


def test_find_root_steep_function():
    root = find_root(lambda x: math.tanh(50.0 * (x - 0.3)), (-2.0, 2.0), tol=1e-13)
    assert root == pytest.approx(0.3, abs=1e-10)


def test_golden_section_quadratic():
    x, fx = golden_section_max(lambda t: -(t - 1.3) ** 2 + 2.0, 0.0, 4.0, tol=1e-10)
    assert x == pytest.approx(1.3, abs=1e-7)
    assert fx == pytest.approx(2.0, abs=1e-12)


def _recorded(f):
    """``f`` with every argument and value it is called with recorded."""
    calls = []

    def g(x):
        calls.append((x, f(x)))
        return calls[-1][1]

    return g, calls


def _check_search(calls, result, lo, hi):
    # every evaluation lies strictly inside the bracket, and the result is
    # the best of them, returned without a further call
    assert all(lo < x < hi for x, _ in calls)
    assert result in calls
    assert result[1] == max(v for _, v in calls)


def test_brent_takes_parabolic_steps_on_a_quadratic():
    f, calls = _recorded(lambda t: -(t - 1.3) ** 2 + 2.0)
    result = golden_section_max(f, 0.0, 4.0, tol=1e-6)
    _check_search(calls, result, 0.0, 4.0)
    assert len(calls) <= 8  # plain golden section takes 33
    assert abs(result[0] - 1.3) <= 2e-6  # half the stop width tol * (|a| + |b|)


def test_brent_finds_the_zero_temperature_peak_in_few_evaluations():
    from lowdgas.lieb_liniger import e_res_zero_T

    f, calls = _recorded(e_res_zero_T)
    result = golden_section_max(f, 1.0, 10.0, tol=1e-6)
    _check_search(calls, result, 1.0, 10.0)
    assert len(calls) <= 12  # plain golden section takes 32
    # the maximum sits at gamma = 4.6573332 (a search to tol = 1e-11)
    assert abs(result[0] - 4.6573332) <= 1e-5


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_brent_on_a_monotone_function_ends_at_the_bracket_end(sign):
    f, calls = _recorded(lambda x: sign * x)
    result = golden_section_max(f, 0.0, 1.0, tol=1e-8)
    _check_search(calls, result, 0.0, 1.0)
    end = 1.0 if sign > 0 else 0.0
    assert abs(result[0] - end) <= 1e-8


@pytest.mark.parametrize("f", [math.cos, lambda x: 1.0], ids=["cos", "constant"])
def test_brent_on_a_function_flat_to_rounding_stays_inside(f):
    # cos(x) rounds to 1 for |x| < 1.5e-8: no parabola resolves the top,
    # and a tol far below that must still end inside the bracket
    g, calls = _recorded(f)
    result = golden_section_max(g, -1.0, 2.0, tol=1e-14)
    _check_search(calls, result, -1.0, 2.0)
    assert result[1] == 1.0
    assert len(calls) < 200


@pytest.mark.parametrize("lo, hi, tol", [(1.0, 1.0, 1e-8), (2.0, 1.0, 1e-8), (0.0, 1.0, 0.0)])
def test_golden_section_max_rejects_an_empty_bracket_or_tol(lo, hi, tol):
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, lo, hi, tol=tol)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_derivative_exact_for_cubic():
    # Richardson-extrapolated central difference is exact on cubics
    val, err = derivative(lambda x: x**3 - 2 * x, 1.7)
    assert val == pytest.approx(3 * 1.7**2 - 2, rel=1e-11)
    assert abs(val - (3 * 1.7**2 - 2)) <= err + 1e-11


def test_derivative_error_estimate_is_honest():
    for x0 in (0.3, 2.0, 10.0):
        val, err = derivative(math.exp, x0)
        assert abs(val - math.exp(x0)) <= 10 * err


def test_derivative_respects_scale():
    # a feature of width ~1e-4 is invisible at the default step but
    # resolved with a matching scale
    f = lambda x: math.tanh((x - 1.0) / 1e-4)
    val, _ = derivative(f, 1.0, scale=1e-5)
    assert val == pytest.approx(1e4, rel=1e-4)


# ---------------------------------------------------------------------------
# error-function family
# ---------------------------------------------------------------------------

# frozen from mpmath (30 significant digits), including both sides of
# the series/continued-fraction switchover at x = 6
ERFCX_REFERENCE = {
    -3.0: 16205.988853999587,
    -0.5: 1.9523604891825571,
    0.0: 1.0,
    0.3: 0.73459933456765515,
    1.0: 0.427583576155807,
    2.5: 0.21080636406114358,
    5.9: 0.094307136148326846,
    6.0: 0.092776567800538354,
    6.1: 0.09129430036868366,
    10.0: 0.056140992743822586,
    50.0: 0.011281536265323773,
    1e2: 0.0056416137829894329,
    1e4: 5.6418958072680841e-5,
    1e8: 5.6418958354775626e-9,
}


@pytest.mark.parametrize("x,expected", sorted(ERFCX_REFERENCE.items()))
def test_erfcx_reference_values(x, expected):
    assert erfcx(x) == pytest.approx(expected, rel=2e-14)


def test_erfcx_no_overflow_at_large_argument():
    assert 0.0 < erfcx(1e4) < 1.0
    assert erfcx(1e8) == pytest.approx(1.0 / (1e8 * math.sqrt(math.pi)), rel=1e-10)


@given(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_erfcx_identity_against_stdlib(x):
    # for moderate x the product form is directly representable
    if x < 6.0:
        assert erfcx(x) == pytest.approx(math.exp(x * x) * math.erfc(x), rel=1e-13)
    else:
        # continued fraction bracketed by its asymptotic envelope
        env = 1.0 / (x * math.sqrt(math.pi))
        assert env * (1.0 - 0.5 / (x * x)) < erfcx(x) < env


def test_erfcx_switchover_continuity():
    # the implementation changes algorithm at x = 6; values on the two
    # sides must agree with the smooth reference to full precision
    left, right = erfcx(6.0 - 1e-9), erfcx(6.0 + 1e-9)
    assert left == pytest.approx(right, rel=1e-8)
