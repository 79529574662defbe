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
those two places, 16 Gauss-Legendre nodes a panel.  At the integer
points the peak and the vanishing ``sin(pi delta)`` prefactor cancel
analytically, so those are served by their exact limits rather than by
quadrature.

The integral is the spectral form of the Mittag-Leffler function: with
``a = |delta|`` and ``xi = eps**a`` the scattering part is
``-2 a E_a(-xi)`` on the repulsive branch and ``-2 (a E_a(xi) -
exp(eps))`` on the attractive one, and the shift is ``2 sigma x a xi
E_{a,a}(-sigma xi)``.  Against those series the rule is within 5e-15
relative from ``a = 0.01`` up to the fermionic pole, for ``eps`` from
1e-6 to 600; the near-pole denominator and the angles of ``a > 1/2``
are taken from exact differences to get there.

Points are evaluated in batches, a few array passes each: the points are
checked on arrays, the panel layouts of all their distinct keys built and
checked together, then integrated in chunks; a single call is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .numerics import _attempt, _erfcx_deficit, _panel_reference, _weighted_sum, erfcx

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


class B2Value(NamedTuple):
    """``B_2`` in units of the squared thermal wavelength, split into its
    hard-core, bound-state, and scattering-integral parts (``value`` is
    their exact floating-point sum).  A tuple of the four floats in that
    order, so a grid's results are a table's rows as they stand."""

    value: float
    hard_core_part: float
    bound_state_part: float
    scattering_part: float

    @property
    def parts(self) -> tuple[float, float, float]:
        return self[1:]


def _exp_or_inf(x: float) -> float:
    """``exp(x)``, ``inf`` where it exceeds float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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

_NODES = 16  # the 1d solvers' panel rule
_EXP_CUT = 45.0  # exp(-45) ~ 3e-20: where the integrand stops mattering
_EXP_END = 60.0  # domain truncation; relative tail error ~ exp(-60)
# halvings of the bulk ladder below min(1, u_star): the first panel holds
# the u**(1/a) endpoint term of exp(-eps u**(1/a)), which 16 nodes resolve
# to the Mittag-Leffler oracle's 5e-15 from 18 halvings on (worst errors
# 9.0e-12 at 12 halvings, 3.1e-14 at 16, 1.9e-15 at 18)
_LADDER = 18
# the factors 1 -+ w of the refinement edges centre * (1 -+ w), for
# w = 1/2, 1/4, ..., 2^-40 (a refinement width is at least 1e-10)
_REFINE = np.array([c for k in range(1, 41) for c in (1.0 - 2.0**-k, 1.0 + 2.0**-k)])
# quadrature nodes integrated, and candidate panel edges sorted, at once (a
# rule has ~490 nodes): this bounds a batch's memory
_CHUNK = 4096


def _panel_blocks(a, sc, eps):
    """Breakpoints for the transformed integrand
    ``exp(-eps * u**(1/a)) * u**(m/a) / (1 + 2*sc*u + u**2)`` on
    ``[0, u_end]`` at each key of the arrays: a geometric ladder through
    the bulk plus dyadic refinement at the two sharp features (the
    near-pole peak at ``u = 1`` when ``sc -> -1``, and the exponential
    shoulder near ``u_star``, whose relative width is ``~ a``).  Yields
    ``(keys, lo, hi, panels)`` per block of keys, which sorts their
    candidate edges as the rows of one matrix of at most ``_CHUNK`` cells
    (or one row): the ends of their panels, key after key, and each key's
    panel count.
    """
    # the ends from math's pow, as numpy's may differ in the last bit
    u_star = np.array(list(map(pow, (_EXP_CUT / eps).tolist(), a.tolist())))
    u_end = np.array(list(map(pow, (_EXP_END / eps).tolist(), a.tolist())))
    base = np.minimum(u_star, 1.0)
    # doublings of base up to the first >= u_end: at most e(u_end) - e(base)
    # + 1 in binary exponents e, or up to overflow where u_end is inf
    top = np.frexp(u_end)[1]
    top[np.isinf(u_end)] = 1025
    width = [top - np.frexp(base)[1] + 1]
    pole = np.maximum(np.minimum(np.sqrt(2.0 * (1.0 + sc)), a) / 16.0, 1e-10)
    # the refinement levels 2^-k down to the first <= width (0 for none)
    width += [
        np.where((sc < -0.5) & (u_end > 1.0), 2 - 2 * np.frexp(pole)[1], 0),
        np.where(a < 0.5, 2 - 2 * np.frexp(np.maximum(a / 16.0, 1e-10))[1], 0),
    ]
    # blocks in order of row width, each part as wide as in the block's widest row
    order = np.argsort(sum(width), kind="stable")
    while order.size:
        rows = (_LADDER + 3) + sum(np.maximum.accumulate(w[order]) for w in width)
        fits = max(1, np.count_nonzero(np.arange(1, order.size + 1) * rows <= _CHUNK))
        keys, order = order[:fits], order[fits:]
        doublings, *widths = (int(w[keys].max()) for w in width)
        ladder = _LADDER + 1 + doublings
        pts = np.empty((keys.size, ladder + 2 + sum(widths)))  # a 0 column, ladder, u_end, refinements
        pts[:, 0] = 0.0
        with np.errstate(over="ignore"):  # doublings past a domain end of inf
            np.ldexp(base[keys, None], np.arange(-_LADDER, doublings + 1, dtype=np.intc), out=pts[:, 1 : ladder + 1])
        pts[:, ladder + 1] = u_end[keys]
        col = ladder + 2
        for w, centre, n in zip(width[1:], (1.0, u_star[keys, None]), widths):
            np.multiply(centre, _REFINE[:n], out=pts[:, col : col + n])
            pts[:, col : col + n][np.arange(n) >= w[keys, None]] = math.nan  # sorted last
            col += n
        pts.sort(axis=1)
        yield (keys, *_dedup(pts, u_end[keys]))


def _dedup(pts, u_end):
    """``(lo, hi, panels)`` from rows of sorted candidate edges after a 0:
    drop near-coincident edges, since panels narrower than 1e-11 of their
    position would alias the Gauss nodes onto each other in double; the
    gap is relative at every scale, since at large eps the whole domain
    [0, u_end] shrinks far below 1.  Every point is positive, and only
    refinement and doublings overshoot u_end."""
    edges = pts[:, 1:]
    inside = edges <= u_end[:, None]
    with np.errstate(invalid="ignore"):  # inf - inf at a domain end of inf
        keep = edges - pts[:, :-1] > 1e-11 * edges
    keep &= inside
    # the gap is to the last edge kept, the left neighbour unless that was
    # dropped: a row that drops two in a row is redone in order
    dropped = inside > keep
    for row in (dropped[:, 1:] & dropped[:, :-1]).any(axis=1).nonzero()[0].tolist():
        last = 0.0
        for i, p in enumerate(edges[row, : inside[row].sum()].tolist()):
            keep[row, i] = p - last > 1e-11 * p
            last = p if keep[row, i] else last
    hi, panels = edges[keep], keep.sum(axis=1)
    lo = np.concatenate(([0.0], hi[:-1]))
    lo[panels.cumsum() - panels] = 0.0
    return lo, hi, panels


def _integrate(a, sigma, eps, moment: int):
    """``(totals, errors)``: the integral ``I`` of :func:`_scatter_parts` at
    each key of the arrays (``0 < a < 1``, ``0 < eps < inf``), and the
    exception of each key whose rule or integrand fails, by index."""
    # math's scalar functions, as numpy's differ in the last bit on some
    # hosts; 2(1 + sc) = 4 cos^2(pi a/2) (sigma = +1) or 4 sin^2(pi a/2) is
    # taken free of cancellation near the fermionic pole, and for a > 1/2 at
    # the exact pi (1 - a)/2 with cos and sin swapped
    sc = sigma * np.array(list(map(math.cos, (math.pi * a).tolist())))
    cosine = (sigma == +1) != (a > 0.5)
    two_ops = [4.0 * (math.cos if c else math.sin)(h) ** 2 for h, c in zip((0.5 * math.pi * _reflected(a)).tolist(), cosine.tolist())]
    table = np.array((1.0 / a, -eps, moment * (1.0 / a), two_ops)).T  # the integrand's parameters, a row per key
    totals, errors = np.full(a.size, math.nan), {}
    # a value beyond float range fails only its own key's sum; at eps -> 0 the
    # domain reaches u ~ 1e176, where f / inf = 0 is the integrand's limit
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for keys, lo, hi, panels in _panel_blocks(a, sc, eps):
            first = np.concatenate(([0], panels.cumsum()))
            offsets = (_NODES * first).tolist()
            half = (hi - lo) * 0.5
            # a key's nodes lo + half (x + 1) and weights half w meet QuadratureRule's four checks on
            # [0, end] where its edges are finite and increasing (0 < half < inf) and the first is
            # 0, as _dedup keeps each panel at least 1e-11 of its position wide
            wrong = (~((half > 0.0) & (half < math.inf))).nonzero()[0]
            faults = dict.fromkeys((first.searchsorted(wrong, "right") - 1).tolist(), "quadrature nodes must be strictly increasing")
            for k in (lo[first[:-1]] != 0.0).nonzero()[0].tolist():  # a rule on [lo, end]
                faults.setdefault(k, "weights of a finite-domain rule must sum to the domain length")
            start = 0
            while start < keys.size:  # as many keys as fit in _CHUNK nodes, at least one
                stop = max(start + 1, int(first.searchsorted(first[start] + _CHUNK // _NODES, "right")) - 1)
                p, bounds = slice(first[start], first[stop]), [n - offsets[start] for n in offsets[start : stop + 1]]
                rows = table[keys[start:stop]].repeat(panels[start:stop], axis=0)  # a row per panel
                _integrate_chunk(keys[start:stop], lo[p], half[p], rows, bounds, moment, totals, errors)
                start = stop
            # a faulty key's text wins over the non-finite sum it gives
            errors.update((keys[k], ValueError(text)) for k, text in faults.items())
    return totals, errors


def _integrate_chunk(keys, lo, half, rows, bounds, moment: int, totals, errors) -> None:
    """Store in ``totals``, or else in ``errors``, the integral at each key of
    a chunk, over its panels ``(lo, lo + 2 half)`` with the integrand's
    parameter ``rows``: key ``i`` holds the nodes ``bounds[i]:bounds[i + 1]``
    of the rule that :func:`~lowdgas.numerics.composite_rule` would map on
    the layout that :func:`_integrate` checks, and a pass of the integrand
    ``exp(-eps * u**(1/a)) * u**(m/a) / ((1-u)**2 + 2u(1+sc))`` gives a sum per key."""
    # the reference nodes x + 1 and weights w of every panel, end to end, from
    # a cached copy for a power of two of panels
    x1, w = _panel_reference(_NODES, max(_CHUNK // _NODES, 1 << (half.size - 1).bit_length()))[:, 0, : bounds[-1]]
    spread = half.repeat(_NODES)
    nodes = spread * x1
    weights = np.multiply(spread, w, out=spread)
    # 1 - u = (1 - lo) - h (x + 1), rounded once from the unrounded node:
    # 1 - lo is exact for lo in [1/2, 2] (Sterbenz), while 1 - u of the
    # rounded node u loses up to ulp(1) against a peak as narrow as 1e-10
    u = nodes.reshape(-1, _NODES)
    den = np.subtract((1.0 - lo)[:, None], u)
    u += lo[:, None]
    inv_a, neg_eps, log_scale, two_ops = rows.T[:, :, None]
    f = np.power(u, inv_a)
    f *= neg_eps
    if moment:  # at m = 0 the log term is a signed zero and is skipped
        log_w = np.log(u)
        log_w *= log_scale
        f += log_w
    np.exp(f, out=f)
    np.square(den, out=den)
    den += np.multiply(u, two_ops)
    f /= den
    f = f.ravel()
    totals[keys] = sums = [np.dot(weights[i:j], f[i:j]) for i, j in zip(bounds, bounds[1:])]
    for k in [k for k, total in enumerate(sums) if not math.isfinite(total)]:
        i, j = bounds[k : k + 2]
        try:  # a non-finite value, named by its node, fails this key
            _weighted_sum(weights[i:j], f[i:j], nodes[i:j])
        except ValueError as err:
            errors[keys[k]] = err


def _reflected(a):
    """``min(a, 1 - a)``: ``sin(pi a)`` and the half angles of ``a > 1/2``
    are taken at ``pi (1 - a)``, which is exact there, while ``pi a`` loses
    ``ulp(pi)`` against ``pi (1 - a)`` as ``a -> 1``."""
    return np.minimum(a, 1.0 - a)


def _scatter_parts(a, sigma, eps, moment: int):
    """``(parts, errors)``: the part ``(sigma/pi) sin(pi a) a I`` at each
    ``(a, sigma, eps)`` of the arrays, and the exception of each entry whose
    part failed, by index: ``I`` integrates
    ``exp(-eps t) t**(a - 1 + moment) / (1 + 2 sigma cos(pi a) t**a + t**(2a))``
    over ``[0, inf)``; ``moment = 0`` for ``B_2``, 1 for its ``-d/d(eps)``.
    Each distinct key is integrated once."""
    # sin(pi a) kills the integral at the integers except against the sigma =
    # +1 fermionic-point pole, whose limit is exp(-eps).  At eps = 0 the exp
    # factor is gone; the moment-0 integral is theta / (a sin(theta)) with
    # theta = acos(sigma cos(pi a)), that is pi a or pi (1 - a), and sin(theta)
    # = sin(pi a), so the part is sigma theta / pi, taken without acos, which
    # loses theta where sigma cos(pi a) rounds to -+1.  At eps = inf it is 0
    integer = (a == 0.0) | (a == 1.0)
    parts = np.where(integer | (eps != 0.0), 0.0, np.where(sigma == +1, a, a - 1.0))
    pole = ((a == 1.0) & (sigma == +1)).nonzero()[0]
    parts[pole] = list(map(math.exp, (-eps[pole]).tolist()))
    todo = (~integer & (eps > 0.0) & (eps < math.inf)).nonzero()[0]
    errors = {}
    if todo.size:
        keys = np.array((a[todo], sigma[todo], eps[todo]))
        order = np.lexsort(keys[::-1]) if todo.size > 1 else np.zeros(1, dtype=np.intp)
        new = np.ones(todo.size, dtype=bool)  # the distinct keys, and each entry's among them
        new[1:] = (keys[:, order[1:]] != keys[:, order[:-1]]).any(axis=0)
        index = np.empty(todo.size, dtype=np.intp)
        index[order] = new.cumsum() - 1
        ka, ks, ke = keys[:, order[new]]
        totals, failed = _integrate(ka, ks, ke, moment)
        sin_pa = np.array(list(map(math.sin, (math.pi * _reflected(ka)).tolist())))
        with np.errstate(over="ignore", invalid="ignore"):  # a failed key's total is nan
            parts[todo] = ((ks / math.pi) * sin_pa * (ka * (totals / ka)))[index]
        for key, err in failed.items():
            errors.update(dict.fromkeys(todo[index == key].tolist(), err))
    return parts, errors


def _in_range(value: float, eps: float) -> float:
    """``value``, or the domain error of an attractive core whose
    bound-state weight ``exp(eps)`` takes the result out of float range."""
    if math.isfinite(value):
        return value
    raise ValueError(f"eps={eps!r}: the result exceeds float range (the bound-state weight is exp(eps))")


def _out_of_range(value, eps, errors: dict) -> dict:
    """``errors``, plus the :func:`_in_range` error of each other entry."""
    for i in (~np.isfinite(value)).nonzero()[0].tolist():
        errors.setdefault(i, _attempt(_in_range, value.item(i), eps.item(i)))
    return errors


def _b2_values(a, sigma, eps):
    """``((value, hard_core, bound, scatter), errors)`` of :func:`b2_softcore`
    at each checked ``(|delta|, sigma, eps)`` of the arrays."""
    parts, errors = _scatter_parts(a, sigma, eps, 0)
    hc, bound, scatter = _hardcore(a), np.zeros(a.size), -2.0 * parts
    attractive = (sigma == -1).nonzero()[0]
    bound[attractive] = [-2.0 * _exp_or_inf(e) for e in eps[attractive].tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        value = hc + bound + scatter
    hard = np.isinf(eps)  # the hard-core value, with unsigned zero parts
    scatter[hard], value[hard] = 0.0, hc[hard]
    return (value, hc, bound, scatter), _out_of_range(value, eps, errors)


def _e_rel_values(x, a, sigma, eps):
    """``(value, errors)`` of :func:`e_rel_abelian` at each checked dilution
    ``x`` and ``(|delta|, sigma, eps)`` of the arrays."""
    parts, errors = _scatter_parts(a, sigma, eps, 1)
    zero, bound = np.isinf(eps) | (eps == 0.0), np.zeros(a.size)  # no shift there
    attractive = ((sigma == -1) & ~zero).nonzero()[0]
    bound[attractive] = [-_exp_or_inf(e) for e in eps[attractive].tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        value = 2.0 * x * eps * (bound + parts)
    value[zero] = 0.0
    return value, _out_of_range(value, eps, errors)


def _one(columns, errors: dict) -> list:
    """The values of a batch of one, or its exception."""
    if errors:
        raise errors[0]
    return [c.item() for c in columns]


# ---------------------------------------------------------------------------
# points and grids
# ---------------------------------------------------------------------------


def _grid(points, checked: Callable, valid: Callable, blank: tuple):
    """``(columns, errors)``: the points as float columns, and the exception
    of each point that fails its checks, by index.  The checks run on the
    columns (``valid`` marks the points that pass); a point that fails them,
    or any point of a grid that is not all numbers, goes through the scalar
    ``checked(*point)``, which raises the point's exception or returns its
    checked values; a point that is no sequence, or does not hold one
    value per entry of ``blank``, fails before that.  A failed point's
    columns hold ``blank``, which costs nothing to evaluate."""
    points = list(points)
    try:
        table = np.array(points)
    except ValueError:  # points of different lengths
        table = np.array(())
    if table.dtype.kind in "biuf" and table.shape == (len(points), len(blank)):
        columns = table.T.astype(float)
        bad = (~valid(*columns)).nonzero()[0].tolist()
    else:
        columns, bad = np.repeat(np.array(blank)[:, None], len(points), axis=1), range(len(points))
    errors = {}
    for i in bad:
        try:
            point = tuple(points[i])
            if len(point) != len(blank):
                raise ValueError(f"a point takes {len(blank)} values, got {len(point)}")
            columns[:, i] = checked(*point)
        except Exception as err:  # this point's own failure
            errors[i], columns[:, i] = err, blank
    return columns, errors


def _rows(values, errors: dict) -> list:
    """The value (or row of values) of each point, or its exception."""
    rows = values.tolist()
    for i, err in errors.items():
        rows[i] = err
    return rows


def _bc_valid(sigma, eps):
    """The points that :class:`SoftCoreBC` accepts."""
    return ((sigma == 1.0) | (sigma == -1.0)) & (eps >= 0.0) & ~(np.isinf(eps) & (sigma == -1.0))


def _reduced(alpha: float, bc: SoftCoreBC) -> tuple[float, int, float]:
    return abs(StatisticsParameter(alpha).delta), bc.sigma, bc.eps


def _abelian_grid(points, dilution: bool):
    """``(x, |delta|, sigma, eps)`` columns of ``(alpha, sigma, eps[,
    dilution])`` points, checked as :class:`SoftCoreBC`, ``_dilution`` and
    :class:`StatisticsParameter` check them, and each failed point's error."""

    def checked(alpha, sigma, eps, *x):
        bc = SoftCoreBC(sigma, eps)
        x = tuple(map(_dilution, x))
        return (StatisticsParameter(alpha).alpha, bc.sigma, bc.eps, *x)

    def valid(alpha, sigma, eps, *x):
        return _bc_valid(sigma, eps) & np.isfinite(alpha) & ((x[0] >= 0.0) & (x[0] < math.inf) if x else True)

    (alpha, sigma, eps, *x), errors = _grid(points, checked, valid, (0.0, 1.0, math.inf, 0.0)[: 3 + dilution])
    # |delta| of alpha = 2j + delta as StatisticsParameter reduces it
    return (*x, np.abs(alpha - 2.0 * np.rint(alpha / 2.0)), sigma, eps), errors


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
    return B2Value(*_one(*_b2_values(*map(np.array, zip(_reduced(alpha, bc))))))


def b2_softcore_grid(points) -> list:
    """:func:`b2_softcore` at each ``(alpha, sigma, eps)`` of ``points``, or
    the exception it raises, with the integrals of all points in chunks."""
    keys, errors = _abelian_grid(points, False)
    columns, failed = _b2_values(*keys)
    rows = list(map(B2Value._make, np.stack(columns, axis=1).tolist()))
    for i, err in {**failed, **errors}.items():
        rows[i] = err
    return rows


def _dilution(dilution: float) -> float:
    x = float(dilution)
    if not x >= 0.0 or math.isinf(x):
        raise ValueError(f"dilution must be finite and >= 0, got {dilution}")
    return x


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
    return _one(*_e_rel_values(*map(np.array, zip((x, *_reduced(alpha, bc))))))[0]


def e_rel_abelian_grid(points) -> list:
    """:func:`e_rel_abelian` at each ``(alpha, sigma, eps, dilution)`` of
    ``points``, or the exception it raises, like :func:`b2_softcore_grid`."""
    keys, errors = _abelian_grid(points, True)
    value, failed = _e_rel_values(*keys)
    return _rows(value, {**failed, **errors})


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
    root, scale = math.sqrt(eps), math.sqrt(eps / math.pi)
    # scale (1 - sqrt(pi) root erfcx(root)) cancels from root = 6 on, where its deficit form does not
    scatter = scale - eps * erfcx(root) if root < 6.0 else scale * _erfcx_deficit(root)
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
