"""Second virial coefficient and energy shift for a gas of non-Abelian
Chern-Simons (NACS) particles.

The two-body problem block-diagonalizes over the total isospin
``j = 0 .. 2l``: each block is an Abelian anyon problem with effective
statistics ``omega_j = [j(j+1) - 2l(l+1)] / k`` (``k`` the integer
Chern-Simons level) and its own soft-core parameter ``eps_{j,jz}``,
``jz = -j .. j``.  Exchange symmetry of the isospin part decides whether
a channel enters with the bosonic or the fermionic counting: ``j + 2l``
even gives a bosonic channel, odd gives a fermionic one, which is the
bosonic expression with the statistics shifted by one unit.  ``B_2``
and the energy shift are therefore one channel sum of
:mod:`.anyon_abelian` terms over ``(2l+1)**2`` channels, in units of the
squared thermal wavelength.  Each Abelian term depends on the channel
only through its reduced statistics ``|nu_j|`` and its ``eps``, so the
sum evaluates it once per distinct reduced statistics and ``eps``, and a
grid function gathers these terms over all its points.

``l = 0`` collapses to a single bosonic channel with ``omega = 0``:
ideal bosons, as it must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable

import numpy as np

from .anyon_abelian import (
    SoftCoreBC, _b2_values, _bc_valid, _dilution, _e_rel_values, _grid, _one, _out_of_range, _rows,
)

__all__ = [
    "NACSSystem",
    "ChannelWeights",
    "channel_weights",
    "b2_nacs_general",
    "b2_nacs_isotropic",
    "b2_nacs_grid",
    "e_rel_nacs",
    "e_rel_nacs_grid",
]


def _level_isospin(k, l) -> tuple[int, int]:
    """``(k, 2l)`` as integers, or the ``ValueError`` of a ``k`` that is no
    nonzero integer, else of an ``l`` that is no non-negative half-integer."""
    try:
        integer = k == int(k) and k != 0
    except (OverflowError, ValueError):  # int() of inf or nan
        integer = False
    if not integer:
        raise ValueError(f"k must be a nonzero integer, got {k}")
    twice_l = 2.0 * float(l)
    if not (twice_l >= 0.0 and twice_l.is_integer()):
        raise ValueError(f"l must be a non-negative half-integer, got {l}")
    return int(k), int(twice_l)


@dataclass(frozen=True)
class NACSSystem:
    """Level ``k``, isospin ``l``, soft-core parameter matrix, and branch
    sign ``sigma``.

    ``eps`` is ragged: row ``j`` holds the ``2j + 1`` values
    ``eps_{j,jz}`` in ascending ``jz`` order, for ``j = 0 .. 2l``; the
    total count is ``(2l+1)**2``.  Entries are validated through
    :class:`~lowdgas.anyon_abelian.SoftCoreBC`, so ``inf`` sentinels are
    admitted per channel on the repulsive branch only.
    """

    k: int
    l: float
    eps: tuple[tuple[float, ...], ...]
    sigma: int

    def __post_init__(self):
        k, twice_l = _level_isospin(self.k, self.l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", float(self.l))
        rows = tuple(tuple(float(e) for e in row) for row in self.eps)
        object.__setattr__(self, "eps", rows)
        if len(rows) != twice_l + 1:
            raise ValueError(f"eps needs one row per channel j = 0..{twice_l}, got {len(rows)}")
        for j, row in enumerate(rows):
            if len(row) != 2 * j + 1:
                raise ValueError(f"channel j={j} needs 2j+1 = {2*j+1} entries, got {len(row)}")
        for e in dict.fromkeys(e for row in rows for e in row):
            SoftCoreBC(self.sigma, e)  # validates sign, range, sentinel, once per value

    @classmethod
    def isotropic(cls, k: int, l: float, eps: float, sigma: int) -> "NACSSystem":
        """System with every ``eps_{j,jz}`` equal to ``eps``: ``k``, ``l`` and
        the boundary condition are checked before its ``(2l+1)**2`` entries are built."""
        _, twice_l = _level_isospin(k, l)
        eps = SoftCoreBC(sigma, eps).eps
        rows = tuple((eps,) * (2 * j + 1) for j in range(twice_l + 1))
        return cls(k, l, rows, sigma)

    @property
    def channel_count(self) -> int:
        return int(round(2.0 * self.l)) + 1

    @property
    def uniform_eps(self) -> float | None:
        """The common soft-core parameter, or ``None`` if the matrix is mixed."""
        first = self.eps[0][0]
        if all(e == first for row in self.eps for e in row):
            return first
        return None


@dataclass(frozen=True)
class ChannelWeights:
    """Per-channel statistics of an :class:`NACSSystem` (index = ``j``).

    ``omega`` is the raw Chern-Simons phase ``n_j / (2k)``, with the
    integer ``n_j = 2j(j+1) - 2l(2l+2)``; ``delta`` and ``gamma`` are
    ``n_j / (2k)`` and ``(n_j + 2k) / (2k)`` taken mod 2 into ``[-1, 1)``
    on these exact integers and rounded once, so every equal statistic
    gives equal bits; ``nu`` is whichever of the two the channel's parity
    calls for (``bosonic[j]`` true for ``j + 2l`` even), and the channel
    sums evaluate the Abelian terms at ``|nu_j|``: a uniform system is
    exactly ``sum (2j+1) * B2(nu_j) / (2l+1)**2``.
    """

    omega: tuple[float, ...]
    delta: tuple[float, ...]
    gamma: tuple[float, ...]
    nu: tuple[float, ...]
    bosonic: tuple[bool, ...]


def _channels(k: int, twice_l: int) -> list[tuple]:
    """``(omega, delta, gamma, nu, bosonic)`` of each channel ``j = 0 ..
    2l`` at level ``k``, as :class:`ChannelWeights` defines them."""
    sign = 1 if k > 0 else -1  # makes the denominator 2k positive
    d = 2 * k * sign
    channels = []
    for j in range(twice_l + 1):
        n = (2 * j * (j + 1) - twice_l * (twice_l + 2)) * sign
        b = (j + twice_l) % 2 == 0
        # m / d mod 2 into [-1, 1) in integers, then one correctly rounded division
        dj, gj = (((m + d) % (2 * d) - d) / d for m in (n, n + d))
        channels.append((n / d, dj, gj, dj if b else gj, b))
    return channels


def channel_weights(sys: NACSSystem) -> ChannelWeights:
    """Reduced statistics parameters for every isospin channel."""
    return ChannelWeights(*zip(*_channels(sys.k, sys.channel_count - 1)))


def _runs(sys: NACSSystem) -> tuple[list, list, list]:
    """``(counts, stats, eps)`` of the channel sum over all ``(j, jz)`` in
    ascending order: a run of equal ``eps`` in row ``j`` is one term
    weighted by its length, at the channel's ``|nu_j|``."""
    nu = channel_weights(sys).nu
    counts, stats, eps = [], [], []
    for j, row in enumerate(sys.eps):
        for e, run in groupby(row):
            counts.append(sum(1 for _ in run))
            stats.append(abs(nu[j]))
            eps.append(e)
    return counts, stats, eps


def _channel_mean(counts: list, values, errors: dict, norm: float, top) -> tuple:
    """``(means, errors)``: each row's ``sum count * value / norm`` over the
    runs (the columns of ``values``), so equal inputs give bit-equal
    results, and each row's exception: that of its first failed term
    (``errors`` holds those by flat index), else the ``ValueError`` of a
    mean beyond float range, naming the row's largest eps ``top``."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.zeros(values.shape[0])
        for count, column in zip(counts, values.T):
            total += count * column
        means = total / norm
        if np.isinf(total).any():  # the running sum can pass 1.8e308 where the mean does not
            scaled = np.zeros(values.shape[0])
            for count, column in zip(counts, values.T):
                scaled += count / norm * column
            means = np.where(np.isinf(total), scaled, means)
    rows = {}
    for i in sorted(errors):
        rows.setdefault(i // len(counts), errors[i])
    return means, _out_of_range(means, top, rows)


def _system_mean(sys: NACSSystem, term: Callable, x: float = 0.0) -> float:
    """A system's channel sum of ``term``, a batch of one."""
    counts, stats, eps = _runs(sys)
    n, top = len(counts), np.array([max(map(max, sys.eps))])
    values, errors = term(np.full(n, x), np.array(stats), np.full(n, float(sys.sigma)), np.array(eps))
    return _one(_rows(*_channel_mean(counts, values[None, :], errors, (2.0 * sys.l + 1.0) ** 2, top)))


def _b2_term(x, a, sigma, eps) -> tuple:
    (value, *_), errors = _b2_values(a, sigma, eps)
    return value, errors


def b2_nacs_general(sys: NACSSystem) -> float:
    """``B_2 / lambda_T**2`` for an arbitrary soft-core parameter matrix:
    the ``(2l+1)**-2``-weighted sum of bosonic/fermionic Abelian
    coefficients over all ``(j, jz)`` channels."""
    return _system_mean(sys, _b2_term)


def b2_nacs_isotropic(sys: NACSSystem) -> float:
    """``B_2 / lambda_T**2`` for a fully isotropic matrix, where the
    channel sum collapses to ``(2l+1)**-2 sum_j (2j+1) B2(nu_j)``.

    Raises ``ValueError`` when the matrix is not uniform (use
    :func:`b2_nacs_general` there).
    """
    if sys.uniform_eps is None:
        raise ValueError("b2_nacs_isotropic needs a uniform eps matrix")
    return b2_nacs_general(sys)


def _isotropic_grid(points, term: Callable, dilution: bool) -> list:
    """The channel sum of ``term`` for each isotropic system ``(k, l, eps,
    sigma[, dilution])`` of ``points``, or its exception: the channels of
    each distinct ``(k, l)`` once, from ``k`` and ``2l`` alone, with one
    batch of Abelian terms.  No point builds an eps matrix: one that fails
    the array checks gets the error of :func:`_level_isospin`, else
    :class:`SoftCoreBC`, else the dilution check."""

    def checked(k, l, eps, sigma, *x):
        k, _ = _level_isospin(k, l)
        bc = SoftCoreBC(sigma, eps)
        return (k, float(l), bc.eps, bc.sigma, *map(_dilution, x))

    def valid(k, l, eps, sigma, *x):
        ok = (k == np.trunc(k)) & (k != 0.0) & np.isfinite(k) & (2.0 * l == np.trunc(2.0 * l)) & (l >= 0.0)
        return ok & np.isfinite(2.0 * l) & _bc_valid(sigma, eps) & ((x[0] >= 0.0) & (x[0] < math.inf) if x else True)

    (k, l, eps, sigma, *x), errors = _grid(points, checked, valid, (1.0, 0.0, math.inf, 1.0, 0.0)[: 4 + dilution])
    x, means, groups = x[0] if x else eps, np.zeros(eps.size), {}  # the B_2 term takes no dilution
    for i, system in enumerate(zip(k.tolist(), (2.0 * l).tolist())):
        if i not in errors:
            groups.setdefault(system, []).append(i)
    for (gk, twice_l), members in groups.items():
        # channel j is one run of 2j + 1 equal eps, at its |nu_j|
        stats = [abs(nu) for _, _, _, nu, _ in _channels(int(gk), int(twice_l))]
        counts = [2 * j + 1 for j in range(len(stats))]
        members = np.array(members)
        entry = members.repeat(len(counts))
        values, failed = term(x[entry], np.tile(stats, members.size), sigma[entry], eps[entry])
        values = values.reshape(members.size, -1)
        means[members], rows = _channel_mean(counts, values, failed, (twice_l + 1.0) ** 2, eps[members])
        errors.update((members[i].item(), err) for i, err in rows.items())
    return _rows(means, errors)


def b2_nacs_grid(points) -> list:
    """:func:`b2_nacs_isotropic` at each ``(k, l, eps, sigma)`` of
    ``points`` (or the exception it raises), all Abelian terms in chunks."""
    return _isotropic_grid(points, _b2_term, False)


def e_rel_nacs(sys: NACSSystem, dilution: float) -> float:
    """Relative internal-energy shift of the dilute NACS gas, to first
    order in ``dilution = rho * lambda_T**2``.

    Every channel contributes with the sign of ``sigma`` (the shared
    denominator of the scattering integrals is positive), so the total
    obeys the same sign law as the Abelian shift.  Channels with the
    hard-core sentinel contribute zero.
    """
    return _system_mean(sys, _e_rel_values, _dilution(dilution))


def e_rel_nacs_grid(points) -> list:
    """:func:`e_rel_nacs` at each ``(k, l, eps, sigma, dilution)`` of
    ``points`` (or the exception it raises), all Abelian terms in chunks."""
    return _isotropic_grid(points, _e_rel_values, True)
