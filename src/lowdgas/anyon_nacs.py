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
only through its reduced statistics ``|delta|`` and its ``eps``, so the
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

from .anyon_abelian import (
    SoftCoreBC, StatisticsParameter, _b2_value, _dilution, _e_rel_value, _evaluate, _in_range, _one,
)
from .numerics import _attempt

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
        if self.k != int(self.k) or self.k == 0:
            raise ValueError(f"k must be a nonzero integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        twice_l = 2.0 * float(self.l)
        if twice_l < 0.0 or twice_l != round(twice_l):
            raise ValueError(f"l must be a non-negative half-integer, got {self.l}")
        object.__setattr__(self, "l", float(self.l))
        rows = tuple(tuple(float(e) for e in row) for row in self.eps)
        object.__setattr__(self, "eps", rows)
        if len(rows) != int(twice_l) + 1:
            raise ValueError(
                f"eps needs one row per channel j = 0..{int(twice_l)}, got {len(rows)}"
            )
        for j, row in enumerate(rows):
            if len(row) != 2 * j + 1:
                raise ValueError(f"channel j={j} needs 2j+1 = {2*j+1} entries, got {len(row)}")
        for e in dict.fromkeys(e for row in rows for e in row):
            SoftCoreBC(self.sigma, e)  # validates sign, range, sentinel, once per value

    @classmethod
    def isotropic(cls, k: int, l: float, eps: float, sigma: int) -> "NACSSystem":
        """System with every ``eps_{j,jz}`` equal to ``eps``."""
        twice_l = 2.0 * float(l)
        if not (twice_l >= 0.0 and twice_l == round(twice_l)):
            raise ValueError(f"l must be a non-negative half-integer, got {l}")
        rows = tuple((float(eps),) * (2 * j + 1) for j in range(int(twice_l) + 1))
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

    ``omega`` is the raw Chern-Simons phase; ``delta`` and ``gamma`` its
    even reductions to ``[-1, 1)`` before and after the one-unit
    fermionic shift; ``nu`` picks whichever of the two the channel's own
    parity calls for (``bosonic[j]`` true for ``j + 2l`` even), so a
    uniform system is just ``sum (2j+1) * B2(nu_j)``.
    """

    omega: tuple[float, ...]
    delta: tuple[float, ...]
    gamma: tuple[float, ...]
    nu: tuple[float, ...]
    bosonic: tuple[bool, ...]


def _mod2_shift(x: float) -> float:
    # x mod 2 taken into [0, 2) (Python's floored %), then shifted to [-1, 1)
    return x % 2.0 - 1.0


def channel_weights(sys: NACSSystem) -> ChannelWeights:
    """Reduced statistics parameters for every isospin channel."""
    twice_l = int(round(2.0 * sys.l))
    ll1 = sys.l * (sys.l + 1.0)
    omega, delta, gamma, nu, bosonic = [], [], [], [], []
    for j in range(twice_l + 1):
        w = (j * (j + 1.0) - 2.0 * ll1) / sys.k
        b = (j + twice_l) % 2 == 0
        omega.append(w)
        delta.append(_mod2_shift(w + 1.0))
        gamma.append(_mod2_shift(w))
        nu.append(_mod2_shift(w - 1.0) if b else _mod2_shift(w))
        bosonic.append(b)
    return ChannelWeights(
        tuple(omega), tuple(delta), tuple(gamma), tuple(nu), tuple(bosonic)
    )


def _plan(sys: NACSSystem, term: Callable[[tuple, dict], float]) -> tuple:
    """The plan of ``(2l+1)**-2 sum term(key_j, parts)`` over all ``(j, jz)``
    in ascending order, so equal inputs give bit-equal results, ``key_j``
    the reduced ``(|stat_j|, sigma, eps)`` of ``stat_j = omega_j`` (bosonic)
    or ``omega_j + 1`` (fermionic).  A run of equal ``eps`` in a row is one
    term weighted by its length, and each distinct key is integrated once;
    a mean beyond float range raises the ``ValueError`` naming the largest
    ``eps``."""
    w = channel_weights(sys)
    runs = []
    for j, row in enumerate(sys.eps):
        stat = w.omega[j] if w.bosonic[j] else w.omega[j] + 1.0
        reduced = abs(StatisticsParameter(stat).delta)
        runs += [(sum(1 for _ in run), (reduced, sys.sigma, eps)) for eps, run in groupby(row)]

    def mean(parts: dict) -> float:
        terms = [(count, term(key, parts)) for count, key in runs]
        norm = (2.0 * sys.l + 1.0) ** 2
        total = 0.0
        for count, value in terms:
            total += count * value
        mean = total / norm
        if math.isinf(total):
            # the running sum can pass 1.8e308 where the mean does not
            mean = sum(count / norm * value for count, value in terms)
        return _in_range(mean, max(map(max, sys.eps)))

    return [key for _, key in runs], mean


def _b2_term(key: tuple, parts: dict) -> float:
    return _b2_value(key, parts).value


def b2_nacs_general(sys: NACSSystem) -> float:
    """``B_2 / lambda_T**2`` for an arbitrary soft-core parameter matrix:
    the ``(2l+1)**-2``-weighted sum of bosonic/fermionic Abelian
    coefficients over all ``(j, jz)`` channels."""
    return _one(_plan(sys, _b2_term), 0)


def b2_nacs_isotropic(sys: NACSSystem) -> float:
    """``B_2 / lambda_T**2`` for a fully isotropic matrix, where the
    channel sum collapses to ``(2l+1)**-2 sum_j (2j+1) B2(stat_j)``.

    Raises ``ValueError`` when the matrix is not uniform (use
    :func:`b2_nacs_general` there).
    """
    if sys.uniform_eps is None:
        raise ValueError("b2_nacs_isotropic needs a uniform eps matrix")
    return b2_nacs_general(sys)


def b2_nacs_grid(points) -> list:
    """:func:`b2_nacs_isotropic` at each ``(k, l, eps, sigma)`` of
    ``points`` (or the exception it raises), all Abelian terms in chunks."""
    return _evaluate([_attempt(lambda *p: _plan(NACSSystem.isotropic(*p), _b2_term), *p) for p in points], 0)


def e_rel_nacs(sys: NACSSystem, dilution: float) -> float:
    """Relative internal-energy shift of the dilute NACS gas, to first
    order in ``dilution = rho * lambda_T**2``.

    Every channel contributes with the sign of ``sigma`` (the shared
    denominator of the scattering integrals is positive), so the total
    obeys the same sign law as the Abelian shift.  Channels with the
    hard-core sentinel contribute zero.
    """
    x = _dilution(dilution)
    return _one(_plan(sys, lambda key, parts: _e_rel_value(x, key, parts)), 1)


def e_rel_nacs_grid(points) -> list:
    """:func:`e_rel_nacs` at each ``(k, l, eps, sigma, dilution)`` of
    ``points`` (or the exception it raises), all Abelian terms in chunks."""

    def plan(k, l, eps, sigma, dilution):
        sys, x = NACSSystem.isotropic(k, l, eps, sigma), _dilution(dilution)
        return _plan(sys, lambda key, parts: _e_rel_value(x, key, parts))

    return _evaluate([_attempt(plan, *p) for p in points], 1)
