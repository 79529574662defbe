"""Thermodynamics of low-dimensional quantum gases.

Scaled-unit solvers for the repulsive 1d Bose gas at zero and finite
temperature, second virial coefficients for 2d anyons (hard-core,
soft-core with a bound state, and the non-Abelian Chern-Simons
generalization), and virial-series diagnostics for the interaction
shift in the energy-pressure relation.  The package exports every
public name of its five modules, each listed in that module's
``__all__``.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import anyon_abelian, anyon_nacs, lieb_liniger, numerics, virial
from .numerics import *  # noqa: F401,F403
from .lieb_liniger import *  # noqa: F401,F403
from .anyon_abelian import *  # noqa: F401,F403
from .anyon_nacs import *  # noqa: F401,F403
from .virial import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *(
        name
        for module in (numerics, lieb_liniger, anyon_abelian, anyon_nacs, virial)
        for name in module.__all__
    ),
]
