"""Photon-number statistics of quantum light scattered by a rotating ground glass.

The package models what a photon-number-resolving detector behind a deep
multiply-scattering diffuser sees: exact occupation combinatorics for Fock
inputs, mixtures for arbitrary input statistics, closed-form correlation
maps, the many-diffuser limit, and a Monte Carlo sampler to check it all.

The public API is the union of the modules' own ``__all__`` lists.
"""

from . import combinatorics, core, inputs, montecarlo, plimit, transform
from .core import *
from .inputs import *
from .combinatorics import *
from .transform import *
from .plimit import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *inputs.__all__,
    *combinatorics.__all__,
    *transform.__all__,
    *plimit.__all__,
    *montecarlo.__all__,
]
