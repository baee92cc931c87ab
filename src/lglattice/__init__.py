"""Lattice models for twisted light scattered off azimuthally shaped clouds.

The pipeline runs density profile -> coupling matrices -> many-body
Hamiltonian, with an inverse-design layer that picks profiles realizing
target hopping ranges, decay laws and plaquette fluxes.
"""

from . import couplings, density, design, manybody, modes
from .couplings import *
from .density import *
from .design import *
from .manybody import *
from .modes import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted(
    name for module in (couplings, density, design, manybody, modes) for name in module.__all__
)
