"""rlspec: spectral computation for finite-rank real linear operators on C^n.

An operator ``z -> C z + B conj(z)`` is stored as the matrix pair (C, B).
The package computes its characteristic polynomial and Hermitian
coefficient matrix, sum-of-squares decompositions and spectrum
emptiness/nonemptiness certificates, the spectrum itself as a plane point
cloud via ray sweeps, the numerical function and its field-of-values
coverage, and trace-class characteristic functions as determinant limits of
Hankel/Bergman-type truncations.
"""

from . import charpoly, errors, numfun, operators, spectrum, traceclass
from .charpoly import *
from .errors import *
from .numfun import *
from .operators import *
from .spectrum import *
from .traceclass import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    *operators.__all__,
    *charpoly.__all__,
    *spectrum.__all__,
    *numfun.__all__,
    *traceclass.__all__,
    *errors.__all__,
    "__version__",
]
