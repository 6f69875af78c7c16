"""Numerical calculus of monogenic functions on three-dimensional subspaces
of finite-dimensional commutative associative algebras over C.

Each module's __all__ is the one list of its public names; the package
re-exports them all.
"""

from .algebra import *
from .geometry import *
from .resolvent import *
from .integration import *
from .monogenic import *
from .lambda_const import *
from .fixtures import *

__version__ = "0.1.0"
