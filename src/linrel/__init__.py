"""Numerical toolkit for closed linear relations between complex spaces.

Relations (multivalued linear operators) are represented by orthonormal
bases of their graphs.  The package covers subspace arithmetic, the
relation calculus (adjoints, parts, block operations), the lift of a
relation to a symmetric relation with its distinguished nonnegative
selfadjoint extensions, boundary triplets with Weyl functions, and the
boundary-parameter criterion for lower bounds.

The public names are the __all__ lists of the modules below; each is
declared once, in its module, and re-exported here.
"""

from . import (
    blockcalc,
    boundary,
    config,
    errors,
    extension,
    oracle,
    relation,
    subspace,
)
from .config import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .subspace import *  # noqa: F401,F403
from .relation import *  # noqa: F401,F403
from .blockcalc import *  # noqa: F401,F403
from .extension import *  # noqa: F401,F403
from .boundary import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (config, errors, subspace, relation, blockcalc, extension, boundary, oracle)

__all__ = ["__version__"] + [name for mod in _MODULES for name in mod.__all__]
