"""Spatial birth-death population dynamics on continuous habitats.

Individuals immigrate at a spatial rate b(x), die at a baseline rate m(x),
and suppress each other through a pairwise competition kernel a(x - y).  The
package provides the exact non-interacting flow, weighted-norm existence
bounds with a global continuation schedule, factorial-moment envelopes, a
truncated correlation hierarchy with pluggable closures, an exact stochastic
simulator over replica ensembles, and estimators connecting the two.

Each module's `__all__` is its one export list: the package re-exports
exactly those names, and its own `__all__` is `__version__` plus theirs.
"""

__version__ = "0.1.0"

from . import (bounds, config, estimators, hierarchy, model, simulator,
               surgailis)
from .bounds import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .hierarchy import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .surgailis import *  # noqa: F401,F403

__all__ = ["__version__", *(name for module in (
    model, surgailis, bounds, estimators, hierarchy, simulator, config)
    for name in module.__all__)]
