"""Domain-decomposed reduced-order modeling from snapshot data.

The package learns small quadratic surrogate models from trajectories of a
large simulation, optionally splitting the spatial domain into overlapping
subdomains so the expensive linear algebra runs on pieces of the snapshot
matrix instead of the whole thing.  Learned models time-step cheaply and
blend subdomain predictions back into full fields.
"""

from . import core, decomp, metrics, opinf, pod, preprocess, regsearch, rom
from .core import *  # noqa: F401,F403
from .decomp import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .opinf import *  # noqa: F401,F403
from .pod import *  # noqa: F401,F403
from .preprocess import *  # noqa: F401,F403
from .regsearch import *  # noqa: F401,F403
from .rom import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = [
    name
    for module in (core, decomp, metrics, opinf, pod, preprocess, regsearch, rom)
    for name in module.__all__
] + ["__version__"]
