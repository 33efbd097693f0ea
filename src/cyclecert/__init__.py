"""Rotation certificates for cyclic sums, and their graph corollaries.

The core fact: a cyclic list of rationals has total strictly under h
exactly when some rotation keeps every prefix sum strictly under its
share j*h/n, and symmetrically for totals strictly above.  Everything
else here rides on that: equality certificates from a pair of nudged
bounds, per-part prefix pruning for exact domination searches on
cyclically symmetric graphs, and crossing-weight certificates for
drawings of periodically tiled graphs.
"""

from .cyclic_core import *
from .graphs import *
from .iso import *
from .structures import *
from .tiles import *
from .domination import *
from .crossing import *

__version__ = "0.1.0"
