"""Rotation certificates for cyclic sums, and their graph corollaries.

The core fact: a cyclic list of rationals has total strictly under h
exactly when some rotation keeps every prefix sum strictly under its
share j*h/n, and symmetrically for totals strictly above.  Everything
else here rides on that: equality certificates from a pair of nudged
bounds, per-part prefix pruning for exact domination searches on
cyclically symmetric graphs, and crossing-weight certificates for
drawings of periodically tiled graphs.
"""

from .cyclic_core import (
    Block,
    BlockCover,
    BoundSpec,
    CyclicList,
    Direction,
    EqualityCertificate,
    PrefixGoal,
    PrefixTable,
    RotationCertificate,
    as_fraction,
    cyclic_list,
    equality_certificate,
    find_rotation,
    greedy_block_cover,
    prefix_condition_all_starts,
    scan_rotation,
    total,
    verify_certificate,
)
from .errors import BudgetExceededError, SearchBudget
from .graphs import (
    Graph,
    cartesian_cycles,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    norm_edge,
)
from .iso import isomorphic
from .structures import (
    CyclicSymmetry,
    EdgeDecomposition,
    Piece,
    VertexPartition,
    circulant14_decomposition,
    column_shift_symmetry,
    columns_partition,
    cyclic_symmetry_violations,
    find_shift,
    find_transitive_partition,
    is_transitive_decomposition,
    is_transitive_partition,
    star_decomposition_bipartite,
    star_decomposition_complete,
    validate_decomposition,
    validate_partition,
)
from .tiles import Tile, canonical_periodic_decomposition, tile_close, tile_concat, tile_power
from .domination import (
    SolveReport,
    Variant,
    decide_parameter_via_prefix,
    epn,
    induced_perfect_matching_exists,
    ipn,
    is_dominating,
    is_minimal_dominating,
    is_minimal_total_dominating,
    is_paired_dominating,
    is_total_dominating,
    max_minimal_parameter,
    min_parameter,
    paired_lower_bound,
    paired_value_c5,
    pn,
    prefix_pruned_search,
    rd_graph,
    rd_prefix_pruned_search,
    rd_vertex,
)
from .crossing import (
    AbstractDrawing,
    DoubledWeightList,
    Parity,
    Violation,
    convex_drawing,
    cr_between,
    cr_total,
    decomposition_weights,
    jordan_parity_screen,
    periodic_prefix_certificate,
    prefix_cr_certificate,
    validate_drawing,
)

__version__ = "0.1.0"
