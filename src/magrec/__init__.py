"""magrec: reconstruction of integer vectors under limited-magnitude errors.

A transmitted integer vector is read many times through a channel that may
raise up to t of its entries by at most k+ or lower them by at most k-.
This package provides the exact combinatorics of the resulting error balls,
the distance functions that characterize unique decodability, lattice codes
built from group splittings, four reconstruction / list-reconstruction
algorithms with their read-count and vote-threshold formulas, a seeded
channel simulator, the simplex reduction for tandem-duplication channels,
and a CLI that cross-checks every formula against brute-force oracles.
"""

from magrec.core import (
    ERASURE,
    ChannelParams,
    Code,
    EnumerationCapExceeded,
    EstimateWord,
    ExplicitCode,
    ReconstructionError,
    Vec,
)
from magrec.combinatorics import (
    IntersectionBounds,
    ball_matrix,
    ball_size,
    binom,
    hamming_volume,
    intersection_bounds,
    intersection_exact,
    max_intersection_of_code,
    max_intersection_whole_space,
)
from magrec.distances import (
    DistanceComponents,
    code_min_distance,
    distance_components,
    distance_general,
)
from magrec.lattice import (
    FiniteAbelianGroup,
    LatticeCode,
    SplitterSpec,
    check_partial_splitting,
    check_recon_N1,
    check_recon_N1_asym,
    check_recon_N2,
    construct_N1_code,
    construct_N2_code,
    cyclic,
    lattice_min_distance,
    min_group_order_bound,
    parse_splitter_spec,
    syndrome,
)
from magrec.reconstruction import (
    ReadSet,
    adversarial_instance,
    list_params_general,
    list_params_min,
    list_reconstruct_majority,
    list_reconstruct_min,
    list_reconstruct_sauer,
    majority_estimate,
    majority_threshold,
    reads_required_min,
    reconstruct_majority,
    reconstruct_min,
    sauer_shelah_find,
)
from magrec.tandem import (
    SimplexCode,
    reads_required_simplex,
    reconstruct_simplex_min,
    upward_ball,
)

__version__ = "0.1.0"
