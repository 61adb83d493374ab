"""Rank-1 lattices for exact trigonometric integration and reconstruction.

Construct generating vectors component by component with randomized
candidate testing, and shrink the lattice size by repeated halving while the
construction keeps succeeding.
"""

from .freqset import (
    FrequencySet,
    WeightSpec,
    difference_set,
    expansion,
    gen_axis_cross,
    gen_cube,
    gen_superposition2,
    gen_weighted_hyperbolic,
    max_abs,
    read_set,
    write_set,
)
from .heuristic import SearchOutcome, TrailEntry, heuristic_search, initial_size
from .kernels import (
    MODE_INTEGRATION,
    MODE_RECONSTRUCTION,
    ResidueState,
    Step,
    check_exactness_integration,
    check_exactness_reconstruction,
    commit,
    init_residues,
    prepare_step,
)
from .lattice import (
    Rank1Lattice,
    TrigPolynomial,
    cubature,
    eval_on_lattice,
    eval_poly,
    nodes,
    reconstruct_coeffs,
    verify_integration,
    verify_reconstruction,
)
from .primes import is_prime, nextprime
from .search import (
    CbcConfig,
    CbcResult,
    cbc_construct,
    cbc_construct_basic,
    cbc_exhaustive,
    estimate_failure_bound,
    two_step_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "FrequencySet", "WeightSpec", "gen_cube", "gen_axis_cross", "gen_superposition2",
    "gen_weighted_hyperbolic", "difference_set", "expansion", "max_abs",
    "read_set", "write_set",
    "Rank1Lattice", "TrigPolynomial", "nodes", "cubature", "verify_integration",
    "verify_reconstruction", "eval_poly", "eval_on_lattice", "reconstruct_coeffs",
    "ResidueState", "Step", "init_residues", "prepare_step", "check_exactness_integration",
    "check_exactness_reconstruction", "commit", "MODE_INTEGRATION", "MODE_RECONSTRUCTION",
    "CbcConfig", "CbcResult", "two_step_permutation", "cbc_construct", "cbc_construct_basic",
    "cbc_exhaustive", "estimate_failure_bound",
    "is_prime", "nextprime", "initial_size", "heuristic_search", "SearchOutcome",
    "TrailEntry",
]
