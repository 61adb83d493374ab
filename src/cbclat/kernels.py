"""Incremental per-step exactness checks for the CBC search.

A CBC attempt owns one ResidueState: M and the residues nu_j =
k_j . (z_1..z_l, 0..) mod M of I's rows, in set order. Both kernels test a
candidate y for step l against it:

  integration:    accept iff (nu_j + y k_{j,l}) mod M != 0 wherever k_{j,l} != 0
  reconstruction: accept iff the distinct length-l prefixes of I keep
                  pairwise distinct residues nu_j + y k_{j,l} mod M

Distinct prefixes keep distinct residues, so a residue names its prefix
class: a successful init and every accepted step leave them so. Rows sharing
a prefix are contiguous in natural order, so row j starts a new length-l
prefix exactly where nu_j != nu_{j-1} or k_{j,l} != k_{j-1,l}; reconstruction
reads one row per distinct prefix, the projected set the direct verifier
reads. Integration reads only the rows with k_{j,l} != 0. Both take column l
from FrequencySet.nonzeros, the set's own store.

prepare_step selects those rows once per step; a candidate then costs one
(v + y k) mod M over them and a zero test or a sort. No check writes the
buffer: an accepted y returns the new residues of the rows k_{j,l} != 0 it
moves, and commit writes them in place, O(moved rows). init_residues is step 0
from all-zero residues (one prefix, the empty one), checked at z_1 = 1 and
committed whatever the verdict, so each mode's rule lives once.

Components pass through lattice.exact_operand once per step, with the max|k_l|
that FrequencySet.nonzeros keeps: int32 while M (max|k_l| + 1) < 2^31, int64
while it is < 2^63, Python ints beyond, and the step's residues v take the same
dtype, so (v + y k) mod M stays exact and the sort runs on the narrowest
integers that hold it. The buffer stays int64 whatever the tier.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .freqset import FrequencySet
from .lattice import exact_operand

MODE_INTEGRATION = "integration"
MODE_RECONSTRUCTION = "reconstruction"
MODES = (MODE_INTEGRATION, MODE_RECONSTRUCTION)


class ResidueState:
    """An attempt's residue buffer: nu_j = k_j . (z_1..z_l, 0..) mod M for every
    k_j in set order, in an int64 copy of values that commit updates in place."""

    __slots__ = ("values", "M")

    def __init__(self, values, M: int):
        v = np.array(values, dtype=np.int64)
        if M < 1:
            raise ValueError("modulus must be >= 1")
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError("residue vector must be one-dimensional and non-empty")
        if (v < 0).any() or (v >= M).any():
            raise ValueError("residues must lie in [0, M)")
        self.values, self.M = v, M


class Step(NamedTuple):
    """A step's y-independent part: the rows the verdict reads, their residues v
    and components k, and the rows with k_l != 0 (the rows y moves) with their
    components dk; v, k and dk are signed and in exact_operand's dtype, so
    v + y k is exact.
    v is a copy, stale once the step is committed."""

    state: ResidueState
    rows: np.ndarray
    v: np.ndarray
    k: np.ndarray
    moved: np.ndarray
    dk: np.ndarray


def prepare_step(state: ResidueState, I: FrequencySet, ell: int, mode: str) -> Step:
    """Select and project the rows that step ell's verdict reads, once per step.

    state holds the residues of I's rows over components 0..ell-1, and the
    distinct length-ell prefixes of I must have distinct residues in it, as
    after a successful init_residues and after every committed step: a
    reconstruction step tells the prefixes apart by their residues alone.
    """
    if len(I) != state.values.shape[0]:
        raise ValueError("frequency set size disagrees with residue vector")
    if not 0 <= ell < I.d:
        raise ValueError(f"component index {ell} outside 0..{I.d - 1}")
    moved, values, bound = I.nonzeros(ell)
    dk = exact_operand(values, state.M, bound)
    if mode == MODE_INTEGRATION:
        return Step(state, moved, state.values[moved].astype(dk.dtype, copy=False), dk, moved, dk)
    if mode != MODE_RECONSTRUCTION:
        raise ValueError(f"unknown mode: {mode!r}")
    # col is column ell in dk's dtype: dk's values and zeros, so it stays exact.
    nu, col = state.values, np.zeros(len(I), dtype=dk.dtype)
    col[moved] = dk
    rows = np.ones(nu.shape[0], dtype=bool)
    rows[1:] = (nu[1:] != nu[:-1]) | (col[1:] != col[:-1])
    return Step(state, rows, nu[rows].astype(dk.dtype, copy=False), col[rows], moved, dk)


def _shifted(step: Step, y: int) -> np.ndarray:
    """The residues of the rows the verdict reads after y, in a new array."""
    M = step.state.M
    return (step.v + (y % M) * step.k) % M


def _moved(step: Step, y: int) -> np.ndarray:
    """The residues of the rows y moves (k_l != 0) after y, in a new array."""
    M = step.state.M
    return (step.state.values[step.moved] + (y % M) * step.dk) % M


def _integration_ok(r: np.ndarray) -> bool:
    return np.count_nonzero(r) == r.shape[0]


def _reconstruction_ok(r: np.ndarray) -> bool:
    r.sort()
    return not (r[1:] == r[:-1]).any()


def commit(step: Step, r: np.ndarray) -> None:
    """Write the residues r of step.moved that a check accepted into the buffer."""
    step.state.values[step.moved] = r


# init_residues reads the verdicts here, not through the public check names:
# the benchmark's tracer wraps those and counts one call per candidate tested.
_VERDICTS = {MODE_INTEGRATION: _integration_ok, MODE_RECONSTRUCTION: _reconstruction_ok}


def init_residues(I: FrequencySet, M: int, mode: str) -> tuple[bool, ResidueState]:
    """Step 1 with the fixed choice z_1 = 1.

    Returns whether the first components alone already satisfy the mode's
    property, and a new buffer of the residues k_1 mod M whatever the verdict.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    state = ResidueState(np.zeros(len(I), dtype=np.int64), M)
    step = prepare_step(state, I, 0, mode)
    ok = _VERDICTS[mode](_shifted(step, 1))
    commit(step, _moved(step, 1))
    return ok, state


def check_exactness_integration(step: Step, y: int) -> tuple[bool, np.ndarray | None]:
    """Integration admissibility of candidate y, O(rows with k_l != 0).

    Returns the verdict and, only if True, the new residues of step.moved.
    """
    r = _shifted(step, y)  # the verdict rows are the moved rows
    return (True, r) if _integration_ok(r) else (False, None)


def check_exactness_reconstruction(step: Step, y: int) -> tuple[bool, np.ndarray | None]:
    """Reconstruction admissibility of candidate y, O(p log p) for p prefixes.

    Rows agreeing on the whole prefix count once; rows whose components are
    congruent mod M but distinct as integers stay separate, so their meeting
    residues reject y. Returns the verdict and, only if True, step.moved's new residues.
    """
    if not _reconstruction_ok(_shifted(step, y)):
        return False, None
    return True, _moved(step, y)
