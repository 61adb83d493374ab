"""Incremental per-step exactness checks for the CBC search.

Both kernels test a candidate component y for step l against the residue
vector nu accumulated over steps 1..l-1:

  integration:    accept iff (nu_j + y k_{j,l}) mod M != 0 wherever k_{j,l} != 0
  reconstruction: accept iff the distinct length-l prefixes of I keep
                  pairwise distinct residues nu_j + y k_{j,l} mod M

prepare_step does the y-independent work once per step: it selects the rows
the verdict reads and projects their residues and components. A candidate
then costs one (v + y k) mod M over those rows and a zero test or a sort; a
new state is built only on acceptance.

Integration reads only the rows with k_{j,l} != 0, which FrequencySet keeps
per column, so a step costs O(nonzeros of column l): the other rows neither
move nor reject. An accepted state is nu with the new residues written back
at those rows. Integration states carry no prefix mask.

Reconstruction keeps a prefix mask. FrequencySet rows are in natural order,
so rows sharing a length-l prefix are contiguous, and heads[j] marks the row
whose prefix differs from row j-1's. Step l extends the mask with
heads[1:] |= k_{1:,l} != k_{:-1,l}; the selected rows are then exactly the
projected set, so the verdict is the direct verifier's on it. Since accepted
steps keep distinct prefixes on distinct residues, they are also one row per
distinct pair (nu_j, k_{j,l}). An accepted state is recomputed over all rows.

Residues stay int64 up to INT64_SAFE_M; above it the projected arrays hold
Python ints, so the same expressions stay exact for any M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freqset import FrequencySet
from .lattice import INT64_SAFE_M

MODE_INTEGRATION = "integration"
MODE_RECONSTRUCTION = "reconstruction"
MODES = (MODE_INTEGRATION, MODE_RECONSTRUCTION)


@dataclass(frozen=True)
class ResidueState:
    """nu_j = k_j . (z_1..z_l, 0..) mod M for every frequency k_j, in set order,
    and, for reconstruction, heads[j]: whether row j's length-l prefix
    differs from row j-1's (None for integration)."""

    values: np.ndarray
    M: int
    heads: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if self.M < 1:
            raise ValueError("modulus must be >= 1")
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError("residue vector must be one-dimensional and non-empty")
        if (v < 0).any() or (v >= self.M).any():
            raise ValueError("residues must lie in [0, M)")
        if self.heads is not None:
            h = np.asarray(self.heads, dtype=bool)
            if h.shape != v.shape or not h[0]:
                raise ValueError("prefix mask must match the residues and start with True")
            h.setflags(write=False)
            object.__setattr__(self, "heads", h)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Step:
    """One CBC step's y-independent part: the rows the verdict reads, their
    residues v and components k mod M, and, for reconstruction only, the
    whole column and the extended prefix mask an accepted state is built from."""

    state: ResidueState
    rows: np.ndarray
    v: np.ndarray
    k: np.ndarray
    kcol: np.ndarray | None = None
    heads: np.ndarray | None = None


def _accepted(values: np.ndarray, M: int, heads: np.ndarray | None = None) -> ResidueState:
    """An accepted step's state, without re-checking residues just reduced mod M."""
    state = object.__new__(ResidueState)
    state.__dict__.update(values=values.astype(np.int64, copy=False), M=M, heads=heads)
    state.values.setflags(write=False)
    return state


def _exact(a: np.ndarray, M: int) -> np.ndarray:
    """a in a dtype where v + y*k for residues v, y, k < M cannot overflow."""
    return a if M <= INT64_SAFE_M else a.astype(object)


def _distinct(res: np.ndarray) -> bool:
    """Whether the entries of res are pairwise distinct; sorts res in place."""
    res.sort()
    return not (res[1:] == res[:-1]).any()


def init_residues(I: FrequencySet, M: int, mode: str) -> tuple[bool, ResidueState]:
    """Step 1 with the fixed choice z_1 = 1.

    Returns whether the first components alone already satisfy the mode's
    property: no k with k_1 != 0 may hit residue 0 (integration), distinct
    first components must keep distinct residues (reconstruction).
    """
    if M < 2:
        raise ValueError("need M >= 2")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    first = I.array[:, 0]
    nu = first % M
    if mode == MODE_INTEGRATION:
        return not bool(np.any((first != 0) & (nu == 0))), ResidueState(nu, M)
    heads = np.ones(first.shape[0], dtype=bool)
    heads[1:] = first[1:] != first[:-1]
    return _distinct(nu[heads]), ResidueState(nu, M, heads)


def prepare_step(state: ResidueState, I: FrequencySet, ell: int, mode: str) -> Step:
    """Select and project the rows that step ell's verdict reads, once per step.

    state holds the residues of I's rows over components 0..ell-1.
    """
    if len(I) != state.values.shape[0]:
        raise ValueError("frequency set size disagrees with residue vector")
    if not 0 <= ell < I.d:
        raise ValueError(f"component index {ell} outside 0..{I.d - 1}")
    M = state.M
    if mode == MODE_INTEGRATION:
        rows, k = I.nonzeros(ell)
        return Step(state, rows, _exact(state.values[rows], M), _exact(k % M, M))
    if mode != MODE_RECONSTRUCTION:
        raise ValueError(f"unknown mode: {mode!r}")
    if state.heads is None:
        raise ValueError("reconstruction needs a state with a prefix mask")
    kcol = I.array[:, ell]
    heads = state.heads.copy()
    heads[1:] |= kcol[1:] != kcol[:-1]
    heads.setflags(write=False)
    return Step(state, heads, _exact(state.values[heads], M), _exact(kcol[heads] % M, M),
                kcol, heads)


def check_exactness_integration(step: Step, y: int) -> tuple[bool, ResidueState | None]:
    """Integration admissibility of candidate y, O(rows with k_l != 0).

    Returns the verdict and, only if it is True, the state after the step.
    """
    M = step.state.M
    r = (step.v + (y % M) * step.k) % M
    if not r.all():  # some row with k_l != 0 lands on residue 0
        return False, None
    values = step.state.values.copy()
    values[step.rows] = r
    return True, _accepted(values, M)


def check_exactness_reconstruction(step: Step, y: int) -> tuple[bool, ResidueState | None]:
    """Reconstruction admissibility of candidate y, O(p log p) for p prefixes.

    Rows agreeing on the whole prefix count once; rows whose components are
    congruent mod M but distinct as integers stay separate, so their meeting
    residues reject y. Returns the verdict and, only if it is True, the state
    after the step.
    """
    M = step.state.M
    y %= M
    if not _distinct((step.v + y * step.k) % M):
        return False, None
    values = (_exact(step.state.values, M) + y * _exact(step.kcol % M, M)) % M
    return True, _accepted(values, M, step.heads)
