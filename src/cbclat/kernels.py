"""Incremental per-step exactness checks for the CBC search.

Both kernels test a candidate component y for step l against the residue
vector nu accumulated over steps 1..l-1:

  integration:    accept iff (nu_j + y k_{j,l}) mod M != 0 wherever k_{j,l} != 0
  reconstruction: accept iff the distinct length-l prefixes of I keep
                  pairwise distinct residues nu_j + y k_{j,l} mod M

prepare_step does the y-independent work once per step: it selects the rows
the verdict reads and projects their residues and components. A candidate
then costs one (v + y k) mod M over those rows and a sort (reconstruction) or
a zero test (integration); the full state is updated only on acceptance.

Prefix mask: FrequencySet rows are in natural order, so rows sharing a
length-l prefix are contiguous and the first of each, heads[j], is the row
whose prefix differs from row j-1's. Step l extends the carried mask with
heads[1:] |= k_{1:,l} != k_{:-1,l}. The selected rows are then exactly the
projected set, so the verdict is the direct verifier's on it; and since every
accepted step keeps distinct prefixes on distinct residues, they are also one
row per distinct pair (nu_j, k_{j,l}).

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
    and heads[j]: whether row j's length-l prefix differs from row j-1's."""

    values: np.ndarray
    M: int
    heads: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        h = np.asarray(self.heads, dtype=bool)
        if self.M < 1:
            raise ValueError("modulus must be >= 1")
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError("residue vector must be one-dimensional and non-empty")
        if np.any(v < 0) or np.any(v >= self.M):
            raise ValueError("residues must lie in [0, M)")
        if h.shape != v.shape or not h[0]:
            raise ValueError("prefix mask must match the residues and start with True")
        v.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "heads", h)


@dataclass(frozen=True)
class Step:
    """One CBC step's y-independent part: the column, the extended prefix
    mask, and the selected rows' residues v and components k mod M."""

    state: ResidueState
    kcol: np.ndarray
    heads: np.ndarray
    v: np.ndarray
    k: np.ndarray


def _exact(a: np.ndarray, M: int) -> np.ndarray:
    """a in a dtype where v + y*k for residues v, y, k < M cannot overflow."""
    return a if M <= INT64_SAFE_M else a.astype(object)


def _distinct(res: np.ndarray) -> bool:
    """Whether the entries of res are pairwise distinct; sorts res in place."""
    res.sort()
    return not bool(np.any(res[1:] == res[:-1]))


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
    heads = np.ones(first.shape[0], dtype=bool)
    heads[1:] = first[1:] != first[:-1]
    if mode == MODE_INTEGRATION:
        ok = not bool(np.any((first != 0) & (nu == 0)))
    else:
        ok = _distinct(nu[heads])
    return ok, ResidueState(nu, M, heads)


def prepare_step(state: ResidueState, kcol, mode: str) -> Step:
    """Select and project the rows the mode's verdict reads, once per step."""
    kcol = np.asarray(kcol, dtype=np.int64)
    if kcol.shape != state.values.shape:
        raise ValueError("component column length disagrees with residue vector")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    heads = state.heads.copy()
    heads[1:] |= kcol[1:] != kcol[:-1]
    sel = kcol != 0 if mode == MODE_INTEGRATION else heads
    M = state.M
    return Step(state, kcol, heads, _exact(state.values[sel], M), _exact(kcol[sel] % M, M))


def _accept(step: Step, y: int) -> ResidueState:
    M = step.state.M
    values = (_exact(step.state.values, M) + y * _exact(step.kcol % M, M)) % M
    return ResidueState(values, M, step.heads)


def check_exactness_integration(step: Step, y: int) -> tuple[bool, ResidueState | None]:
    """Integration admissibility of candidate y, O(rows with k_l != 0).

    Returns the verdict and, only if it is True, the state after the step.
    """
    y %= step.state.M
    ok = not bool(np.any((step.v + y * step.k) % step.state.M == 0))
    return ok, _accept(step, y) if ok else None


def check_exactness_reconstruction(step: Step, y: int) -> tuple[bool, ResidueState | None]:
    """Reconstruction admissibility of candidate y, O(p log p) for p prefixes.

    Rows agreeing on the whole prefix count once; rows whose components are
    congruent mod M but distinct as integers stay separate, so their meeting
    residues reject y. Returns the verdict and, only if it is True, the state
    after the step.
    """
    y %= step.state.M
    ok = _distinct((step.v + y * step.k) % step.state.M)
    return ok, _accept(step, y) if ok else None
