"""Incremental per-step exactness checks for the CBC search.

A CBC attempt owns one ResidueState: M and the residues nu_j =
k_j . (z_1..z_l, 0..) mod M of I's rows, in set order. Both kernels test a
candidate y for step l against it:

  integration:    accept iff (nu_j + y k_{j,l}) mod M != 0 wherever k_{j,l} != 0
  reconstruction: accept iff the distinct length-(l+1) prefixes of I keep
                  pairwise distinct residues nu_j + y k_{j,l} mod M

Integration reads only the rows with k_{j,l} != 0. Reconstruction reads the
prefix classes (distinct length-(l+1) prefixes) through
FrequencySet.prefix_classes: a row's birth is the first column in which it
differs from the row before it, so the rows born at or before l hold one row
per class. Both take column l from FrequencySet.nonzeros, the set's own store.
Distinct length-l prefixes keep distinct residues: a successful init and every
accepted step leave them so.

prepare_step selects those rows once per step; a candidate then costs one
(v + y k) mod M over them and a zero test or a sort. No check writes the
buffer: an accepted y returns the new residues of the rows k_{j,l} != 0 it
moves, and commit writes them in place, O(moved rows). init_residues is step 0
from all-zero residues (one prefix, the empty one), checked at z_1 = 1 and
committed whatever the verdict, so each mode's rule lives once.

An integration step rejects y exactly where some row has y = -nu_j k_{j,l}^-1
mod M, when k_{j,l} has an inverse mod M (always for prime M and
0 < |k_{j,l}| < M). So the step's first rejection, after its one O(rows)
check, marks those residues in a mask of M bytes, from a table of k^-1 mod M
for |k| <= max|k_l| kept per (M, max|k_l|) across steps and attempts; every
later candidate is one lookup, and an accepted y still gets its residues from
one O(rows) pass. The mask is built only where M <= 8 rows, max|k_l| < M and
every k_{j,l} has an inverse; elsewhere (a composite M sharing a factor with
some k_{j,l}, an M dividing some k_{j,l}, an M large against the step's rows)
the step keeps the per-candidate check.

By that invariant the buffer holds one distinct residue per current prefix
class, and a reconstruction attempt marks them in one occupancy mask of M
bools, ResidueState.taken, built after a successful init where M <= 64 |I|.
Step l moves only its m classes with k_l != 0: the rows of I.nonzeros(l) born
at or before l. Where each parent class keeps a child with k_l = 0 (the
counts[l-1] - counts[l] + m that do not are 0 on every downward-closed set),
the mask holds the static classes' residues: a candidate reduces
(v + y k) mod M over the m moved classes alone, is rejected where one hits
the mask or two meet after a sort, and commit marks the new residues. At a
step where some parent has none, the attempt drops the mask; off it, each
candidate sorts the residues of all p = counts[l] classes.

Components pass through lattice.exact_operand once per step, with the max|k_l|
that FrequencySet.nonzeros keeps: int32 while M (max|k_l| + 1) < 2^31, int64
while it is < 2^63, Python ints beyond, so (v + y k) mod M stays exact. A
reconstruction step's residues v take the same dtype, so its sort runs on the
narrowest integers that hold it; an integration step's v stay in the buffer's
int64, which the product promotes to, so commit writes int64 into int64.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .freqset import FrequencySet
from .lattice import INT64_SAFE_M, exact_operand

MODE_INTEGRATION = "integration"
MODE_RECONSTRUCTION = "reconstruction"
MODES = (MODE_INTEGRATION, MODE_RECONSTRUCTION)


class ResidueState:
    """An attempt's residue buffer: nu_j = k_j . (z_1..z_l, 0..) mod M for every
    k_j in set order, in an int64 copy of values that commit updates in place.
    M is kept as a Python int, as the inverse table's pow needs. taken is a
    reconstruction attempt's occupancy mask (M bools, True at values) or None."""

    __slots__ = ("values", "M", "taken")

    def __init__(self, values, M: int):
        M = operator.index(M)
        v = np.array(values, dtype=np.int64)
        if M < 1:
            raise ValueError("modulus must be >= 1")
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError("residue vector must be one-dimensional and non-empty")
        if (v < 0).any() or (v >= M).any():
            raise ValueError("residues must lie in [0, M)")
        self.values, self.M, self.taken = v, M, None


class Step:
    """A step's y-independent part: the rows the verdict reads (as indices),
    their residues v and components k, and the rows with k_l != 0 (the rows y
    moves) with their components dk and max|dk|, bound. k and dk are signed and
    in exact_operand's dtype; v is in it too for reconstruction and int64 for
    integration, so v + y k is exact. v is a copy, stale once the step is
    committed. The rows read are, in integration, the moved rows; in
    reconstruction, one per moved class where the attempt keeps its occupancy
    mask and one per class where it does not. forbidden is an integration
    step's: None until its first rejection, then b"" where the step keeps the
    per-candidate check, or its mask of M bytes, 1 where y mod M is rejected."""

    __slots__ = ("state", "rows", "v", "k", "moved", "dk", "bound", "forbidden")

    def __init__(self, state: ResidueState, rows: np.ndarray, v: np.ndarray, k: np.ndarray,
                 moved: np.ndarray, dk: np.ndarray, bound: int):
        self.state, self.rows, self.v, self.k = state, rows, v, k
        self.moved, self.dk, self.bound = moved, dk, bound
        self.forbidden: bytes | np.ndarray | None = None


def prepare_step(state: ResidueState, I: FrequencySet, ell: int, mode: str) -> Step:
    """Select and project the rows that step ell's verdict reads, once per step.

    state holds the residues of I's rows over components 0..ell-1, and the
    distinct length-ell prefixes of I must have distinct residues in it, as
    after a successful init_residues and after every committed step, which
    the occupancy mask stands for. A reconstruction step where some parent
    class has no child with k_ell = 0 drops the attempt's mask.
    """
    if len(I) != state.values.shape[0]:
        raise ValueError("frequency set size disagrees with residue vector")
    if not 0 <= ell < I.d:
        raise ValueError(f"component index {ell} outside 0..{I.d - 1}")
    moved, values, bound = I.nonzeros(ell)
    dk = exact_operand(values, state.M, bound)
    if mode == MODE_INTEGRATION:
        return Step(state, moved, state.values[moved], dk, moved, dk, bound)
    if mode != MODE_RECONSTRUCTION:
        raise ValueError(f"unknown mode: {mode!r}")
    order, counts, birth = I.prefix_classes
    if state.taken is not None:
        classes = birth[moved] <= ell  # the first row of each moved class
        parents = counts[ell - 1] if ell else 1
        if parents == counts[ell] - np.count_nonzero(classes):  # each keeps a static child
            rows = moved[classes]
            v = state.values[rows].astype(dk.dtype, copy=False)
            return Step(state, rows, v, dk[classes], moved, dk, bound)
        state.taken = None
    rows = order[:counts[ell]]  # one row per distinct length-(ell + 1) prefix
    # col is column ell in dk's dtype: dk's values and zeros, so it stays exact.
    col = np.zeros(len(I), dtype=dk.dtype)
    col[moved] = dk
    v = state.values[rows].astype(dk.dtype, copy=False)
    return Step(state, rows, v, col[rows], moved, dk, bound)


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
    """Write the residues r of step.moved that a check accepted into the
    buffer, and into the occupancy mask where the attempt keeps one."""
    step.state.values[step.moved] = r
    if step.state.taken is not None:
        step.state.taken[r] = True


# init_residues reads the verdicts here, not through the public check names:
# the benchmark's tracer wraps those and counts one call per candidate tested.
_VERDICTS = {MODE_INTEGRATION: _integration_ok, MODE_RECONSTRUCTION: _reconstruction_ok}


def init_residues(I: FrequencySet, M: int, mode: str) -> tuple[bool, ResidueState]:
    """Step 1 with the fixed choice z_1 = 1.

    Returns whether the first components alone already satisfy the mode's
    property, and a new buffer of the residues k_1 mod M whatever the verdict,
    with its occupancy mask after a successful reconstruction init where _taken_pays.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    state = ResidueState(np.zeros(len(I), dtype=np.int64), M)
    step = prepare_step(state, I, 0, mode)
    ok = _VERDICTS[mode](_shifted(step, 1))
    commit(step, _moved(step, 1))
    if ok and mode == MODE_RECONSTRUCTION and _taken_pays(M, len(I)):
        state.taken = np.zeros(M, dtype=bool)
        state.taken[state.values] = True
    return ok, state


def _taken_pays(M: int, n: int) -> bool:
    """Whether a reconstruction attempt on n rows keeps its occupancy mask: M <= 64 n
    bytes; M <= INT64_SAFE_M keeps every step (|k| <= COMPONENT_LIMIT) in int64,
    out of exact_operand's Python ints, which no array index takes."""
    return M <= min(64 * n, INT64_SAFE_M)


def _mask_pays(M: int, rows: int, bound: int) -> bool:
    """Whether an integration step builds its mask. M <= 8 rows keeps the mask
    within the bytes of the step's int64 residues and the inverse table within
    16 rows + 1 entries; bound < M keeps every k_l nonzero mod M; and
    M <= INT64_SAFE_M keeps v k^-1 within int64."""
    return bound < M <= min(8 * rows, INT64_SAFE_M)


@functools.lru_cache(maxsize=64)
def _inverses(M: int, bound: int) -> np.ndarray:
    """k^-1 mod M at index k + bound for k = -bound..bound, and 0 where k has no
    inverse (k = 0 among them). Read-only: the cache hands it to every step."""
    pos = [pow(k, -1, M) if math.gcd(k, M) == 1 else 0 for k in range(1, bound + 1)]
    table = np.array([(M - i) % M for i in reversed(pos)] + [0] + pos, dtype=np.int64)
    table.setflags(write=False)
    return table


def _forbidden(step: Step) -> bytes:
    """The mask of the y mod M that send some moved row to 0, y_j = -v_j k_j^-1,
    as M bytes; b"" where the mask does not pay or some k_j has no inverse."""
    M = step.state.M
    if not _mask_pays(M, step.v.shape[0], step.bound):
        return b""
    inverse = _inverses(M, step.bound)[step.k + step.bound]
    if not inverse.all():
        return b""
    mask = np.zeros(M, dtype=bool)
    mask[(-step.v * inverse) % M] = True
    return mask.tobytes()


def check_exactness_integration(step: Step, y: int) -> tuple[bool, np.ndarray | None]:
    """Integration admissibility of candidate y: O(rows with k_l != 0) up to the
    step's first rejection, which builds step.forbidden; after it, a rejection
    is one lookup and an acceptance one O(rows) pass.

    Returns the verdict and, only if True, the new residues of step.moved.
    """
    forbidden = step.forbidden
    if forbidden:
        if forbidden[y % step.state.M]:
            return False, None
        return True, _shifted(step, y)
    r = _shifted(step, y)  # the verdict rows are the moved rows
    if _integration_ok(r):
        return True, r
    if forbidden is None:
        step.forbidden = _forbidden(step)
    return False, None


def check_exactness_reconstruction(step: Step, y: int) -> tuple[bool, np.ndarray | None]:
    """Reconstruction admissibility of candidate y: O(m log m) for the m moved
    classes on the attempt's occupancy mask, O(p log p) for all p prefix
    classes off it.

    Rows agreeing on the whole prefix count once; rows whose components are
    congruent mod M but distinct as integers stay separate, so their meeting
    residues reject y. Returns the verdict and, only if True, step.moved's new residues.
    """
    r = _shifted(step, y)
    taken = step.state.taken
    if (taken is not None and taken[r].any()) or not _reconstruction_ok(r):
        return False, None
    return True, _moved(step, y)
