"""Randomized candidate generation and the component-by-component drivers.

The candidate stream per step is a uniformly random permutation of {0..M-1},
generated lazily by a sparse Fisher-Yates shuffle: one random draw per
candidate read. cbc_construct(I, M, T, mode, rng) reads at most the first T
entries; cbc_construct_basic(I, M, mode, rng) is cbc_construct at T = M, so it
reads on through the rest and fails only when no admissible component exists.

A run is seeded only through its rng, a random.Random (stdlib Mersenne
Twister) whose seed pins the full candidate order. Reproducibility holds for
this implementation, not across libraries with different generators.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass

from .freqset import FrequencySet
from . import kernels
from .kernels import MODE_INTEGRATION


@dataclass(frozen=True)
class CbcResult:
    status: str                        # "success" | "failed"
    z: tuple[int, ...] | None
    candidates_tested: tuple[int, ...]  # kernel evaluations per step l = 2..d

    @property
    def success(self) -> bool:
        return self.status == "success"


def two_step_permutation(M: int, rng: random.Random):
    """Uniformly random permutation of {0..M-1}, drawn lazily.

    Sparse Fisher-Yates: entry i swaps position i with a position drawn by
    rng.randrange(i, M), and a dict holds the positions swapped so far. Each
    entry read costs one draw and one dict update; nothing is drawn for the
    entries that are never read. (The name predates the single-stage
    generator; the benchmark's tracer wraps it under this name.)
    """
    if M < 1:
        raise ValueError("need M >= 1")

    def entries():
        swapped: dict[int, int] = {}
        for i in range(M):
            j = rng.randrange(i, M)
            yield swapped.get(j, j)
            swapped[j] = swapped.pop(i, i)

    return entries()


def _drive(I: FrequencySet, M: int, mode: str, step_candidates) -> CbcResult:
    """Common CBC loop: z_1 = 1, then per later step the first admissible y of
    step_candidates(), which yields at least one candidate in test order. The
    attempt's residue buffer comes from init_residues; only accepted y write it."""
    M = operator.index(M)
    kernel = (kernels.check_exactness_integration if mode == MODE_INTEGRATION
              else kernels.check_exactness_reconstruction)
    ok, state = kernels.init_residues(I, M, mode)
    if not ok:
        return CbcResult("failed", None, ())
    z = [1 % M]
    counts: list[int] = []
    for ell in range(1, I.d):
        step = kernels.prepare_step(state, I, ell, mode)
        for tested, y in enumerate(step_candidates(), 1):
            ok, r = kernel(step, y)
            if ok:
                break
        counts.append(tested)
        if not ok:
            return CbcResult("failed", None, tuple(counts))
        kernels.commit(step, r)
        z.append(y)
    return CbcResult("success", tuple(z), tuple(counts))


def cbc_construct(I: FrequencySet, M: int, T: int, mode: str,
                  rng: random.Random | None = None) -> CbcResult:
    """Bounded probabilistic CBC: per step, try T random distinct candidates.

    Exhausting the budget at any step is an ordinary failed result, not an
    exception; the halving heuristic consumes such failures routinely.
    """
    M = operator.index(M)
    if not 1 <= T <= M:
        raise ValueError("candidate budget must satisfy 1 <= T <= M")
    if rng is None:
        rng = random.Random()
    # islice never asks for entry T+1, so a step draws once per candidate it
    # tests. The generator is looked up at call time, so a wrapper installed
    # on the module attribute sees every step.
    steps = lambda: itertools.islice(two_step_permutation(M, rng), T)
    return _drive(I, M, mode, steps)


def cbc_construct_basic(I: FrequencySet, M: int, mode: str,
                        rng: random.Random | None = None) -> CbcResult:
    """CBC with fallback: each step reads its random permutation to the end.

    This is cbc_construct with T = M: the same RNG stream and candidate order,
    so it accepts the same components wherever cbc_construct's first T
    candidates hold an admissible one, for any T; a step fails only when all
    M possible components are inadmissible for the current prefix.
    """
    return cbc_construct(I, M, M, mode, rng)


def cbc_exhaustive(I: FrequencySet, M: int, mode: str) -> CbcResult:
    """Deterministic brute-force CBC scanning y = 0, 1, ..., M-1 per step."""
    return _drive(I, M, mode, lambda: iter(range(M)))


def estimate_failure_bound(d: int, c, T: int) -> float:
    """Union bound (d-1) c^-T on the failure chance of cbc_construct when
    M is at least c times the per-step count of inadmissible candidates."""
    if c <= 1:
        raise ValueError("need c > 1")
    if d <= 1:
        return 0.0
    return min(1.0, (d - 1) * float(c) ** (-T))
