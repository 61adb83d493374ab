"""Randomized candidate generation and the component-by-component drivers.

The candidate stream per step is a uniformly random permutation of {0..M-1}
produced in two stages: a Floyd sample of T values, shuffled, then (only if
those T are exhausted) a shuffled permutation of the complement. The bounded
driver cbc_construct reads at most the first T entries; cbc_construct_basic
reads through the tail and can only fail when no admissible component exists
at all.

All randomness flows through a caller-supplied random.Random (stdlib Mersenne
Twister), so a seed pins the full candidate order. Reproducibility holds for
this implementation, not across libraries with different generators.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .freqset import FrequencySet
from . import kernels
from .kernels import MODE_INTEGRATION, MODE_RECONSTRUCTION, MODES


@dataclass(frozen=True)
class CbcConfig:
    M: int
    T: int
    mode: str = MODE_RECONSTRUCTION
    seed: int | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not 1 <= self.T <= self.M:
            raise ValueError("candidate budget must satisfy 1 <= T <= M")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class CbcResult:
    status: str                        # "success" | "failed"
    z: tuple[int, ...] | None
    candidates_tested: tuple[int, ...]  # kernel evaluations per step l = 2..d
    mode: str
    M: int
    seed: int | None = None

    @property
    def success(self) -> bool:
        return self.status == "success"


def sample_distinct(T: int, M: int, rng: random.Random) -> set[int]:
    """Uniformly random T-subset of {0..M-1} by Floyd's method, O(T) draws."""
    if not 0 <= T <= M:
        raise ValueError("need 0 <= T <= M")
    chosen: set[int] = set()
    for j in range(M - T, M):
        t = rng.randrange(j + 1)
        chosen.add(j if t in chosen else t)
    return chosen


def shuffle(items, rng: random.Random) -> list:
    """Fisher-Yates; returns a uniformly shuffled copy, input untouched."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def two_step_permutation(M: int, T: int, rng: random.Random):
    """Generate a uniformly random permutation of {0..M-1} lazily.

    The first T entries are a shuffled Floyd sample; the remaining M - T are
    a shuffled complement, built only if a consumer reads past the head. Both
    stages together are uniform over all M! orderings.
    """
    if not 1 <= T <= M:
        raise ValueError("need 1 <= T <= M")

    def entries():
        head_set = sample_distinct(T, M, rng)
        yield from shuffle(sorted(head_set), rng)
        if T < M:
            yield from shuffle([v for v in range(M) if v not in head_set], rng)

    return entries()


def _drive(I: FrequencySet, M: int, mode: str, step_candidates, counted_budget: int,
           seed: int | None) -> CbcResult:
    """Common CBC loop: z_1 = 1, then one accepted candidate per later step."""
    if M < 2:
        raise ValueError("need M >= 2")
    kernel = (kernels.check_exactness_integration if mode == MODE_INTEGRATION
              else kernels.check_exactness_reconstruction)
    ok, state = kernels.init_residues(I, M, mode)
    if not ok:
        return CbcResult("failed", None, (), mode, M, seed)
    arr = I.array
    z = [1 % M]
    counts: list[int] = []
    for ell in range(1, I.d):
        step = kernels.prepare_step(state, arr[:, ell], mode)
        accepted = None
        tested = 0
        for y in step_candidates():
            tested += 1
            good, candidate_state = kernel(step, y)
            if good:
                accepted = y
                state = candidate_state
                break
        counts.append(tested)
        if accepted is None:
            return CbcResult("failed", None, tuple(counts), mode, M, seed)
        z.append(accepted)
    assert all(c <= counted_budget for c in counts)
    return CbcResult("success", tuple(z), tuple(counts), mode, M, seed)


def cbc_construct(I: FrequencySet, cfg: CbcConfig, rng: random.Random | None = None) -> CbcResult:
    """Bounded probabilistic CBC: per step, try T random distinct candidates.

    Exhausting the budget at any step is an ordinary failed result, not an
    exception; the halving heuristic consumes such failures routinely.
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    # islice never asks for entry T+1, so the permutation tail is never built
    # and the RNG consumption per step is a constant 2T - 1 draws.
    steps = lambda: itertools.islice(two_step_permutation(cfg.M, cfg.T, rng), cfg.T)
    return _drive(I, cfg.M, cfg.mode, steps, cfg.T, cfg.seed)


def cbc_construct_basic(I: FrequencySet, M: int, T: int, mode: str,
                        rng: random.Random | None = None) -> CbcResult:
    """CBC with fallback: after the T random candidates, sweep the rest.

    Behaves identically to cbc_construct while candidates remain in the head
    (same RNG stream, same accepted components); a step fails only when all
    M possible components are inadmissible for the current prefix.
    """
    if not 1 <= T <= M:
        raise ValueError("candidate budget must satisfy 1 <= T <= M")
    if rng is None:
        rng = random.Random()
    steps = lambda: two_step_permutation(M, T, rng)
    return _drive(I, M, mode, steps, M, None)


def cbc_exhaustive(I: FrequencySet, M: int, mode: str) -> CbcResult:
    """Deterministic brute-force CBC scanning y = 0, 1, ..., M-1 per step."""
    return _drive(I, M, mode, lambda: iter(range(M)), M, None)


def estimate_failure_bound(d: int, c, T: int) -> float:
    """Union bound (d-1) c^-T on the failure chance of cbc_construct when
    M is at least c times the per-step count of inadmissible candidates."""
    if c <= 1:
        raise ValueError("need c > 1")
    if d <= 1:
        return 0.0
    return min(1.0, (d - 1) * float(c) ** (-T))
