"""Lattice-size halving: find a small prime M that still admits a lattice.

Start at a provably sufficient prime, then repeatedly halve via
nextprime(M/2) as long as the bounded CBC search keeps succeeding, allowing
up to K consecutive failed attempts per size. The returned lattice is the
last success, which lands within a small constant factor of optimal with
overwhelming probability for sane K and T.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import lattice
from .freqset import FrequencySet, expansion, max_abs
from .kernels import MODE_INTEGRATION, MODE_RECONSTRUCTION
from .primes import nextprime
from .search import cbc_construct


@dataclass(frozen=True)
class TrailEntry:
    M_tilde: int     # candidate lattice size tried
    attempts: int    # construction attempts spent at this size (<= K)
    ok: bool         # whether any of them succeeded
    seconds: float   # wallclock spent at this size


@dataclass(frozen=True)
class SearchOutcome:
    status: str                     # "success" | "failed"
    M: int | None
    z: tuple[int, ...] | None
    trail: tuple[TrailEntry, ...]
    mode: str

    @property
    def success(self) -> bool:
        return self.status == "success"

    @property
    def seconds(self) -> float:
        return sum(e.seconds for e in self.trail)


def verifier(mode: str):
    """The direct verifier of mode's property, as verifier(mode)(lat, I)."""
    if mode == MODE_INTEGRATION:
        return lattice.verify_integration
    if mode == MODE_RECONSTRUCTION:
        return lattice.verify_reconstruction
    raise ValueError(f"unknown mode: {mode!r}")


def initial_size(I: FrequencySet, mode: str) -> int:
    """Starting prime for the halving descent, guaranteed comfortable.

    Integration needs M past twice the larger of |I|+1 and max(I);
    reconstruction needs M past |I|^2 and past twice the expansion of I.
    """
    if mode == MODE_INTEGRATION:
        return nextprime(2 * max(len(I) + 1, max_abs(I)))
    if mode == MODE_RECONSTRUCTION:
        return nextprime(max(len(I) ** 2, 2 * expansion(I)))
    raise ValueError(f"unknown mode: {mode!r}")


def heuristic_search(I: FrequencySet, mode: str = MODE_RECONSTRUCTION, K: int = 5,
                     T: int = 100, rng: random.Random | None = None) -> SearchOutcome:
    """Halving search; fails only if the initial size never succeeds.

    At each candidate size, run the bounded CBC search up to K times; the
    first success records the lattice, resets the retry allowance, and moves
    on to nextprime(M/2). Size 2 is attempted and then ends the descent. One
    RNG stream drives all attempts, so outcomes are reproducible per seed.
    """
    if K < 1 or T < 1:
        raise ValueError("need K >= 1 and T >= 1")
    if rng is None:
        rng = random.Random()

    m_tilde = initial_size(I, mode)
    best: tuple[int, tuple[int, ...]] | None = None
    trail: list[TrailEntry] = []
    while True:
        started = time.perf_counter()
        for attempts in range(1, K + 1):
            result = cbc_construct(I, m_tilde, min(T, m_tilde), mode, rng)
            if result.success:
                break
        trail.append(TrailEntry(m_tilde, attempts, result.success, time.perf_counter() - started))
        if not result.success:
            break
        best = (m_tilde, result.z)
        if m_tilde == 2:
            break
        m_tilde = nextprime(m_tilde // 2)

    if best is None:
        return SearchOutcome("failed", None, None, tuple(trail), mode)
    M, z = best
    if not verifier(mode)(lattice.Rank1Lattice(M, z), I):
        raise AssertionError("accepted lattice failed direct verification; this is a bug")
    return SearchOutcome("success", M, z, tuple(trail), mode)
