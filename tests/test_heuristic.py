"""Starting sizes and the halving descent."""

import math
import random

import pytest

import cbclat.heuristic as heuristic_mod
from cbclat.freqset import (
    FrequencySet,
    WeightSpec,
    gen_axis_cross,
    gen_cube,
    gen_superposition2,
    gen_weighted_hyperbolic,
)
from cbclat.heuristic import heuristic_search, initial_size
from cbclat.lattice import Rank1Lattice, verify_integration, verify_reconstruction
from cbclat.search import CbcResult


def test_initial_size_values():
    I = gen_cube(2, 8)  # 289 frequencies, max component 8
    assert initial_size(I, "reconstruction") == 83537  # nextprime(289^2)
    assert initial_size(I, "integration") == 587       # nextprime(2 * 290)
    two = FrequencySet([(0,), (1,)])
    assert initial_size(two, "reconstruction") == 5  # nextprime(max(4, 2))
    assert initial_size(two, "integration") == 7     # nextprime(2 * 3)
    axis = gen_axis_cross(3, 4)
    # 25 frequencies, expansion 8: nextprime(max(625, 16)) = 631
    assert initial_size(axis, "reconstruction") == 631
    assert initial_size(FrequencySet([(0,)]), "integration") == 5
    with pytest.raises(ValueError):
        initial_size(two, "quadrature")


def test_halving_trace_d1():
    # One-dimensional sets always succeed (z = (1,)), so the descent walks
    # the prime chain all the way down and stops right after trying 2.
    I = FrequencySet([(0,), (1,)])
    out = heuristic_search(I, mode="reconstruction", K=3, T=4, rng=random.Random(0))
    assert out.success
    assert out.M == 2 and out.z == (1,)
    assert [(e.M_tilde, e.attempts, e.ok) for e in out.trail] == [
        (5, 1, True),
        (3, 1, True),
        (2, 1, True),
    ]
    assert out.seconds == sum(e.seconds for e in out.trail)


def test_trail_sizes_strictly_decrease():
    I = gen_axis_cross(2, 6)
    out = heuristic_search(I, mode="reconstruction", K=5, T=50, rng=random.Random(1))
    assert out.success
    sizes = [e.M_tilde for e in out.trail]
    assert sizes[0] == initial_size(I, "reconstruction")
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    # nextprime(M/2) <= 5M/7 for the primes in play, so the chain length is
    # logarithmic in the starting size
    assert len(sizes) <= math.ceil(math.log2(sizes[0])) + 2
    assert out.trail[-1].ok is False or out.trail[-1].M_tilde == 2


def test_final_lattice_reverified():
    I = gen_cube(2, 2)
    for seed in (0, 1, 2):
        out = heuristic_search(I, mode="reconstruction", K=5, T=100,
                               rng=random.Random(seed))
        assert out.success
        assert verify_reconstruction(Rank1Lattice(out.M, out.z), I)
        # the reported M is the last size that succeeded: either the trail
        # ended with a failure one size below it, or it descended to 2
        if out.trail[-1].ok:
            assert out.M == 2 == out.trail[-1].M_tilde
        else:
            assert all(e.ok for e in out.trail[:-1])
            assert out.M == out.trail[-2].M_tilde
    out = heuristic_search(I, mode="integration", K=5, T=100, rng=random.Random(3))
    assert out.success
    assert verify_integration(Rank1Lattice(out.M, out.z), I)


def test_integration_needs_fewer_points():
    I = gen_axis_cross(3, 8)
    rec = heuristic_search(I, mode="reconstruction", K=5, T=100, rng=random.Random(7))
    itg = heuristic_search(I, mode="integration", K=5, T=100, rng=random.Random(7))
    assert rec.success and itg.success
    assert itg.M <= rec.M
    # reconstruction cannot beat the pigeonhole bound M >= |I|
    assert rec.M >= len(I)
    # integration on an axis cross with N = 8 needs a prime above 8, else the
    # frequency M * e_j maps to residue zero
    assert itg.M >= 11


def test_integration_on_superposition_set():
    # For the order-2 superposition set at N = 64 the descent should land
    # well under the starting prime: above the halved axis cross size (a
    # counting lower bound, 129 here) and under four times 2(d-1)N^2 + 2.
    I = gen_superposition2(2, 64)
    out = heuristic_search(I, mode="integration", K=5, T=100, rng=random.Random(64))
    assert out.success
    assert verify_integration(Rank1Lattice(out.M, out.z), I)
    assert len(gen_axis_cross(2, 32)) <= out.M <= 4 * (2 * 64**2 + 2)


def test_failed_when_initial_size_never_succeeds(monkeypatch):
    calls = []

    def always_fail(I, M, T, mode, rng=None):
        calls.append(M)
        return CbcResult("failed", None, (T,))

    monkeypatch.setattr(heuristic_mod, "cbc_construct", always_fail)
    I = FrequencySet([(0, 1), (2, 3)])
    out = heuristic_search(I, mode="reconstruction", K=4, T=2, rng=random.Random(0))
    assert out.status == "failed"
    assert out.M is None and out.z is None
    assert len(out.trail) == 1
    assert out.trail[0].attempts == 4 and out.trail[0].ok is False
    assert calls == [initial_size(I, "reconstruction")] * 4


def test_retry_allowance_resets_per_size(monkeypatch):
    # Fail twice at every size before succeeding; with K = 3 the descent must
    # still reach the bottom, burning 3 attempts per size.
    script = {}

    def flaky(I, M, T, mode, rng=None):
        script[M] = script.get(M, 0) + 1
        if script[M] < 3:
            return CbcResult("failed", None, (T,))
        return CbcResult("success", (1,), ())

    monkeypatch.setattr(heuristic_mod, "cbc_construct", flaky)
    I = FrequencySet([(0,), (1,)])
    out = heuristic_search(I, mode="reconstruction", K=3, T=2, rng=random.Random(0))
    assert out.success
    assert out.M == 2
    assert all(e.attempts == 3 and e.ok for e in out.trail)
    assert [e.M_tilde for e in out.trail] == [5, 3, 2]


def test_accepts_only_verified_lattices(monkeypatch):
    # A driver bug that returns a bogus generating vector must be caught by
    # the final direct verification, not returned to the caller.
    def liar(I, M, T, mode, rng=None):
        return CbcResult("success", (1, 1), (1,))

    monkeypatch.setattr(heuristic_mod, "cbc_construct", liar)
    I = FrequencySet([(0, 0), (0, 1), (1, 0)])
    with pytest.raises(AssertionError, match="direct verification"):
        heuristic_search(I, mode="reconstruction", K=1, T=1, rng=random.Random(0))


def test_seed_determinism():
    I = gen_axis_cross(2, 10)
    runs = [
        heuristic_search(I, mode="reconstruction", K=5, T=60, rng=random.Random(42))
        for _ in range(2)
    ]
    a, b = runs
    assert (a.status, a.M, a.z, a.mode) == (b.status, b.M, b.z, b.mode)
    assert [(e.M_tilde, e.attempts, e.ok) for e in a.trail] == \
        [(e.M_tilde, e.attempts, e.ok) for e in b.trail]


# Seed 1 on the three benchmark sets, the integration one and two for the
# reconstruction kernel: the mode, the size, the vector and the (size,
# attempts, ok) trail. Any change to the candidate stream, the kernels'
# verdicts or the halving moves one of them.
PINNED_SEARCHES = {
    "integration": (
        "integration", lambda: gen_superposition2(60, 1), 127,
        (1, 11, 52, 14, 105, 102, 5, 24, 30, 100, 76, 53, 20, 58, 21, 87, 111, 13, 55, 124,
         48, 125, 117, 104, 37, 70, 32, 91, 61, 28, 83, 6, 41, 92, 59, 50, 120, 78, 31, 80,
         115, 88, 60, 84, 45, 33, 42, 108, 98, 15, 46, 109, 17, 34, 8, 65, 118, 71, 123, 54),
        [(14407, 1, True), (7207, 1, True), (3607, 1, True), (1811, 1, True), (907, 1, True),
         (457, 1, True), (229, 1, True), (127, 1, True), (67, 5, False)]),
    "reconstruction": (
        "reconstruction", lambda: gen_weighted_hyperbolic(WeightSpec.inverse_square(), 200, 14),
        22993,
        (1, 17956, 16796, 941, 20820, 19153, 3002, 18056, 8365, 1063, 2309, 2727, 546, 14843),
        [(5880629, 1, True), (2940317, 1, True), (1470173, 1, True), (735107, 1, True),
         (367559, 1, True), (183797, 1, True), (91909, 1, True), (45959, 1, True),
         (22993, 1, True), (11497, 5, False)]),
    "reconstruction-axis-cross": (
        "reconstruction", lambda: gen_axis_cross(10, 64), 12829,
        (1, 5684, 1622, 9395, 7094, 290, 1415, 9524, 10091, 7431),
        [(1640971, 1, True), (820489, 1, True), (410257, 1, True), (205129, 1, True),
         (102587, 1, True), (51307, 1, True), (25657, 1, True), (12829, 2, True),
         (6421, 5, False)]),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_pinned_search_stream(name):
    mode, make, M, z, trail = PINNED_SEARCHES[name]
    out = heuristic_search(make(), mode, K=5, T=100, rng=random.Random(1))
    assert (out.M, out.z) == (M, z)
    assert [(e.M_tilde, e.attempts, e.ok) for e in out.trail] == trail


def test_parameter_validation():
    I = FrequencySet([(0,), (1,)])
    with pytest.raises(ValueError, match="unknown mode"):
        heuristic_search(I, mode="nope")
    with pytest.raises(ValueError):
        heuristic_search(I, K=0)
    with pytest.raises(ValueError):
        heuristic_search(I, T=0)


def test_verifier_by_mode():
    assert heuristic_mod.verifier("integration") is verify_integration
    assert heuristic_mod.verifier("reconstruction") is verify_reconstruction
    with pytest.raises(ValueError, match="unknown mode"):
        heuristic_mod.verifier("integraton")


def test_budget_clamped_to_small_sizes():
    # T = 100 exceeds the candidate space once M drops below 100; the search
    # must clamp rather than reject.
    I = FrequencySet([(0, 0), (0, 1), (1, 0), (1, 1)])
    out = heuristic_search(I, mode="reconstruction", K=5, T=100, rng=random.Random(9))
    assert out.success
    assert out.M < 100
    assert verify_reconstruction(Rank1Lattice(out.M, out.z), I)
