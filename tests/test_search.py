"""The lazy candidate permutation and the CBC drivers."""

import json
import random
from itertools import islice, permutations
from math import comb, factorial

import numpy as np
import pytest

from cbclat.freqset import FrequencySet, gen_axis_cross, gen_cube
from cbclat.lattice import Rank1Lattice, verify_integration, verify_reconstruction
from cbclat.primes import nextprime
from cbclat.search import (
    CbcConfig,
    cbc_construct,
    cbc_construct_basic,
    cbc_exhaustive,
    estimate_failure_bound,
    two_step_permutation,
)

SQUARE = FrequencySet([(0, 0), (1, 0), (0, 1), (1, 1)])


# The three drivers as (I, M, mode) -> CbcResult.
DRIVERS = {
    "construct": lambda I, M, mode: cbc_construct(I, CbcConfig(M=M, T=min(8, M), mode=mode,
                                                               seed=5)),
    "basic": lambda I, M, mode: cbc_construct_basic(I, M, mode, random.Random(5)),
    "exhaustive": cbc_exhaustive,
}


def test_numpy_integer_config_size():
    # An np.int64 M leaves every driver as a Python int, so z[0] = 1 % M is one too.
    M = nextprime(2**32)
    for name, drive in DRIVERS.items():
        result = drive(gen_cube(3, 1), np.int64(M), "reconstruction")
        assert result.success and type(result.M) is int and result.M == M, name
        assert all(type(v) is int for v in result.z), name
        assert json.loads(json.dumps(list(result.z))) == list(result.z)
        with pytest.raises(TypeError):
            drive(gen_cube(3, 1), 7.0, "reconstruction")


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_drivers_refuse_small_size_and_unknown_mode(driver):
    # Each driver raises these from CbcConfig or the kernel; none checks them itself.
    with pytest.raises(ValueError, match="need M >= 2"):
        DRIVERS[driver](gen_cube(2, 1), 1, "reconstruction")
    with pytest.raises(ValueError, match="unknown mode"):
        DRIVERS[driver](gen_cube(2, 1), 7, "nope")


def test_config_validation():
    CbcConfig(M=5, T=5, mode="integration", seed=0)
    with pytest.raises(ValueError):
        CbcConfig(M=5, T=6, mode="integration")
    with pytest.raises(ValueError):
        CbcConfig(M=5, T=0, mode="integration")
    with pytest.raises(ValueError):
        CbcConfig(M=5, T=3, mode="nope")
    with pytest.raises(ValueError):
        CbcConfig(M=5, T=3, mode="integration", seed=2**64)
    with pytest.raises(ValueError):
        CbcConfig(M=5, T=3, mode="integration", seed=-1)


class CountingRandom(random.Random):
    """random.Random that counts randrange calls; the stream is unchanged."""

    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


def _head(M, T, rng):
    """The first T entries of a permutation, read as cbc_construct reads them."""
    return list(islice(two_step_permutation(M, rng), T))


def test_permutation_head_basics():
    rng = random.Random(0)
    assert set(_head(5, 5, rng)) == {0, 1, 2, 3, 4}
    ones = [_head(2, 1, rng)[0] for _ in range(10000)]
    frac = sum(ones) / len(ones)
    assert 0.45 < frac < 0.55
    for _ in range(100):
        s = _head(50, 3, rng)
        assert len(set(s)) == 3
        assert all(0 <= v < 50 for v in s)


def test_permutation_head_subset_frequencies():
    rng = random.Random(1)
    counts = {}
    draws = 20000
    for _ in range(draws):
        key = tuple(sorted(_head(5, 2, rng)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == comb(5, 2)
    for v in counts.values():
        assert abs(v / draws - 0.1) < 0.02


def test_full_permutation_of_three_uniform():
    rng = random.Random(2)
    counts = {}
    for _ in range(12000):
        key = tuple(two_step_permutation(3, rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for v in counts.values():
        assert abs(v / 12000 - 1 / 6) < 0.03


def test_two_step_permutation_shapes():
    rng = random.Random(3)
    assert list(two_step_permutation(1, rng)) == [0]
    for _ in range(50):
        p = list(two_step_permutation(7, rng))
        assert sorted(p) == list(range(7))
    with pytest.raises(ValueError):
        two_step_permutation(0, rng)


@pytest.mark.parametrize("M", [1, 2, 7])
def test_full_read_is_a_permutation(M):
    for seed in range(200):
        rng = CountingRandom(seed)
        p = list(two_step_permutation(M, rng))
        assert sorted(p) == list(range(M))
        assert rng.draws == M


def test_two_step_permutation_tail_is_lazy():
    # Reading k entries makes exactly k randrange calls, the i-th of them
    # randrange(i, M); entries never read cost nothing, the first one
    # included.
    for M in (1, 2, 9, 1000):
        for k in sorted({0, 1, min(4, M), M}):
            rng = CountingRandom(77)
            gen = two_step_permutation(M, rng)
            assert rng.draws == 0
            head = list(islice(gen, k))
            assert len(head) == len(set(head)) == k
            assert rng.draws == k
            ref = random.Random(77)
            for i in range(k):
                ref.randrange(i, M)
            assert rng.random() == ref.random()


@pytest.mark.parametrize("M, T, draws", [(4, 1, 60000), (5, 2, 200000), (5, 4, 200000)])
def test_two_step_permutation_uniformity(M, T, draws):
    # Reading the first T entries as the bounded driver does and then
    # resuming the same generator, as the sweeping driver does, must give a
    # uniform distribution over all M! orderings.
    rng = random.Random(10 * M + T)
    counts = {p: 0 for p in permutations(range(M))}
    for _ in range(draws):
        gen = two_step_permutation(M, rng)
        counts[tuple(list(islice(gen, T)) + list(gen))] += 1
    target = 1 / factorial(M)
    tv = 0.5 * sum(abs(c / draws - target) for c in counts.values())
    assert all(c > 0 for c in counts.values())
    assert tv < 0.02


def test_construct_draws_once_per_candidate():
    # The bounded driver draws one random number per candidate it tests,
    # whether a step accepts its first candidate or exhausts its budget.
    I = gen_axis_cross(4, 6)
    for M, T, seed in ((17, 3, 1), (53, 10, 2), (211, 100, 3), (31, 31, 4)):
        rng = CountingRandom(seed)
        res = cbc_construct(I, CbcConfig(M=M, T=T, mode="reconstruction"), rng)
        assert rng.draws == sum(res.candidates_tested)
        rng = CountingRandom(seed)
        res = cbc_construct_basic(I, M, "reconstruction", rng)
        assert rng.draws == sum(res.candidates_tested)


def test_construct_d1_and_pigeonhole():
    I = FrequencySet([(-2,), (0,), (3,)])
    res = cbc_construct(I, CbcConfig(M=7, T=1, mode="integration", seed=5))
    assert res.success
    assert res.z == (1,)
    assert res.candidates_tested == ()
    # 9 frequencies cannot have distinct residues mod 5
    res = cbc_construct(gen_cube(2, 1), CbcConfig(M=5, T=5, mode="reconstruction", seed=5))
    assert res.status == "failed"


def test_construct_square_and_admissible_set():
    # Exhaustive scan: with z1 = 1 the admissible second components mod 5
    # are exactly {2, 3}.
    admissible = set()
    for y in range(5):
        if verify_reconstruction(Rank1Lattice(5, (1, y)), SQUARE):
            admissible.add(y)
    assert admissible == {2, 3}
    ex = cbc_exhaustive(SQUARE, 5, "reconstruction")
    assert ex.success
    assert ex.z == (1, 2)
    for seed in range(20):
        res = cbc_construct(SQUARE, CbcConfig(M=5, T=5, mode="reconstruction", seed=seed))
        assert res.success
        assert res.z[1] in admissible


def test_construct_determinism_and_budget():
    I = gen_axis_cross(3, 5)
    cfg = CbcConfig(M=17, T=10, mode="reconstruction", seed=99)
    a = cbc_construct(I, cfg)
    b = cbc_construct(I, cfg)
    assert a == b
    assert all(c <= cfg.T for c in a.candidates_tested)
    assert a.mode == "reconstruction" and a.M == 17 and a.seed == 99


def test_construct_reports_the_seed_only_when_it_seeds_the_run():
    I = gen_axis_cross(3, 4)
    cfg = CbcConfig(43, 10, "reconstruction", seed=5)
    assert cbc_construct(I, cfg).seed == 5
    # A caller's rng drives the run and cfg.seed goes unread: no seed to report.
    given = cbc_construct(I, cfg, random.Random(9))
    assert given.seed is None
    assert given.z == cbc_construct(I, CbcConfig(43, 10, "reconstruction", seed=9)).z


def test_construct_basic_equals_construct_when_head_succeeds():
    I = gen_axis_cross(2, 6)
    for seed in range(10):
        bounded = cbc_construct(I, CbcConfig(M=29, T=8, mode="reconstruction", seed=seed))
        fallback = cbc_construct_basic(I, 29, "reconstruction", random.Random(seed))
        if bounded.success:
            assert fallback.z == bounded.z


def test_construct_basic_survives_bad_head():
    # With T = 1 some seeds draw an inadmissible first candidate; the
    # fallback sweep must still land on one of the admissible components.
    saw_rescue = False
    for seed in range(60):
        bounded = cbc_construct(SQUARE, CbcConfig(M=5, T=1, mode="reconstruction", seed=seed))
        fallback = cbc_construct_basic(SQUARE, 5, "reconstruction", random.Random(seed))
        assert fallback.success
        assert fallback.z[1] in {2, 3}
        if not bounded.success:
            saw_rescue = True
    assert saw_rescue


def test_basic_fails_only_when_nothing_admissible():
    res = cbc_construct_basic(gen_cube(2, 1), 5, "reconstruction", random.Random(4))
    assert res.status == "failed"
    assert max(res.candidates_tested) == 5  # swept all of 0..M-1


def test_exhaustive_examples():
    res = cbc_exhaustive(FrequencySet([(0,), (1,)]), 2, "reconstruction")
    assert res.success and res.z == (1,)
    res = cbc_exhaustive(gen_axis_cross(2, 2), 11, "reconstruction")
    assert res.success
    assert verify_reconstruction(Rank1Lattice(11, res.z), gen_axis_cross(2, 2))


def test_exhaustive_dominates_basic():
    rng = random.Random(6)
    checked = 0
    while checked < 30:
        d = rng.randrange(2, 4)
        n = rng.randrange(1, 9)
        I = FrequencySet([[rng.randrange(-3, 4) for _ in range(d)] for _ in range(n)])
        M = rng.choice([5, 7, 11, 13])
        mode = rng.choice(["integration", "reconstruction"])
        if cbc_exhaustive(I, M, mode).success:
            for seed in range(5):
                assert cbc_construct_basic(I, M, mode, random.Random(seed)).success
            checked += 1


def test_random_successes_pass_direct_verifiers():
    rng = random.Random(7)
    for trial in range(40):
        d = rng.randrange(1, 5)
        n = rng.randrange(1, 12)
        I = FrequencySet([[rng.randrange(-6, 7) for _ in range(d)] for _ in range(n)])
        mode = "integration" if trial % 2 else "reconstruction"
        M = rng.choice([53, 59, 61, 67, 211])
        res = cbc_construct(I, CbcConfig(M=M, T=M, mode=mode, seed=trial))
        if res.success:
            lat = Rank1Lattice(M, res.z)
            verifier = verify_integration if mode == "integration" else verify_reconstruction
            assert verifier(lat, I)


def test_estimate_failure_bound():
    assert estimate_failure_bound(2, 2, 10) == pytest.approx(2**-10)
    assert estimate_failure_bound(1, 2, 10) == 0.0
    assert estimate_failure_bound(2000, 2, 100) < 1.58e-27
    assert estimate_failure_bound(10**9, 1.0001, 1) == 1.0
    with pytest.raises(ValueError):
        estimate_failure_bound(5, 1, 10)
    with pytest.raises(ValueError):
        estimate_failure_bound(5, 0.5, 10)
