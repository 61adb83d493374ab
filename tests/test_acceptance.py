"""Acceptance gate: ten end-to-end checks with pinned tolerances and budgets.

Each test exercises one contract of the package at moderate scale, asserts
the stated tolerance, and prints a single summary line with the measured
numbers. Run with -s (or read test_output.txt) to see the lines.
"""

import itertools
import os
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cbclat.freqset import (
    FrequencySet,
    difference_set,
    gen_axis_cross,
    gen_cube,
    gen_superposition2,
    gen_weighted_hyperbolic,
    WeightSpec,
)
from cbclat.heuristic import heuristic_search, initial_size
from cbclat.kernels import (
    check_exactness_integration,
    check_exactness_reconstruction,
    commit,
    init_residues,
    prepare_step,
)
from cbclat.lattice import (
    Rank1Lattice,
    TrigPolynomial,
    eval_on_lattice,
    reconstruct_coeffs,
    verify_integration,
    verify_reconstruction,
)
from cbclat.primes import nextprime
from cbclat.search import cbc_construct, two_step_permutation


def _verifier(mode):
    return verify_integration if mode == "integration" else verify_reconstruction


def test_criterion_01_bounded_search_soundness():
    # 200 random sets, both modes, M at the provably sufficient starting
    # size: every accepted lattice must pass direct verification, and at
    # most 2 of the 200 bounded searches may come up empty.
    started = time.perf_counter()
    rng = random.Random(101)
    successes = 0
    failures = 0
    for trial in range(200):
        d = rng.randrange(2, 7)
        n = rng.randrange(1, 51)
        I = FrequencySet([[rng.randrange(-8, 9) for _ in range(d)] for _ in range(n)])
        mode = "integration" if trial % 2 else "reconstruction"
        M = initial_size(I, mode)
        res = cbc_construct(I, M, min(100, M), mode, random.Random(trial))
        if res.success:
            assert _verifier(mode)(Rank1Lattice(M, res.z), I), \
                f"trial {trial}: accepted lattice fails direct verification"
            successes += 1
        else:
            failures += 1
    elapsed = time.perf_counter() - started
    assert successes + failures == 200
    assert failures <= 2, f"{failures} of 200 bounded searches failed"
    assert elapsed < 30.0
    print(f"criterion 01 PASS: {successes}/200 constructions verified, "
          f"{failures} failures, {elapsed:.1f}s < 30s")


def test_criterion_02_reconstruction_equals_integration_on_differences():
    # For arbitrary (not CBC-built) lattices, reconstruction on I must agree
    # with integration exactness on the difference set D(I). 100 random
    # instances, exact agreement required.
    started = time.perf_counter()
    rng = random.Random(202)
    primes = [p for p in range(2, 258) if all(p % q for q in range(2, p))]
    agreements = 0
    for _ in range(100):
        d = rng.randrange(1, 5)
        n = rng.randrange(1, 31)
        I = FrequencySet([[rng.randrange(-10, 11) for _ in range(d)] for _ in range(n)])
        M = rng.choice(primes)
        lat = Rank1Lattice(M, tuple(rng.randrange(M) for _ in range(d)))
        lhs = verify_reconstruction(lat, I)
        rhs = verify_integration(lat, difference_set(I))
        assert lhs == rhs, f"disagreement for M={M}, z={lat.z}"
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == 100
    assert elapsed < 5.0
    print(f"criterion 02 PASS: 100/100 equivalence checks agree, {elapsed:.1f}s < 5s")


def test_criterion_03_kernels_match_direct_verifiers():
    # At least 10^4 (prefix, M, step) cases; for each, every candidate
    # y in 0..M-1 must get the same verdict from the incremental kernel and
    # from the direct verifier on the projected set. Prefixes are extended
    # only through kernel-accepted components, committed to the one buffer
    # after all M checks, matching how the drivers use the kernels.
    started = time.perf_counter()
    rng = random.Random(303)
    primes = (11, 13, 17, 19, 23, 29, 31)
    cases = 0
    candidates = 0
    while cases < 10_000:
        d = rng.randrange(2, 5)
        n = rng.randrange(2, 15)
        I = FrequencySet([[rng.randrange(-4, 5) for _ in range(d)] for _ in range(n)])
        M = rng.choice(primes)
        mode = "integration" if cases % 2 else "reconstruction"
        kernel = (check_exactness_integration if mode == "integration"
                  else check_exactness_reconstruction)
        ok, state = init_residues(I, M, mode)
        if not ok:
            continue
        arr = I.array
        z = [1]
        for ell in range(1, I.d):
            step = prepare_step(state, I, ell, mode)
            projected = FrequencySet(arr[:, :ell + 1])
            accepted = None
            for y in range(M):
                good, cand = kernel(step, y)
                direct = _verifier(mode)(Rank1Lattice(M, tuple(z) + (y,)), projected)
                assert good == direct, \
                    f"kernel/verifier disagree: mode={mode} M={M} z={z} y={y}"
                candidates += 1
                if good and accepted is None:
                    accepted = (y, cand)
            cases += 1
            if cases >= 10_000 or accepted is None:
                break
            z.append(accepted[0])
            commit(step, accepted[1])
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 03 PASS: {cases} prefix cases, {candidates} candidate "
          f"verdicts agree, {elapsed:.1f}s < 60s")


def test_criterion_04_family_cardinalities():
    # Closed-form set sizes over a (d, N) grid, including the difference set
    # of the axis cross. The full cube is checked wherever it stays small
    # enough to keep the whole grid inside the time budget.
    started = time.perf_counter()
    checked = 0
    for d in range(2, 7):
        for N in range(0, 9):
            assert len(gen_axis_cross(d, N)) == 2 * d * N + 1
            assert len(gen_superposition2(d, N)) == 2 * N * d * (1 + (d - 1) * N) + 1
            assert len(difference_set(gen_axis_cross(d, N))) == \
                2 * d * N * (2 + (d - 1) * N) + 1
            checked += 3
            if (2 * N + 1) ** d <= 2_000_000:
                assert len(gen_cube(d, N)) == (2 * N + 1) ** d
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 04 PASS: {checked} cardinality formulas exact, "
          f"{elapsed:.1f}s < 10s")


def test_criterion_05_weighted_hyperbolic_cardinalities():
    started = time.perf_counter()
    w = WeightSpec.inverse_square()
    n100 = len(gen_weighted_hyperbolic(w, 100, dmax=10))
    n400 = len(gen_weighted_hyperbolic(w, 400, dmax=20))
    elapsed = time.perf_counter() - started
    assert n100 == 963
    assert n400 == 6003
    assert elapsed < 5.0
    print(f"criterion 05 PASS: |I(100), d=10| = {n100}, |I(400), d=20| = {n400}, "
          f"{elapsed:.1f}s < 5s")


def test_criterion_06_halving_sweep_stays_in_bounds():
    # Reconstruction sweep over axis crosses with N = 64, d = 2..10, three
    # runs each: the halved size must land between the trivial lower bound
    # 2d*32 + 1 and the theoretical ceiling 8(d-1)*64^2 + 8. One reseeded
    # retry per point is allowed.
    started = time.perf_counter()
    sizes = {}
    for d in range(2, 11):
        I = gen_axis_cross(d, 64)
        lo = 2 * d * 32 + 1
        hi = 8 * (d - 1) * 4096 + 8
        for rep in range(3):
            out = None
            for seed in (1000 * d + rep, 777_000 + 1000 * d + rep):
                cand = heuristic_search(I, "reconstruction", K=5, T=100,
                                        rng=random.Random(seed))
                if cand.success and lo <= cand.M <= hi:
                    out = cand
                    break
            assert out is not None, f"d={d} rep={rep}: no in-bounds lattice found"
            sizes.setdefault(d, []).append(out.M)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    span = ", ".join(f"d={d}:{min(v)}..{max(v)}" for d, v in sizes.items())
    print(f"criterion 06 PASS: 27/27 sweep points in bounds ({span}), "
          f"{elapsed:.1f}s < 300s")


def test_criterion_07_halved_prime_window():
    # For every prime 2 < p <= 10^5 the next prime q above p/2 satisfies
    # p/2 < q <= 5p/7, checked in integer arithmetic against a sieve oracle.
    started = time.perf_counter()
    limit = 100_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    primes = [p for p in range(2, limit + 1) if sieve[p]]
    checked = 0
    for p in primes:
        if p == 2:
            continue
        q = nextprime(Fraction(p, 2))
        assert 2 * q > p, f"nextprime({p}/2) = {q} not above p/2"
        assert 7 * q <= 5 * p, f"nextprime({p}/2) = {q} above 5p/7"
        assert sieve[q], f"nextprime returned composite {q}"
        for m in range(p // 2 + 1, q):
            assert not sieve[m], f"nextprime({p}/2) skipped prime {m}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == len(primes) - 1
    assert elapsed < 10.0
    print(f"criterion 07 PASS: window p/2 < q <= 5p/7 holds for all "
          f"{checked} primes in (2, 1e5], {elapsed:.1f}s < 10s")


def test_criterion_08_permutation_uniformity():
    # 1.2e6 permutations of {0..4} from the lazy sampler, each read as the
    # bounded driver reads a head of 2 and then resumed for the other 3:
    # total variation distance to uniform on S_5 below 0.02.
    started = time.perf_counter()
    rng = random.Random(808)
    draws = 1_200_000

    def permutation():
        gen = two_step_permutation(5, rng)
        return tuple(itertools.islice(gen, 2)) + tuple(gen)

    counts = Counter(permutation() for _ in range(draws))
    tv = 0.5 * sum(abs(counts.get(p, 0) / draws - 1 / 120)
                   for p in itertools.permutations(range(5)))
    elapsed = time.perf_counter() - started
    assert len(counts) == 120
    assert tv < 0.02, f"TV distance {tv:.4f} exceeds 0.02"
    assert elapsed < 30.0
    print(f"criterion 08 PASS: TV distance {tv:.4f} < 0.02 over {draws} draws, "
          f"{elapsed:.1f}s < 30s")


def test_criterion_09_polynomial_round_trips():
    # 20 full pipelines: random set, halving search, random coefficients,
    # evaluation on the lattice, reconstruction; max coefficient error at or
    # below 1e-10 relative to the coefficient 1-norm.
    started = time.perf_counter()
    rng = random.Random(909)
    worst = 0.0
    for trip in range(20):
        d = rng.randrange(1, 6)
        n = rng.randrange(1, 101)
        I = FrequencySet([[rng.randrange(-16, 17) for _ in range(d)] for _ in range(n)])
        out = heuristic_search(I, "reconstruction", K=5, T=100,
                               rng=random.Random(5000 + trip))
        assert out.success, f"trip {trip}: search failed"
        lat = Rank1Lattice(out.M, out.z)
        coeffs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(len(I))])
        poly = TrigPolynomial(I, coeffs)
        recovered = reconstruct_coeffs(lat, I, eval_on_lattice(poly, lat))
        rel = float(np.max(np.abs(recovered - coeffs))) / float(np.sum(np.abs(coeffs)))
        worst = max(worst, rel)
        assert rel <= 1e-10, f"trip {trip}: relative error {rel:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 09 PASS: 20/20 round trips, worst relative error "
          f"{worst:.2e} <= 1e-10, {elapsed:.1f}s < 120s")


def test_criterion_10_seeded_runs_are_reproducible():
    started = time.perf_counter()
    I = gen_axis_cross(3, 8)
    for M, T, mode, seed in ((211, 50, "reconstruction", 12345), (149, 100, "integration", 999)):
        runs = [cbc_construct(I, M, T, mode, random.Random(seed)) for _ in range(2)]
        assert runs[0] == runs[1]
    outs = [heuristic_search(I, "reconstruction", K=5, T=60, rng=random.Random(77))
            for _ in range(2)]
    def key(o):
        return (o.status, o.M, o.z, o.mode,
                [(e.M_tilde, e.attempts, e.ok) for e in o.trail])
    assert key(outs[0]) == key(outs[1])
    elapsed = time.perf_counter() - started
    print(f"criterion 10 PASS: seeded construction and halving runs identical, "
          f"{elapsed:.1f}s")


@pytest.mark.skipif(not os.environ.get("CBCLAT_STRETCH"),
                    reason="set CBCLAT_STRETCH=1 to run the d=350 sweep")
def test_stretch_axis_cross_d350():
    # Large-scale run: axis cross with d = 350, N = 64 (44801 frequencies),
    # reconstruction mode. About 9 s on a 2-core x86-64 machine.
    started = time.perf_counter()
    I = gen_axis_cross(350, 64)
    assert len(I) == 44801
    out = heuristic_search(I, "reconstruction", K=5, T=100,
                           rng=random.Random(350))
    elapsed = time.perf_counter() - started
    assert out.success
    assert verify_reconstruction(Rank1Lattice(out.M, out.z), I)
    assert len(I) <= out.M <= 8 * 349 * 4096 + 8
    assert elapsed < 600.0
    print(f"stretch PASS: d=350 reconstruction lattice M={out.M} "
          f"({out.M / len(I):.1f}x set size), {elapsed:.0f}s < 600s")
