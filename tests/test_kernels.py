"""Incremental exactness kernels against hand traces, the direct verifiers, and
a pair-deduplicating reference kernel kept here as an oracle."""

import itertools
import random

import numpy as np
import pytest

from cbclat.freqset import COMPONENT_LIMIT, FrequencySet
from cbclat.kernels import (
    ResidueState,
    check_exactness_integration,
    check_exactness_reconstruction,
    init_residues,
    prepare_step,
)
from cbclat.lattice import (
    INT64_SAFE_M,
    Rank1Lattice,
    _residues,
    verify_integration,
    verify_reconstruction,
)
from cbclat.primes import nextprime
from cbclat.search import CbcConfig, CbcResult, cbc_construct, cbc_construct_basic, \
    two_step_permutation

# Natural order of {(0,0),(1,0),(0,1)} is (0,0), (0,1), (1,0); hand traces
# below are written against that row order.
TRIPLE = FrequencySet([(0, 0), (1, 0), (0, 1)])


# --- reference kernels and driver: a full np.unique pair dedup and a full
# shifted state for every candidate, as the search did before the per-step
# projection; the drivers must reproduce them exactly.

def _ref_shifted(values, kcol, M, y):
    y %= M
    if M <= INT64_SAFE_M:
        return (values + y * (kcol % M)) % M
    return np.asarray([(int(v) + y * int(k)) % M for v, k in zip(values, kcol)], dtype=np.int64)


def _ref_init(I, M, mode):
    first = I.array[:, 0]
    nu = first % M
    if mode == "integration":
        return not bool(np.any((first != 0) & (nu == 0))), nu
    distinct = np.unique(first)
    return np.unique(distinct % M).shape[0] == distinct.shape[0], nu


def _ref_integration(kcol, values, M, y):
    shifted = _ref_shifted(values, kcol, M, y)
    return not bool(np.any((kcol != 0) & (shifted == 0))), shifted


def _ref_reconstruction(kcol, values, M, y):
    pairs = np.unique(np.column_stack((values, kcol)), axis=0)
    res = _ref_shifted(pairs[:, 0], pairs[:, 1], M, y)
    return np.unique(res).shape[0] == pairs.shape[0], _ref_shifted(values, kcol, M, y)


def _ref_drive(I, M, mode, step_candidates, seed):
    kernel = _ref_integration if mode == "integration" else _ref_reconstruction
    ok, values = _ref_init(I, M, mode)
    if not ok:
        return CbcResult("failed", None, (), mode, M, seed)
    z = [1 % M]
    counts = []
    for ell in range(1, I.d):
        accepted = None
        tested = 0
        for y in step_candidates():
            tested += 1
            good, shifted = kernel(I.array[:, ell], values, M, y)
            if good:
                accepted, values = y, shifted
                break
        counts.append(tested)
        if accepted is None:
            return CbcResult("failed", None, tuple(counts), mode, M, seed)
        z.append(accepted)
    return CbcResult("success", tuple(z), tuple(counts), mode, M, seed)


def _ref_construct(I, cfg):
    rng = random.Random(cfg.seed)
    steps = lambda: itertools.islice(two_step_permutation(cfg.M, rng), cfg.T)
    return _ref_drive(I, cfg.M, cfg.mode, steps, cfg.seed)


def _ref_construct_basic(I, M, T, mode, rng):
    return _ref_drive(I, M, mode, lambda: two_step_permutation(M, rng), None)


def _kernel(mode):
    return check_exactness_integration if mode == "integration" else check_exactness_reconstruction


def _verifier(mode):
    return verify_integration if mode == "integration" else verify_reconstruction


def test_residue_state_validation():
    ResidueState(np.array([0, 4]), 5, np.array([True, False]))
    assert ResidueState(np.array([0, 4]), 5).heads is None  # an integration state
    with pytest.raises(ValueError):
        ResidueState(np.array([5]), 5)
    with pytest.raises(ValueError):
        ResidueState(np.array([5]), 5, np.array([True]))
    with pytest.raises(ValueError):
        ResidueState(np.array([-1]), 5, np.array([True]))
    with pytest.raises(ValueError):
        ResidueState(np.array([[0]]), 5, np.array([[True]]))
    with pytest.raises(ValueError):
        ResidueState(np.array([0, 4]), 5, np.array([True]))
    with pytest.raises(ValueError):
        ResidueState(np.array([0, 4]), 5, np.array([False, True]))


def test_init_residues_integration():
    ok, state = init_residues(FrequencySet([(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,)]), 7,
                              "integration")
    assert ok
    assert state.values.tolist() == [(k % 7) for k in (-3, -2, -1, 0, 1, 2, 3)]
    assert state.heads is None  # integration carries no prefix mask
    ok, _ = init_residues(FrequencySet([(5, 0)]), 5, "integration")
    assert not ok  # nonzero first component hits residue 0


def test_init_residues_reconstruction():
    # first components {0, 2, 7} collide mod 5: 2 and 7 share residue 2
    I = FrequencySet([(0, 9), (2, 3), (7, 1)])
    ok, state = init_residues(I, 5, "reconstruction")
    assert not ok
    assert sorted(state.values.tolist()) == [0, 2, 2]
    ok, _ = init_residues(I, 11, "reconstruction")
    assert ok
    # repeated first components count once
    ok, state = init_residues(FrequencySet([(0, 1), (0, 2), (3, 0)]), 5, "reconstruction")
    assert ok
    assert state.heads.tolist() == [True, False, True]


def test_init_residues_input_checks():
    with pytest.raises(ValueError):
        init_residues(TRIPLE, 1, "integration")
    with pytest.raises(ValueError):
        init_residues(TRIPLE, 7, "no-such-mode")
    _, state = init_residues(TRIPLE, 7, "integration")
    with pytest.raises(ValueError):
        prepare_step(state, TRIPLE, 1, "no-such-mode")
    for ell in (-1, 2):
        with pytest.raises(ValueError):
            prepare_step(state, TRIPLE, ell, "integration")
    with pytest.raises(ValueError):  # an integration state has no prefix mask
        prepare_step(state, TRIPLE, 1, "reconstruction")


def test_integration_kernel_hand_trace():
    ok, state = init_residues(TRIPLE, 5, "integration")
    assert ok
    assert state.values.tolist() == [0, 0, 1]
    step = prepare_step(state, TRIPLE, 1, "integration")  # column (0, 1, 0)
    assert step.rows.tolist() == [1]
    good, s1 = check_exactness_integration(step, 1)
    assert good
    assert s1.values.tolist() == [0, 1, 1]
    assert s1.heads is None
    good, s0 = check_exactness_integration(step, 0)
    assert not good
    assert s0 is None  # no state is built for a rejected candidate
    # input state never mutated
    assert state.values.tolist() == [0, 0, 1]


def test_integration_kernel_all_zero_column():
    I = FrequencySet([(0, 0), (1, 0), (2, 0)])
    _, state = init_residues(I, 5, "integration")
    step = prepare_step(state, I, 1, "integration")
    assert step.rows.shape == step.v.shape == step.k.shape == (0,)
    for y in range(5):
        good, s = check_exactness_integration(step, y)
        assert good
        assert s.values.tolist() == state.values.tolist()


def test_integration_kernel_single_nonzero_row():
    # Only row (2, 3) has k_2 != 0: y = 1 sends it to 2 + 3 = 0 mod 5, every
    # other y is accepted and moves that row alone.
    I = FrequencySet([(0, 0), (1, 0), (2, 3)])
    _, state = init_residues(I, 5, "integration")
    step = prepare_step(state, I, 1, "integration")
    assert step.rows.tolist() == [2]
    for y in range(-5, 10):
        good, s = check_exactness_integration(step, y)
        assert good == verify_integration(Rank1Lattice(5, (1, y % 5)), I)
        assert good == (y % 5 != 1)
        if good:
            assert s.values.tolist() == _residues(I.array, 5, [1, y % 5]).tolist()


def test_reconstruction_kernel_hand_trace():
    ok, state = init_residues(TRIPLE, 5, "reconstruction")
    assert ok
    assert state.heads.tolist() == [True, False, True]
    step = prepare_step(state, TRIPLE, 1, "reconstruction")  # column (0, 1, 0)
    assert step.heads.tolist() == [True, True, True]
    good, s1 = check_exactness_reconstruction(step, 1)
    assert not good  # residues (0, 1, 1) collide
    assert s1 is None
    good, s2 = check_exactness_reconstruction(step, 2)
    assert good
    assert s2.values.tolist() == [0, 2, 1]
    assert s2.heads.tolist() == [True, True, True]


def test_reconstruction_kernel_single_frequency():
    I = FrequencySet([(4, -3)])
    ok, state = init_residues(I, 7, "reconstruction")
    assert ok
    step = prepare_step(state, I, 1, "reconstruction")
    for y in range(7):
        good, _ = check_exactness_reconstruction(step, y)
        assert good


def test_kernels_reject_length_mismatch():
    _, state = init_residues(TRIPLE, 5, "integration")
    with pytest.raises(ValueError):
        prepare_step(state, FrequencySet([(0, 1), (1, 2)]), 1, "integration")
    _, state = init_residues(TRIPLE, 5, "reconstruction")
    with pytest.raises(ValueError):
        prepare_step(state, FrequencySet([(0, 1), (1, 2), (2, 3), (3, 4)]), 1,
                     "reconstruction")


def test_reconstruction_kernel_row_permutation_invariant():
    # The prefix-mask kernel reads rows in natural order; its verdict must
    # still be the order-free one: the reference pair-dedup kernel on a
    # random permutation of the same (nu, k) rows.
    rng = random.Random(9)
    cases = 0
    while cases < 30:
        I, M = _random_instance(rng)
        z = [1] + [rng.randrange(M) for _ in range(I.d - 2)]
        values = _residues(I.array, M, z + [0])
        if not verify_reconstruction(Rank1Lattice(M, tuple(z)), FrequencySet(I.array[:, :-1])):
            continue
        heads = np.ones(len(I), dtype=bool)
        heads[1:] = np.any(I.array[1:, :-1] != I.array[:-1, :-1], axis=1)
        kcol = I.array[:, -1]
        step = prepare_step(ResidueState(values, M, heads), I, I.d - 1, "reconstruction")
        perm = list(range(len(I)))
        rng.shuffle(perm)
        for y in range(M):
            got, _ = check_exactness_reconstruction(step, y)
            want, _ = _ref_reconstruction(kcol[perm], values[perm], M, y)
            assert got == want
        cases += 1


def test_duplicate_projections_do_not_false_negative():
    # (1,0,1) and (1,0,2) agree in the first two coordinates; at step 2 the
    # deduplicated pair set is a singleton and every y must pass, matching
    # the direct verifier on the projected, deduplicated set.
    I = FrequencySet([(1, 0, 1), (1, 0, 2)])
    M = 7
    ok, state = init_residues(I, M, "reconstruction")
    assert ok
    step = prepare_step(state, I, 1, "reconstruction")
    proj = FrequencySet(I.array[:, :2])
    assert len(proj) == 1
    assert step.heads.tolist() == [True, False]
    for y in range(M):
        good, _ = check_exactness_reconstruction(step, y)
        assert good == verify_reconstruction(Rank1Lattice(M, (1, y)), proj)


def test_integer_pairs_equal_mod_m_stay_separate():
    # k components 1 and 8 are congruent mod 7 but are different frequencies;
    # no y can separate them, exactly as the direct verifier concludes.
    I = FrequencySet([(0, 1), (0, 8)])
    M = 7
    ok, state = init_residues(I, M, "reconstruction")
    assert ok
    step = prepare_step(state, I, 1, "reconstruction")
    for y in range(M):
        good, _ = check_exactness_reconstruction(step, y)
        assert not good
        assert not verify_reconstruction(Rank1Lattice(M, (1, y)), I)


def _random_instance(rng):
    d = rng.randrange(2, 5)
    n = rng.randrange(1, 14)
    rows = [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(n)]
    M = rng.choice([11, 13, 17, 19, 23, 29, 31, 37, 41])
    return FrequencySet(rows), M


def _walk(I, M, mode):
    """Full construction through the step kernels, trying y = 0, 1, ... and
    committing only accepted states. Yields (z, state) after every accepted
    component."""
    kernel = _kernel(mode)
    ok, state = init_residues(I, M, mode)
    if not ok:
        return
    z = [1]
    for ell in range(1, I.d):
        step = prepare_step(state, I, ell, mode)
        for y in range(M):
            good, cand = kernel(step, y)
            if good:
                z.append(y)
                state = cand
                yield z, state
                break
        else:
            return


def test_carried_residues_match_recomputation():
    # After each acceptance the carried vector must equal the from-scratch
    # residues; a reconstruction state's prefix mask must mark each first
    # row of a prefix, and an integration state carries no mask.
    rng = random.Random(123)
    for mode in ("integration", "reconstruction"):
        built = 0
        while built < 25:
            I, M = _random_instance(rng)
            if not init_residues(I, M, mode)[0]:
                continue
            for z, state in _walk(I, M, mode):
                padded = z + [0] * (I.d - len(z))
                assert state.values.tolist() == _residues(I.array, M, padded).tolist()
                if mode == "integration":
                    assert state.heads is None
                    continue
                prefix = I.array[:, : len(z)]
                heads = [True] + np.any(prefix[1:] != prefix[:-1], axis=1).tolist()
                assert state.heads.tolist() == heads
            built += 1


def test_accepted_states_equal_validated_states():
    # Accepted states skip ResidueState's range check; they must still be
    # what the validating constructor builds, frozen, in int64 and in range.
    rng = random.Random(777)
    walked = 0
    for mode in ("integration", "reconstruction"):
        for _ in range(40):
            I, M = _random_instance(rng)
            for _, state in _walk(I, M, mode):
                # Flags first: the validating constructor freezes in place.
                assert not state.values.flags.writeable
                assert state.heads is None or not state.heads.flags.writeable
                checked = ResidueState(state.values, state.M, state.heads)
                assert state.values.dtype == np.int64
                assert np.array_equal(state.values, checked.values) and state.M == M
                if mode == "integration":
                    assert state.heads is None
                else:
                    assert np.array_equal(state.heads, checked.heads)
                walked += 1
    assert walked > 50
    # With M (max|k| + 1) >= 2^63 the kernels compute in Python ints; states
    # stay int64.
    M = nextprime(2**62)
    I = FrequencySet([(1, 1), (2, 3)])
    for mode in ("integration", "reconstruction"):
        good, state = _kernel(mode)(prepare_step(init_residues(I, M, mode)[1], I, 1, mode), M - 2)
        assert good and state.values.dtype == np.int64
        assert state.values.tolist() == [M - 1, M - 4]


def test_accepted_prefixes_satisfy_direct_verifiers():
    rng = random.Random(321)
    for mode in ("integration", "reconstruction"):
        built = 0
        while built < 25:
            I, M = _random_instance(rng)
            if not init_residues(I, M, mode)[0]:
                continue
            for z, _ in _walk(I, M, mode):
                proj = FrequencySet(I.array[:, : len(z)])
                assert _verifier(mode)(Rank1Lattice(M, tuple(z)), proj)
            built += 1


def test_drivers_match_reference_kernel_and_driver():
    # Same RNG stream, same candidate order: every seed must give the same
    # z and the same per-step candidate counts as the reference, on both the
    # bounded driver and the one that sweeps the tail.
    rng = random.Random(404)
    compared = 0
    for trial in range(120):
        d = rng.randrange(2, 6)
        n = rng.randrange(1, 40)
        I = FrequencySet([[rng.randrange(-6, 7) for _ in range(d)] for _ in range(n)])
        M = rng.choice([5, 7, 11, 17, 31, 61, 127, 257, 509])
        T = rng.randrange(1, min(M, 12) + 1)
        for mode in ("integration", "reconstruction"):
            for seed in (trial, 10_000 + trial, 20_000 + trial):
                cfg = CbcConfig(M=M, T=T, mode=mode, seed=seed)
                assert cbc_construct(I, cfg) == _ref_construct(I, cfg)
                got = cbc_construct_basic(I, M, T, mode, random.Random(seed))
                assert got == _ref_construct_basic(I, M, T, mode, random.Random(seed))
                compared += 2
    assert compared == 120 * 2 * 3 * 2


def _big_instance(rng, d, n):
    near = [COMPONENT_LIMIT - rng.randrange(8) for _ in range(n * d)]
    rows = [[rng.choice((-1, 1)) * near[i * d + t] if rng.random() < 0.8 else rng.randrange(-2, 3)
             for t in range(d)] for i in range(n)]
    # two rows sharing a prefix, so the reconstruction dedup has work to do
    rows.append(rows[0][:-1] + [rows[0][-1] // 2])
    # residues and components near M - 1: y = M - 1 takes y * k past 2^63,
    # and at the first step sends both rows to residue 0
    rows += [[-1] * d, [-2] * d]
    return FrequencySet(rows)


def _walk_near_bound(M, mode, rng, dtype):
    # Components within 8 of the component limit. At every step the tested
    # candidates are one forced to fail (a residue driven to 0, or two
    # prefixes driven onto one residue), M - 1, M - 2 and random ones; every
    # verdict must match the direct verifier on the projected set, and every
    # carried state the recomputed residues. dtype is the one the step's
    # components must be computed in.
    I = _big_instance(rng, 4, 12)
    ok, state = init_residues(I, M, mode)
    assert ok
    z = [1]
    verdicts = []
    for ell in range(1, I.d):
        step = prepare_step(state, I, ell, mode)
        assert step.k.dtype == dtype
        nu = [int(v) for v in state.values]
        col = [int(k) for k in I.array[:, ell]]
        if mode == "integration":
            j = next(j for j in range(len(I)) if col[j] % M)
            forced = (-nu[j] * pow(col[j], -1, M)) % M
        else:
            rows = [j for j in range(len(I)) if step.heads[j]]
            i, j = next((i, j) for i in rows for j in rows if (col[i] - col[j]) % M)
            forced = ((nu[j] - nu[i]) * pow(col[i] - col[j], -1, M)) % M
        proj = FrequencySet(I.array[:, : ell + 1])
        accepted = None
        for y in [forced, M - 1, M - 2] + [rng.randrange(M) for _ in range(4)]:
            good, cand = _kernel(mode)(step, y)
            assert good == _verifier(mode)(Rank1Lattice(M, tuple(z) + (y,)), proj)
            verdicts.append((ell, y, good))
            if good and accepted is None:
                accepted = (y, cand)
        assert not verdicts[-7][2]  # the forced candidate
        assert accepted is not None
        z.append(accepted[0])
        state = accepted[1]
        padded = z + [0] * (I.d - len(z))
        assert state.values.tolist() == _residues(I.array, M, padded).tolist()
    assert _verifier(mode)(Rank1Lattice(M, tuple(z)), I)
    assert (1, M - 1, False) in verdicts


@pytest.mark.parametrize("mode", ["integration", "reconstruction"])
def test_kernels_exact_above_int64_bound(mode):
    # M just past INT64_SAFE_M: y * k for residues y, k < M would not fit
    # int64, but signed components up to COMPONENT_LIMIT keep v + y k in it.
    M = nextprime(INT64_SAFE_M)
    assert M > INT64_SAFE_M
    _walk_near_bound(M, mode, random.Random(2718 if mode == "integration" else 3141), np.int64)


@pytest.mark.parametrize("mode", ["integration", "reconstruction"])
def test_kernels_exact_past_component_bound(mode):
    # M = nextprime(2^32): M (COMPONENT_LIMIT - 7 + 1) >= 2^63, so the steps
    # compute in Python ints.
    M = nextprime(2**32)
    assert M * (COMPONENT_LIMIT - 6) >= 2**63
    _walk_near_bound(M, mode, random.Random(1618 if mode == "integration" else 1414), object)
