"""Incremental exactness kernels against hand traces, the direct verifiers, and
a pair-deduplicating reference kernel kept here as an oracle."""

import itertools
import math
import random

import numpy as np
import pytest

from cbclat import kernels
from cbclat.freqset import (
    COMPONENT_LIMIT,
    FrequencySet,
    gen_axis_cross,
    WeightSpec,
    gen_cube,
    gen_superposition2,
    gen_weighted_hyperbolic,
)
from cbclat.heuristic import heuristic_search
from cbclat.kernels import (
    ResidueState,
    check_exactness_integration,
    check_exactness_reconstruction,
    commit,
    init_residues,
    prepare_step,
)
from cbclat.lattice import (
    INT64_SAFE_M,
    Rank1Lattice,
    _residues,
    exact_operand,
    verify_integration,
    verify_reconstruction,
)
from cbclat.primes import is_prime, nextprime
from cbclat.search import CbcResult, cbc_construct, cbc_construct_basic, \
    cbc_exhaustive, two_step_permutation

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


def _ref_drive(I, M, mode, step_candidates):
    kernel = _ref_integration if mode == "integration" else _ref_reconstruction
    ok, values = _ref_init(I, M, mode)
    if not ok:
        return CbcResult("failed", None, ())
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
            return CbcResult("failed", None, tuple(counts))
        z.append(accepted)
    return CbcResult("success", tuple(z), tuple(counts))


def _ref_construct(I, M, T, mode, rng):
    steps = lambda: itertools.islice(two_step_permutation(M, rng), T)
    return _ref_drive(I, M, mode, steps)


def _ref_construct_basic(I, M, mode, rng):
    return _ref_drive(I, M, mode, lambda: two_step_permutation(M, rng))


def _prefix_mask(I, length):
    """Whether each row's first `length` components differ from the previous
    row's: the rows a reconstruction step must read, from I's own prefixes."""
    prefix = I.array[:, :length]
    return [True] + np.any(prefix[1:] != prefix[:-1], axis=1).tolist()


def _prefix_rows(I, length):
    """The indices of the rows _prefix_mask marks, ascending."""
    return np.flatnonzero(_prefix_mask(I, length)).tolist()


def _sorted_rows(step):
    """The rows a step reads, which it may hold in any order, ascending."""
    return sorted(step.rows.tolist())


def _kernel(mode):
    return check_exactness_integration if mode == "integration" else check_exactness_reconstruction


def _verifier(mode):
    return verify_integration if mode == "integration" else verify_reconstruction


# Rules a reconstruction attempt may decide its occupancy mask by: the
# default, M <= min(64 |I|, INT64_SAFE_M), always and never.
TAKEN_RULES = {
    "default": kernels._taken_pays,
    "always": lambda M, n: True,
    "never": lambda M, n: False,
}


def test_residue_state_validation():
    given = np.array([0, 4])
    state = ResidueState(given, 5)
    assert state.values.tolist() == [0, 4]
    # The state owns a writable int64 copy: commits never reach the caller's array.
    assert state.values.dtype == np.int64 and state.values.flags.writeable
    assert not np.shares_memory(state.values, given)
    # A numpy integer M is kept as a Python int, which pow reads in the inverse table.
    assert type(ResidueState(given, np.int64(5)).M) is int
    with pytest.raises(TypeError):
        ResidueState(given, 5.0)
    with pytest.raises(ValueError):
        ResidueState(np.array([5]), 5)
    with pytest.raises(ValueError):
        ResidueState(np.array([-1]), 5)
    with pytest.raises(ValueError):
        ResidueState(np.array([[0]]), 5)


def test_init_residues_integration():
    ok, state = init_residues(FrequencySet([(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,)]), 7,
                              "integration")
    assert ok
    assert state.values.tolist() == [(k % 7) for k in (-3, -2, -1, 0, 1, 2, 3)]
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
    I = FrequencySet([(0, 1), (0, 2), (3, 0)])
    ok, state = init_residues(I, 5, "reconstruction")
    assert ok
    assert state.values.tolist() == [0, 0, 3]
    assert _sorted_rows(prepare_step(state, I, 1, "reconstruction")) == _prefix_rows(I, 2)


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


def test_integration_kernel_hand_trace():
    ok, state = init_residues(TRIPLE, 5, "integration")
    assert ok
    assert state.values.tolist() == [0, 0, 1]
    step = prepare_step(state, TRIPLE, 1, "integration")  # column (0, 1, 0)
    assert step.rows.tolist() == step.moved.tolist() == [1]
    good, r1 = check_exactness_integration(step, 1)
    assert good
    assert r1.tolist() == [1]  # the new residue of the one moved row
    good, r0 = check_exactness_integration(step, 0)
    assert not good
    assert r0 is None  # nothing is returned for a rejected candidate
    # checks never write the buffer; commit writes the moved row alone
    assert state.values.tolist() == [0, 0, 1]
    commit(step, r1)
    assert state.values.tolist() == [0, 1, 1]


def test_integration_kernel_all_zero_column():
    I = FrequencySet([(0, 0), (1, 0), (2, 0)])
    _, state = init_residues(I, 5, "integration")
    step = prepare_step(state, I, 1, "integration")
    assert step.rows.shape == step.v.shape == step.k.shape == (0,)
    before = state.values.tolist()
    for y in range(5):
        good, r = check_exactness_integration(step, y)
        assert good
        assert r.shape == (0,)
        commit(step, r)
        assert state.values.tolist() == before


def test_integration_kernel_single_nonzero_row():
    # Only row (2, 3) has k_2 != 0: y = 1 sends it to 2 + 3 = 0 mod 5, every
    # other y is accepted and moves that row alone.
    I = FrequencySet([(0, 0), (1, 0), (2, 3)])
    _, state = init_residues(I, 5, "integration")
    step = prepare_step(state, I, 1, "integration")
    assert step.rows.tolist() == [2]
    for y in range(-5, 10):
        good, r = check_exactness_integration(step, y)
        assert good == verify_integration(Rank1Lattice(5, (1, y % 5)), I)
        assert good == (y % 5 != 1)
        if good:
            assert r.tolist() == _residues(I, 5, [1, y % 5])[2:].tolist()
    assert state.values.tolist() == [0, 1, 2]


def test_reconstruction_kernel_hand_trace(monkeypatch):
    # Off the occupancy mask, the step reads every prefix class.
    monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES["never"])
    ok, state = init_residues(TRIPLE, 5, "reconstruction")
    assert ok and state.taken is None
    assert state.values.tolist() == [0, 0, 1]
    step = prepare_step(state, TRIPLE, 1, "reconstruction")  # column (0, 1, 0)
    assert _sorted_rows(step) == _prefix_rows(TRIPLE, 2) == [0, 1, 2]
    assert step.moved.tolist() == [1]
    good, r1 = check_exactness_reconstruction(step, 1)
    assert not good  # residues (0, 1, 1) collide
    assert r1 is None
    good, r2 = check_exactness_reconstruction(step, 2)
    assert good
    assert r2.tolist() == [2]  # the new residue of the one moved row
    assert state.values.tolist() == [0, 0, 1]
    commit(step, r2)
    assert state.values.tolist() == [0, 2, 1]
    # On it (the default rule at M = 5), the step reads its one moved class,
    # and the mask marks the residues 0 and 1 of the static (0, 0) and (1, 0).
    monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES["default"])
    ok, state = init_residues(TRIPLE, 5, "reconstruction")
    assert ok
    assert np.flatnonzero(state.taken).tolist() == [0, 1]
    step = prepare_step(state, TRIPLE, 1, "reconstruction")
    assert step.rows.tolist() == step.moved.tolist() == [1]
    assert check_exactness_reconstruction(step, 1) == (False, None)  # 0 + 1 hits residue 1
    good, r2 = check_exactness_reconstruction(step, 2)
    assert good
    assert r2.tolist() == [2]
    commit(step, r2)
    assert state.values.tolist() == [0, 2, 1]
    assert np.flatnonzero(state.taken).tolist() == [0, 1, 2]


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
    # The reconstruction kernel reads rows in natural order; its verdict must
    # still be the order-free one: the reference pair-dedup kernel on a
    # random permutation of the same (nu, k) rows.
    rng = random.Random(9)
    cases = 0
    while cases < 30:
        I, M = _random_instance(rng)
        z = [1] + [rng.randrange(M) for _ in range(I.d - 2)]
        values = _residues(I, M, z + [0])
        if not verify_reconstruction(Rank1Lattice(M, tuple(z)), FrequencySet(I.array[:, :-1])):
            continue
        kcol = I.array[:, -1]
        step = prepare_step(ResidueState(values, M), I, I.d - 1, "reconstruction")
        assert _sorted_rows(step) == _prefix_rows(I, I.d)
        perm = list(range(len(I)))
        rng.shuffle(perm)
        for y in range(M):
            got, _ = check_exactness_reconstruction(step, y)
            want, _ = _ref_reconstruction(kcol[perm], values[perm], M, y)
            assert got == want
        cases += 1


def test_duplicate_projections_do_not_false_negative(monkeypatch):
    # (1,0,1) and (1,0,2) agree in the first two coordinates; at step 2 the
    # deduplicated pair set is a singleton and every y must pass, matching
    # the direct verifier on the projected, deduplicated set. Off the
    # occupancy mask the step reads that one class; on it (the default rule
    # at M = 7) the class is static, so the step reads no row and the mask
    # marks the class's residue 1.
    I = FrequencySet([(1, 0, 1), (1, 0, 2)])
    M = 7
    proj = FrequencySet(I.array[:, :2])
    assert len(proj) == 1
    for rule in ("never", "default"):
        monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES[rule])
        ok, state = init_residues(I, M, "reconstruction")
        assert ok
        step = prepare_step(state, I, 1, "reconstruction")
        if rule == "never":
            assert state.taken is None
            assert _sorted_rows(step) == _prefix_rows(I, 2) == [0]
        else:
            assert step.rows.tolist() == []
            assert np.flatnonzero(state.taken).tolist() == [1]
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
    committing the first accepted y. Yields (z, state) after every accepted
    component: the one buffer, updated in place."""
    kernel = _kernel(mode)
    ok, state = init_residues(I, M, mode)
    if not ok:
        return
    z = [1]
    for ell in range(1, I.d):
        step = prepare_step(state, I, ell, mode)
        for y in range(M):
            good, r = kernel(step, y)
            if good:
                z.append(y)
                commit(step, r)
                yield z, state
                break
        else:
            return


def _assert_next_rows(state, I, ell, mode):
    # The rows step ell reads: in integration those with k_ell != 0, in
    # reconstruction the first row of each length-(ell + 1) prefix of I.
    rows = prepare_step(state, I, ell, mode).rows
    if mode == "integration":
        assert rows.tolist() == np.flatnonzero(I.array[:, ell]).tolist()
    else:
        assert sorted(rows.tolist()) == _prefix_rows(I, ell + 1)


def test_carried_residues_match_recomputation():
    # init_residues must agree with the reference, failed inits included,
    # whose state is the first components mod M. After each acceptance the
    # carried vector must equal the from-scratch residues, and the next step
    # must read the rows defined from I itself.
    rng = random.Random(123)
    for mode in ("integration", "reconstruction"):
        failed = 0
        for _ in range(60):
            I, _ = _random_instance(rng)
            M = rng.choice((2, 3, 5, 7))  # small enough for some inits to fail
            ok, state = init_residues(I, M, mode)
            ref_ok, ref_values = _ref_init(I, M, mode)
            assert ok == ref_ok
            assert state.values.tolist() == ref_values.tolist()
            failed += not ok
        assert 0 < failed < 60
        built = 0
        while built < 25:
            I, M = _random_instance(rng)
            ok, state = init_residues(I, M, mode)
            if not ok:
                continue
            _assert_next_rows(state, I, 1, mode)
            for z, state in _walk(I, M, mode):
                padded = z + [0] * (I.d - len(z))
                assert state.values.tolist() == _residues(I, M, padded).tolist()
                if len(z) < I.d:
                    _assert_next_rows(state, I, len(z), mode)
            built += 1


def test_accepted_states_equal_validated_states():
    # Commits skip ResidueState's range check; the buffer they leave must
    # still be what the validating constructor accepts, in int64 and in range.
    rng = random.Random(777)
    walked = 0
    for mode in ("integration", "reconstruction"):
        for _ in range(40):
            I, M = _random_instance(rng)
            for _, state in _walk(I, M, mode):
                checked = ResidueState(state.values, state.M)
                assert state.values.dtype == np.int64 and state.values.flags.writeable
                assert np.array_equal(state.values, checked.values) and state.M == M
                walked += 1
    assert walked > 50
    # With M (max|k| + 1) >= 2^63 the kernels compute in Python ints; the
    # buffer stays int64.
    M = nextprime(2**62)
    I = FrequencySet([(1, 1), (2, 3)])
    for mode in ("integration", "reconstruction"):
        _, state = init_residues(I, M, mode)
        step = prepare_step(state, I, 1, mode)
        assert step.dk.dtype == object
        good, r = _kernel(mode)(step, M - 2)
        assert good
        commit(step, r)
        assert state.values.dtype == np.int64
        assert state.values.tolist() == [M - 1, M - 4]


@pytest.mark.parametrize("mode", ["integration", "reconstruction"])
def test_checks_never_write_the_buffer(mode):
    # Every candidate of every step, accepted ones included, leaves the
    # buffer as it was; each accepted y's residues are those of step.moved
    # from scratch, and commit writes exactly those rows.
    rng = random.Random(55 if mode == "integration" else 56)
    accepted = 0
    for _ in range(40):
        I, M = _random_instance(rng)
        ok, state = init_residues(I, M, mode)
        if not ok:
            continue
        z = [1]
        for ell in range(1, I.d):
            step = prepare_step(state, I, ell, mode)
            before = state.values.copy()
            first = None
            for y in range(M):
                good, r = _kernel(mode)(step, y)
                assert np.array_equal(state.values, before)
                if good:
                    padded = z + [y] + [0] * (I.d - len(z) - 1)
                    assert r.tolist() == _residues(I, M, padded)[step.moved].tolist()
                    accepted += 1
                    first = first or (y, r)
            if first is None:
                break
            commit(step, first[1])
            z.append(first[0])
            changed = np.flatnonzero(state.values != before)
            assert set(changed.tolist()) <= set(step.moved.tolist())
            assert state.values[step.moved].tolist() == first[1].tolist()
            outside = np.ones(len(I), dtype=bool)
            outside[step.moved] = False
            assert np.array_equal(state.values[outside], before[outside])
    assert accepted > 200


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
                got = cbc_construct(I, M, T, mode, random.Random(seed))
                assert got == _ref_construct(I, M, T, mode, random.Random(seed))
                got = cbc_construct_basic(I, M, mode, random.Random(seed))
                assert got == _ref_construct_basic(I, M, mode, random.Random(seed))
                compared += 2
    assert compared == 120 * 2 * 3 * 2


def _big_instance(rng, d, n, limit=COMPONENT_LIMIT, closed=False):
    near = [limit - rng.randrange(8) for _ in range(n * d)]
    rows = [[rng.choice((-1, 1)) * near[i * d + t] if rng.random() < 0.8 else rng.randrange(-2, 3)
             for t in range(d)] for i in range(n)]
    # two rows sharing a prefix, so the reconstruction dedup has work to do
    rows.append(rows[0][:-1] + [rows[0][-1] // 2])
    # residues and components near M - 1: y = M - 1 takes y * k past 2^63,
    # and at the first step sends both rows to residue 0
    rows += [[-1] * d, [-2] * d]
    if closed:  # every row's prefixes padded with 0: each class keeps a child with k_l = 0
        rows += [row[:t] + [0] * (d - t) for row in rows for t in range(1, d)]
    return FrequencySet(rows)


def _walk_near_bound(M, mode, rng, dtype, limit=COMPONENT_LIMIT, closed=False):
    # Components within 8 of limit, the component limit by default. At every
    # step the tested candidates are one forced to fail (a residue driven to
    # 0, or two prefixes driven onto one residue), M - 1, M - 2 and random
    # ones; every verdict must match the direct verifier on the projected set,
    # and every carried state the recomputed residues. dtype is the one the
    # step's components must be computed in. closed adds every row's prefixes
    # padded with 0, and a reconstruction walk then runs on the occupancy mask
    # (which the caller's rule must build) at every step; otherwise off it.
    I = _big_instance(rng, 4, 12, limit, closed)
    ok, state = init_residues(I, M, mode)
    assert ok
    assert (state.taken is not None) == closed
    z = [1]
    verdicts = []
    for ell in range(1, I.d):
        step = prepare_step(state, I, ell, mode)
        assert step.k.dtype == step.dk.dtype == dtype
        # Integration keeps the buffer's int64 residues; reconstruction sorts them in dtype.
        assert step.v.dtype == (np.int64 if mode == "integration" else dtype)
        # The step takes column ell from I.nonzeros: it must match the dense array.
        assert step.k.tolist() == I.array[step.rows, ell].tolist()
        assert step.dk.tolist() == I.array[step.moved, ell].tolist()
        nu = [int(v) for v in state.values]
        col = [int(k) for k in I.array[:, ell]]
        if mode == "integration":
            j = next(j for j in range(len(I)) if col[j] % M)
            forced = (-nu[j] * pow(col[j], -1, M)) % M
        else:
            mask = _prefix_mask(I, ell + 1)
            if closed:  # the moved classes, and the residues of the rest marked
                assert state.taken is not None
                assert _sorted_rows(step) == [j for j in _prefix_rows(I, ell + 1) if col[j]]
                static = sorted(nu[j] for j in _prefix_rows(I, ell + 1) if not col[j])
                assert np.flatnonzero(state.taken).tolist() == static
            else:
                assert _sorted_rows(step) == _prefix_rows(I, ell + 1)
            rows = [j for j in range(len(I)) if mask[j]]
            i, j = next((i, j) for i in rows for j in rows if (col[i] - col[j]) % M)
            forced = ((nu[j] - nu[i]) * pow(col[i] - col[j], -1, M)) % M
        proj = FrequencySet(I.array[:, : ell + 1])
        accepted = None
        for y in [forced, M - 1, M - 2] + [rng.randrange(M) for _ in range(4)]:
            good, cand = _kernel(mode)(step, y)
            assert good == _verifier(mode)(Rank1Lattice(M, tuple(z) + (y,)), proj)
            # The step has rejected the forced candidate; a fresh one has rejected none.
            fresh, fresh_cand = _kernel(mode)(prepare_step(state, I, ell, mode), y)
            assert fresh == good
            assert (cand is None) == (fresh_cand is None)
            assert cand is None or cand.tolist() == fresh_cand.tolist()
            verdicts.append((ell, y, good))
            if good and accepted is None:
                accepted = (y, cand)
        assert not verdicts[-7][2]  # the forced candidate
        if mode == "integration":
            # M is far above 8 rows here: the step keeps its per-candidate check.
            assert step.forbidden == b""
        assert accepted is not None
        z.append(accepted[0])
        commit(step, accepted[1])
        padded = z + [0] * (I.d - len(z))
        assert state.values.dtype == np.int64
        assert state.values.tolist() == _residues(I, M, padded).tolist()
        if closed:
            assert np.flatnonzero(state.taken).tolist() == sorted(set(state.values.tolist()))
    assert _verifier(mode)(Rank1Lattice(M, tuple(z)), I)
    assert (1, M - 1, False) in verdicts


@pytest.mark.parametrize("mode", ["integration", "reconstruction"])
def test_kernels_exact_above_int64_bound(monkeypatch, mode):
    # M just past INT64_SAFE_M: y * k for residues y, k < M would not fit
    # int64, but signed components up to COMPONENT_LIMIT keep v + y k in it.
    # The default rule builds no occupancy mask here; the walk forces it off.
    M = nextprime(INT64_SAFE_M)
    assert M > INT64_SAFE_M and not kernels._taken_pays(M, 10**9)
    monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES["never"])
    _walk_near_bound(M, mode, random.Random(2718 if mode == "integration" else 3141), np.int64)


@pytest.mark.parametrize("mode", ["integration", "reconstruction"])
def test_kernels_exact_past_component_bound(monkeypatch, mode):
    # M = nextprime(2^32): M (COMPONENT_LIMIT - 7 + 1) >= 2^63, so the steps
    # compute in Python ints, where the default rule builds no occupancy mask.
    M = nextprime(2**32)
    assert M * (COMPONENT_LIMIT - 6) >= 2**63 and not kernels._taken_pays(M, 10**9)
    monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES["never"])
    _walk_near_bound(M, mode, random.Random(1618 if mode == "integration" else 1414), object)


def _prevprime(n):
    while not is_prime(n):
        n -= 1
    return n


@pytest.mark.parametrize("mode", ["integration", "reconstruction"])
@pytest.mark.parametrize("side", ["int32", "int64"])
def test_kernels_exact_at_int32_bound(monkeypatch, mode, side):
    # Components within 8 of 4096: M (4096 + 1) < 2^31 keeps every step in
    # int32, where y = M - 1 takes v + y k to the edge of int32, and
    # M (4096 - 7 + 1) >= 2^31, 0.2 % further on, takes every step to int64.
    # The walk runs with the occupancy mask forced off and, in
    # reconstruction, again forced on (M is about 524,000 bools) over a set
    # whose classes each keep a static child.
    limit = 4096
    if side == "int32":
        M = _prevprime((2**31 - 1) // (limit + 1))
    else:
        M = nextprime((2**31 - 1) // (limit - 6))
    seed = {"int32": 5, "int64": 7}[side] + (mode == "integration")
    monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES["never"])
    _walk_near_bound(M, mode, random.Random(seed), np.dtype(side), limit)
    if mode == "reconstruction":
        monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES["always"])
        _walk_near_bound(M, mode, random.Random(seed), np.dtype(side), limit, closed=True)


# (moduli, max|k|, row counts) of the sets each case draws. The first three
# are where an integration step must keep its per-candidate check: k_l with
# no inverse mod a composite M, k_l = 0 mod M, and M > 8 rows. In the last,
# every step that rejects a candidate builds its mask.
MASK_CASES = {
    "composite M": ((12, 15, 21, 25, 27), 4, (6, 24)),
    "k_l = 0 mod M": ((2, 3, 5, 7), 8, (6, 24)),
    "M above 8 rows": ((61, 67, 71), 3, (2, 6)),
    "mask": ((11, 13, 17), 3, (12, 30)),
}


def _mask_expected(step):
    # The rule a step's first rejection decides by, stated from the step's components.
    k, M = step.k.tolist(), step.state.M
    return max(map(abs, k)) < M <= 8 * len(k) and all(math.gcd(x, M) == 1 for x in k)


@pytest.mark.parametrize("case", MASK_CASES)
def test_integration_mask_matches_direct_verifier(case):
    # Criterion 03 for the mask: at every step, every y in 0..M-1 is checked on a
    # fresh step (before any rejection) and again on one step after its first
    # rejection, against the direct verifier on the projected set and the
    # reference kernel, verdicts and returned residues alike.
    moduli, kmax, (low, high) = MASK_CASES[case]
    rng = random.Random(sorted(MASK_CASES).index(case))
    decided = {True: 0, False: 0}
    for _ in range(40):
        d, n, M = rng.randrange(2, 5), rng.randrange(low, high + 1), rng.choice(moduli)
        # first components in -1..1, so that small M pass init_residues
        I = FrequencySet([[rng.randrange(-1, 2)] + [rng.randrange(-kmax, kmax + 1)
                                                   for _ in range(d - 1)] for _ in range(n)])
        ok, state = init_residues(I, M, "integration")
        assert ok
        z = [1]
        for ell in range(1, I.d):
            step = prepare_step(state, I, ell, "integration")
            proj = FrequencySet(I.array[:, : ell + 1])
            want = []
            for y in range(M):
                good, shifted = _ref_integration(I.array[:, ell], state.values, M, y)
                assert good == verify_integration(Rank1Lattice(M, tuple(z) + (y,)), proj)
                want.append((good, shifted[step.moved].tolist() if good else None))

            def got(step, y):
                good, r = check_exactness_integration(step, y)
                return good, None if r is None else r.tolist()

            assert [got(prepare_step(state, I, ell, "integration"), y) for y in range(M)] == want
            rejected = [y for y in range(M) if not want[y][0]]
            if rejected:
                assert got(step, rejected[0]) == (False, None)
                assert (step.forbidden != b"") == _mask_expected(step)
                decided[step.forbidden != b""] += 1
            assert [got(step, y) for y in range(M)] == want
            accepted = next((y for y in range(M) if want[y][0]), None)
            if accepted is None:
                break
            z.append(accepted)
            commit(step, np.array(want[accepted][1], dtype=np.int64))
    assert decided[case == "mask"] > 20
    if case == "M above 8 rows":
        assert decided[True] == 0


SWITCH_SETS = {
    "superposition2(8, 1)": lambda: gen_superposition2(8, 1),
    "cube(3, 2)": lambda: gen_cube(3, 2),
    "axis_cross(6, 4)": lambda: gen_axis_cross(6, 4),
}


def _integration_results(I):
    searches = [heuristic_search(I, "integration", K=5, T=100, rng=random.Random(seed))
                for seed in range(1, 9)]
    sizes = sorted({e.M_tilde for s in searches for e in s.trail})
    return (
        [(s.status, s.M, s.z, [(e.M_tilde, e.attempts, e.ok) for e in s.trail]) for s in searches],
        [cbc_construct_basic(I, M, "integration", random.Random(seed))
         for M in sizes for seed in range(1, 9)],
        [cbc_exhaustive(I, M, "integration") for M in sizes],
    )


@pytest.mark.parametrize("name", SWITCH_SETS)
def test_mask_switch_never_changes_a_result(monkeypatch, name):
    # The three integration drivers give the same results whether the mask is
    # built by the default rule, at every rejecting step where each k_l has an
    # inverse mod M, or never. The default builds it on every set here, and
    # never where M > 8 rows, as at the first size of axis_cross(6, 4).
    I = SWITCH_SETS[name]()
    forbidden, built = kernels._forbidden, []

    def counted(step):
        mask = forbidden(step)
        built[-1] += mask != b""
        return mask

    monkeypatch.setattr(kernels, "_forbidden", counted)
    results = []
    for pays in (kernels._mask_pays, lambda M, rows, bound: True, lambda M, rows, bound: False):
        monkeypatch.setattr(kernels, "_mask_pays", pays)
        built.append(0)
        results.append(_integration_results(I))
    assert results[0] == results[1] == results[2]
    assert built[2] == 0 < built[0] <= built[1]


def _tier_instance(rng, tier, closed=False):
    # Components in -3..3, plus some that are 0 mod M and some congruent mod M
    # to another component of their column, all nonzero. In the int64 tier
    # every nonzero component is raised by a large multiple of M, so that
    # M (max|k| + 1) >= 2^31 at the small M drawn here. closed adds every
    # row's prefixes padded with 0, so that each prefix class keeps a child
    # with k_l = 0 at every step, as in a downward-closed set.
    d, n = rng.randrange(2, 5), rng.randrange(2, 16)
    M = rng.choice([7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 1021])
    big = (COMPONENT_LIMIT // M - 3) * M if tier == "int64" else 0
    rows = []
    for _ in range(n):
        row = [rng.randrange(-1, 2)] + [rng.randrange(-3, 4) for _ in range(d - 1)]
        t = rng.randrange(1, d)
        pick = rng.random()
        if pick < 0.2:
            row[t] = rng.choice((-1, 1)) * M
        elif pick < 0.4:
            row[t] = rng.choice((-3, -2, -1, 1, 2, 3)) + rng.choice((-1, 1)) * M
        rows.append([k + (big if k > 0 else -big if k < 0 else 0) for k in row])
        # a row sharing all but its last component, so a prefix class holds two rows
        if rng.random() < 0.3:
            rows.append(rows[-1][:-1] + [rng.randrange(-3, 4)])
    if closed:
        rows += [row[:t] + [0] * (d - t) for row in rows for t in range(1, d)]
    return FrequencySet(rows), M


def _keeps_static_children(I, ell):
    # Whether every distinct length-ell prefix of I has a child with k_ell = 0,
    # counted from the dense rows: the occupancy mask's condition at step ell.
    A = I.array
    parents = {tuple(k[:ell]) for k in A.tolist()}
    return parents == {tuple(k[:ell]) for k in A.tolist() if k[ell] == 0}


@pytest.mark.parametrize("rule", TAKEN_RULES)
@pytest.mark.parametrize("tier", ["int32", "int64", "object"])
def test_static_mask_matches_direct_verifier(monkeypatch, tier, rule):
    # Criterion 03 for the occupancy mask, on which a reconstruction step reads
    # only its moved classes against the marked residues of its static ones:
    # at every step, every y in 0..M-1, verdicts and returned residues, against
    # the direct verifier on the projected set; on sets whose classes each keep
    # a static child and on sets where the attempt drops the mask. Every step
    # that keeps the mask reads one row per moved class, the mask marks the
    # residues of the rest, and every commit leaves it marking the buffer's.
    # The real rule never meets the Python-int tier (M <= INT64_SAFE_M and
    # |k| <= COMPONENT_LIMIT keep int64), so the object tier, forced through
    # exact_operand at these small M, runs with the rule forced off.
    assert exact_operand(np.array([COMPONENT_LIMIT]), INT64_SAFE_M).dtype == np.int64
    monkeypatch.setattr(kernels, "_taken_pays", TAKEN_RULES["never" if tier == "object" else rule])
    if tier == "object":
        monkeypatch.setattr(kernels, "exact_operand", lambda k, M, bound=None: k.astype(object))
    rng = random.Random(f"{tier}-{rule}")
    counted = {"masked": 0, "dense": 0, "dropped": 0}
    walked = 0
    while walked < 40:
        I, M = _tier_instance(rng, tier, closed=walked % 2 == 0)
        ok, state = init_residues(I, M, "reconstruction")
        if not ok:
            continue
        walked += 1
        assert (state.taken is not None) == kernels._taken_pays(M, len(I))
        z = [1]
        for ell in range(1, I.d):
            had = state.taken is not None
            step = prepare_step(state, I, ell, "reconstruction")
            assert step.k.dtype == np.dtype(tier)
            assert step.forbidden is None  # integration's mask alone
            masked = state.taken is not None
            assert masked == (had and _keeps_static_children(I, ell))
            counted["dropped"] += had and not masked
            counted["masked" if masked else "dense"] += 1
            col = I.array[:, ell]
            if masked:
                static = [j for j in _prefix_rows(I, ell + 1) if col[j] == 0]
                assert np.flatnonzero(state.taken).tolist() == sorted(state.values[static])
                assert _sorted_rows(step) == [j for j in _prefix_rows(I, ell + 1) if col[j]]
            else:
                assert _sorted_rows(step) == _prefix_rows(I, ell + 1)
            proj = FrequencySet(I.array[:, : ell + 1])
            want = []
            for y in range(M):
                good = verify_reconstruction(Rank1Lattice(M, tuple(z) + (y,)), proj)
                padded = z + [y] + [0] * (I.d - len(z) - 1)
                want.append((good, _residues(I, M, padded)[step.moved].tolist() if good else None))

            def got(y):
                good, r = check_exactness_reconstruction(step, y)
                return good, None if r is None else r.tolist()

            assert [got(y) for y in range(M)] == want
            accepted = next((y for y in range(M) if want[y][0]), None)
            if accepted is None:
                break
            z.append(accepted)
            commit(step, np.array(want[accepted][1], dtype=np.int64))
            if masked:
                assert np.flatnonzero(state.taken).tolist() == sorted(set(state.values.tolist()))
    # Each rule has taken the paths it can, and only those.
    on = tier != "object" and rule != "never"
    assert (counted["masked"] > 0) == (counted["dropped"] > 0) == on
    assert counted["dense"] > 0


@pytest.mark.parametrize("name", SWITCH_SETS)
def test_static_mask_switch_never_changes_a_result(monkeypatch, name):
    # The reconstruction drivers give the same results whether the attempts
    # keep their occupancy mask by the default rule, always, or never.
    I = SWITCH_SETS[name]()
    prepare, masked = kernels.prepare_step, []

    def counted(state, I, ell, mode):
        step = prepare(state, I, ell, mode)
        masked[-1] += state.taken is not None
        return step

    monkeypatch.setattr(kernels, "prepare_step", counted)
    results = []
    for rule in TAKEN_RULES.values():
        monkeypatch.setattr(kernels, "_taken_pays", rule)
        masked.append(0)
        searches = [heuristic_search(I, "reconstruction", K=5, T=100, rng=random.Random(seed))
                    for seed in range(1, 9)]
        M = searches[0].M
        results.append((
            [(s.status, s.M, s.z, [(e.M_tilde, e.attempts, e.ok) for e in s.trail]) for s in searches],
            [cbc_construct_basic(I, M, "reconstruction", random.Random(seed)) for seed in range(1, 9)],
            cbc_exhaustive(I, M, "reconstruction"),
        ))
    assert results[0] == results[1] == results[2]
    assert masked[2] == 0 < masked[0] <= masked[1]


@pytest.mark.parametrize("make", [
    lambda: gen_cube(3, 2), lambda: gen_cube(4, 3), lambda: gen_cube(2, 1),
    lambda: gen_axis_cross(10, 64), lambda: gen_axis_cross(60, 4), lambda: gen_axis_cross(1, 3),
    lambda: gen_superposition2(60, 1), lambda: gen_superposition2(8, 3),
    lambda: gen_weighted_hyperbolic(WeightSpec.inverse_square(), 200, 14),
    lambda: gen_weighted_hyperbolic(WeightSpec.inverse_square(), 30, 6),
])
def test_generators_never_drop_the_mask(make):
    # On every generator's sets each parent class keeps a child with k_l = 0
    # at every step: counts[l-1] - counts[l] + m = 0 for the m moved classes
    # (the rows of nonzeros(l) born at or before l), with one parent, the
    # empty prefix, at l = 0. So below 64 |I| no benchmark workload's attempt
    # leaves the occupancy mask for the dense sort.
    I = make()
    _, counts, birth = I.prefix_classes
    for ell in range(I.d):
        moved, _, _ = I.nonzeros(ell)
        m = int(np.count_nonzero(birth[moved] <= ell))
        assert (counts[ell - 1] if ell else 1) - counts[ell] + m == 0
