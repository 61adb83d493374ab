"""Lattice nodes, cubature, direct verifiers, and polynomial round trips."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbclat.lattice as lattice_mod
from cbclat.freqset import COMPONENT_LIMIT, FrequencySet, difference_set, gen_cube
from cbclat.lattice import (
    INT64_SAFE_M,
    Rank1Lattice,
    TrigPolynomial,
    _residues,
    cubature,
    exact_operand,
    eval_on_lattice,
    eval_poly,
    nodes,
    reconstruct_coeffs,
    verify_integration,
    verify_reconstruction,
)
from cbclat.primes import is_prime, nextprime
from cbclat.search import cbc_construct


def test_lattice_validation():
    Rank1Lattice(1, (0, 0))
    with pytest.raises(ValueError):
        Rank1Lattice(0, (0,))
    with pytest.raises(ValueError):
        Rank1Lattice(5, (5,))
    with pytest.raises(ValueError):
        Rank1Lattice(5, (-1,))
    with pytest.raises(ValueError):
        Rank1Lattice(5, ())


def test_lattice_json_round_trip():
    lat = Rank1Lattice(7, (1, 3, 5))
    assert lat.as_dict() == {"d": 3, "M": 7, "z": [1, 3, 5]}
    assert Rank1Lattice.from_dict(lat.as_dict()) == lat
    assert Rank1Lattice.from_dict({"M": 7, "z": [1, 3, 5]}) == lat
    with pytest.raises(ValueError):
        Rank1Lattice.from_dict({"d": 2, "M": 7, "z": [1, 3, 5]})
    # Outside input is read exactly: a float is refused, not truncated, and a
    # wrong shape is a ValueError, not a TypeError.
    for bad in ({"M": 11.5, "z": [1, 4.7]}, {"M": 7, "z": [1, 3.0, 5]},
                {"M": 7, "z": [1, 3, 5], "d": 3.0}, {"M": 7, "z": 5},
                {"M": None, "z": [1, 3]}, {"M": 7, "z": None}, [7, [1, 3]],
                # JSON true/false are Python bools, which operator.index reads as 1/0
                {"M": 11, "z": [True, 4]}, {"M": True, "z": [0]}, {"M": 7, "z": [1], "d": True}):
        with pytest.raises(ValueError):
            Rank1Lattice.from_dict(bad)


def test_nodes_examples():
    assert nodes(Rank1Lattice(1, (0, 0))).tolist() == [[0.0, 0.0]]
    got = nodes(Rank1Lattice(4, (1, 3)))
    assert got.tolist() == [[0.0, 0.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25]]
    assert nodes(Rank1Lattice(2, (1, 1))).tolist() == [[0.0, 0.0], [0.5, 0.5]]
    assert np.all(nodes(Rank1Lattice(13, (1, 5))) >= 0)
    assert np.all(nodes(Rank1Lattice(13, (1, 5))) < 1)


@pytest.mark.parametrize("M, side", [(46337, "int32"), (46349, "int64")])
def test_nodes_exact_at_int32_bound(M, side, monkeypatch):
    # The primes around M^2 = 2^31: j z_t for j, z_t < M fits int32 below it
    # and not above, so z near M - 1 would wrap in int32; both run in int64.
    assert is_prime(M) and (M * M < 2**31) == (side == "int32")
    dtypes = []
    operand = lattice_mod.exact_operand
    monkeypatch.setattr(lattice_mod, "exact_operand",
                        lambda *a: dtypes.append(operand(*a).dtype) or operand(*a))
    z = (1, M - 1, M - 2, 40503)
    want = np.array([[j * zt % M for zt in z] for j in range(M)]) / M
    assert np.array_equal(nodes(Rank1Lattice(M, z)), want)
    assert dtypes == [np.int64]


def test_cubature_constant_and_length_check():
    lat = Rank1Lattice(5, (1, 2))
    assert cubature(lat, [3 + 1j] * 5) == 3 + 1j
    with pytest.raises(ValueError):
        cubature(lat, [1.0] * 4)


def test_cubature_of_single_exponentials():
    # mean of e^(2 pi i k.x_j) is 1 when k.z is 0 mod M, else 0
    rng = random.Random(41)
    for _ in range(50):
        M = rng.randrange(2, 65)
        d = rng.randrange(1, 4)
        z = tuple(rng.randrange(M) for _ in range(d))
        k = tuple(rng.randrange(-8, 9) for _ in range(d))
        lat = Rank1Lattice(M, z)
        samples = [np.exp(2j * np.pi * np.dot(k, x)) for x in nodes(lat)]
        q = cubature(lat, samples)
        expected = 1.0 if sum(a * b for a, b in zip(k, z)) % M == 0 else 0.0
        assert abs(q - expected) < 1e-12


def test_verify_integration_examples():
    assert verify_integration(Rank1Lattice(2, (1, 1)), FrequencySet([(0, 0)]))
    assert not verify_integration(Rank1Lattice(2, (1, 1)), FrequencySet([(1, 1)]))
    assert verify_integration(Rank1Lattice(3, (1, 1)), FrequencySet([(1, 1)]))


def test_verify_reconstruction_examples():
    square = FrequencySet([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert verify_reconstruction(Rank1Lattice(4, (1, 2)), square)
    assert not verify_reconstruction(Rank1Lattice(3, (1, 2)), square)
    assert verify_reconstruction(Rank1Lattice(2, (1, 1)), FrequencySet([(7, -3)]))


def test_verifiers_reject_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_integration(Rank1Lattice(5, (1,)), FrequencySet([(1, 2)]))
    with pytest.raises(ValueError):
        verify_reconstruction(Rank1Lattice(5, (1, 2, 3)), FrequencySet([(1, 2)]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reconstruction_equals_integration_on_differences(data):
    d = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=12))
    M = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]))
    z = tuple(data.draw(st.integers(0, M - 1)) for _ in range(d))
    I = FrequencySet(rows)
    lat = Rank1Lattice(M, z)
    assert verify_reconstruction(lat, I) == verify_integration(lat, difference_set(I))


def test_verifier_residues_exact_above_int32():
    # M beyond the int64 fast-path limit exercises the widened path; the
    # expected residue is computed with plain Python integers.
    M = nextprime(INT64_SAFE_M)
    k = (2**31 - 1, -(2**31 - 1))
    z = (M - 1, M - 7)
    r = ((2**31 - 1) * (M - 1) - (2**31 - 1) * (M - 7)) % M
    I = FrequencySet([k])
    lat = Rank1Lattice(M, z)
    assert verify_integration(lat, I) == (r != 0)
    # and the same delta on the fast path just below the limit
    M2 = 3037000493  # prime below the int64-safe bound
    z2 = (M2 - 1, M2 - 7)
    r2 = ((2**31 - 1) * (M2 - 1) - (2**31 - 1) * (M2 - 7)) % M2
    assert verify_integration(Rank1Lattice(M2, z2), I) == (r2 != 0)


def _prevprime(n):
    while not is_prime(n):
        n -= 1
    return n


def _tier(width):
    """The dtype exact_operand must pick when M (bound + 1) = width."""
    return np.dtype(np.int64 if width < 2**63 else object)


# (M, largest |k|, dtype exact_operand must pick) on both sides of its bound
# M (max|k| + 1) < 2^63: |k| at COMPONENT_LIMIT around 2^32, and |k| <= 64
# around floor((2^63 - 1) / 65); and on both sides of the int32 edge
# M (max|k| + 1) < 2^31, where int64 holds both: |k| <= 64 around
# floor((2^31 - 1) / 65), and |k| <= 3 around floor((2^31 - 1) / 4).
BOUND_CASES = [
    (4294967291, COMPONENT_LIMIT, np.int64),
    (4294967311, COMPONENT_LIMIT, object),
    (_prevprime((2**63 - 1) // 65), 64, np.int64),
    (nextprime((2**63 - 1) // 65), 64, object),
    (_prevprime((2**31 - 1) // 65), 64, np.int64),
    (nextprime((2**31 - 1) // 65), 64, np.int64),
    (_prevprime((2**31 - 1) // 4), 3, np.int64),
    (nextprime((2**31 - 1) // 4), 3, np.int64),
]


def _bound_instance(M, kmax, seed):
    """Rows with components up to +-kmax, generating vectors near M - 1 and
    random ones, and lattices built to send one row to residue 0 and to put
    two rows on one residue, so both verdicts of both verifiers show up."""
    rng = random.Random(seed)
    d = 3
    rows = [[rng.choice((-1, 1)) * (kmax - rng.randrange(3)) if rng.random() < 0.7
             else rng.randrange(-3, 4) for _ in range(d)] for _ in range(20)]
    rows += [[kmax] * d, [-kmax] * d, [kmax, -kmax, kmax]]
    I = FrequencySet(rows)
    A = [list(map(int, row)) for row in I.array]
    zs = [(M - 1,) * d, (1, M - 1, M - 2)] + [
        (1,) + tuple(rng.randrange(M) for _ in range(d - 1)) for _ in range(4)]
    for _ in range(4):
        i, j = rng.sample(range(len(A)), 2)
        a, b = A[i], [x - y for x, y in zip(A[i], A[j])]
        for k in (a, b):  # z_3 = -(k_1 + k_2 z_2) / k_3 mod M gives k . z = 0
            if k[2] % M:
                z2 = rng.randrange(M)
                zs.append((1, z2, (-(k[0] + k[1] * z2) * pow(k[2], -1, M)) % M))
    return I, A, zs


@pytest.mark.parametrize("M, kmax, side", BOUND_CASES,
                         ids=["int64-2^32", "object-2^32", "int64-k64", "object-k64",
                              "int32-k64", "int64-k64-2^31", "int32-k3", "int64-k3-2^31"])
def test_residues_and_verifiers_at_int64_bound(M, kmax, side):
    I, A, zs = _bound_instance(M, kmax, M % 1000)
    assert int(np.abs(I.array).max()) == kmax
    assert exact_operand(I.array, M).dtype == side
    verdicts = set()
    for z in zs:
        want = [sum(k * zt for k, zt in zip(row, z)) % M for row in A]
        lat = Rank1Lattice(M, z)
        assert _residues(I, M, z).tolist() == want
        integration = all(r != 0 for r, row in zip(want, A) if any(row))
        reconstruction = len(set(want)) == len(want)
        assert verify_integration(lat, I) == integration
        assert verify_reconstruction(lat, I) == reconstruction
        verdicts |= {("int", integration), ("rec", reconstruction)}
    assert len(verdicts) == 4


# (M, largest |k|, dtype of the dot product) for _bound_instance's sets, whose
# largest row norm is 3 |k|: both sides of M (max ||k||_1 + 1) < 2^63 for
# |k| up to COMPONENT_LIMIT and up to 3, and of the int32 edge
# M (max ||k||_1 + 1) < 2^31 for |k| up to 64 and up to 3 (int64 on both);
# and lattice sizes where max|k| still fits exact_operand's int64 bound but
# the row norm would overflow it.
DOT_CASES = [
    (_prevprime((2**63 - 1) // (3 * COMPONENT_LIMIT + 1)), COMPONENT_LIMIT, "int64"),
    (nextprime((2**63 - 1) // (3 * COMPONENT_LIMIT + 1)), COMPONENT_LIMIT, "object"),
    (4294967291, COMPONENT_LIMIT, "object"),
    (_prevprime((2**63 - 1) // 10), 3, "int64"),
    (nextprime((2**63 - 1) // 10), 3, "object"),
    (_prevprime((2**63 - 1) // 4), 3, "object"),
    (_prevprime((2**31 - 1) // (3 * 64 + 1)), 64, "int64"),
    (nextprime((2**31 - 1) // (3 * 64 + 1)), 64, "int64"),
    (_prevprime((2**31 - 1) // 10), 3, "int64"),
    (nextprime((2**31 - 1) // 10), 3, "int64"),
]


@pytest.mark.parametrize("M, kmax, side", DOT_CASES,
                         ids=["int64-limit", "object-limit", "object-limit-2^32",
                              "int64-k3", "object-k3", "object-k3-2^61",
                              "int32-k64", "int64-k64-2^31", "int32-k3", "int64-k3-2^31"])
def test_residues_and_verifiers_at_row_norm_bound(M, kmax, side):
    I, A, zs = _bound_instance(M, kmax, M % 1000)
    assert int(I.row_norms.max()) == 3 * kmax
    assert exact_operand(I.array, M).dtype == _tier(M * (kmax + 1))
    assert exact_operand(I.row_norms, M).dtype == _tier(M * (3 * kmax + 1)) == side
    verdicts = set()
    for z in zs:
        want = [sum(k * zt for k, zt in zip(row, z)) % M for row in A]
        lat = Rank1Lattice(M, z)
        assert _residues(I, M, z).tolist() == want
        integration = all(r != 0 for r, row in zip(want, A) if any(row))
        reconstruction = len(set(want)) == len(want)
        assert verify_integration(lat, I) == integration
        assert verify_reconstruction(lat, I) == reconstruction
        verdicts |= {("int", integration), ("rec", reconstruction)}
    assert len(verdicts) == 4
    # Components of z are reduced mod M before the product.
    assert _residues(I, M, [zt + M for zt in zs[0]]).tolist() == _residues(I, M, zs[0]).tolist()


def _store_cases():
    """(set, M) pairs for the residue differential test: sparse and dense sets,
    {0}, an all-zero column, a column with no zero row, negative components,
    and M on both sides of the int64 bound M (max ||k||_1 + 1) < 2^63 and of
    the int32 edge, < 2^31."""
    rng = np.random.default_rng(5)
    sets = [FrequencySet([(0, 0)]), FrequencySet([(1, 0, -2), (0, 0, 3), (-4, 0, 0)]),
            FrequencySet([(-3, 5), (2, 5)]), FrequencySet([(-3, -1), (-7, -2), (-1, -9)]),
            gen_cube(3, 2)]
    for _ in range(4):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        sets.append(FrequencySet(rng.integers(-50, 51, size=(n, d))
                                 * (rng.random((n, d)) < 0.4)))
    cases = []
    for I in sets:
        norm = int(I.row_norms.max())
        edge = (2**63 - 1) // (norm + 1)  # the largest M with an int64 sum
        edge32 = (2**31 - 1) // (norm + 1)  # and with an int32 sum
        cases += [(I, _prevprime(edge32)), (I, nextprime(edge32))]
        cases += [(I, 7), (I, nextprime(10**6)), (I, _prevprime(edge))]
        cases += [(I, nextprime(edge)), (I, nextprime(2**62))] if norm else []
    return cases


def test_residues_match_python_int_matmul(monkeypatch):
    # exact_operand's dtype shows which tier each case took.
    dtypes = []
    operand = lattice_mod.exact_operand
    monkeypatch.setattr(lattice_mod, "exact_operand",
                        lambda *a: dtypes.append(operand(*a).dtype) or operand(*a))
    rng = random.Random(8)
    for I, M in _store_cases():
        A = [list(map(int, row)) for row in I.array]
        norm = int(I.row_norms.max())
        for z in [[rng.randrange(M) for _ in range(I.d)], [M - 1] * I.d,
                  [rng.randrange(-3 * M, 3 * M) for _ in range(I.d)]]:
            want = [sum(k * zt for k, zt in zip(row, z)) % M for row in A]
            got = _residues(I, M, z)
            assert got.dtype == np.int64 and got.tolist() == want
            assert dtypes.pop() == _tier(M * (norm + 1))


def test_residues_read_no_dense_array(monkeypatch):
    I = gen_cube(2, 3)
    want = _residues(I, 101, [1, 7]).tolist()
    monkeypatch.setattr(FrequencySet, "array", property(lambda self: pytest.fail("dense read")))
    assert _residues(I, 101, [1, 7]).tolist() == want


def test_numpy_integer_lattice_size():
    # An np.int64 M must not reach the residue arithmetic as a numpy scalar:
    # Python-int products reduced by it overflow.
    M = np.int64(nextprime(INT64_SAFE_M))
    lat = Rank1Lattice(M, (M - 1, M - 7))
    assert type(lat.M) is int and lat.M == M
    I = FrequencySet([(-5, -7)])
    want = (-5 * (lat.M - 1) - 7 * (lat.M - 7)) % lat.M
    assert want == 54
    assert _residues(I, lat.M, lat.z).tolist() == [want]
    assert _residues(I, M, lat.z).tolist() == [want]
    with pytest.raises(TypeError):
        Rank1Lattice(7.0, (1,))
    with pytest.raises(TypeError):
        Rank1Lattice(7, (1, 3.0))


def test_eval_poly_examples():
    one = TrigPolynomial(FrequencySet([(0, 0)]), [1.0])
    assert abs(eval_poly(one, (0.3, 0.9)) - 1.0) < 1e-15
    mono = TrigPolynomial(FrequencySet([(1, 0)]), [1.0])
    assert abs(eval_poly(mono, (0.5, 0.3)) - (-1.0)) < 1e-12
    rng = random.Random(2)
    I = gen_cube(2, 2)
    coeffs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(I))])
    p = TrigPolynomial(I, coeffs)
    assert abs(eval_poly(p, (0.0, 0.0)) - coeffs.sum()) < 1e-12


def test_poly_validation_and_json():
    I = FrequencySet([(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        TrigPolynomial(I, [1.0])
    p = TrigPolynomial(I, [1 + 2j, 3 - 4j])
    obj = p.as_dict()
    assert obj["support"] == [[0, 1], [1, 0]]
    assert obj["coeffs"] == [[1.0, 2.0], [3.0, -4.0]]
    q = TrigPolynomial.from_dict(obj)
    assert q.support == p.support
    assert np.array_equal(q.coeffs, p.coeffs)
    # coefficients follow their frequencies through re-sorting
    scrambled = {"support": [[1, 0], [0, 1]], "coeffs": [[3.0, -4.0], [1.0, 2.0]]}
    q2 = TrigPolynomial.from_dict(scrambled)
    assert np.array_equal(q2.coeffs, p.coeffs)
    # a non-integer frequency is refused, not truncated to (0, 1)
    with pytest.raises(ValueError, match="invalid frequency data"):
        TrigPolynomial.from_dict({"support": [[0.5, 1]], "coeffs": [[1, 0]]})
    # JSON true/false is refused, not read as 1/0
    for support in ([[True, 1]], [[0, 1], [1, False]]):
        with pytest.raises(ValueError, match="true and false are not integers"):
            TrigPolynomial.from_dict({"support": support, "coeffs": [[1, 0]] * len(support)})


def test_eval_on_lattice_matches_pointwise():
    rng = random.Random(5)
    I = gen_cube(2, 2)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(I))]
    p = TrigPolynomial(I, coeffs)
    lat = Rank1Lattice(31, (1, 12))
    fast = eval_on_lattice(p, lat)
    slow = np.array([eval_poly(p, x) for x in nodes(lat)])
    assert np.max(np.abs(fast - slow)) < 1e-11


def test_reconstruct_zero_and_single_monomial():
    square = FrequencySet([(0, 0), (1, 0), (0, 1), (1, 1)])
    lat = Rank1Lattice(5, (1, 2))
    assert verify_reconstruction(lat, square)
    zeros = reconstruct_coeffs(lat, square, np.zeros(5, dtype=complex))
    assert np.all(zeros == 0)
    for idx in range(4):
        coeffs = np.zeros(4, dtype=complex)
        coeffs[idx] = 1.0
        p = TrigPolynomial(square, coeffs)
        rec = reconstruct_coeffs(lat, square, eval_on_lattice(p, lat))
        assert np.max(np.abs(rec - coeffs)) < 1e-12


def test_reconstruct_round_trip_on_cube():
    I = gen_cube(2, 2)
    M = nextprime(2 * max(len(I) + 1, 2))
    assert M == 53
    result = cbc_construct(I, M, M, "reconstruction", random.Random(11))
    assert result.success
    lat = Rank1Lattice(M, result.z)
    assert verify_reconstruction(lat, I)
    rng = random.Random(8)
    coeffs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(I))])
    p = TrigPolynomial(I, coeffs)
    rec = reconstruct_coeffs(lat, I, eval_on_lattice(p, lat))
    rel = np.max(np.abs(rec - coeffs)) / np.sum(np.abs(coeffs))
    assert rel <= 1e-10


def test_reconstruct_length_check():
    lat = Rank1Lattice(5, (1, 2))
    with pytest.raises(ValueError):
        reconstruct_coeffs(lat, FrequencySet([(0, 0)]), np.zeros(4, dtype=complex))


# --- FFT transforms against the direct O(M |I|) transform ----------------

def _direct_phase_chunks(res, M, sign):
    """Reference: (slice, unit-root matrix) chunks of e^(sign 2 pi i j r / M)."""
    j = np.arange(M, dtype=np.int64)
    step = max(1, 2_000_000 // M)
    for lo in range(0, len(res), step):
        block = res[lo : lo + step]
        ang = (block[:, None] * j[None, :]) % M
        yield slice(lo, lo + len(block)), np.exp((sign * 2j * np.pi / M) * ang)


def _python_residues(I, lat):
    return np.array([sum(k * z for k, z in zip(row, lat.z)) % lat.M for row in I],
                    dtype=np.int64)


def direct_eval_on_lattice(p, lat):
    res = _python_residues(p.support, lat)
    out = np.zeros(lat.M, dtype=np.complex128)
    for sl, E in _direct_phase_chunks(res, lat.M, +1):
        out += p.coeffs[sl] @ E
    return out


def direct_reconstruct_coeffs(lat, I, samples):
    res = _python_residues(I, lat)
    out = np.empty(len(I), dtype=np.complex128)
    for sl, E in _direct_phase_chunks(res, lat.M, -1):
        out[sl] = E @ samples / lat.M
    return out


def _random_poly(rng, d, n, span):
    rows = [tuple(rng.randrange(-span, span + 1) for _ in range(d)) for _ in range(n)]
    I = FrequencySet(rows)
    coeffs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(I))])
    return TrigPolynomial(I, coeffs)


def _differential_cases():
    """(polynomial, lattice) pairs: M = 1 and 2, colliding residues, M < |I|."""
    rng = random.Random(20)
    cases = []
    for M in (1, 2):
        for _ in range(5):
            d = rng.randrange(1, 4)
            cases.append((_random_poly(rng, d, rng.randrange(1, 12), 5),
                          Rank1Lattice(M, tuple(rng.randrange(M) for _ in range(d)))))
    for _ in range(80):
        d = rng.randrange(1, 4)
        p = _random_poly(rng, d, rng.randrange(1, 40), 6)
        M = rng.randrange(3, 2 * len(p.support) + 3)
        cases.append((p, Rank1Lattice(M, tuple(rng.randrange(M) for _ in range(d)))))
    return cases


def test_transforms_match_direct_transform():
    kinds = {"M<=2": 0, "colliding": 0, "M<|I|": 0, "reconstructing": 0}
    for p, lat in _differential_cases():
        I = p.support
        res = _python_residues(I, lat)
        kinds["M<=2"] += lat.M <= 2
        kinds["colliding"] += len(set(res.tolist())) < len(I)
        kinds["M<|I|"] += lat.M < len(I)
        kinds["reconstructing"] += verify_reconstruction(lat, I)
        tol = 1e-12 * np.sum(np.abs(p.coeffs))
        samples = direct_eval_on_lattice(p, lat)
        assert np.max(np.abs(eval_on_lattice(p, lat) - samples)) <= tol
        assert np.max(np.abs(reconstruct_coeffs(lat, I, samples)
                             - direct_reconstruct_coeffs(lat, I, samples))) <= tol
    assert kinds["M<=2"] == 10 and min(kinds.values()) >= 10, kinds


def test_reconstruct_returns_aliased_sums_on_colliding_lattice():
    seen = 0
    for p, lat in _differential_cases():
        I = p.support
        res = _python_residues(I, lat)
        if len(set(res.tolist())) == len(I):
            continue
        seen += 1
        rec = reconstruct_coeffs(lat, I, eval_on_lattice(p, lat))
        aliased = np.array([p.coeffs[res == r].sum() for r in res])
        assert np.max(np.abs(rec - aliased)) <= 1e-12 * np.sum(np.abs(p.coeffs))
    assert seen >= 20


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_on_lattice_index_order(data):
    # Sample j is p at node j: pins the sign of the FFT and its index order.
    d = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=1, max_size=15))
    M = data.draw(st.integers(1, 70))
    z = tuple(data.draw(st.integers(0, M - 1)) for _ in range(d))
    I = FrequencySet(rows)
    coeffs = data.draw(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                                   allow_infinity=False),
                                min_size=len(I), max_size=len(I)))
    p = TrigPolynomial(I, coeffs)
    lat = Rank1Lattice(M, z)
    got = eval_on_lattice(p, lat)
    want = np.array([eval_poly(p, x) for x in nodes(lat)])
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.sum(np.abs(p.coeffs)))


def test_round_trip_at_a_million_nodes():
    # The direct transform would need |I| * M, about 1.3e9, unit roots here.
    I = gen_cube(3, 5)
    M = nextprime(10**6)
    assert len(I) == 1331 and M == 1000003
    result = cbc_construct(I, M, 50, "reconstruction", random.Random(4))
    assert result.success
    lat = Rank1Lattice(M, result.z)
    assert verify_reconstruction(lat, I)
    rng = random.Random(9)
    coeffs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(I))])
    rec = reconstruct_coeffs(lat, I, eval_on_lattice(TrigPolynomial(I, coeffs), lat))
    assert np.max(np.abs(rec - coeffs)) / np.sum(np.abs(coeffs)) <= 1e-10
