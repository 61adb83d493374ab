"""Rank-1 lattices: nodes, cubature, direct property verifiers, polynomials.

The direct verifiers here are the ground truth the randomized search is
checked against, so all residue arithmetic is exact. One primitive,
exact_operand, serves every (v + y k) mod M in the package: residues
0 <= v, y < M times signed, unreduced components k run in int32 while
M (max|k| + 1) < 2^31, in int64 while it is < 2^63, and in Python integers
beyond that, so each check runs on the narrowest integers that hold it exactly.
The residues k . z mod M over a whole set are summed from its nnz nonzero
components (FrequencySet.entries) by one np.add.at, O(|I| + nnz), under the
same rule with the row norm ||k||_1 in place of max|k|; FrequencySet caches
the row norms.

Sampling a polynomial on a lattice and reconstructing its coefficients are
one length-M FFT each, O(M log M + |I| + nnz); on a lattice without the
reconstruction property, reconstruction returns aliased sums.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .freqset import FrequencySet

# Largest M with M*M < 2^63: exact_operand's bound when max|k| = M - 1.
INT64_SAFE_M = 3037000499


def exact_operand(k: np.ndarray, M: int, bound: int | None = None) -> np.ndarray:
    """k in the narrowest dtype where v + y*k is exact for residues 0 <= v, y < M.

    |v + y k| <= (M - 1)(max|k| + 1), so int32 holds it while
    M (max|k| + 1) < 2^31 and int64 while it is < 2^63; beyond that k becomes
    an array of Python ints and the same expression runs on them. bound is
    max|k| when the caller keeps it.
    """
    if bound is None:
        bound = int(np.abs(k).max(initial=0))
    width = int(M) * (bound + 1)
    if width >= 2**63:
        return k.astype(object)
    return k.astype(np.int32 if width < 2**31 else np.int64, copy=False)


def _residues(I: FrequencySet, M: int, z) -> np.ndarray:
    """k . z mod M for every row k of I: the products k_t z_t of I's entries,
    summed into their rows by one np.add.at, so a row without nonzeros (the
    zero row) stays 0. With z reduced into [0, M), every partial sum of row k
    lies within (M - 1) ||k||_1, so exact_operand with max ||k||_1 as its bound
    picks int32, int64 or Python ints."""
    M = int(M)
    rows, cols, values = I.entries
    k = exact_operand(values, M, int(I.row_norms.max()))
    zr = np.array([int(zt) % M for zt in z], dtype=k.dtype)
    out = np.zeros(len(I), dtype=k.dtype)
    np.add.at(out, rows, k * zr[cols])
    return (out % M).astype(np.int64, copy=False)


@dataclass(frozen=True)
class Rank1Lattice:
    """Lattice of the M points (j/M) z mod 1, j = 0..M-1."""

    M: int
    z: tuple[int, ...]

    def __post_init__(self):
        M = operator.index(self.M)
        if M < 1:
            raise ValueError("lattice size M must be >= 1")
        z = tuple(operator.index(v) for v in self.z)
        if len(z) < 1:
            raise ValueError("generating vector must have d >= 1")
        for v in z:
            if not 0 <= v < M:
                raise ValueError(f"generating vector component {v} outside [0, {M})")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "z", z)

    @property
    def d(self) -> int:
        return len(self.z)

    def as_dict(self) -> dict:
        return {"d": self.d, "M": self.M, "z": list(self.z)}

    @classmethod
    def from_dict(cls, obj: dict) -> "Rank1Lattice":
        try:  # read through operator.index: M = 11.5 is refused, not truncated to 11
            lat = cls(M=obj["M"], z=obj["z"])
            d = operator.index(obj.get("d", lat.d))
            if any(isinstance(v, bool) for v in (obj["M"], obj.get("d"), *obj["z"])):
                raise TypeError("true and false are not integers")
        except TypeError as exc:
            raise ValueError(f"lattice JSON needs integer M, d and z entries: {exc}") from None
        if d != lat.d:
            raise ValueError("lattice dimension field disagrees with z length")
        return lat


def nodes(lat: Rank1Lattice) -> np.ndarray:
    """All M lattice points as an (M, d) float array in [0, 1)^d; row 0 is 0."""
    j = exact_operand(np.arange(lat.M, dtype=np.int64), lat.M)
    cols = [((j * zt) % lat.M).astype(np.int64, copy=False) / lat.M for zt in lat.z]
    return np.stack(cols, axis=1)


def cubature(lat: Rank1Lattice, samples) -> complex:
    """The lattice rule: the plain mean of the M node samples."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (lat.M,):
        raise ValueError(f"expected {lat.M} samples, got {samples.shape}")
    return complex(np.mean(samples))


def _check_dims(lat: Rank1Lattice, I: FrequencySet) -> None:
    if lat.d != I.d:
        raise ValueError(f"lattice dimension {lat.d} != frequency set dimension {I.d}")


def verify_integration(lat: Rank1Lattice, I: FrequencySet) -> bool:
    """True iff k . z is not 0 mod M for every nonzero k in I."""
    _check_dims(lat, I)
    res = _residues(I, lat.M, lat.z)
    return not bool(np.any((res == 0) & (I.row_norms != 0)))


def verify_reconstruction(lat: Rank1Lattice, I: FrequencySet) -> bool:
    """True iff the residues k . z mod M are pairwise distinct over I."""
    _check_dims(lat, I)
    res = np.sort(_residues(I, lat.M, lat.z))
    return not bool(np.any(res[1:] == res[:-1]))


@dataclass(frozen=True)
class TrigPolynomial:
    """p(x) = sum over k in support of coeffs[k] * e^(2 pi i k . x)."""

    support: FrequencySet
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (len(self.support),):
            raise ValueError(f"need {len(self.support)} coefficients, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def as_dict(self) -> dict:
        return {
            "support": [list(k) for k in self.support],
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrigPolynomial":
        support = FrequencySet(obj["support"])
        if any(isinstance(v, bool) for row in obj["support"] for v in row):
            raise ValueError("invalid frequency data: true and false are not integers")
        pairs = obj["coeffs"]
        if len(pairs) != len(support):
            raise ValueError("coefficient count disagrees with support size")
        # The support was re-sorted on construction, so re-align coefficients.
        order = {tuple(map(int, row)): i for i, row in enumerate(obj["support"])}
        coeffs = np.empty(len(support), dtype=np.complex128)
        for i, k in enumerate(support):
            re, im = pairs[order[k]]
            coeffs[i] = complex(re, im)
        return cls(support, coeffs)


def eval_poly(p: TrigPolynomial, x) -> complex:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.support.d,):
        raise ValueError(f"point must have dimension {p.support.d}")
    rows, cols, values = p.support.entries
    kx = np.bincount(rows, weights=values * x[cols], minlength=len(p.support))
    return complex(np.exp(2j * np.pi * kx) @ p.coeffs)


def eval_on_lattice(p: TrigPolynomial, lat: Rank1Lattice) -> np.ndarray:
    """Sample p at every lattice node; index j holds p((j/M) z mod 1).

    One length-M inverse FFT, O(M log M + |I| + nnz): coefficients are summed
    into their residues k . z mod M first, so frequencies that alias on a
    non-reconstructing lattice (integration lattices with M < |I| included)
    add up as they do in the samples.
    """
    _check_dims(lat, p.support)
    acc = np.zeros(lat.M, dtype=np.complex128)
    np.add.at(acc, _residues(p.support, lat.M, lat.z), p.coeffs)
    return np.fft.ifft(acc) * lat.M


def reconstruct_coeffs(lat: Rank1Lattice, I: FrequencySet, samples) -> np.ndarray:
    """Recover the coefficients of a polynomial supported on I from samples.

    One length-M FFT, O(M log M + |I| + nnz):
    coeff_k = mean_j samples_j e^(-2 pi i j (k.z)/M) = fft(samples)[k.z mod M] / M.
    For samples of a polynomial supported on I, a lattice with the
    reconstruction property for I gives back its coefficients; on one without
    it, k gets the aliased sum of the coefficients of every h in I with
    h . z = k . z mod M.
    """
    _check_dims(lat, I)
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (lat.M,):
        raise ValueError(f"expected {lat.M} samples, got {samples.shape}")
    return np.fft.fft(samples)[_residues(I, lat.M, lat.z)] / lat.M
