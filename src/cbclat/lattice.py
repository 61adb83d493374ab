"""Rank-1 lattices: nodes, cubature, direct property verifiers, polynomials.

The direct verifiers here are the ground truth the randomized search is
checked against, so all residue arithmetic is exact: int64 with a proven
overflow margin, falling back to Python integers beyond it.

Sampling a polynomial on a lattice and reconstructing its coefficients are
one length-M FFT each, O(M log M + |I| d); on a lattice without the
reconstruction property, reconstruction returns aliased sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freqset import FrequencySet

# Largest M with M*(M-1) < 2^63, so products of two residues < M stay in int64.
INT64_SAFE_M = 3037000499


def _residues(arr: np.ndarray, M: int, z) -> np.ndarray:
    """k . z mod M for every row k of arr, each term reduced before adding."""
    acc = np.zeros(arr.shape[0], dtype=np.int64)
    if M <= INT64_SAFE_M:
        for t, zt in enumerate(z):
            zt %= M
            if zt:
                acc = (acc + (arr[:, t] % M) * zt) % M
        return acc
    # Widened path: numpy products would overflow, Python ints never do.
    zs = [int(zt) % M for zt in z]
    out = [sum((int(k) % M) * zt for k, zt in zip(row, zs)) % M for row in arr]
    return np.asarray(out, dtype=np.int64)


@dataclass(frozen=True)
class Rank1Lattice:
    """Lattice of the M points (j/M) z mod 1, j = 0..M-1."""

    M: int
    z: tuple[int, ...]

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("lattice size M must be >= 1")
        z = tuple(int(v) for v in self.z)
        if len(z) < 1:
            raise ValueError("generating vector must have d >= 1")
        for v in z:
            if not 0 <= v < self.M:
                raise ValueError(f"generating vector component {v} outside [0, {self.M})")
        object.__setattr__(self, "z", z)

    @property
    def d(self) -> int:
        return len(self.z)

    def as_dict(self) -> dict:
        return {"d": self.d, "M": self.M, "z": list(self.z)}

    @classmethod
    def from_dict(cls, obj: dict) -> "Rank1Lattice":
        lat = cls(M=int(obj["M"]), z=tuple(int(v) for v in obj["z"]))
        if "d" in obj and int(obj["d"]) != lat.d:
            raise ValueError("lattice dimension field disagrees with z length")
        return lat


def nodes(lat: Rank1Lattice) -> np.ndarray:
    """All M lattice points as an (M, d) float array in [0, 1)^d; row 0 is 0."""
    j = np.arange(lat.M, dtype=np.int64)
    cols = []
    for zt in lat.z:
        if lat.M <= INT64_SAFE_M:
            r = (j * zt) % lat.M
        else:
            r = np.asarray([(int(jj) * zt) % lat.M for jj in j], dtype=np.int64)
        cols.append(r / lat.M)
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
    arr = I.array
    res = _residues(arr, lat.M, lat.z)
    nonzero = np.any(arr != 0, axis=1)
    return not bool(np.any((res == 0) & nonzero))


def verify_reconstruction(lat: Rank1Lattice, I: FrequencySet) -> bool:
    """True iff the residues k . z mod M are pairwise distinct over I."""
    _check_dims(lat, I)
    res = np.sort(_residues(I.array, lat.M, lat.z))
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
            "support": [list(map(int, row)) for row in self.support.array],
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrigPolynomial":
        support = FrequencySet(obj["support"])
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
    phases = np.exp(2j * np.pi * (p.support.array @ x))
    return complex(phases @ p.coeffs)


def eval_on_lattice(p: TrigPolynomial, lat: Rank1Lattice) -> np.ndarray:
    """Sample p at every lattice node; index j holds p((j/M) z mod 1).

    One length-M inverse FFT, O(M log M + |I| d): coefficients are summed
    into their residues k . z mod M first, so frequencies that alias on a
    non-reconstructing lattice (integration lattices with M < |I| included)
    add up as they do in the samples.
    """
    _check_dims(lat, p.support)
    acc = np.zeros(lat.M, dtype=np.complex128)
    np.add.at(acc, _residues(p.support.array, lat.M, lat.z), p.coeffs)
    return np.fft.ifft(acc) * lat.M


def reconstruct_coeffs(lat: Rank1Lattice, I: FrequencySet, samples) -> np.ndarray:
    """Recover the coefficients of a polynomial supported on I from samples.

    One length-M FFT, O(M log M + |I| d):
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
    return np.fft.fft(samples)[_residues(I.array, lat.M, lat.z)] / lat.M
