"""Checks of cbclat's results, computed apart from the program.

Every residue here is a Python integer from `residues`, so nothing below
shares the program's int64 arithmetic, its verifiers or its transforms. Each
check returns a list of error strings; an empty list means the result passed.
"""

from __future__ import annotations

import cmath
import math


def is_prime(n: int) -> bool:
    """Trial division; the lattice sizes checked here stay far below 2^40."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if n % p == 0:
            return False
    return True


def residues(rows, M: int, z) -> list[int]:
    """k . z mod M for every frequency row k, in Python integers."""
    return [sum(k * zt for k, zt in zip(row, z)) % M for row in rows]


def check_lattice(M, z, d: int) -> list[str]:
    """Shape of a returned lattice: z of length d, z_1 = 1, 0 <= z_t < M, M prime."""
    if not isinstance(M, int) or isinstance(M, bool):
        return [f"M is not an integer: {M!r}"]
    errors = []
    if len(z) != d:
        errors.append(f"len(z) = {len(z)}, expected d = {d}")
    if not z or z[0] != 1:
        errors.append(f"z[0] = {z[0] if z else None}, expected 1")
    if any(not 0 <= zt < M for zt in z):
        errors.append("a component of z lies outside [0, M)")
    if not is_prime(M):
        errors.append(f"M = {M} is not prime")
    return errors


def check_reconstruction(res: list[int], M: int) -> list[str]:
    """The residues k . z mod M are pairwise distinct over the set."""
    distinct = len(set(res))
    if distinct != len(res):
        return [f"{len(res) - distinct} residue collisions for M = {M}"]
    return []


def check_integration(rows, res: list[int], M: int) -> list[str]:
    """k . z mod M != 0 for every nonzero frequency k."""
    hits = sum(1 for row, r in zip(rows, res) if r == 0 and any(row))
    if hits:
        return [f"{hits} nonzero frequencies with k.z = 0 mod {M}"]
    return []


def direct_sample(coeffs, res: list[int], M: int, j: int) -> complex:
    """p at lattice node j: sum of c_k e^(2 pi i ((j (k.z)) mod M) / M)."""
    return sum(c * cmath.exp(2j * math.pi * ((j * r) % M) / M) for c, r in zip(coeffs, res))


def check_samples(samples, coeffs, res: list[int], M: int, nodes, tol: float) -> list[str]:
    """Spot-check the samples at the given node indices against a direct sum."""
    if len(samples) != M:
        return [f"{len(samples)} samples, expected M = {M}"]
    errors = []
    for j in nodes:
        err = abs(complex(samples[j]) - direct_sample(coeffs, res, M, j))
        if not err <= tol:
            errors.append(f"sample {j} differs from the direct sum by {err:.3g}")
    return errors


def check_close(got, want, tol: float, what: str) -> list[str]:
    """Elementwise |got - want| <= tol, for two equal-length sequences."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, expected {len(want)}"]
    err = max((abs(complex(g) - complex(w)) for g, w in zip(got, want)), default=0.0)
    if not err <= tol:
        return [f"{what}: max error {err:.3g} exceeds {tol:.3g}"]
    return []


def aliased_coeffs(coeffs, res: list[int]) -> list[complex]:
    """What reconstruction returns on any lattice: for each k, the sum of c_h
    over every h in the set with h . z = k . z mod M."""
    sums: dict[int, complex] = {}
    for c, r in zip(coeffs, res):
        sums[r] = sums.get(r, 0j) + c
    return [sums[r] for r in res]
