"""Self-test of the independent checkers: each accepts a known-good result
and rejects a corrupted copy of it.

    python3 perfbench/selftest.py

run.py runs these before every benchmark run, so a checker that stopped
rejecting anything stops the benchmark too.
"""

from __future__ import annotations

import cmath
import math

import checks

# Axis cross d = 3, N = 2 (13 frequencies) and anova-2 d = 3, N = 1 (19).
AXIS = [[0, 0, 0]] + [[v if t == s else 0 for t in range(3)]
                      for s in range(3) for v in (-2, -1, 1, 2)]
ANOVA = [list(r) for r in sorted({(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1)
                           for c in (-1, 0, 1) if [a, b, c].count(0) >= 1})]


def _expect(ok: bool, errors: list[str], what: str) -> None:
    if ok == bool(errors):
        verdict = f"rejected: {errors}" if errors else "accepted"
        raise AssertionError(f"checker self-test, {what}: {verdict}")


def run_all() -> None:
    # Reconstruction: residues 0, +-1, +-2, +-5, +-10, +-11, +-22 mod 47 are distinct.
    M, z = 47, (1, 5, 11)
    _expect(True, checks.check_lattice(M, z, 3), "good lattice shape")
    _expect(True, checks.check_reconstruction(checks.residues(AXIS, M, z), M),
            "good reconstruction lattice")
    # z_2 = 2 puts (0, 1, 0) on the residue of (2, 0, 0).
    _expect(False, checks.check_reconstruction(checks.residues(AXIS, M, (1, 2, 11)), M),
            "colliding residues")
    _expect(False, checks.check_lattice(M, (2, 5, 11), 3), "z_1 != 1")
    _expect(False, checks.check_lattice(49, (1, 5, 11), 3), "composite M")
    _expect(False, checks.check_lattice(M, (1, 5, 47), 3), "z_t = M")
    _expect(False, checks.check_lattice(M, (1, 5), 3), "short z")

    # Integration: sums of at most two of +-1, +-3, +-5 never vanish mod 11.
    M, z = 11, (1, 3, 5)
    _expect(True, checks.check_integration(ANOVA, checks.residues(ANOVA, M, z), M),
            "good integration lattice")
    # z_3 = 10 gives (1, 0, 1) . z = 11 = 0 mod 11.
    _expect(False, checks.check_integration(ANOVA, checks.residues(ANOVA, M, (1, 3, 10)), M),
            "k.z = 0 for k != 0")

    # Transforms: samples from the definition, recovery by the inverse sum.
    M, z = 47, (1, 5, 11)
    coeffs = [complex(math.sin(i + 1), math.cos(3 * i)) for i in range(len(AXIS))]
    res = checks.residues(AXIS, M, z)
    samples = [sum(c * cmath.exp(2j * math.pi * j * r / M) for c, r in zip(coeffs, res))
               for j in range(M)]
    _expect(True, checks.check_samples(samples, coeffs, res, M, [0, 7, 46], 1e-10),
            "good samples")
    bad = list(samples)
    bad[7] += 1e-6
    _expect(False, checks.check_samples(bad, coeffs, res, M, [0, 7, 46], 1e-10),
            "perturbed sample")
    recovered = [sum(s * cmath.exp(-2j * math.pi * j * r / M) for j, s in enumerate(samples)) / M
                 for r in res]
    _expect(True, checks.check_close(recovered, coeffs, 1e-10, "round trip"), "good round trip")
    recovered[5] += 1e-8
    _expect(False, checks.check_close(recovered, coeffs, 1e-10, "round trip"),
            "one recovered coefficient perturbed")

    # Aliasing: on M = 5, (0, 1, 0) and (1, 0, 0) share a residue with z = (1, 1, 2).
    alias = checks.aliased_coeffs(coeffs, checks.residues(AXIS, 5, (1, 1, 2)))
    i, j = AXIS.index([1, 0, 0]), AXIS.index([0, 1, 0])
    _expect(True, checks.check_close([alias[i]], [alias[j]], 0.0, "shared residue"),
            "aliased sum shared")
    _expect(False, checks.check_close([alias[i]], [coeffs[i]], 1e-10, "aliased sum"),
            "aliased sum differs from the lone coefficient")


if __name__ == "__main__":
    run_all()
    print("checker self-test passed")
