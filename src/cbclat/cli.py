"""Command-line front end: generate sets, construct/search lattices, verify,
run the reconstruction demo, and sweep benchmarks to CSV.

Exit codes: 0 success, 2 search failure (or a failed verification), 1
usage/IO errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from fractions import Fraction
from math import isqrt

import numpy as np

from . import freqset, lattice
from .heuristic import TrailEntry, heuristic_search, verifier
from .kernels import MODE_RECONSTRUCTION, MODES
from .primes import is_prime
from .search import CbcConfig, cbc_construct

FAMILIES = ("cube", "axiscross", "anova2", "whc")

BENCH_COLUMNS = ("experiment", "family", "d", "N", "threshold", "gamma", "mode",
                 "K", "T", "seed", "rep", "card", "M", "status", "verified", "seconds")


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 means "search failed" here,
    # so route usage problems through our own error path instead.
    def error(self, message):
        raise UsageError(message)


def _bench_row(**fields) -> list[str]:
    """One bench output row in BENCH_COLUMNS order; None becomes empty."""
    return ["" if fields[c] is None else str(fields[c]) for c in BENCH_COLUMNS]


def _parse_gamma(text: str) -> freqset.WeightSpec:
    if text.strip() == "j^-2":
        return freqset.WeightSpec.inverse_square()
    try:
        gammas = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse --gamma {text!r}: use 'j^-2' or a comma list of rationals")
    return freqset.WeightSpec.explicit(gammas)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse {flag} {text!r}: expected comma-separated integers")


def _generate(family: str, d: int | None, N: int | None, threshold: int | None,
              gamma: freqset.WeightSpec, dmax: int | None) -> freqset.FrequencySet:
    if family == "cube":
        if d is None or N is None:
            raise UsageError("cube needs --d and --N")
        return freqset.gen_cube(d, N)
    if family == "axiscross":
        if d is None or N is None:
            raise UsageError("axiscross needs --d and --N")
        return freqset.gen_axis_cross(d, N)
    if family == "anova2":
        if d is None or N is None:
            raise UsageError("anova2 needs --d and --N")
        return freqset.gen_superposition2(d, N)
    if family == "whc":
        if threshold is None:
            raise UsageError("whc needs --threshold")
        if dmax is None:
            if gamma.kind != freqset.WeightSpec.INVERSE_SQUARE:
                raise UsageError("explicit --gamma weights need --dmax")
            dmax = max(1, isqrt(threshold))
        return freqset.gen_weighted_hyperbolic(gamma, threshold, dmax)
    raise UsageError(f"unknown family {family!r}")


def _result_json(I, mode, seed, status, M, z, trail, seconds, verified: bool) -> dict:
    """The result object; verified is the caller's verdict on (M, z)."""
    return {
        "status": status,
        "d": I.d,
        "M": M if status == "success" else None,
        "z": list(z) if status == "success" else None,
        "mode": mode,
        "seed": seed,
        "verified": verified,
        "trail": [{"Mtilde": e.M_tilde, "attempts": e.attempts, "ok": e.ok,
                   "seconds": e.seconds} for e in trail],
        "seconds": seconds,
    }


def _emit(obj: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(obj, indent=2) + "\n"
    else:
        flat = {k: v for k, v in obj.items() if k != "trail"}
        flat["z"] = "" if flat.get("z") is None else " ".join(str(v) for v in flat["z"])
        buf = []
        buf.append(",".join(flat.keys()))
        buf.append(",".join("" if v is None else str(v) for v in flat.values()))
        text = "\n".join(buf) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _seed_or_entropy(seed: int | None) -> int:
    if seed is None:
        # No seed given: draw one and echo it, so the run stays reproducible.
        return random.SystemRandom().getrandbits(63)
    if not 0 <= seed < 2**64:
        raise UsageError("--seed must be a 64-bit unsigned integer")
    return seed


def cmd_gen(args) -> int:
    I = _generate(args.set, args.d, args.N, args.threshold, _parse_gamma(args.gamma), args.dmax)
    if args.out:
        freqset.write_set(I, args.out)
    else:
        sys.stdout.writelines(freqset.format_set(I))
    print(len(I), file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_construct(args) -> int:
    I = freqset.read_set(args.setfile)
    if not is_prime(args.M):
        print(f"warning: M = {args.M} is not prime; proceeding anyway", file=sys.stderr)
    seed = _seed_or_entropy(args.seed)
    cfg = CbcConfig(M=args.M, T=min(args.T, args.M), mode=args.mode, seed=seed)
    started = time.perf_counter()
    result = cbc_construct(I, cfg)
    seconds = time.perf_counter() - started
    trail = [TrailEntry(args.M, 1, result.success, seconds)]
    # Unlike heuristic_search, cbc_construct does not verify its result.
    verified = (result.success
                and verifier(args.mode)(lattice.Rank1Lattice(args.M, result.z), I))
    obj = _result_json(I, args.mode, seed, result.status, result.M, result.z, trail, seconds,
                       verified)
    _emit(obj, args.out, args.format)
    return 0 if result.success else 2


def cmd_search(args) -> int:
    I = freqset.read_set(args.setfile)
    seed = _seed_or_entropy(args.seed)
    started = time.perf_counter()
    outcome = heuristic_search(I, args.mode, K=args.K, T=args.T, rng=random.Random(seed))
    seconds = time.perf_counter() - started
    # heuristic_search verifies its lattice directly and raises if that fails.
    obj = _result_json(I, args.mode, seed, outcome.status, outcome.M, outcome.z,
                       outcome.trail, seconds, outcome.success)
    _emit(obj, args.out, args.format)
    return 0 if outcome.success else 2


def cmd_verify(args) -> int:
    I = freqset.read_set(args.setfile)
    with open(args.latticefile, "r", encoding="utf-8") as fh:
        lat = lattice.Rank1Lattice.from_dict(json.load(fh))
    ok = verifier(args.mode)(lat, I)
    print("true" if ok else "false")
    return 0 if ok else 2


def cmd_reconstruct_demo(args) -> int:
    I = freqset.read_set(args.setfile)
    seed = _seed_or_entropy(args.seed)
    rng = random.Random(seed)
    started = time.perf_counter()
    outcome = heuristic_search(I, MODE_RECONSTRUCTION, K=args.K, T=args.T, rng=rng)
    demo = {"coefficients": len(I), "max_abs_error": None, "rel_error": None}
    if outcome.success:
        lat = lattice.Rank1Lattice(outcome.M, outcome.z)
        coeffs = np.asarray([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                             for _ in range(len(I))])
        samples = lattice.eval_on_lattice(lattice.TrigPolynomial(I, coeffs), lat)
        recovered = lattice.reconstruct_coeffs(lat, I, samples)
        max_err = float(np.max(np.abs(recovered - coeffs)))
        norm1 = float(np.sum(np.abs(coeffs)))
        demo.update(max_abs_error=max_err, rel_error=max_err / norm1 if norm1 else 0.0)
    # heuristic_search verifies its lattice directly and raises if that fails.
    obj = _result_json(I, MODE_RECONSTRUCTION, seed, outcome.status, outcome.M, outcome.z,
                       outcome.trail, time.perf_counter() - started, outcome.success)
    _emit({**obj, **demo}, args.out, args.format)
    return 0 if outcome.success else 2


def cmd_bench(args) -> int:
    gamma = _parse_gamma(args.gamma)
    seed0 = _seed_or_entropy(args.seed)
    jobs = []
    if args.set == "whc":
        for thr in _parse_int_list(args.threshold, "--threshold") if args.threshold else []:
            dmax = args.dmax or max(1, isqrt(thr))
            jobs.append((f"whc-t{thr}", dict(family="whc", d=dmax, N=None, threshold=thr)))
        if not jobs:
            raise UsageError("whc bench needs --threshold")
    else:
        if args.d is None or args.N is None:
            raise UsageError(f"{args.set} bench needs --d and --N")
        for d in _parse_int_list(args.d, "--d"):
            jobs.append((f"{args.set}-d{d}-N{args.N}", dict(family=args.set, d=d, N=args.N, threshold=None)))

    rows = []
    for exp_id, params in sorted(jobs, key=lambda job: job[0]):
        I = _generate(params["family"], params["d"], params["N"], params["threshold"], gamma, args.dmax)
        common = dict(experiment=exp_id, **params, gamma=args.gamma, mode=args.mode, K=args.K,
                      T=args.T, card=len(I))
        sizes, times = [], []
        for rep in range(args.reps):
            rep_seed = seed0 + rep
            started = time.perf_counter()
            outcome = heuristic_search(I, args.mode, K=args.K, T=args.T,
                                       rng=random.Random(rep_seed))
            times.append(time.perf_counter() - started)
            M = outcome.M if outcome.success else None
            if M is not None:
                sizes.append(M)
            rows.append(_bench_row(**common, seed=rep_seed, rep=rep, M=M, status=outcome.status,
                                   verified=outcome.success, seconds=f"{times[-1]:.6f}"))
        if not times:
            continue
        for name, agg in (("mean", lambda v: sum(v) / len(v)), ("min", min), ("max", max)):
            rows.append(_bench_row(**common, seed=None, rep=name,
                                   M=agg(sizes) if sizes else None, status="", verified="",
                                   seconds=f"{agg(times):.6f}"))

    if args.format == "json":
        text = json.dumps([dict(zip(BENCH_COLUMNS, row)) for row in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows([BENCH_COLUMNS, *rows])
        text = buf.getvalue()
    _write(text, args.out)
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="cbclat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=True):
        if with_k:
            p.add_argument("--K", type=int, default=5, help="retries per lattice size (default 5)")
        p.add_argument("--T", type=int, default=100, help="candidate budget per step (default 100)")
        p.add_argument("--mode", choices=list(MODES), default=MODE_RECONSTRUCTION)
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed; drawn and echoed if omitted")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("gen", help="generate a frequency-set file")
    p.add_argument("--set", choices=list(FAMILIES), required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--gamma", default="j^-2")
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("construct", help="single bounded CBC construction at a fixed M")
    p.add_argument("setfile")
    p.add_argument("--M", type=int, required=True)
    add_common(p, with_k=False)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="halving search for a small lattice size")
    p.add_argument("setfile")
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="check a lattice JSON against a set file")
    p.add_argument("setfile")
    p.add_argument("latticefile")
    p.add_argument("--mode", choices=list(MODES), default=MODE_RECONSTRUCTION)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reconstruct-demo", help="sample a random polynomial and reconstruct it")
    p.add_argument("setfile")
    add_common(p)
    p.set_defaults(func=cmd_reconstruct_demo)

    p = sub.add_parser("bench", help="repeated searches over a family sweep, CSV output")
    p.add_argument("--set", choices=list(FAMILIES), required=True)
    p.add_argument("--d", default=None, help="comma-separated dimensions")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--threshold", default=None, help="comma-separated thresholds (whc)")
    p.add_argument("--gamma", default="j^-2")
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--reps", type=int, default=10)
    add_common(p)
    p.set_defaults(func=cmd_bench, format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
