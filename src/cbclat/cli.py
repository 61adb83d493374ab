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
from .heuristic import SearchOutcome, TrailEntry, heuristic_search, verifier
from .kernels import MODE_RECONSTRUCTION, MODES
from .primes import is_prime
from .search import CbcConfig, cbc_construct

# The families generated from --d and --N; whc is generated from --threshold.
GRID_FAMILIES = {"cube": freqset.gen_cube, "axiscross": freqset.gen_axis_cross,
                 "anova2": freqset.gen_superposition2}
FAMILIES = (*GRID_FAMILIES, "whc")

BENCH_COLUMNS = ("experiment", "family", "d", "N", "threshold", "gamma", "mode",
                 "K", "T", "seed", "rep", "card", "M", "status", "verified", "seconds")


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 means "search failed" here,
    # so route usage problems through our own error path instead.
    def error(self, message):
        raise UsageError(message)


def _bench_csv(row: dict) -> list[str]:
    """A bench row as CSV cells: None becomes empty, seconds get 6 decimals."""
    return ["" if row[c] is None else f"{row[c]:.6f}" if c == "seconds" else str(row[c])
            for c in BENCH_COLUMNS]


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
    if family in GRID_FAMILIES:
        if d is None or N is None:
            raise UsageError(f"{family} needs --d and --N")
        return GRID_FAMILIES[family](d, N)
    if threshold is None:
        raise UsageError("whc needs --threshold")
    if dmax is None:
        if gamma.gammas is not None:
            raise UsageError("explicit --gamma weights need --dmax")
        dmax = max(1, isqrt(threshold))
    return freqset.gen_weighted_hyperbolic(gamma, threshold, dmax)


def _result_json(I, outcome: SearchOutcome, seed: int, seconds: float, verified: bool) -> dict:
    """The result object; verified is the caller's verdict on (M, z)."""
    ok = outcome.success
    trail = [{"Mtilde": e.M_tilde, "attempts": e.attempts, "ok": e.ok, "seconds": e.seconds}
             for e in outcome.trail]
    return {"status": outcome.status, "d": I.d, "M": outcome.M if ok else None,
            "z": list(outcome.z) if ok else None, "mode": outcome.mode, "seed": seed,
            "verified": verified, "trail": trail, "seconds": seconds}


def _round_trip(I, outcome: SearchOutcome, rng: random.Random) -> dict:
    """The demo fields: a random polynomial on I sampled and reconstructed."""
    demo = {"coefficients": len(I), "max_abs_error": None, "rel_error": None}
    if outcome.success:
        lat = lattice.Rank1Lattice(outcome.M, outcome.z)
        coeffs = np.asarray([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                             for _ in range(len(I))])
        samples = lattice.eval_on_lattice(lattice.TrigPolynomial(I, coeffs), lat)
        max_err = float(np.max(np.abs(lattice.reconstruct_coeffs(lat, I, samples) - coeffs)))
        norm1 = float(np.sum(np.abs(coeffs)))
        demo.update(max_abs_error=max_err, rel_error=max_err / norm1 if norm1 else 0.0)
    return demo


def _emit(obj: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(obj, indent=2) + "\n"
    else:
        flat = {k: v for k, v in obj.items() if k != "trail"}
        flat["z"] = "" if flat.get("z") is None else " ".join(str(v) for v in flat["z"])
        text = _csv_text([flat.keys(), flat.values()])
    _write(text, out)


def _csv_text(rows) -> str:
    """rows as CSV text with "\n" line ends, the same for every subcommand."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
    outcome = SearchOutcome(result.status, result.M, result.z,
                            (TrailEntry(args.M, 1, result.success, seconds),), args.mode)
    # Unlike heuristic_search, cbc_construct does not verify its result.
    verified = result.success and verifier(args.mode)(lattice.Rank1Lattice(args.M, result.z), I)
    _emit(_result_json(I, outcome, seed, seconds, verified), args.out, args.format)
    return 0 if result.success else 2


def cmd_search(args) -> int:
    """search, and reconstruct-demo: search in reconstruction mode plus a round trip."""
    I = freqset.read_set(args.setfile)
    seed = _seed_or_entropy(args.seed)
    rng = random.Random(seed)
    started = time.perf_counter()
    outcome = heuristic_search(I, args.mode, K=args.K, T=args.T, rng=rng)
    # heuristic_search verifies its lattice directly and raises if that fails.
    obj = _result_json(I, outcome, seed, time.perf_counter() - started, outcome.success)
    if args.command == "reconstruct-demo":
        obj.update(_round_trip(I, outcome, rng))
    _emit(obj, args.out, args.format)
    return 0 if outcome.success else 2


def cmd_verify(args) -> int:
    I = freqset.read_set(args.setfile)
    with open(args.latticefile, "r", encoding="utf-8") as fh:
        lat = lattice.Rank1Lattice.from_dict(json.load(fh))
    ok = verifier(args.mode)(lat, I)
    print("true" if ok else "false")
    return 0 if ok else 2


def cmd_bench(args) -> int:
    if args.reps < 0:
        raise UsageError("--reps must be >= 0")
    gamma = _parse_gamma(args.gamma)
    seed0 = _seed_or_entropy(args.seed)
    if seed0 + args.reps > 2**64:  # rep r runs seed0 + r, which search must accept too
        raise UsageError("--seed + --reps - 1 must be a 64-bit unsigned integer")
    if args.set == "whc":
        if not args.threshold:
            raise UsageError("whc bench needs --threshold")
        jobs = [(f"whc-t{t}", dict(family="whc", d=None, N=None, threshold=t))
                for t in _parse_int_list(args.threshold, "--threshold")]
    elif args.d is None or args.N is None:
        raise UsageError(f"{args.set} bench needs --d and --N")
    else:
        jobs = [(f"{args.set}-d{d}-N{args.N}", dict(family=args.set, d=d, N=args.N, threshold=None))
                for d in _parse_int_list(args.d, "--d")]

    rows = []
    for exp_id, params in sorted(jobs, key=lambda job: job[0]):
        I = _generate(**params, gamma=gamma, dmax=args.dmax)
        # Rows are typed, keyed in BENCH_COLUMNS order, with the set's d; the CSV formats them.
        common = dict(experiment=exp_id, **(params | {"d": I.d}), gamma=args.gamma, mode=args.mode,
                      K=args.K, T=args.T)
        sizes, times = [], []
        for rep in range(args.reps):
            rep_seed = seed0 + rep
            started = time.perf_counter()
            outcome = heuristic_search(I, args.mode, K=args.K, T=args.T,
                                       rng=random.Random(rep_seed))
            times.append(time.perf_counter() - started)
            if outcome.success:
                sizes.append(outcome.M)
            rows.append(dict(**common, seed=rep_seed, rep=rep, card=len(I), M=outcome.M,
                             status=outcome.status, verified=outcome.success, seconds=times[-1]))
        if not times:
            continue
        for name, agg in (("mean", lambda v: sum(v) / len(v)), ("min", min), ("max", max)):
            rows.append(dict(**common, seed=None, rep=name, card=len(I), M=agg(sizes) if sizes else None,
                             status=None, verified=None, seconds=agg(times)))

    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = _csv_text([BENCH_COLUMNS, *map(_bench_csv, rows)])
    _write(text, args.out)
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="cbclat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=True, with_mode=True):
        if with_k:
            p.add_argument("--K", type=int, default=5, help="retries per lattice size (default 5)")
        p.add_argument("--T", type=int, default=100, help="candidate budget per step (default 100)")
        if with_mode:
            p.add_argument("--mode", choices=list(MODES), default=MODE_RECONSTRUCTION)
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed; drawn and echoed if omitted")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    def add_family(p, sweep):
        # gen takes one --d and --threshold; bench takes comma lists of them.
        p.add_argument("--set", choices=list(FAMILIES), required=True)
        p.add_argument("--d", type=None if sweep else int,
                       help="comma-separated dimensions" if sweep else None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--threshold", type=None if sweep else int,
                       help="comma-separated thresholds (whc)" if sweep else None)
        p.add_argument("--gamma", default="j^-2")
        p.add_argument("--dmax", type=int, default=None)

    p = sub.add_parser("gen", help="generate a frequency-set file")
    add_family(p, sweep=False)
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
    add_common(p, with_mode=False)
    p.set_defaults(func=cmd_search, mode=MODE_RECONSTRUCTION)

    p = sub.add_parser("bench", help="repeated searches over a family sweep, CSV output")
    add_family(p, sweep=True)
    p.add_argument("--reps", type=int, default=10)
    add_common(p)
    p.set_defaults(func=cmd_bench, format="csv")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
