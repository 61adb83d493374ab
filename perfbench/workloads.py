"""The benchmark's workloads: set-up, rounds of operations, and their checks.

A round runs, for one search seed, the library search
  search       heuristic_search(I, mode, K=5, T=100, rng=random.Random(seed))
and, for the seeds in FULL_ROUND_SEEDS, the operations on its result:
  cli          cli.main(["search", setfile, "--mode", mode, "--seed", seed,
                         "--K", "5", "--T", "100", "--out", path])
  sample       eval_on_lattice(p, lat) on the lattice the search found
  reconstruct  reconstruct_coeffs(lat, I, samples)
Rounds cycle through the pinned search seeds until the run's time is spent,
so a slow phase of the machine hits every operation alike. A timing is the
median over seeds of each seed's median, so each seed weighs alike however
many rounds fit in the run. Each result is checked by `checks`, never against
a stored copy of an earlier output.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from cbclat import cli, freqset, lattice
from cbclat.heuristic import heuristic_search
from cbclat.kernels import MODE_INTEGRATION, MODE_RECONSTRUCTION

import checks
from tracing import CountingRandom, Tracer, per_layer

K, T = 5, 100
# Pinned search seeds. Searches on eight seeds make search_s and M_per_freq
# stand for the search rather than for one or two random paths through it.
SEEDS = tuple(range(1, 9))
FULL_ROUND_SEEDS = SEEDS[:2]   # rounds that also run the CLI search and the transforms
SETUP_REPEATS = 9     # setup_s is the median of at most this many complete set-ups
SPOT_NODES = 3        # samples compared with a direct sum per sample operation


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    make_set: Callable[[], freqset.FrequencySet]
    size: int                                          # |I|, known in closed form
    make_warm_set: Callable[[], freqset.FrequencySet]  # small set of the same family


class SetupError(RuntimeError):
    """The set-up produced a wrong set or a warm-up result failed its checks."""


def _whc(threshold: int, dmax: int) -> freqset.FrequencySet:
    return freqset.gen_weighted_hyperbolic(freqset.WeightSpec.inverse_square(), threshold, dmax)


WORKLOADS = {w.name: w for w in (
    Workload("axis-recon", MODE_RECONSTRUCTION, lambda: freqset.gen_axis_cross(10, 64),
             2 * 10 * 64 + 1, lambda: freqset.gen_axis_cross(3, 4)),
    Workload("anova-int", MODE_INTEGRATION, lambda: freqset.gen_superposition2(60, 1),
             2 * 60 * (1 + 59) + 1, lambda: freqset.gen_superposition2(4, 1)),
    Workload("whc-roundtrip", MODE_RECONSTRUCTION, lambda: _whc(200, 14),
             2425, lambda: _whc(8, 3)),
)}


class Run:
    """One workload's set, its polynomial, and the results and timings so far."""

    def __init__(self, mode: str, I: freqset.FrequencySet, setfile: Path, seed: int):
        self.mode = mode
        self.I = I
        self.setfile = setfile
        self.cli_out = setfile.with_name("cli.json")
        rng = random.Random(seed)
        self.coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(I))]
        self.poly = lattice.TrigPolynomial(I, np.asarray(self.coeffs))
        self.norm1 = sum(abs(c) for c in self.coeffs)
        self.spot = [rng.getrandbits(62) for _ in range(SPOT_NODES - 1)]
        self.times: dict[str, dict[int, list[float]]] = defaultdict(dict)
        self.results: dict[int, tuple] = {}       # seed -> (M, z, trail) first seen
        self.residues: dict[tuple, list[int]] = {}  # (M, z) -> k.z mod M over I
        self.checked: dict[tuple, list[str]] = {}   # (M, z) -> property errors
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # The checks' own data is built on first use, after the operation it
    # checks, so that it is not part of the set-up time.
    @cached_property
    def rows(self) -> list[list[int]]:
        """The frequencies as Python integers."""
        return self.I.array.tolist()

    @cached_property
    def c0(self) -> complex:
        """The polynomial's coefficient at k = 0 (0 when the set lacks it)."""
        zero = [0] * self.I.d
        return self.coeffs[self.rows.index(zero)] if zero in self.rows else 0j

    def _op(self, name: str, tracer: Tracer | None, fn, extra=None):
        """Time fn(); a raised exception becomes a failed operation (None).

        In a traced run the operation is an op.<name> span, annotated with
        extra(result) when the operation returned.
        """
        gc.collect()
        span = tracer.begin(f"op.{name}") if tracer else None
        out = None
        started = time.perf_counter()
        try:
            out = fn()
            return out, time.perf_counter() - started
        except Exception as exc:  # the run goes on, and reports the failure
            self._fail(name, [f"raised {type(exc).__name__}: {exc}"])
            return None, None
        finally:
            if span is not None:
                tracer.end(span, **(extra(out) if extra and out is not None else {}))

    def _record(self, name: str, seed: int, seconds, errors: list[str]) -> bool:
        self.attempted += 1
        if seconds is None:
            return False
        if errors:
            self._fail(name, errors)
            return False
        self.times[name].setdefault(seed, []).append(seconds)
        return True

    def timing(self, name: str):
        """Median over seeds of each seed's median time, or None without data."""
        per_seed = [statistics.median(v) for v in self.times[name].values()]
        return statistics.median(per_seed) if per_seed else None

    def _fail(self, name: str, errors: list[str]) -> None:
        self.failed += 1
        self.errors.extend(f"{name}: {e}" for e in errors)

    def _same_as_before(self, seed: int, result: tuple) -> list[str]:
        first = self.results.setdefault(seed, result)
        if first != result:
            return [f"seed {seed} gave (M, z, trail) {result} after {first}"]
        return []

    def _residues(self, M: int, z: tuple) -> list[int]:
        if (M, z) not in self.residues:
            self.residues[(M, z)] = checks.residues(self.rows, M, z)
        return self.residues[(M, z)]

    def _property(self, M: int, z: tuple) -> list[str]:
        """Shape and mode property of a lattice, checked once per distinct (M, z)."""
        key = (M, z)
        if key not in self.checked:
            errors = checks.check_lattice(M, z, self.I.d)
            if not errors and self.mode == MODE_INTEGRATION:
                errors = checks.check_integration(self.rows, self._residues(M, z), M)
            elif not errors:
                errors = checks.check_reconstruction(self._residues(M, z), M)
            self.checked[key] = errors
        return self.checked[key]

    def _check_outcome(self, seed: int, outcome) -> list[str]:
        """Checks of one heuristic_search result; none if the call raised."""
        if outcome is None:
            return []
        if outcome.status != "success":
            return [f"status {outcome.status!r} for seed {seed}"]
        trail = tuple((e.M_tilde, e.attempts, e.ok) for e in outcome.trail)
        return (self._property(outcome.M, outcome.z)
                + self._same_as_before(seed, (outcome.M, outcome.z, trail)))

    def untraced_search(self, seed: int) -> None:
        """The round's search alone and untraced: the base of the tracing overhead."""
        outcome, dt = self._op("search", None, lambda: heuristic_search(
            self.I, self.mode, K=K, T=T, rng=random.Random(seed)))
        self._record("untraced_search_s", seed, dt, self._check_outcome(seed, outcome))

    def round(self, seed: int, tracer: Tracer | None = None) -> None:
        """One search for one seed, then, for the seeds in FULL_ROUND_SEEDS, a
        CLI search, a sample and a reconstruction."""
        rng = CountingRandom(seed) if tracer else random.Random(seed)
        outcome, dt = self._op(
            "search", tracer, lambda: heuristic_search(self.I, self.mode, K=K, T=T, rng=rng),
            lambda out: {"seed": seed, "M": out.M, "rng_draws": rng.draws,
                         "failing_size_s": out.trail[-1].seconds})
        searched = self._record("search_s", seed, dt, self._check_outcome(seed, outcome))
        if seed not in FULL_ROUND_SEEDS:
            return
        if not searched:
            # Without a lattice the rest of the round cannot run; it still
            # counts, so a seed's rounds always attempt the same operations.
            for name in ("cli_search_s", "sample_s", "reconstruct_s"):
                self._record(name, seed, 0.0, ["no lattice to work on"])
            return
        M, z = outcome.M, outcome.z

        argv = ["search", str(self.setfile), "--mode", self.mode, "--seed", str(seed),
                "--K", str(K), "--T", str(T), "--out", str(self.cli_out)]
        rc, dt = self._op("cli", tracer, lambda: cli.main(argv))
        errors = []
        if dt is not None:
            if rc != 0:
                errors = [f"cbclat search exited {rc}"]
            else:
                with open(self.cli_out, encoding="utf-8") as fh:
                    obj = json.load(fh)
                trail = tuple((e["Mtilde"], e["attempts"], e["ok"]) for e in obj["trail"])
                errors = self._same_as_before(seed, (obj["M"], tuple(obj["z"]), trail))
        self._record("cli_search_s", seed, dt, errors)

        lat = lattice.Rank1Lattice(M, z)
        samples, dt = self._op("sample", tracer, lambda: lattice.eval_on_lattice(self.poly, lat))
        errors = []
        if dt is not None:
            nodes = [0] + [j % M for j in self.spot]
            errors = checks.check_samples(samples, self.coeffs, self._residues(M, z), M,
                                          nodes, 1e-12 * self.norm1)
            if not errors and self.mode == MODE_INTEGRATION:
                errors = checks.check_close([lattice.cubature(lat, samples)],
                                            [self.c0],
                                            1e-12 * self.norm1, "cubature vs c_0")
        if not self._record("sample_s", seed, dt, errors):
            self._record("reconstruct_s", seed, 0.0, ["no samples to work on"])
            return

        recovered, dt = self._op("reconstruct", tracer,
                                 lambda: lattice.reconstruct_coeffs(lat, self.I, samples))
        errors = []
        if dt is not None:
            if self.mode == MODE_RECONSTRUCTION:
                errors = checks.check_close(recovered, self.coeffs, 1e-10, "round trip")
            else:
                errors = checks.check_close(
                    recovered, checks.aliased_coeffs(self.coeffs, self._residues(M, z)),
                    1e-12 * self.norm1, "aliased reconstruction")
        self._record("reconstruct_s", seed, dt, errors)


def _set_up(w: Workload, seed: int, workdir: Path) -> tuple[Run, float, float]:
    """Generate the set, write its file, draw the coefficients and warm up.

    Returns the prepared run, the generator's time and the set-up time. The
    set-up time leaves out the benchmark's own work during the warm-up round,
    its checks and the collections before each operation: it is the time up
    to the warm-up plus the warm-up operations' own times.
    """
    started = time.perf_counter()
    I = w.make_set()
    gen_s = time.perf_counter() - started
    workdir.mkdir(exist_ok=True)
    setfile = workdir / "set.txt"
    freqset.write_set(I, setfile)
    run = Run(w.mode, I, setfile, seed)
    # One full round on a small set of the same family loads every code path.
    warm_file = workdir / "warm.txt"
    freqset.write_set(w.make_warm_set(), warm_file)
    warm = Run(w.mode, freqset.read_set(warm_file), warm_file, seed)
    prepared_s = time.perf_counter() - started
    if len(I) != w.size:
        raise SetupError(f"{w.name}: generated {len(I)} frequencies, expected {w.size}")
    warm.round(FULL_ROUND_SEEDS[0])
    if warm.failed:
        raise SetupError(f"{w.name}: warm-up round failed: {warm.errors}")
    warm_s = sum(t for per_seed in warm.times.values() for ts in per_seed.values() for t in ts)
    return run, gen_s, prepared_s + warm_s


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        out_prefix: Path) -> dict:
    """Set up, run rounds for `seconds`, and return the benchmark's result.

    Leaves every operation's time in <out_prefix>times.json and, when traced,
    every span in <out_prefix>trace.jsonl.
    """
    w = WORKLOADS[name]
    # The first set-up prepares the rounds. The others, spread over the run,
    # each prepare a copy that is dropped, so that setup_s meets the same
    # phases of the machine as the operations.
    bench, gen_s, setup_s = _set_up(w, seed, workdir)
    setups, gens = [setup_s], [gen_s]
    tracer = Tracer() if trace else None

    def one_round(s: int) -> None:
        if tracer is None:
            bench.round(s)
            return
        bench.untraced_search(s)
        with tracer.installed():
            bench.round(s, tracer)

    # At least one cycle of seeds, then rounds while the next one is likely to
    # end within `seconds`, judged by how long it took in the last cycle.
    # Traced runs stop only after whole cycles, so their counts per search
    # repeat exactly.
    unit = len(SEEDS) if trace else 1
    started = time.perf_counter()
    done = 0
    took: dict[int, float] = {}   # position in the cycle -> last length of that step
    while (done < len(SEEDS)
           or time.perf_counter() - started + took[done % len(SEEDS)] <= seconds):
        t0 = time.perf_counter()
        for r in range(done, done + unit):
            one_round(SEEDS[r % len(SEEDS)])
        took[done % len(SEEDS)] = time.perf_counter() - t0
        done += unit
        if (len(setups) < SETUP_REPEATS
                and time.perf_counter() - started >= len(setups) * seconds / SETUP_REPEATS):
            _, gen_s, setup_s = _set_up(w, seed, workdir / "again")
            setups.append(setup_s)
            gens.append(gen_s)

    correct = bench.failed == 0
    with open(f"{out_prefix}times.json", "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setups, **bench.times}, fh)
    if tracer is not None:
        tracer.write(f"{out_prefix}trace.jsonl")
        metrics = {}
        if correct:
            overhead = bench.timing("search_s") - bench.timing("untraced_search_s")
            metrics = per_layer(tracer, gens, overhead)
    else:
        found = [bench.results[s][0] for s in SEEDS if s in bench.results]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "search_s": (bench.timing("search_s"), "s"),
            "M_per_freq": (math.exp(statistics.fmean(math.log(M / len(bench.I)) for M in found))
                           if found else None, "ratio"),
            "sample_s": (bench.timing("sample_s"), "s"),
            "reconstruct_s": (bench.timing("reconstruct_s"), "s"),
            "cli_search_s": (bench.timing("cli_search_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items() if v is not None}
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics, "errors": bench.errors[:20]}
