"""Per-layer tracing from the benchmark's side of cbclat's public functions.

The traced run replaces each public function at the module attribute through
which the program looks it up, records one span per call (name, start, end,
parent), and restores the originals afterwards. Spans stay in memory until
the run ends. Nothing inside the package changes.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from contextlib import contextmanager

import cbclat.cli
import cbclat.freqset
import cbclat.heuristic
import cbclat.kernels
import cbclat.lattice
import cbclat.search

# (module, attribute, span name, how to read "accepted" off the return value)
TARGETS = (
    (cbclat.kernels, "init_residues", "kernels.init", None),
    (cbclat.kernels, "check_exactness_integration", "kernels.check", lambda r: r[0]),
    (cbclat.kernels, "check_exactness_reconstruction", "kernels.check", lambda r: r[0]),
    (cbclat.heuristic, "cbc_construct", "search.construct", lambda r: r.success),
    (cbclat.heuristic, "nextprime", "primes.nextprime", None),
    (cbclat.lattice, "verify_integration", "lattice.verify", None),
    (cbclat.lattice, "verify_reconstruction", "lattice.verify", None),
    (cbclat.freqset, "read_set", "freqset.read", None),
    (cbclat.cli, "heuristic_search", "heuristic.search", None),
)


class CountingRandom(random.Random):
    """random.Random that counts randrange calls; the stream is unchanged."""

    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    def begin(self, name: str) -> dict:
        span = {"id": self._next_id, "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter()}
        self._next_id += 1
        self._stack.append(span["id"])
        return span

    def end(self, span: dict, **extra) -> None:
        span["end"] = time.perf_counter()
        span.update(extra)
        self._stack.pop()
        self.spans.append(span)

    def call(self, name, fn, accepted, args, kwargs):
        span = self.begin(name)
        ok = None
        try:
            out = fn(*args, **kwargs)
            ok = None if accepted is None else bool(accepted(out))
            return out
        finally:
            self.end(span, ok=ok)

    def wrap(self, name, fn, accepted=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, accepted, args, kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Swap the traced wrappers in for the duration of the block."""
        saved = []
        try:
            for module, attr, name, accepted in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, accepted))
            permutation = cbclat.search.two_step_permutation
            saved.append((cbclat.search, "two_step_permutation", permutation))
            cbclat.search.two_step_permutation = (
                lambda *a, **kw: _TimedIterator(self, permutation(*a, **kw)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")


class _TimedIterator:
    """Candidate iterator whose every next() is a search.sample span."""

    def __init__(self, tracer: Tracer, it):
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call("search.sample", next, None, (self._it,), {})


def _dur(span) -> float:
    return span["end"] - span["start"]


class _Tree:
    def __init__(self, spans):
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def descendants(self, span):
        todo = list(self.children.get(span["id"], ()))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children.get(s["id"], ()))

    def self_time(self, span) -> float:
        return _dur(span) - sum(_dur(c) for c in self.children.get(span["id"], ()))


def per_layer(tracer: Tracer, gen_times, overhead_s: float) -> dict:
    """Per-layer metrics of one traced run: counts per search, medians of times.

    overhead_s is the traced search_s minus the untraced one, measured by the caller.
    """
    tree = _Tree(tracer.spans)
    searches = [s for s in tracer.spans if s["name"] == "op.search"]
    clis = [s for s in tracer.spans if s["name"] == "op.cli"]

    def per_op(ops, name):
        """For each op: (number of `name` spans below it, their total seconds)."""
        rows = []
        for op in ops:
            hits = [s for s in tree.descendants(op) if s["name"] == name]
            rows.append((len(hits), sum(_dur(s) for s in hits)))
        return rows

    def count(ops, name):
        return sum(n for n, _ in per_op(ops, name)) / len(ops)

    def median_time(ops, name):
        return statistics.median(t for _, t in per_op(ops, name))

    checks = [s for op in searches for s in tree.descendants(op) if s["name"] == "kernels.check"]
    constructs = [s for op in searches for s in tree.descendants(op)
                  if s["name"] == "search.construct"]
    check_time = sum(_dur(s) for s in checks)
    draws = sum(op["rng_draws"] for op in searches)

    values = {
        "freqset.gen_s": (statistics.median(gen_times), "s"),
        "freqset.read_s": (median_time(clis, "freqset.read"), "s"),
        "primes.nextprime_calls": (count(searches, "primes.nextprime"), "count"),
        "primes.nextprime_s": (median_time(searches, "primes.nextprime"), "s"),
        "kernels.init_s": (median_time(searches, "kernels.init"), "s"),
        "kernels.check_calls": (len(checks) / len(searches), "count"),
        "kernels.check_s": (median_time(searches, "kernels.check"), "s"),
        "kernels.check_us": (1e6 * check_time / len(checks), "us/call"),
        "kernels.accept_ratio": (sum(bool(s["ok"]) for s in checks) / len(checks), "ratio"),
        "search.construct_calls": (len(constructs) / len(searches), "count"),
        "search.construct_ok_ratio": (sum(bool(s["ok"]) for s in constructs) / len(constructs),
                                      "ratio"),
        "search.sample_s": (median_time(searches, "search.sample"), "s"),
        "search.rng_draws": (draws / len(searches), "count"),
        "search.draws_per_check": (draws / len(checks), "ratio"),
        "search.drive_self_s": (statistics.median(
            sum(tree.self_time(c) for c in tree.descendants(op) if c["name"] == "search.construct")
            for op in searches), "s"),
        "heuristic.failing_size_s": (statistics.median(op["failing_size_s"] for op in searches),
                                     "s"),
        "heuristic.self_s": (statistics.median(tree.self_time(op) for op in searches), "s"),
        "lattice.verify_s": (median_time(searches, "lattice.verify"), "s"),
        "cli.verify_calls": (count(clis, "lattice.verify"), "count"),
        "cli.self_s": (statistics.median(tree.self_time(op) for op in clis), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
