"""The benchmark's tracer (perfbench/tracing.py) wraps cbclat's functions at
the module attributes the program calls through, by name. These tests fail
when a change to the package renames or bypasses one of them."""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

import cbclat.heuristic
import cbclat.search
from cbclat.freqset import gen_axis_cross, gen_superposition2

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_exist(tracing):
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
    assert callable(cbclat.search.two_step_permutation)


@pytest.mark.parametrize("mode", ["integration", "reconstruction"])
def test_traced_search_records_layers(tracing, mode):
    I = gen_superposition2(4, 1) if mode == "integration" else gen_axis_cross(3, 4)
    originals = {(m, a): getattr(m, a) for m, a, _, _ in tracing.TARGETS}
    permutation = cbclat.search.two_step_permutation
    tracer = tracing.Tracer()
    rng = tracing.CountingRandom(5)
    with tracer.installed():
        out = cbclat.heuristic.heuristic_search(I, mode, K=5, T=100, rng=rng)
    assert out.success
    names = Counter(span["name"] for span in tracer.spans)
    assert names["kernels.check"] > 0
    assert names["search.sample"] == names["kernels.check"]
    assert names["search.construct"] == sum(e.attempts for e in out.trail)
    # One random draw per candidate tested: draws_per_check is exactly 1.
    assert rng.draws == names["kernels.check"]
    # Untraced again afterwards, with the same result for the same seed.
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    assert cbclat.search.two_step_permutation is permutation
    again = cbclat.heuristic.heuristic_search(I, mode, K=5, T=100, rng=random.Random(5))
    assert (again.M, again.z) == (out.M, out.z)
