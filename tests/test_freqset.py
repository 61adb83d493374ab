"""Frequency-set model, generators, difference sets, and file round-trips."""

import itertools
import os
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cbclat.freqset as freqset_mod
from cbclat.freqset import (
    COMPONENT_LIMIT,
    FrequencySet,
    WeightSpec,
    difference_set,
    expansion,
    format_set,
    gen_axis_cross,
    gen_cube,
    gen_superposition2,
    gen_weighted_hyperbolic,
    max_abs,
    read_set,
    write_set,
)
from cbclat.heuristic import initial_size
from cbclat.kernels import MODE_INTEGRATION, MODE_RECONSTRUCTION
from cbclat.primes import nextprime


# --- data model ---------------------------------------------------------

def test_construction_dedupes_and_sorts():
    I = FrequencySet([(1, 0), (0, 1), (1, 0), (-1, 2)])
    assert I.items == [(-1, 2), (0, 1), (1, 0)]
    assert len(I) == 3
    assert I.d == 2


_SORTED = [(-2, 5), (-1, 0), (-1, 3), (0, -7), (0, 0), (3, -1)]


@pytest.mark.parametrize("rows", [
    _SORTED,
    _SORTED[::-1],
    [(-1, 0), (-1, 0), (0, 0), (0, 0), (0, 0), (2, 1)],  # adjacent duplicates
    [(4, -4, 4)],  # a single row
    [(0, 1), (1, 0), (0, 2)],  # sorted except the last pair
    [(1, 2), (1, 1)],  # differs only in the last column
    [(-(2**31 - 1),), (2**31 - 1,), (0,)],
])
def test_construction_equals_numpy_unique(rows):
    expected = np.unique(np.asarray(rows, dtype=np.int64), axis=0)
    for given in (rows, np.asarray(rows, dtype=np.int64)):
        got = FrequencySet(given).array
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=40), st.booleans())
def test_construction_equals_numpy_unique_random(rows, presort):
    if presort:
        rows = sorted(set(rows))
    expected = np.unique(np.asarray(rows, dtype=np.int64), axis=0)
    assert np.array_equal(FrequencySet(rows).array, expected)


def test_sorted_input_skips_the_resort(monkeypatch, tmp_path):
    write_set(gen_axis_cross(3, 2), tmp_path / "set.txt")
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    FrequencySet(_SORTED)
    gen_cube(2, 3)
    gen_weighted_hyperbolic(WeightSpec.inverse_square(), 20, 4)
    gen_axis_cross(4, 3)
    gen_superposition2(5, 2)
    read_set(tmp_path / "set.txt")
    assert calls == []
    FrequencySet(_SORTED[::-1])
    assert calls == [1]


@pytest.mark.parametrize("gen, d, N", [(g, d, N) for d in range(1, 6) for N in range(4)
                                       for g in (gen_axis_cross, gen_superposition2)
                                       if d >= 2 or g is gen_axis_cross])
def test_generators_emit_natural_order(monkeypatch, gen, d, N):
    # The entries a generator hands to FrequencySet._of are already what the
    # construction would make of its rows: column by column, in set order
    # within one, of rows that are sorted and without duplicates. The set
    # takes the generator's arrays as its own, with no copy and no re-sort.
    emitted = []
    of, unique = FrequencySet._of, np.unique
    monkeypatch.setattr(FrequencySet, "_of", lambda *store: emitted.append(store) or of(*store))
    monkeypatch.setattr(np, "unique", lambda *a, **kw: pytest.fail("re-sorted"))
    I = gen(d, N)
    [(n, width, rows, cols, values)] = emitted
    assert (n, width) == (len(I), d)
    assert np.all(values != 0)
    assert np.all(np.diff(cols * n + rows) > 0)  # column-major, rows ascending
    dense = np.zeros((n, d), dtype=np.int64)
    dense[rows, cols] = values
    assert np.array_equal(dense, unique(dense, axis=0))
    assert I.entries[0] is rows and I.entries[1] is cols
    assert np.array_equal(I.entries[2], values)  # as int32


def test_column_nonzeros():
    I = FrequencySet([(0, 0, 3), (1, 0, -2), (2, 0, 0), (-1, 5, 0)])  # rows re-sorted
    assert I.array[:, 0].tolist() == [-1, 0, 1, 2]
    for t in range(I.d):
        rows, values, bound = I.nonzeros(t)
        assert rows.tolist() == np.flatnonzero(I.array[:, t]).tolist()
        assert values.tolist() == I.array[rows, t].tolist()
        assert not rows.flags.writeable and not values.flags.writeable
        assert values.dtype == np.int32  # every |k_t| <= COMPONENT_LIMIT fits
        assert type(bound) is int and bound == np.abs(I.array[:, t]).max()
    assert I.nonzeros(1)[0].tolist() == [0]
    assert I.nonzeros(2)[1].tolist() == [3, -2]
    assert [I.nonzeros(t)[2] for t in range(I.d)] == [2, 5, 3]
    zero = FrequencySet([(0, 0)])
    assert zero.nonzeros(0)[0].shape == zero.nonzeros(1)[1].shape == (0,)
    assert zero.nonzeros(0)[2] == zero.nonzeros(1)[2] == 0


def _store_sets():
    """Sets for the nonzero-store tests, each with what it covers."""
    rng = np.random.default_rng(11)
    sets = {
        "zero": FrequencySet([(0, 0, 0)]),
        "zero-column": FrequencySet([(1, 0, -2), (0, 0, 3), (-4, 0, 0)]),
        "no-zero-row": FrequencySet([(-3, 5), (2, 5)]),  # column 1 has no 0
        "all-negative": FrequencySet([(-3, -1), (-7, -2), (-1, -9)]),
        "cube": gen_cube(3, 2),  # dense: only the zero row's and the axes' zeros
        "one-row": FrequencySet([(4, -4, 4)]),
        "limits": FrequencySet([(COMPONENT_LIMIT, -COMPONENT_LIMIT), (0, COMPONENT_LIMIT)]),
    }
    for i in range(8):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 7))
        arr = rng.integers(-9, 10, size=(n, d)) * (rng.random((n, d)) < rng.random())
        sets[f"random-{i}"] = FrequencySet(arr)
    return sets


@pytest.mark.parametrize("name, I", list(_store_sets().items()))
def test_store_statistics_match_dense_references(name, I):
    A = I.array
    assert max_abs(I) == int(np.abs(A).max())
    assert expansion(I) == int(np.ptp(A, axis=0).max())
    assert I.spans.tolist() == np.stack([A.min(axis=0), A.max(axis=0)], axis=1).tolist()
    assert I.row_norms.tolist() == np.abs(A).sum(axis=1).tolist()
    rows, cols, values = I.entries
    assert not (rows.flags.writeable or cols.flags.writeable or values.flags.writeable)
    assert not I.spans.flags.writeable
    # Column-major order, set order within a column; nonzeros(t) is column t of it.
    want_cols, want_rows = np.nonzero(A.T)
    assert cols.tolist() == want_cols.tolist() and rows.tolist() == want_rows.tolist()
    assert values.tolist() == A[rows, cols].tolist()
    for t in range(I.d):
        r, v, bound = I.nonzeros(t)
        assert r.tolist() == np.flatnonzero(A[:, t]).tolist()
        assert v.tolist() == A[r, t].tolist()
        assert type(bound) is int and bound == int(np.abs(A[:, t]).max())


def test_store_statistics_read_no_dense_array(monkeypatch):
    # Once the store exists, the statistics read only it.
    I = gen_superposition2(5, 2)
    I.entries
    monkeypatch.setattr(FrequencySet, "array", property(lambda self: pytest.fail("dense read")))
    assert (max_abs(I), expansion(I), int(I.row_norms.max())) == (2, 4, 4)


def _split_columns(I):
    """spans and nonzeros(t) as a per-column np.split of the entries computes them."""
    rows, cols, values = I.entries
    cuts = np.searchsorted(cols, np.arange(1, I.d))
    spans, columns = [], []
    for r, v in zip(np.split(rows, cuts), np.split(values, cuts)):
        z = 0 if v.shape[0] < len(I) else v[0]
        lo, hi = int(v.min(initial=z)), int(v.max(initial=z))
        spans.append([lo, hi])
        columns.append((r.tolist(), v.tolist(), max(-lo, hi)))
    return spans, columns


@pytest.mark.parametrize("make", [
    lambda: FrequencySet([(0, 3, -1), (0, -2, 4), (0, 0, 5)]),  # all-zero first column
    lambda: FrequencySet([(3, 0, -1), (-2, 0, 4), (1, 0, 0)]),  # all-zero middle column
    lambda: FrequencySet([(3, -1, 0), (-2, 4, 0), (0, 5, 0)]),  # all-zero last column
    lambda: FrequencySet([(0, 0, 0, 7, 0, 0)]),  # one nonzero in a single row
    lambda: FrequencySet([(0, 0), (0, 0)]),  # no nonzero at all
    lambda: FrequencySet([(4,), (-COMPONENT_LIMIT,), (0,)]),  # d = 1
    lambda: FrequencySet([(-3,), (5,)]),  # d = 1, no zero
    lambda: FrequencySet([(-COMPONENT_LIMIT, 0, COMPONENT_LIMIT), (-1, 0, 2)]),
    lambda: FrequencySet([(0, -5), (3, 0), (4, -7)]),  # one-signed nonzeros beside a 0
    lambda: gen_axis_cross(300, 2),
    lambda: gen_superposition2(9, 2),
    lambda: gen_weighted_hyperbolic(WeightSpec.inverse_square(), 40, 12),
])
def test_column_statistics_match_a_per_column_split(make):
    # spans and the per-column views, cut from the column starts by reduceat,
    # against a per-column split of the entries.
    I = make()
    spans, columns = _split_columns(I)
    assert I.spans.tolist() == spans
    for t in range(I.d):
        r, v, bound = I.nonzeros(t)
        assert (r.tolist(), v.tolist(), bound) == columns[t] and type(bound) is int
        assert not r.flags.writeable and not v.flags.writeable


def test_row_norms():
    I = FrequencySet([(0, 0, 3), (1, 0, -2), (0, 0, 0), (-1, 5, 0)])
    assert I.row_norms.tolist() == [6, 0, 3, 3]  # rows in natural order
    assert I.row_norms is I.row_norms
    assert not I.row_norms.flags.writeable
    assert I.row_norms.dtype == np.int64


def test_prefix_classes():
    # Births (0, 2, 1, 0, 1): row 2 first differs from row 1 in column 1.
    I = FrequencySet([(-1, 0, 0), (-1, 0, 4), (-1, 2, 0), (0, 0, 0), (0, 3, 3)])
    order, counts, birth = I.prefix_classes
    assert birth.tolist() == [0, 2, 1, 0, 1]
    assert order.tolist() == [0, 3, 2, 4, 1]  # stable: set order within a birth
    assert counts.tolist() == [2, 4, 5]
    assert I.prefix_classes is I.prefix_classes
    assert not any(a.flags.writeable for a in I.prefix_classes)
    # counts[t] is the number of distinct length-(t + 1) prefixes, and
    # order[:counts[t]], the rows born at or before t, holds the first row of
    # each; a row's birth is the first column where it differs from the row before.
    for I in (gen_axis_cross(5, 3), gen_cube(3, 2), gen_superposition2(5, 2),
              gen_weighted_hyperbolic(WeightSpec.inverse_square(), 30, 6), FrequencySet([(7,)])):
        order, counts, birth = I.prefix_classes
        A = I.array
        assert birth[0] == 0
        assert birth[1:].tolist() == [int(np.flatnonzero(a != b)[0]) for a, b in zip(A[1:], A[:-1])]
        for t in range(I.d):
            assert counts[t] == len(FrequencySet(A[:, : t + 1]))
            starts = np.flatnonzero(np.r_[True, np.any(A[1:, : t + 1] != A[:-1, : t + 1], axis=1)])
            assert sorted(order[: counts[t]].tolist()) == starts.tolist()
            assert np.flatnonzero(birth <= t).tolist() == starts.tolist()


@st.composite
def _row_lists(draw):
    """Rows of one width in any order, with duplicates, the zero row, all-zero
    columns and components at +-COMPONENT_LIMIT mixed in (d = 1 and a single
    row among them)."""
    d = draw(st.integers(1, 5))
    component = st.one_of(st.integers(-3, 3), st.sampled_from([COMPONENT_LIMIT, -COMPONENT_LIMIT]))
    rows = draw(st.lists(st.tuples(*[component] * d), min_size=1, max_size=25))
    if draw(st.booleans()):
        rows.append((0,) * d)
    zero_columns = draw(st.sets(st.integers(0, d - 1), max_size=d))
    rows = [tuple(0 if t in zero_columns else v for t, v in enumerate(k)) for k in rows]
    if draw(st.booleans()):
        rows += draw(st.permutations(rows))
    return rows


def _text(rows):
    """Set-file text of rows in the given order, one str(int) per component."""
    return "".join(" ".join(map(str, k)) + "\n" for k in rows)


def _read_through_pipe(data: bytes):
    """read_set on a pipe that a thread fills with data."""
    r, w = os.pipe()

    def fill():
        with open(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=fill)
    writer.start()
    try:
        return read_set(f"/dev/fd/{r}")
    finally:
        os.close(r)  # a writer still blocked then fails instead of hanging
        writer.join(timeout=30)
        assert not writer.is_alive()


@settings(max_examples=150, deadline=None)
@given(_row_lists())
@example([(COMPONENT_LIMIT,)])
@example([(0, -COMPONENT_LIMIT, 0), (0, -COMPONENT_LIMIT, 0), (0, 0, 0), (0, 2, 0)])
def test_store_only_set_matches_python_reference(tmp_path_factory, rows):
    # Every reader of the store against sorted(set(rows)) in plain Python.
    want = sorted(set(rows))
    n, d = len(want), len(want[0])
    I = FrequencySet(rows)
    assert (len(I), I.d) == (n, d)
    assert I.items == list(I) == want
    assert all(k in I for k in want)
    assert all(k not in I for k in [(1,) * d, (COMPONENT_LIMIT - 1,) * d, (2, -2) * d] if k not in want)
    assert I == FrequencySet(want[::-1]) and I != FrequencySet(want[:-1] or [(5,) * d])
    assert I.array.tolist() == [list(k) for k in want]
    rows_, cols, values = I.entries
    assert (rows_.dtype, cols.dtype, values.dtype) == (np.intp, np.intp, np.int32)
    assert list(zip(rows_.tolist(), cols.tolist(), values.tolist())) == [
        (j, t, k[t]) for t in range(d) for j, k in enumerate(want) if k[t]]
    for t in range(d):
        r, v, bound = I.nonzeros(t)
        assert r.tolist() == [j for j, k in enumerate(want) if k[t]]
        assert v.tolist() == [k[t] for k in want if k[t]]
        assert bound == max(abs(k[t]) for k in want)
    assert I.spans.tolist() == [[min(k[t] for k in want), max(k[t] for k in want)] for t in range(d)]
    assert I.row_norms.tolist() == [sum(map(abs, k)) for k in want]
    births = [0] + [next(t for t in range(d) if h[t] != k[t]) for h, k in zip(want, want[1:])]
    order, counts, birth = I.prefix_classes
    assert birth.tolist() == births
    assert order.tolist() == sorted(range(n), key=births.__getitem__)
    assert counts.tolist() == [sum(b <= t for b in births) for t in range(d)]
    # The bytes of the per-component writer, and the set back from them: by
    # the layout path, by the line rules (a comment first), through a pipe,
    # and from the rows as given, unsorted and duplicated.
    text = _text(want)
    assert "".join(format_set(I)) == text
    path = tmp_path_factory.mktemp("ref") / "set.txt"
    write_set(I, path)
    assert path.read_text() == text and read_set(path) == I
    path.write_text("# rows\n" + text)
    assert read_set(path) == I
    assert _read_through_pipe(text.encode()) == I
    path.write_text(_text(rows))
    assert read_set(path) == I


def test_unsorted_files_sort_through_one_dense_unique(tmp_path, monkeypatch):
    # A file out of natural order, or with a repeated row, is read into the
    # store as it comes and then sorted once through a dense np.unique.
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    monkeypatch.setattr(freqset_mod, "_CHUNK_BYTES", 4)  # a chunk per line
    for text, want in [("1 0\n0 1\n", [(0, 1), (1, 0)]), ("0 1\n0 1\n1 0\n", [(0, 1), (1, 0)]),
                       ("0 1\n1 0\n0 2\n", [(0, 1), (0, 2), (1, 0)])]:
        (tmp_path / "set.txt").write_text(text)
        calls.clear()
        assert read_set(tmp_path / "set.txt").items == want and calls == [1]
    (tmp_path / "set.txt").write_text("0 1\n0 2\n1 0\n")
    calls.clear()
    assert read_set(tmp_path / "set.txt").items == [(0, 1), (0, 2), (1, 0)] and calls == []


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)


def test_sets_hold_no_dense_array(tmp_path):
    # After every generator and read_set, what a set holds is its 1-D store,
    # the (d, 2) spans and the row norms: no (n, d) array.
    write_set(gen_superposition2(7, 2), tmp_path / "set.txt")
    for I in (gen_cube(3, 2), gen_axis_cross(4, 3), gen_superposition2(5, 2), read_set(tmp_path / "set.txt"),
              gen_weighted_hyperbolic(WeightSpec.inverse_square(), 30, 6), FrequencySet([(2, 1), (0, 3)])):
        I.row_norms  # cached on first use
        held = [a for slot in FrequencySet.__slots__ for a in _arrays(getattr(I, slot))]
        assert held and all(a.ndim == 1 or a is I.spans for a in held)
        assert I.spans.shape == (I.d, 2)


def test_axis_cross_at_scale():
    # d = 10,000: 1,280,001 rows, whose dense array would take 102 GB, and
    # 1,280,000 nonzeros, 25.6 MB in the store. tracemalloc read 40.5 MB.
    tracemalloc.start()
    try:
        I = gen_axis_cross(10000, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(I), I.d, I.entries[0].shape[0]) == (1_280_001, 10_000, 1_280_000)
    assert peak < 128 * 10**6
    assert initial_size(I, MODE_RECONSTRUCTION) == nextprime(len(I) ** 2)
    assert initial_size(I, MODE_INTEGRATION) == nextprime(2 * (len(I) + 1))


def test_construction_copies_ndarray_input():
    for rows in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):  # sorted, unsorted
        buf = np.array(rows, dtype=np.int64)
        I = FrequencySet(buf)
        buf[0, 0] = 9  # the caller's buffer stays writable ...
        assert I.items == [(0, 1), (1, 0)]  # ... and the set does not see the write


def test_construction_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        FrequencySet([])
    with pytest.raises(ValueError):
        FrequencySet([(1, 2), (3,)])


@pytest.mark.parametrize("rows", [
    [(1.5, 2), (0.2, 0)],  # was truncated to [(0, 0), (1, 2)]
    [(1, 2), (3, 4.0)],  # one float makes the whole array float
    np.array([[1.0, 2.0]]),
    [(True, False)],
    np.array([[True, False]]),
    [("1", "2")],
    [("x", 0)],
    [(2**63, 0)],  # past int64: numpy reads it as uint64
    [(2**80, 0)],
    [(-2**63 - 1, 0)],
], ids=["floats", "one-float", "float-array", "bools", "bool-array", "digit-strings",
        "strings", "uint64", "huge", "below-int64"])
def test_construction_rejects_non_integers(rows):
    with pytest.raises(ValueError, match="invalid frequency data"):
        FrequencySet(rows)


def test_construction_accepts_narrow_integer_arrays():
    for dtype in (np.int8, np.int32, np.uint8, np.uint32):
        I = FrequencySet(np.array([[2, 1], [0, 3]], dtype=dtype))
        assert I.array.dtype == np.int64 and I.items == [(0, 3), (2, 1)]
    with pytest.raises(ValueError, match="at least one frequency"):
        FrequencySet(np.zeros((0, 2), dtype=np.float64))  # empty keeps its own message


def test_component_limit():
    lim = 2**31 - 1
    FrequencySet([(lim,), (-lim,)])
    with pytest.raises(ValueError):
        FrequencySet([(lim + 1,)])
    with pytest.raises(ValueError):
        FrequencySet([(-lim - 1,)])
    with pytest.raises(ValueError):
        FrequencySet([(2**80,)])


def test_array_is_readonly():
    I = FrequencySet([(1, 2)])
    with pytest.raises(ValueError):
        I.array[0, 0] = 5


def test_membership_and_equality():
    I = FrequencySet([(0, 0), (1, 2)])
    assert (1, 2) in I
    assert (2, 1) not in I
    assert np.array([1, 2], dtype=np.int32) in I
    for k in [(1.5, 2), (1.0, 2), ("x", 0), ("1", "2"), (2**80, 0), (1, 2, 0), (1,),
              ((1, 2), (0, 0)), 1, "12"]:
        assert k not in I, k
    cross = gen_axis_cross(2, 1)
    assert (1, 0) in cross and (1.5, 0) not in cross and (0.5, 0) not in cross
    assert (True, False) not in cross
    # A bool among integers is no member either, though numpy reads True as 1.
    for k in [(True, 2), (1, np.True_), [True, 2]]:
        assert k not in I, k
    assert (1, 0) in cross and (True, 0) not in cross
    assert I == FrequencySet([(1, 2), (0, 0)])
    assert I != FrequencySet([(1, 2)])


# --- generators: frozen cardinalities ----------------------------------

def test_cube_small_cases():
    assert FrequencySet([(-1,), (0,), (1,)]) == gen_cube(1, 1)
    assert gen_cube(2, 0).items == [(0, 0)]
    assert len(gen_cube(3, 8)) == 17**3 == 4913


def test_axis_cross_cases():
    assert len(gen_axis_cross(3, 8)) == 49
    assert gen_axis_cross(1, 5) == gen_cube(1, 5)
    assert len(gen_axis_cross(5, 64)) == 641
    assert gen_axis_cross(2, 0).items == [(0, 0)]


def test_superposition_cases():
    assert len(gen_superposition2(3, 8)) == 817
    assert gen_superposition2(2, 1) == gen_cube(2, 1)
    assert len(gen_superposition2(4, 2)) == 113
    with pytest.raises(ValueError):
        gen_superposition2(1, 4)


def test_superposition_matches_membership_predicate():
    # Brute-force recount: at most two nonzero components, each within [-N, N].
    for d, N in [(2, 3), (3, 2), (4, 2)]:
        expected = [k for k in itertools.product(range(-N, N + 1), repeat=d)
                    if sum(1 for v in k if v != 0) <= 2]
        assert gen_superposition2(d, N).items == sorted(expected)


def test_axis_cross_matches_membership_predicate():
    for d, N in [(2, 4), (3, 3)]:
        expected = [k for k in itertools.product(range(-N, N + 1), repeat=d)
                    if sum(1 for v in k if v != 0) <= 1]
        assert gen_axis_cross(d, N).items == sorted(expected)


def test_family_inclusion_chain():
    for d in range(2, 5):
        for N in range(0, 5):
            ax = set(gen_axis_cross(d, N))
            sup = set(gen_superposition2(d, N))
            cube = set(gen_cube(d, N))
            assert ax <= sup <= cube


# --- weighted hyperbolic cross ------------------------------------------

def test_hyperbolic_counts_inverse_square():
    assert len(gen_weighted_hyperbolic(WeightSpec.inverse_square(), 100, 10)) == 963
    assert len(gen_weighted_hyperbolic(WeightSpec.inverse_square(), 400, 20)) == 6003


def test_hyperbolic_threshold_one():
    I = gen_weighted_hyperbolic(WeightSpec.inverse_square(), 1, 5)
    assert I.items == [(-1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 0)]


def whc_oracle(gamma_fn, threshold, dmax):
    """Brute force over the per-coordinate bounding box, exact rationals."""
    thr = Fraction(threshold)
    bounds = [int(thr * gamma_fn(j)) for j in range(1, dmax + 1)]
    out = []
    for k in itertools.product(*[range(-b, b + 1) for b in bounds]):
        w = Fraction(1)
        for j, v in enumerate(k, start=1):
            w *= max(Fraction(1), Fraction(abs(v)) / gamma_fn(j))
        if w <= thr:
            out.append(k)
    return sorted(out)


def test_hyperbolic_matches_bruteforce_small():
    for thr, dmax in [(1, 3), (4, 3), (10, 3), (25, 4)]:
        got = gen_weighted_hyperbolic(WeightSpec.inverse_square(), thr, dmax)
        assert got.items == whc_oracle(lambda j: Fraction(1, j * j), thr, dmax)


def test_hyperbolic_explicit_weights():
    w = WeightSpec.explicit([1, Fraction(1, 2)])
    got = gen_weighted_hyperbolic(w, 2, 2)
    gammas = {1: Fraction(1), 2: Fraction(1, 2)}
    assert got.items == whc_oracle(lambda j: gammas[j], 2, 2)


@pytest.mark.parametrize("weights, threshold, dmax", [
    (WeightSpec.inverse_square(), 10, 12),
    (WeightSpec.explicit([1, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]), 6, 5),
], ids=["inverse-square", "tied-explicit"])
def test_hyperbolic_pruned_descent_matches_bruteforce(weights, threshold, dmax, monkeypatch):
    # dmax runs well past the last coordinate with a nonzero bound (j^-2), or
    # the tied weights make the bound reach 0 at different depths per branch.
    got = gen_weighted_hyperbolic(weights, threshold, dmax)
    assert got.items == whc_oracle(weights.gamma, threshold, dmax)
    # The cap counts the nonzero components of the same rows, which the set stores.
    nonzeros = got.entries[0].shape[0]
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", nonzeros)
    assert gen_weighted_hyperbolic(weights, threshold, dmax) == got
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", nonzeros - 1)
    with pytest.raises(ValueError, match="size cap"):
        gen_weighted_hyperbolic(weights, threshold, dmax)


def test_hyperbolic_cap_counts_nonzeros(monkeypatch):
    # The cap counts the nonzero components the set will store, as the other
    # generators count them: fewer rows than the cap but more nonzeros is
    # refused, and the enumeration stops at the first chunk past the cap
    # instead of exhausting memory.
    w = WeightSpec.explicit([1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
                            + [Fraction(1, 4)] * 20)
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", 24 * 1000)
    with pytest.raises(ValueError, match="gen_weighted_hyperbolic exceeds the size cap"):
        gen_weighted_hyperbolic(w, 1000, 24)
    small = gen_weighted_hyperbolic(WeightSpec.inverse_square(), 4, 3)
    nonzeros = small.entries[0].shape[0]
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", nonzeros - 1)
    assert len(small) < freqset_mod.SIZE_CAP
    with pytest.raises(ValueError, match="size cap"):
        gen_weighted_hyperbolic(WeightSpec.inverse_square(), 4, 3)
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", nonzeros)
    assert gen_weighted_hyperbolic(WeightSpec.inverse_square(), 4, 3) == small


def _whc_fraction_descent(weights, threshold, dmax):
    """The generator's depth-first descent with a Fraction budget per node:
    the reference for its budget in integer numerator and denominator."""
    gammas = [weights.gamma(j) for j in range(1, dmax + 1)]
    rows, buf = [], [0] * dmax

    def descend(j, budget):
        bound = int(budget * gammas[j]) if j < dmax else 0
        if bound == 0:
            rows.append(tuple(buf))
            return
        for k in range(-bound, bound + 1):
            buf[j] = k
            descend(j + 1, budget / max(1, Fraction(abs(k)) / gammas[j]))
        buf[j] = 0

    descend(0, Fraction(threshold))
    return rows


def _whc_weight(weights, k):
    w = Fraction(1)
    for j, v in enumerate(k, start=1):
        w *= max(1, Fraction(abs(v)) / weights.gamma(j))
    return w


@pytest.mark.parametrize("weights", [
    WeightSpec.inverse_square(),
    WeightSpec.explicit([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 3), Fraction(1, 5)]),
    WeightSpec.explicit([Fraction(3, 2), Fraction(5, 4), Fraction(1, 5), Fraction(1, 9)]),
], ids=["inverse-square", "explicit", "explicit-above-one"])
def test_hyperbolic_integer_budget_matches_fraction_descent(weights, monkeypatch):
    # The rows in the order the generator emits them, block by block, which
    # must be natural: the set takes the entries of those blocks as its own,
    # with no re-sort.
    blocks, emitted = [], []
    add, of = freqset_mod._RowBlocks.add, FrequencySet._of
    monkeypatch.setattr(freqset_mod._RowBlocks, "add",
                        lambda self, block: blocks.append(block.tolist()) or add(self, block))
    monkeypatch.setattr(FrequencySet, "_of", lambda *store: emitted.append(store) or of(*store))
    monkeypatch.setattr(np, "unique", lambda *a, **kw: pytest.fail("re-sorted"))
    on_boundary = 0
    for thr in (1, 3, 36, 50, Fraction(77, 3), Fraction(401, 2)):
        want = _whc_fraction_descent(weights, thr, 4)
        blocks.clear()
        I = gen_weighted_hyperbolic(weights, thr, 4)
        assert I.entries[0] is emitted[-1][2] and I.entries[1] is emitted[-1][3]
        assert [tuple(row) for block in blocks for row in block] == want == sorted(want)
        assert I.items == want
        row_weights = [_whc_weight(weights, k) for k in want]
        assert max(row_weights) <= thr
        # rows whose weight is the threshold exactly: the budget reaches 1
        on_boundary += row_weights.count(thr)
    assert on_boundary > 0
    assert len(emitted) == 6


@pytest.mark.parametrize("weights, threshold, dmax", [
    (WeightSpec.inverse_square(), 200, 14),
    (WeightSpec.inverse_square(), 8, 3),
    (WeightSpec.explicit([1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
                         + [Fraction(1, 4)] * 20), 20, 24),
    (WeightSpec.explicit([Fraction(3, 2), Fraction(5, 4), Fraction(1, 5), Fraction(1, 9)]),
     Fraction(401, 2), 4),
], ids=["whc-roundtrip", "whc-warm", "explicit-24", "explicit-above-one"])
def test_hyperbolic_chunks_match_one_chunk(weights, threshold, dmax, monkeypatch):
    # The rows' nonzeros are collected one chunk of _CHUNK_CELLS components
    # at a time: chunks of one row, of 3 rows and of all rows (the first and
    # last leave no partial chunk at the end) give the same set and store.
    whole = gen_weighted_hyperbolic(weights, threshold, dmax)
    n, nonzeros = len(whole), whole.entries[0].shape[0]
    for rows in (1, 3, n):
        monkeypatch.setattr(freqset_mod, "_CHUNK_CELLS", rows * dmax)
        got = gen_weighted_hyperbolic(weights, threshold, dmax)
        assert np.array_equal(got.array, whole.array)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got.entries, whole.entries))
        # The cap still counts every nonzero, whichever chunk holds the last row.
        monkeypatch.setattr(freqset_mod, "SIZE_CAP", nonzeros - 1)
        with pytest.raises(ValueError, match="size cap"):
            gen_weighted_hyperbolic(weights, threshold, dmax)
        monkeypatch.setattr(freqset_mod, "SIZE_CAP", nonzeros)
        assert len(gen_weighted_hyperbolic(weights, threshold, dmax)) == n


def test_hyperbolic_refuses_components_past_the_limit(monkeypatch):
    # floor(threshold gamma_1) is the largest component: past COMPONENT_LIMIT
    # the set is refused at once, before any row is enumerated.
    w = WeightSpec.explicit([Fraction(1, 2)])
    with pytest.raises(ValueError, match="frequency components must satisfy"):
        gen_weighted_hyperbolic(w, 2 * COMPONENT_LIMIT + 2, 1)
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", 1000)
    with pytest.raises(ValueError, match="size cap"):
        gen_weighted_hyperbolic(w, 2 * COMPONENT_LIMIT + 1, 1)


def test_hyperbolic_weights_above_one_match_bruteforce():
    # A weight above 1 leaves |k| <= gamma_j at factor 1: such a coordinate
    # does not raise the budget of the coordinates after it.
    w = WeightSpec.explicit([Fraction(3, 2), Fraction(3, 2)])
    assert (1, 2) not in gen_weighted_hyperbolic(w, 1, 2)
    for thr in (1, 2, Fraction(7, 3)):
        got = gen_weighted_hyperbolic(w, thr, 2)
        assert got.items == whc_oracle(w.gamma, thr, 2)
    w = WeightSpec.explicit([2, Fraction(3, 2), Fraction(5, 4), Fraction(1, 2)])
    for thr in (1, 3, Fraction(9, 2)):
        assert gen_weighted_hyperbolic(w, thr, 4).items == whc_oracle(w.gamma, thr, 4)


def test_hyperbolic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gen_weighted_hyperbolic(WeightSpec.inverse_square(), 0, 3)
    with pytest.raises(ValueError):
        gen_weighted_hyperbolic(WeightSpec.inverse_square(), Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        # explicit list covers fewer coordinates than dmax
        gen_weighted_hyperbolic(WeightSpec.explicit([1]), 4, 2)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec.explicit([])
    with pytest.raises(ValueError):
        WeightSpec.explicit([1, 2])  # increasing
    with pytest.raises(ValueError):
        WeightSpec.explicit([1, 0])
    with pytest.raises(ValueError):
        WeightSpec("no-such-kind")
    # A string is not read character by character as weights.
    for text in ["21", "1/2", b"21"]:
        with pytest.raises(ValueError, match=f"not {type(text).__name__}"):
            WeightSpec(text)
    assert WeightSpec.inverse_square().gamma(3) == Fraction(1, 9)
    assert WeightSpec.inverse_square() == WeightSpec() and WeightSpec().gammas is None
    # The constructor and explicit() both hold the weights as a tuple of Fractions.
    w = WeightSpec((1, 0.5, "1/4"))
    assert w == WeightSpec.explicit([1, Fraction(1, 2), Fraction(1, 4)])
    assert w.gammas == (1, Fraction(1, 2), Fraction(1, 4))
    assert all(type(g) is Fraction for g in w.gammas)
    assert w.gamma(2) == Fraction(1, 2)
    with pytest.raises(ValueError, match="cover only 3"):
        w.gamma(4)
    with pytest.raises(ValueError, match="1-based"):
        w.gamma(0)


# --- difference sets ------------------------------------------------------

def test_difference_set_examples():
    I = FrequencySet([(0, 0), (1, 0)])
    assert difference_set(I).items == [(-1, 0), (0, 0), (1, 0)]
    single = FrequencySet([(3, -2)])
    assert difference_set(single).items == [(0, 0)]
    assert len(difference_set(gen_axis_cross(3, 8))) == 865


def test_difference_set_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 12))
        I = FrequencySet(rng.integers(-6, 7, size=(n, d)))
        D = difference_set(I)
        arr = D.array
        assert (0,) * d in D
        neg = FrequencySet(-arr)
        assert neg == D


def test_halved_axis_cross_differences_sit_in_superposition():
    for d, N in [(2, 5), (3, 8), (4, 7), (2, 1)]:
        D = difference_set(gen_axis_cross(d, N // 2))
        sup = set(gen_superposition2(d, N))
        assert set(D) <= sup


# --- expansion / max_abs -------------------------------------------------

def test_expansion_examples():
    assert expansion(FrequencySet([(0, 0), (1, 0)])) == 1
    assert expansion(gen_cube(2, 8)) == 16
    assert expansion(FrequencySet([(-3, 5), (2, 5)])) == 5
    assert expansion(FrequencySet([(4, 4)])) == 0


def test_max_abs_examples():
    assert max_abs(FrequencySet([(0, 0, 0)])) == 0
    assert max_abs(gen_cube(3, 8)) == 8
    assert max_abs(FrequencySet([(-9, 2)])) == 9


def test_expansion_at_most_twice_max_abs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 15))
        I = FrequencySet(rng.integers(-9, 10, size=(n, d)))
        assert expansion(I) <= 2 * max_abs(I)


# --- size caps -------------------------------------------------------------

def test_size_caps(monkeypatch):
    # Each guard reads freqset.SIZE_CAP at call time. The generators count the
    # nonzero components they will store, difference_set the cells it builds.
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", 100)
    with pytest.raises(ValueError):
        gen_cube(2, 8)
    with pytest.raises(ValueError):
        gen_weighted_hyperbolic(WeightSpec.inverse_square(), 100, 10)
    with pytest.raises(ValueError):
        difference_set(gen_cube(2, 2))
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", 10)
    with pytest.raises(ValueError):
        gen_axis_cross(3, 10)
    with pytest.raises(ValueError):
        gen_superposition2(3, 3)
    # A cap of exactly the stated count passes; one less raises. Nonzeros:
    # 2 * 4 * 5 in the cube, 2 d N in the axis cross, and 2 d N (1 + 2 (d - 1) N)
    # in the superposition (6 rows with one nonzero, 12 with two).
    I = gen_cube(1, 1)
    for make, n in [(lambda: gen_cube(2, 2), 40), (lambda: gen_axis_cross(3, 2), 12),
                    (lambda: gen_superposition2(3, 1), 30), (lambda: difference_set(I), 9)]:
        monkeypatch.setattr(freqset_mod, "SIZE_CAP", n)
        make()
        monkeypatch.setattr(freqset_mod, "SIZE_CAP", n - 1)
        with pytest.raises(ValueError, match="size cap"):
            make()
    monkeypatch.undo()
    # default cap refuses the absurd without enumerating it
    with pytest.raises(ValueError):
        gen_cube(12, 8)


_WHC_24 = WeightSpec.explicit([1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)] + [Fraction(1, 4)] * 20)


@pytest.mark.parametrize("make, cap, bound", [
    # 80,001 rows, within a cap on rows, but 159,600 nonzeros; 128 MB as a dense array.
    (lambda: gen_superposition2(200, 1), 159_599, 100_000),
    (lambda: gen_superposition2(1000, 1), 1000, 100_000),  # 16 GB as a dense array
    (lambda: gen_axis_cross(10000, 64), 1000, 100_000),    # 102 GB dense
    (lambda: gen_cube(12, 2), 1000, 100_000),
    (lambda: gen_weighted_hyperbolic(_WHC_24, 1000, 24), 1000, 4_000_000),  # stops after one chunk
    (lambda: difference_set(gen_axis_cross(3, 5)), 1000, 100_000),
], ids=["superposition", "superposition-wide", "axis-cross", "cube", "hyperbolic", "difference"])
def test_size_caps_refuse_before_allocating(monkeypatch, make, cap, bound):
    # Under a cap below what a set would store, each source refuses before it
    # allocates that much: the closed forms and difference_set at once, the
    # hyperbolic enumeration after one chunk of rows.
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", cap)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size cap"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_difference_set_cap_counts_cells(monkeypatch):
    # difference_set builds the n^2 differences as one dense (n^2, d) array,
    # so its cap counts n^2 d cells: 49 rows of 3 components here.
    I = gen_axis_cross(3, 1)
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", 49 * 3)
    assert len(difference_set(I)) == 25
    monkeypatch.setattr(freqset_mod, "SIZE_CAP", 49 * 3 - 1)
    with pytest.raises(ValueError, match="difference_set exceeds the size cap"):
        difference_set(I)


# --- file I/O -------------------------------------------------------------

def test_read_set_takes_the_parsed_rows_without_a_copy(tmp_path, monkeypatch):
    # The byte parse's fresh array becomes the set's own; only the
    # line-by-line path converts (and so copies) its rows.
    I = gen_superposition2(4, 2)
    write_set(I, tmp_path / "set.txt")
    converted = []
    integers = freqset_mod._integers
    monkeypatch.setattr(freqset_mod, "_integers", lambda v: converted.append(1) or integers(v))
    J = read_set(tmp_path / "set.txt")
    assert J == I and converted == []
    assert not J.array.flags.writeable
    (tmp_path / "other.txt").write_text("# a comment\n" + (tmp_path / "set.txt").read_text())
    assert read_set(tmp_path / "other.txt") == I and converted == [1]


def test_write_then_read_round_trip(tmp_path):
    I = gen_superposition2(3, 2)
    path = tmp_path / "set.txt"
    write_set(I, path)
    assert read_set(path) == I
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(I)


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("# a comment\n\n1 2\n-3 4\n\n# trailing\n")
    assert read_set(path).items == [(-3, 4), (1, 2)]


def test_read_rejects_malformed(tmp_path):
    bad1 = tmp_path / "a.txt"
    bad1.write_text("1 x\n")
    with pytest.raises(ValueError, match=r"a\.txt:1: malformed frequency line '1 x'"):
        read_set(bad1)
    bad2 = tmp_path / "b.txt"
    bad2.write_text("1 2\n3\n")
    with pytest.raises(ValueError, match=r"b\.txt:2: expected 2 components, got 1"):
        read_set(bad2)
    bad3 = tmp_path / "c.txt"
    bad3.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no frequencies found"):
        read_set(bad3)
    bad4 = tmp_path / "d.txt"
    bad4.write_text(f"{2**40}\n")
    with pytest.raises(ValueError):
        read_set(bad4)
    # the first offending line is named, past comments and blank lines
    bad5 = tmp_path / "e.txt"
    bad5.write_text("1 2\n\n# c\n3 4\n5\n6\n7 y\n")
    with pytest.raises(ValueError, match=r"e\.txt:5: expected 2 components, got 1"):
        read_set(bad5)
    bad6 = tmp_path / "f.txt"
    bad6.write_text(f"1 2\n{2**70} 3\n")
    with pytest.raises(ValueError):
        read_set(bad6)
    # bytes that are not UTF-8 name the file and their line, any line ending
    bad7 = tmp_path / "g.txt"
    for data, line in [(b"\xff 1\n", 1), (b"1 2\n\xff 3\n", 2), (b"1 2\r3 4\r\n5 \xc3\n", 3),
                       (b"# \xe9\n1 2\n", 1)]:
        bad7.write_bytes(data)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad7))}:{line}: not UTF-8"):
            read_set(bad7)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-50, 50)] * d), min_size=1, max_size=30)))
def test_round_trip_random_sets(tmp_path_factory, rows):
    I = FrequencySet(rows)
    path = tmp_path_factory.mktemp("io") / "set.txt"
    write_set(I, path)
    assert read_set(path) == I


def _per_element_write(I, path):
    """write_set as it was before chunked formatting: one str(int(v)) per component."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in I.array:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")


_WRITE_CASES = {
    "cube": lambda: gen_cube(3, 2),
    "axiscross": lambda: gen_axis_cross(10, 64),
    "anova2": lambda: gen_superposition2(60, 1),
    "whc": lambda: gen_weighted_hyperbolic(WeightSpec.inverse_square(), 200, 14),
    "whc-explicit": lambda: gen_weighted_hyperbolic(WeightSpec.explicit([1, Fraction(1, 2)]), 5, 2),
    "difference": lambda: difference_set(gen_axis_cross(3, 5)),
    "component-limit": lambda: FrequencySet([(COMPONENT_LIMIT, -COMPONENT_LIMIT, 0),
                                             (-COMPONENT_LIMIT, 7, COMPONENT_LIMIT),
                                             (0, 0, -1)]),
    "single-column": lambda: FrequencySet([(-2,), (0,), (9,)]),
}


@pytest.mark.parametrize("name", sorted(_WRITE_CASES))
def test_write_set_bytes_match_per_element_writer(tmp_path, name):
    I = _WRITE_CASES[name]()
    write_set(I, tmp_path / "new.txt")
    _per_element_write(I, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_write_set_bytes_match_across_chunks(tmp_path):
    # Just over one default chunk of wide rows, components up to the limit.
    rng = np.random.default_rng(11)
    n = freqset_mod._CHUNK_CELLS // 256 + 4
    I = FrequencySet(rng.integers(-COMPONENT_LIMIT, COMPONENT_LIMIT + 1, size=(n, 256)))
    assert len(I) * I.d > freqset_mod._CHUNK_CELLS
    assert len(list(freqset_mod.format_set(I))) == 2
    write_set(I, tmp_path / "new.txt")
    _per_element_write(I, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


@pytest.mark.parametrize("cells", [1, 2, 5, 6, 7, 1000])
def test_write_set_small_chunks(tmp_path, monkeypatch, cells):
    # Chunk caps below d, not a multiple of d, and above |I| d.
    monkeypatch.setattr(freqset_mod, "_CHUNK_CELLS", cells)
    I = gen_superposition2(3, 2)
    write_set(I, tmp_path / "new.txt")
    _per_element_write(I, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


def test_format_set_memory_stays_within_a_chunk():
    # In tracemalloc the %-format this replaced peaked at 15.3 MB on the cube,
    # the byte passes at 3.2 MB: one dense block of rows, taken from the store,
    # and its temporaries. On the wide axis cross the set's dense array would
    # take 16 MB.
    for I in (gen_cube(5, 5), gen_axis_cross(500, 4)):
        tracemalloc.start()
        try:
            for _ in freqset_mod.format_set(I):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def _signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


# Every digit count from 1 to 10, and the values where the count changes.
_EDGES = sorted({0, 9, 10, COMPONENT_LIMIT, *(10**p + e for p in range(1, 10) for e in (-1, 0, 1))})
_component = _signed(st.one_of(
    st.integers(1, 10).flatmap(lambda n: st.integers(10**(n - 1) - (n == 1),
                                                     min(10**n - 1, COMPONENT_LIMIT))),
    st.sampled_from(_EDGES)))


@st.composite
def _formatted_set(draw):
    """Rows of one shape, and a chunk cap of 1, d - 1, d or d + 1 components or the default."""
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[_component] * d), min_size=1, max_size=12))
    shape = draw(st.sampled_from(["mixed", "single-row", "zero-row", "negative"]))
    if shape == "single-row":
        rows = rows[:1]
    elif shape == "zero-row":
        rows.append((0,) * d)
    elif shape == "negative":
        rows = [tuple(-max(abs(v), 1) for v in row) for row in rows]
    cap = draw(st.sampled_from([1, max(1, d - 1), d, d + 1, freqset_mod._CHUNK_CELLS]))
    return FrequencySet(rows), cap


@settings(max_examples=300, deadline=None)
@given(_formatted_set())
@example((FrequencySet([(COMPONENT_LIMIT,), (-COMPONENT_LIMIT,), (0,), (9,), (-10,)]), 1))
@example((FrequencySet([(0, 0, 0)]), 2))
@example((FrequencySet([(-1, -10, -100), (-9, -99, -999)]), 4))
def test_format_set_matches_per_element_writer(tmp_path_factory, case):
    I, cap = case
    path = tmp_path_factory.mktemp("fmt") / "old.txt"
    _per_element_write(I, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freqset_mod, "_CHUNK_CELLS", cap)
        assert "".join(freqset_mod.format_set(I)).encode("ascii") == path.read_bytes()


@st.composite
def _wide_sparse_set(draw):
    """Wide rows that are mostly zeros: edge components in the first and last
    columns, runs of adjacent nonzeros, all-zero rows; and a chunk cap."""
    d = draw(st.integers(2, 40))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        row = [0] * d
        kind = draw(st.sampled_from(["zero", "ends", "run", "scattered"]))
        if kind == "ends":
            row[0], row[-1] = draw(_signed(st.sampled_from(_EDGES))), draw(_signed(st.sampled_from(_EDGES)))
        elif kind == "run":
            at = draw(st.integers(0, d - 1))
            for t in range(at, min(d, at + draw(st.integers(1, 4)))):
                row[t] = draw(_component)
        elif kind == "scattered":
            for t in draw(st.lists(st.integers(0, d - 1), max_size=3)):
                row[t] = draw(_component)
        rows.append(tuple(row))
    cap = draw(st.sampled_from([1, 2, 5, 7, d, 3 * d - 1, freqset_mod._CHUNK_CELLS]))
    return FrequencySet(rows), cap


@settings(max_examples=200, deadline=None)
@given(_wide_sparse_set())
@example((FrequencySet([(COMPONENT_LIMIT,) + (0,) * 38 + (-COMPONENT_LIMIT,), (0,) * 40]), 7))
@example((FrequencySet([(0, -10, 99, -1000, 0), (0,) * 5, (-1, 0, 0, 0, 1)]), 2))
def test_format_set_matches_per_element_writer_on_wide_sparse_rows(tmp_path_factory, case):
    I, cap = case
    path = tmp_path_factory.mktemp("fmtw") / "old.txt"
    _per_element_write(I, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freqset_mod, "_CHUNK_CELLS", cap)
        assert "".join(freqset_mod.format_set(I)).encode("ascii") == path.read_bytes()


def test_format_set_memory_is_about_one_chunk_of_text():
    # A chunk of the d = 1,000 axis cross is 65 rows, 2 bytes per component
    # of text (130 KB). Formatting from the nonzeros peaked at 0.62 MB in
    # tracemalloc: the chunk's text as bytes, widened and as str, and the
    # previous chunk's str. Filling a dense block first peaked at 2.05 MB.
    I = gen_axis_cross(1000, 4)
    text = 2 * (freqset_mod._CHUNK_CELLS // I.d) * I.d
    tracemalloc.start()
    try:
        for _ in freqset_mod.format_set(I):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * text


@st.composite
def _read_chunking(draw):
    """A set, and a read chunk of 1 byte, one line, a size that cuts a line, or the default."""
    I, _ = draw(_formatted_set())
    line = "".join(freqset_mod.format_set(I)).index("\n") + 1
    size = draw(st.sampled_from([1, line, max(1, line // 2), line + 1,
                                 freqset_mod._CHUNK_BYTES]))
    return I, size


@settings(max_examples=300, deadline=None)
@given(_read_chunking())
@example((FrequencySet([(COMPONENT_LIMIT,), (-COMPONENT_LIMIT,), (0,), (9,), (-10,)]), 1))
@example((FrequencySet([(-1, -10, -100), (-9, -99, -999)]), 7))
@example((gen_superposition2(4, 1), 5))
def test_read_set_round_trips_through_the_byte_parse(tmp_path_factory, case):
    I, size = case
    path = tmp_path_factory.mktemp("rdb") / "set.txt"
    write_set(I, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freqset_mod, "_CHUNK_BYTES", size)
        blocks = freqset_mod._read_layout(path.read_bytes())  # the byte parse, not the line rules
        assert FrequencySet._of(*blocks.store()) == I
        assert read_set(path) == I


# Inputs outside write_set's layout: the byte parse refuses each, and read_set
# reads it by the line rules and the int() rescan.
_REFUSED = {
    "double-space": b"1  2\n3 4\n",
    "leading-space": b" 1 2\n3 4\n",
    "trailing-space": b"1 2 \n3 4\n",
    "tab": b"1\t2\n3 4\n",
    "crlf": b"1 2\r\n3 4\r\n",
    "no-final-newline": b"1 2\n3 4",
    "blank-line": b"1 2\n\n3 4\n",
    "comment": b"# c\n1 2\n",
    "plus": b"+1 2\n3 4\n",
    "inner-minus": b"1-2 3\n4 5\n",
    "double-minus": b"--1 2\n3 4\n",
    "lone-minus": b"- 2\n3 4\n",
    "trailing-minus": b"1 2-\n3 4\n",
    "short-last-lines": b"10 20\n30 40\n50\n60\n",
    "long-last-line": b"10 20\n30 40\n5 6 7\n",
    "short-first-line": b"1\n2 3\n",
    "19-digits": b"1 2\n" + b"1" * 19 + b" 3\n",
    "2**63": b"1 2\n%d 3\n" % 2**63,
    "-2**63-1": b"1 2\n%d 3\n" % (-2**63 - 1),
    "slash": b"1 2\n3 /\n",
    "colon": b"1 2\n3 :\n",
    "non-ascii-digit": "1 2\n3 \u0663\n".encode(),
    "empty": b"",
    "newline-only": b"\n",
    # Text mode ends lines at \n, \r\n and \r alone, and str.split() splits
    # on the rest of these; str.splitlines() would end lines at each.
    "form-feed": "1\x0c2\n3 4\n".encode(),
    "line-separator": "1\u20282\n3 4\n".encode(),
    "file-separator": "1 2\x1c\n3 4\n".encode(),
    "next-line": "1\x852\n3 4\n".encode(),
    "cr": b"1 2\r3 4\r",
}
# The longest components the byte parse still reads: 18 digits, with or without a sign.
_ACCEPTED = {
    "18-digits": (b"%d 1\n" % (10**18 - 1), [[10**18 - 1, 1]]),
    "minus-18-digits": (b"%d 1\n" % -(10**18 - 1), [[-(10**18 - 1), 1]]),
    "minus-17-digits": (b"1 %d\n" % -(10**17 - 7), [[1, -(10**17 - 7)]]),
    "leading-zeros": (b"007 -0\n-00 0012\n", [[7, 0], [0, 12]]),
}


@pytest.mark.parametrize("size", [1, 4, 1 << 17])
@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_byte_parse_refuses_other_text(tmp_path, monkeypatch, name, size):
    monkeypatch.setattr(freqset_mod, "_CHUNK_BYTES", size)
    data = _REFUSED[name]
    assert freqset_mod._read_layout(data) is None
    path = tmp_path / "set.txt"
    path.write_bytes(data)
    assert _read_or_error(path) == _read_by_int(path)


@pytest.mark.parametrize("size", [1, 4, 1 << 17])
@pytest.mark.parametrize("name", sorted(_ACCEPTED))
def test_byte_parse_reads_the_longest_components(tmp_path, monkeypatch, name, size):
    monkeypatch.setattr(freqset_mod, "_CHUNK_BYTES", size)
    data, rows = _ACCEPTED[name]
    # 18 digits pass the parse and fail the set's component limit.
    assert freqset_mod._chunk_rows(data, 2).tolist() == rows
    path = tmp_path / "set.txt"
    path.write_bytes(data)
    assert _read_or_error(path) == _read_by_int(path)


def test_read_set_memory_stays_within_a_chunk(tmp_path):
    # Beyond the nonzeros it collects (20 bytes each: int64 row and column,
    # int32 value), one chunk's temporaries: 1.1 MB here in tracemalloc. A
    # dense cube collects more than its (n, d) array; a wide sparse set far
    # less, and no block of it spans more than a chunk's lines.
    for I in (gen_cube(5, 5), gen_axis_cross(500, 4)):
        path = tmp_path / "set.txt"
        write_set(I, path)
        data = path.read_bytes()
        assert len(data) > 8 * freqset_mod._CHUNK_BYTES
        tracemalloc.start()
        try:
            blocks = freqset_mod._read_layout(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for part in blocks.parts for a in part)
        assert (blocks.n, blocks.nnz) == (len(I), I.entries[0].shape[0])
        assert held == sum(a.nbytes for a in I.entries)
        assert peak < held + 3_000_000
    assert peak < len(I) * I.d * 8 / 4  # the axis cross: 2.5 MB against its 16 MB dense array


def test_read_set_drops_the_bytes_before_the_copy(tmp_path):
    # The merge of the parsed nonzeros into the store sets read_set's peak
    # (29.3 MB here in tracemalloc): the joined entries, the sort order and
    # its buffer, and one reordered array, about twice the store's bytes.
    # The file's 2 MB of bytes still held then would raise it to 31.3 MB.
    path = tmp_path / "set.txt"
    I = gen_cube(5, 5)
    write_set(I, path)
    tracemalloc.start()
    try:
        J = read_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J == I
    assert peak < 2 * sum(a.nbytes for a in I.entries) + path.stat().st_size / 2


def _read_by_int(path):
    """read_set's result by the line-by-line int() parse alone, or the
    ValueError it raises."""
    with open(path, "r", encoding="utf-8") as fh:
        data = [s for s in (line.strip() for line in fh) if s and not s.startswith("#")]
    try:
        rows = [[int(p) for p in s.split()] for s in data]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("empty or ragged")
        return FrequencySet(rows)
    except ValueError:
        return ValueError


def _read_or_error(path):
    try:
        return read_set(path)
    except ValueError:
        return ValueError


_token = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 999).map(lambda v: "+" + str(v)),
    st.integers(0, 999).map(lambda v: "-" + str(v)),
    st.integers(0, 999).map(lambda v: "00" + str(v)),
    st.sampled_from(["-0", "+0", "0", "000", "-007", "+03"]),
    # int() accepts these and numpy does not, or neither does
    st.sampled_from(["1_0", "\u0663", "x", "1.0", "0x1", "#"]),
)
_sep = st.sampled_from([" ", "  ", "\t", " \t ", "   "])
_pad = st.sampled_from(["", " ", "\t", "  \t"])


@st.composite
def _set_file(draw):
    d = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "comment", "blank"]))
        if kind in ("row", "ragged"):
            n = d if kind == "row" else draw(st.integers(1, 5))
            tokens = draw(st.lists(_token, min_size=n, max_size=n))
            line = draw(_pad) + draw(_sep).join(tokens) + draw(_pad)
        elif kind == "comment":
            line = draw(_pad) + "# " + draw(st.sampled_from(["note", "1 2", "", "# x"]))
        else:
            line = draw(_pad)
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=200, deadline=None)
@given(_set_file())
def test_read_set_matches_int_parse(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("rd") / "set.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _read_or_error(path) == _read_by_int(path)


@pytest.mark.parametrize("text, rows", [
    ("1_000 2\n", [(1000, 2)]),
    ("\u0663 -1\n", [(3, -1)]),
    ("1 2\n-3 1_0\n", [(-3, 10), (1, 2)]),
], ids=["digit-separator", "arabic-indic-digit", "second-line"])
def test_read_set_accepts_what_int_accepts(tmp_path, text, rows):
    # numpy's parser rejects these; the int() rescan reads them as before.
    path = tmp_path / "set.txt"
    path.write_text(text, encoding="utf-8")
    assert read_set(path).items == rows


@pytest.mark.parametrize("value", [2**63, 2**70, -2**63 - 1])
def test_read_set_rejects_values_past_int64(tmp_path, value):
    path = tmp_path / "set.txt"
    path.write_text(f"1 2\n{value} 3\n")
    with pytest.raises(ValueError):
        read_set(path)


def test_read_set_names_a_bad_line_past_a_large_component(tmp_path, monkeypatch):
    # The layout parse hands each chunk to the store as it goes; a component
    # past COMPONENT_LIMIT in an early chunk still yields to a later line that
    # is not the layout, which the line rules then name.
    monkeypatch.setattr(freqset_mod, "_CHUNK_BYTES", 4)  # a chunk per line
    path = tmp_path / "set.txt"
    path.write_text(f"{COMPONENT_LIMIT + 1} 1\n1 2\n1 x\n")
    with pytest.raises(ValueError, match=r"set\.txt:3: malformed frequency line '1 x'"):
        read_set(path)
    path.write_text(f"{COMPONENT_LIMIT + 1} 1\n1 2\n")
    with pytest.raises(ValueError, match="frequency components must satisfy"):
        read_set(path)


def test_read_set_rejects_trailing_comment(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("0 0\n1 2 # c\n")
    with pytest.raises(ValueError, match=r"set\.txt:2: malformed frequency line '1 2 # c'"):
        read_set(path)
