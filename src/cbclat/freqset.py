"""Frequency sets: data model, generator families, difference sets, file I/O.

A frequency set is a finite set I of integer vectors k in Z^d, deduplicated and
sorted in the natural (lexicographic) order, which the incremental residue
bookkeeping downstream relies on. A set holds only its nonzero components,
column by column (FrequencySet.entries): O(nonzeros) memory however large d
is. The generators build that store directly, and read_set builds it from a
sorted file one chunk of lines at a time. Rows handed to FrequencySet, and
files, that are not in natural order are sorted and deduplicated through one
dense np.unique.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Guard against runaway enumerations, in the nonzero components a set will
# store (cells for difference_set, which is dense), read at call time.
SIZE_CAP = 10**8

# Components are capped so that v + y*k for residues v, y < M stays in int64
# for every M < 2^32 (lattice.exact_operand): it runs in int32 while
# M (max|k| + 1) < 2^31, in int64 while that is < 2^63, in Python ints beyond.
# A dot product k . z takes the same tiers with max ||k||_1 (cached row_norms).
COMPONENT_LIMIT = 2**31 - 1

# Components per chunk of rows: format_set's text, built from the chunk's
# nonzeros alone (about 2 bytes per component), the dense blocks of iteration
# and membership, and gen_weighted_hyperbolic's enumeration.
_CHUNK_CELLS = 1 << 16
_CHUNK_BYTES = 1 << 17  # bytes of whole lines per chunk of read_set's parse: bounds its memory
# 10..10^17: a parsed digit at place p weighs 10^p; a written component
# (|v| < 10^10) has 1 + #{p <= |v|} digits, counted against 10..10^9 alone.
_POW10 = 10 ** np.arange(1, 18, dtype=np.int64)


def _integers(values) -> np.ndarray | None:
    """values as an int64 array (an int64 array itself, not a copy), or None
    unless numpy reads them as integers that fit int64."""
    try:
        arr = np.asarray(values)
    except (ValueError, OverflowError):
        return None
    if arr.size and not (np.issubdtype(arr.dtype, np.integer) and np.can_cast(arr.dtype, np.int64)):
        return None
    return arr.astype(np.int64, copy=False)


def _int32(values: np.ndarray) -> np.ndarray:
    """values as int32, which holds every |k_t| <= COMPONENT_LIMIT exactly; a
    larger component is refused."""
    if values.size and (values.min() < -COMPONENT_LIMIT or values.max() > COMPONENT_LIMIT):
        raise ValueError(f"frequency components must satisfy |k_t| <= {COMPONENT_LIMIT}")
    return values.astype(np.int32, copy=False)


def _strictly_increasing(arr: np.ndarray) -> bool:
    """True iff the rows are in strictly increasing lexicographic order.

    O(n d): each pair of adjacent rows is compared at its first differing
    column (column 0 for equal rows, which then fail the strict test).
    """
    col = (arr[1:] != arr[:-1]).argmax(axis=1)
    rows = np.arange(col.shape[0])
    return bool(np.all(arr[1:][rows, col] > arr[:-1][rows, col]))


def _column_major(n: int, d: int, parts: list) -> tuple:
    """(n, d, rows, cols, values) of the n-row set whose entries come in parts,
    each column-major with its rows ascending and the parts in row order: one
    stable sort by column merges them (timsort takes each part as one run).
    parts is emptied as its arrays are joined, and the joined arrays are
    reordered one at a time, to keep the peak low."""
    if len(parts) == 1:
        return (n, d, *parts.pop())
    entries = [np.concatenate(a) for a in zip(*parts)]
    parts.clear()
    order = np.argsort(entries[1], kind="stable")
    for i in range(3):
        entries[i] = entries[i][order]
    return (n, d, *entries)


class _RowBlocks:
    """Collects a set's rows, handed over as dense (m, d) int64 blocks in
    order, as their nonzero entries: it holds O(nonzeros), and O(one block)
    more while it takes a block in."""

    def __init__(self):
        self.n = self.nnz = 0
        self.parts: list[tuple] = []
        self.last: list[int] = []  # the previous block's last row
        self.ordered = True

    def add(self, block: np.ndarray) -> None:
        # Python lists compare lexicographically, and [] is below every row.
        self.ordered = self.ordered and self.last < block[0].tolist() and _strictly_increasing(block)
        self.last = block[-1].tolist()
        cols, rows = np.nonzero(block.T)
        values = _int32(block.T[cols, rows])
        rows += self.n
        self.parts.append((rows, cols, values))
        self.n += block.shape[0]
        self.nnz += rows.shape[0]

    def store(self) -> tuple:
        """(n, d, rows, cols, values) of the set. Rows that came strictly
        increasing go into it as they are; any others are sorted and
        deduplicated through one dense np.unique."""
        n, d = self.n, len(self.last)
        if self.ordered:
            return _column_major(n, d, self.parts)
        dense = np.zeros((n, d), dtype=np.int64)
        for rows, cols, values in self.parts:
            dense[rows, cols] = values
        again = _RowBlocks()
        again.add(np.unique(dense, axis=0))
        return again.store()


class FrequencySet:
    """Deduplicated, lexicographically sorted set of frequency vectors, held
    as its nonzero components only (entries, O(nonzeros)); array materialises
    the rows in O(n d). Rows given already sorted go into the store as they
    are; any others are sorted through one dense np.unique."""

    __slots__ = ("_n", "_entries", "_nonzeros", "_spans", "_norms", "_classes")

    def __init__(self, rows):
        arr = _integers(rows)
        if arr is None:
            raise ValueError("invalid frequency data: expected integer vectors within int64")
        if arr.ndim != 2:
            raise ValueError("expected a sequence of equal-length frequency vectors")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("frequency set must contain at least one frequency, d >= 1")
        blocks = _RowBlocks()
        blocks.add(arr)
        self._own(*blocks.store())

    @classmethod
    def _of(cls, n: int, d: int, rows: np.ndarray, cols: np.ndarray, values) -> "FrequencySet":
        """The set of n rows in d columns whose nonzero components are given
        column by column, in set order within one, by a builder of the package
        that emits natural order: taken as they are, with no copy."""
        I = cls.__new__(cls)
        I._own(n, d, rows, cols, values)
        return I

    def _own(self, n: int, d: int, rows: np.ndarray, cols: np.ndarray, values) -> None:
        # int32 values are exact_operand's narrowest tier, which then takes
        # them without a copy.
        values = _int32(values)
        for a in (rows, cols, values):
            a.setflags(write=False)
        starts = np.searchsorted(cols, np.arange(d + 1))
        counts = np.diff(starts)
        spans = np.zeros((d, 2), dtype=np.int64)
        some = counts > 0  # reduceat would take values[start] for an empty column
        if some.any():
            spans[some, 0] = np.minimum.reduceat(values, starts[:-1][some])
            spans[some, 1] = np.maximum.reduceat(values, starts[:-1][some])
        zero = counts < n  # 0 is in the range iff a row is 0 in the column
        spans[zero, 0] = np.minimum(spans[zero, 0], 0)
        spans[zero, 1] = np.maximum(spans[zero, 1], 0)
        spans.setflags(write=False)
        cuts = starts.tolist()
        bounds = np.maximum(-spans[:, 0], spans[:, 1]).tolist()
        self._n = n
        self._nonzeros = tuple((rows[a:b], values[a:b], bound)
                               for a, b, bound in zip(cuts, cuts[1:], bounds))
        self._spans = spans
        self._entries = rows, cols, values
        self._norms = self._classes = None

    @property
    def d(self) -> int:
        return len(self._nonzeros)

    @property
    def array(self) -> np.ndarray:
        """The frequencies in natural order as a new, read-only (n, d) int64
        array: O(n d) memory, which the set does not keep."""
        rows, cols, values = self._entries
        out = np.zeros((self._n, self.d), dtype=np.int64)
        out[rows, cols] = values
        out.setflags(write=False)
        return out

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero components k_{j,t} as read-only flat arrays (rows j,
        columns t, int32 values), column by column and in set order within one."""
        return self._entries

    def nonzeros(self, t: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Rows j with k_{j,t} != 0, in set order, those components, and their
        largest |k_{j,t}| (0 for a zero column): column t of entries."""
        return self._nonzeros[t]

    @property
    def spans(self) -> np.ndarray:
        """Read-only (d, 2) int64 array of min k_t and max k_t over the set, taken
        over the entries and over 0 where a column has a zero component."""
        return self._spans

    @property
    def row_norms(self) -> np.ndarray:
        """Read-only L1 norm of every row, summed from the entries on first use
        and kept."""
        if self._norms is None:
            rows, _, values = self._entries
            self._norms = np.zeros(self._n, dtype=np.int64)
            # int64 terms: np.add.at on a dtype other than the target's is ~20x slower
            np.add.at(self._norms, rows, np.abs(values, dtype=np.int64))
            self._norms.setflags(write=False)
        return self._norms

    @property
    def prefix_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, counts, birth), read-only, built from the entries on first
        use and kept: birth[j] is the first column where row j differs from the
        row before it (0 for row 0), order is the rows stably sorted by birth and
        counts[t] the number of births <= t. So order[:counts[t]], the rows born
        by t, holds the first row of each distinct length-(t + 1) prefix, in set
        order within a birth. O(nnz) for the births, O(n log n) for the order."""
        if self._classes is None:
            rows, cols, values = self._entries
            n, d = self._n, self.d
            # Entry i + 1 continues entry i where it holds the same value in the
            # same column one row down; every other entry starts (ends) a run,
            # and its row (the row after it) differs from the row before in its column.
            same = (rows[1:] == rows[:-1] + 1) & (cols[1:] == cols[:-1]) & (values[1:] == values[:-1])
            start = np.ones(rows.shape[0], dtype=bool)
            start[1:] = ~same
            end = np.ones(rows.shape[0], dtype=bool)
            end[:-1] = ~same
            end &= rows < n - 1
            birth = np.full(n, d, dtype=np.int64)
            np.minimum.at(birth, rows[start], cols[start])
            np.minimum.at(birth, rows[end] + 1, cols[end])
            birth[0] = 0
            order = np.argsort(birth, kind="stable")
            counts = np.cumsum(np.bincount(birth, minlength=d)[:d])
            for a in (order, counts, birth):
                a.setflags(write=False)
            self._classes = order, counts, birth
        return self._classes

    def _chunks(self):
        """(start, stop, idx) for the rows in set order in chunks of
        max(1, _CHUNK_CELLS // d) rows: idx are the positions in entries of
        rows start..stop-1's nonzeros, column by column. Each chunk takes the
        next entries of every column, found in a window as wide as the chunk or
        the longest column, so O(_CHUNK_CELLS + d) is held at a time."""
        rows, cols, _ = self._entries
        n, d = self._n, self.d
        step = max(1, _CHUNK_CELLS // d)
        bounds = np.searchsorted(cols, np.arange(d + 1))
        at, ends = bounds[:-1].copy(), bounds[1:, None]
        window = np.arange(min(step, int(np.diff(bounds).max())))
        for start in range(0, n, step):
            stop = min(start + step, n)
            idx = at[:, None] + window
            take = idx < ends
            take[take] = rows[idx[take]] < stop  # rows ascend within a column
            at += take.sum(axis=1)
            idx = idx[take]  # the window is dropped while the chunk is used
            yield start, stop, idx

    def _blocks(self):
        """The rows in set order as dense int64 blocks, one per chunk."""
        rows, cols, values = self._entries
        for start, stop, idx in self._chunks():
            block = np.zeros((stop - start, self.d), dtype=np.int64)
            block[rows[idx] - start, cols[idx]] = values[idx]
            yield block

    @property
    def items(self) -> list[tuple[int, ...]]:
        return list(self)

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        for block in self._blocks():
            yield from map(tuple, block.tolist())

    def __contains__(self, k) -> bool:
        target = _integers(k)  # a float, string, bool or wrong-length vector is no member
        ok = target is not None and target.shape == (self.d,)
        ok = ok and not any(isinstance(v, (bool, np.bool_)) for v in k)  # numpy reads True as 1
        return ok and any(np.all(block == target, axis=1).any() for block in self._blocks())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return (self._n, self.d) == (other._n, other.d) and all(
            np.array_equal(a, b) for a, b in zip(self._entries, other._entries))

    def __repr__(self) -> str:
        return f"FrequencySet(d={self.d}, n={len(self)})"


@dataclass(frozen=True)
class WeightSpec:
    """Product weights gamma_j for the weighted hyperbolic cross: gammas is None for
    the builtin gamma_j = j^-2, else explicit positive, non-increasing rationals."""

    gammas: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.gammas is None:
            return
        if isinstance(self.gammas, (str, bytes)):
            kind = type(self.gammas).__name__
            raise ValueError(f"gammas must be a sequence of weights, not {kind}")
        gammas = tuple(Fraction(g) for g in self.gammas)
        object.__setattr__(self, "gammas", gammas)  # so WeightSpec(...) and explicit() agree
        if not gammas:
            raise ValueError("explicit weights need a non-empty gamma list")
        if min(gammas) <= 0:
            raise ValueError("gamma_j must be positive")
        if any(a < b for a, b in zip(gammas, gammas[1:])):
            raise ValueError("gamma_j must be non-increasing")

    @classmethod
    def inverse_square(cls) -> "WeightSpec":
        return cls()

    @classmethod
    def explicit(cls, gammas) -> "WeightSpec":
        return cls(tuple(gammas))

    def gamma(self, j: int) -> Fraction:
        """Weight of coordinate j (1-based)."""
        if j < 1:
            raise ValueError("coordinate index is 1-based")
        if self.gammas is None:
            return Fraction(1, j * j)
        if j > len(self.gammas):
            raise ValueError(f"explicit weights cover only {len(self.gammas)} coordinates")
        return self.gammas[j - 1]


def gen_cube(d: int, N: int) -> FrequencySet:
    """Full cube [-N, N]^d. It is dense by nature, so it is built as one dense
    array of its rows."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1, N >= 0")
    side = 2 * N + 1
    if d * 2 * N * side ** (d - 1) > SIZE_CAP:
        raise ValueError(f"gen_cube(d={d}, N={N}) exceeds the size cap")
    grid = np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T - N
    # np.indices varies the first coordinate slowest, so rows come out in
    # natural order already and skip the re-sort.
    return FrequencySet(grid)


def _axis_entries(D: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero components of the axis cross in D dimensions, whose natural
    order has the negative values by position ascending, the zero row, then
    the positive values by position descending: their (D, 2N) rows, line t for
    column t, and the 2N values -N..-1, 1..N that every line holds."""
    t = np.arange(D)[:, None]
    i = np.arange(N)
    rows = np.concatenate([t * N + i, (2 * D - 1 - t) * N + 1 + i], axis=1)
    return rows, np.concatenate([i - N, i + 1])


def gen_axis_cross(d: int, N: int) -> FrequencySet:
    """Axis cross: at most one nonzero component, of magnitude <= N."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1, N >= 0")
    if 2 * d * N > SIZE_CAP:
        raise ValueError(f"gen_axis_cross(d={d}, N={N}) exceeds the size cap")
    rows, values = _axis_entries(d, N)
    cols = np.repeat(np.arange(d), 2 * N)
    return FrequencySet._of(2 * d * N + 1, d, rows.ravel(), cols, np.tile(values, d))


def gen_superposition2(d: int, N: int) -> FrequencySet:
    """All k in [-N, N]^d with at most two nonzero components."""
    if d < 2:
        raise ValueError("superposition family needs d >= 2")
    if N < 0:
        raise ValueError("need N >= 0")
    if 2 * d * N * (1 + 2 * (d - 1) * N) > SIZE_CAP:
        raise ValueError(f"gen_superposition2(d={d}, N={N}) exceeds the size cap")
    # Natural order: a row whose first nonzero component is k_s < 0 comes
    # before every row with k_s = 0, and is followed by an axis cross in the
    # later columns. So the blocks k_s = -N..-1 run for s = 0..d-1, then the
    # zero row, then the blocks k_s = 1..N for s = d-1..0. Each block's
    # entries are column-major: column s, then each later column's entries in
    # every copy of the axis cross, whose rows are those of the widest axis
    # cross with its positive half moved up.
    widest, t_values = _axis_entries(d - 1, N)
    upper = np.arange(2 * N) >= N
    t_values = np.tile(t_values, (d - 1) * N)  # N copies of the widest; a block takes a prefix
    parts, start = [], 0
    for values, columns in ((np.arange(-N, 0), range(d)), (np.arange(1, N + 1), range(d - 1, -1, -1))):
        for s in columns:
            D = d - 1 - s
            tail = 2 * D * N + 1  # rows of the axis cross in the later columns
            t_rows = start + np.arange(N)[:, None] * tail + (widest[:D] - 2 * s * N * upper)[:, None, :]
            parts.append((
                np.concatenate([start + np.arange(N * tail), t_rows.ravel()]),
                np.repeat(np.arange(s, d), [N * tail] + [2 * N * N] * D),
                np.concatenate([np.repeat(values, tail), t_values[:2 * N * N * D]]),
            ))
            start += N * tail
        start += 1  # the zero row
    return FrequencySet._of(*_column_major(2 * N * d * (1 + (d - 1) * N) + 1, d, parts))


def gen_weighted_hyperbolic(weights: WeightSpec, threshold, dmax: int) -> FrequencySet:
    """Weighted hyperbolic cross {k : prod_j max(1, |k_j|/gamma_j) <= threshold}.

    The set is enumerated over the first dmax coordinates and returned as a
    dmax-dimensional set, depth-first with an exact rational budget num/den in
    Python ints, so no floating point decides the boundary. A row ends at the
    first coordinate whose bound floor(budget*gamma_j) is 0: the weights never
    increase. Rows come out in natural order, as tuples whose nonzero
    components are collected every _CHUNK_CELLS components, so at most one
    chunk is held as Python objects or as a dense block.
    """
    thr = threshold if isinstance(threshold, Fraction) else Fraction(threshold)
    if thr <= 0:
        raise ValueError("threshold must be positive")
    if thr < 1:
        raise ValueError("threshold < 1 would produce an empty set")
    if dmax < 1:
        raise ValueError("need dmax >= 1")
    # The budget only shrinks and the weights never increase, so coordinate 1
    # takes the largest component, floor(threshold gamma_1).
    if int(thr * weights.gamma(1)) > COMPONENT_LIMIT:
        raise ValueError(f"frequency components must satisfy |k_t| <= {COMPONENT_LIMIT}")
    # gamma_j = p/q; the weight 0 past dmax ends every row there.
    gammas = [weights.gamma(j).as_integer_ratio() for j in range(1, dmax + 1)] + [(0, 1)]

    blocks = _RowBlocks()
    rows: list[tuple[int, ...]] = []
    buf = [0] * dmax
    chunk = max(1, _CHUNK_CELLS // dmax)

    def flush() -> None:
        blocks.add(np.array(rows, dtype=np.int64))
        rows.clear()
        if blocks.nnz > SIZE_CAP:
            raise ValueError("gen_weighted_hyperbolic exceeds the size cap")

    def descend(j: int, num: int, den: int) -> None:
        # num/den = threshold / (product of factors fixed so far), always >= 1.
        p, q = gammas[j]
        num_p, den_q = num * p, den * q
        bound = num_p // den_q
        if bound == 0:
            rows.append(tuple(buf))
            if len(rows) == chunk:
                flush()
            return
        for k in range(-bound, bound + 1):
            buf[j] = k
            if abs(k) * q > p:  # the factor max(1, |k|/gamma_j) exceeds 1
                descend(j + 1, num_p, den_q * abs(k))
            else:
                descend(j + 1, num, den)
        buf[j] = 0

    descend(0, thr.numerator, thr.denominator)
    if rows:
        flush()
    return FrequencySet._of(*blocks.store())


def difference_set(I: FrequencySet) -> FrequencySet:
    """D(I) = {h - k : h, k in I}; contains 0 and is closed under negation.
    Dense: it builds the n^2 differences as one (n^2, d) array and sorts them
    with np.unique, so the cap counts those cells."""
    n, d = len(I), I.d
    if n * n * d > SIZE_CAP:
        raise ValueError("difference_set exceeds the size cap")
    arr = I.array
    return FrequencySet(np.unique((arr[:, None, :] - arr[None, :, :]).reshape(n * n, d), axis=0))


def expansion(I: FrequencySet) -> int:
    """N_I: the largest per-coordinate spread max k_t - min k_t."""
    spans = I.spans
    return int((spans[:, 1] - spans[:, 0]).max())


def max_abs(I: FrequencySet) -> int:
    """max over k in I of the max-norm of k; 0 iff I = {0}."""
    return int(np.abs(I.spans).max())  # |k_t| <= COMPONENT_LIMIT: no int64 overflow


def _chunk_text(zero_row: np.ndarray, m: int, cells: np.ndarray, values: np.ndarray) -> str:
    """The text of m rows whose nonzero components, values, sit at cells
    (row * d + column, ascending): zero_row tiled m times and widened at each
    nonzero by its extra bytes (sign and digits past one), then the signs and
    digits written over the nonzeros. Only the nonzeros are visited one by one;
    the zeros cost a copy of their bytes."""
    buf = np.tile(zero_row, m)
    if not values.size:
        return str(memoryview(buf), "ascii")
    neg = values < 0
    mag = np.abs(values)  # int32: |v| <= COMPONENT_LIMIT < 2^31
    top = int(mag.max())
    digits = np.ones(mag.shape, dtype=np.int32)
    for power in _POW10[:9]:
        if power > top:
            break
        digits += mag >= power
    extra = digits - 1
    extra += neg
    # Each component's last digit sits on its '0' in buf, moved right by the
    # extra bytes before it; buf's bytes fill every place but the extra bytes.
    last = np.cumsum(extra, dtype=np.int32)  # int32: a chunk is < 2^16 * 12 bytes
    last += 2 * cells
    keep = np.ones(buf.size + int(extra.sum()), dtype=bool)
    for j in range(1, int(extra.max()) + 1):
        keep[(last - j)[extra >= j]] = False
    text = np.empty(keep.size, dtype=np.uint8)
    text[keep] = buf
    del buf, keep  # before the str copy, which sets the peak
    text[(last - digits)[neg]] = ord("-")
    if top < 10:
        text[last] = mag + ord("0")
    else:  # right to left, each pass over the components with digits left
        while mag.size:
            mag, digit = np.divmod(mag, 10)
            text[last] = digit + ord("0")
            more = mag > 0
            mag, last = mag[more], last[more] - 1
    return str(memoryview(text), "ascii")


def format_set(I: FrequencySet):
    """Yield I's set-file text (one frequency per line, components joined by one
    space) one chunk of max(1, _CHUNK_CELLS // d) rows at a time, built from
    the chunk's nonzeros alone: the zero row's bytes are tiled and widened at
    each nonzero, so the work is the text's bytes at copy speed plus
    O(nonzeros), with no Python object per component and no dense block."""
    rows, cols, values = I.entries
    d = I.d
    zero_row = np.full(2 * d, ord(" "), dtype=np.uint8)
    zero_row[::2] = ord("0")
    zero_row[-1] = ord("\n")
    for start, stop, idx in I._chunks():
        # Row-major: a stable sort by row keeps each row's columns ascending.
        idx = idx[np.argsort(rows[idx], kind="stable")]
        cells = (rows[idx] - start).astype(np.int32)  # < 2^31 within a chunk
        cells *= d
        cells += cols[idx]
        yield _chunk_text(zero_row, stop - start, cells, values[idx])


def write_set(I: FrequencySet, path) -> None:
    """Write format_set(I) to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(format_set(I))


def _chunk_rows(chunk: bytes, d: int) -> np.ndarray | None:
    """chunk, whole lines of write_set's layout, as a new (lines, d) int64
    array; None if it is not that layout. Every byte is
    checked once: the separators (all bytes below '-') as one space between
    components and a newline after every d-th, each component's last byte as a
    digit, and the bytes before it, right to left, as digits up to a separator
    or to a '-' that follows one."""
    b = np.frombuffer(chunk, dtype=np.uint8)
    seps = np.flatnonzero(b < ord("-"))
    kinds = b[seps]
    if b[-1] != ord("\n") or kinds.size % d:
        return None
    kinds = kinds.reshape(-1, d)
    if np.any(kinds[:, -1] != ord("\n")) or np.any(kinds[:, :-1] != ord(" ")):
        return None
    out = np.empty(kinds.shape, dtype=np.int64)
    flat = out.reshape(-1)
    flat[:] = b[seps - 1]
    flat -= ord("0")
    if flat.min() < 0 or flat.max() > 9:
        return None  # an empty component, or one that does not end in a digit
    minus = b"-" in chunk
    idx = np.flatnonzero(b[seps - 2] >= ord("-"))  # b[-1], a newline, ends component 0
    pos, p = seps[idx] - 2, 1
    while idx.size:  # right to left, each pass over the components with characters left
        c = b[pos]
        if minus and (neg := c == ord("-")).any():
            if np.any(b[pos[neg] - 1] >= ord("-")):
                return None  # a '-' inside a component
            flat[idx[neg]] *= -1
        more = c > ord("-")
        if not more.all():
            idx, pos, c = idx[more], pos[more], c[more]
        digit = c - ord("0")
        if digit.size and (p == 18 or digit.max() > 9):
            return None  # more than 18 digits, which may not fit int64, or not a digit
        # times a 1-element array, so the product is int64 under numpy 1 casting too
        flat[idx] += _POW10[p - 1:p] * digit
        pos -= 1
        p += 1
    return out


def _read_layout(data: bytes) -> _RowBlocks | None:
    """data's rows as their nonzeros if data is write_set's layout (components
    -?[0-9]+ of at most 18 digits, one space between them, a newline after
    every line), else None. It is parsed in chunks of whole lines of about
    _CHUNK_BYTES, one (lines, d) int64 block each, so beyond data and the
    nonzeros one chunk's parse is held at a time."""
    if not data.endswith(b"\n"):
        return None
    d = data.count(b" ", 0, data.find(b"\n")) + 1
    blocks, error = _RowBlocks(), None
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK_BYTES - 1) + 1 or len(data)
        block = _chunk_rows(data[start:end], d)
        if block is None:
            return None  # _read_by_lines then names the first bad line
        if error is None:
            try:
                blocks.add(block)
            except ValueError as exc:  # a component past COMPONENT_LIMIT, raised
                error = exc  # once the rest of data is known to be the layout
        start = end
    if error is not None:
        raise error
    return blocks


def _read_by_lines(text: str, path) -> list[list[int]]:
    """text's rows by the line rules of text mode (universal newlines): blank
    and '#' lines are skipped, the rest split on whitespace into int()
    components, as many as the first line's; an error names the first bad line."""
    rows = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = [int(p) for p in stripped.split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed frequency line {stripped!r}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} components, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no frequencies found")
    return rows


def read_set(path) -> FrequencySet:
    """Read a set file or stream (a pipe too) in one pass. write_set's own
    layout is parsed by numpy byte passes per chunk of lines, with no Python
    step per line or component, and each chunk's nonzeros go into the store:
    a file in natural order (as write_set writes it) is never held as a dense
    array, while an unsorted one is sorted through one dense np.unique. Any
    other text is read by _read_by_lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    blocks = _read_layout(data)
    if blocks is not None:
        del data  # before the store is assembled, which sets the peak
        return FrequencySet._of(*blocks.store())
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line holding the bad byte, counted as _read_by_lines counts lines
        line = len(io.StringIO(data[:exc.start].decode() + "x", newline=None).readlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    del data
    return FrequencySet(_read_by_lines(text, path))
