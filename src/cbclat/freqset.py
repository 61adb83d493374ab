"""Frequency sets: data model, generator families, difference sets, file I/O.

A frequency set is a finite set I of integer vectors k in Z^d. Sets are stored
deduplicated and sorted in the natural (lexicographic) order on construction,
which the incremental residue bookkeeping downstream relies on.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Guard against runaway enumerations, measured in items/cells as stated by each
# generator and read at call time.
SIZE_CAP = 10**8

# Components are capped so that v + y*k for residues v, y < M stays in int64
# for every M < 2^32 (lattice.exact_operand): it runs in int32 while
# M (max|k| + 1) < 2^31, in int64 while that is < 2^63, in Python ints beyond.
# A dot product k . z takes the same tiers with max ||k||_1 (cached row_norms).
COMPONENT_LIMIT = 2**31 - 1

_CHUNK_CELLS = 1 << 16  # components per chunk: format_set's text, gen_weighted_hyperbolic's rows
_CHUNK_BYTES = 1 << 17  # bytes of whole lines per chunk of read_set's parse: bounds its memory
# 10..10^17: a parsed digit at place p weighs 10^p; a written component
# (|v| < 10^10) has 1 + #{p <= |v|} digits, counted against 10..10^9 alone.
_POW10 = 10 ** np.arange(1, 18, dtype=np.int64)


def _integers(values) -> np.ndarray | None:
    """values as a new int64 array, or None unless numpy reads them as integers that fit int64."""
    try:
        arr = np.array(values)
    except (ValueError, OverflowError):
        return None
    if arr.size and not (np.issubdtype(arr.dtype, np.integer) and np.can_cast(arr.dtype, np.int64)):
        return None
    return arr.astype(np.int64, copy=False)


def _strictly_increasing(arr: np.ndarray) -> bool:
    """True iff the rows are in strictly increasing lexicographic order.

    O(n d): each pair of adjacent rows is compared at its first differing
    column (column 0 for equal rows, which then fail the strict test).
    """
    col = (arr[1:] != arr[:-1]).argmax(axis=1)
    rows = np.arange(col.shape[0])
    return bool(np.all(arr[1:][rows, col] > arr[:-1][rows, col]))


class FrequencySet:
    """Deduplicated, lexicographically sorted set of frequency vectors: an
    immutable (n, d) int64 array whose rows are the frequencies."""

    __slots__ = ("_arr", "_entries", "_nonzeros", "_spans", "_norms")

    def __init__(self, rows):
        # A copy, so freezing it in _own never freezes the caller's buffer.
        arr = _integers(rows)
        if arr is None:
            raise ValueError("invalid frequency data: expected integer vectors within int64")
        self._own(arr)

    @classmethod
    def _owning(cls, arr: np.ndarray) -> "FrequencySet":
        """The set of arr's rows, for an int64 array the package built and hands
        over: checked like any input and frozen in place, with no copy."""
        I = cls.__new__(cls)
        I._own(arr)
        return I

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ValueError("expected a sequence of equal-length frequency vectors")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("frequency set must contain at least one frequency, d >= 1")
        if np.any(arr > COMPONENT_LIMIT) or np.any(arr < -COMPONENT_LIMIT):
            raise ValueError(f"frequency components must satisfy |k_t| <= {COMPONENT_LIMIT}")
        if not _strictly_increasing(arr):
            arr = np.unique(arr, axis=0)
        arr.setflags(write=False)
        self._arr = arr
        self._entries = self._nonzeros = self._spans = self._norms = None

    @property
    def d(self) -> int:
        return self._arr.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only (n, d) int64 view of the frequencies in natural order."""
        return self._arr

    def _index(self) -> None:
        """Build the nonzero store on first use and keep it, since the set never
        changes: entries (one np.nonzero over the transposed array), each
        column's view of them with its largest |k_t|, and the spans."""
        if self._entries is not None:
            return
        cols, rows = np.nonzero(self._arr.T)
        # int32 holds every |k_t| <= COMPONENT_LIMIT, and is exact_operand's
        # narrowest tier, which then takes the values without a copy.
        values = self._arr.T[cols, rows].astype(np.int32)
        for a in (rows, cols, values):  # before the per-column views are cut
            a.setflags(write=False)
        cuts = np.searchsorted(cols, np.arange(1, self.d))
        per_col = np.split(values, cuts)
        spans = []
        for v in per_col:
            z = 0 if v.shape[0] < len(self) else v[0]  # 0 is in the range iff a row is 0 here
            spans.append((int(v.min(initial=z)), int(v.max(initial=z))))
        bounds = [max(-lo, hi) for lo, hi in spans]
        self._nonzeros = tuple(zip(np.split(rows, cuts), per_col, bounds))
        self._spans = np.array(spans, dtype=np.int64)
        self._spans.setflags(write=False)
        self._entries = rows, cols, values

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero components k_{j,t} as read-only flat arrays (rows j,
        columns t, int32 values), column by column and in set order within one."""
        self._index()
        return self._entries

    def nonzeros(self, t: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Rows j with k_{j,t} != 0, in set order, those components, and their
        largest |k_{j,t}| (0 for a zero column): column t of entries."""
        self._index()
        return self._nonzeros[t]

    @property
    def spans(self) -> np.ndarray:
        """Read-only (d, 2) int64 array of min k_t and max k_t over the set, taken
        over the entries and over 0 where a column has a zero component."""
        self._index()
        return self._spans

    @property
    def row_norms(self) -> np.ndarray:
        """Read-only L1 norm of every row, summed from the entries on first use
        and kept."""
        if self._norms is None:
            rows, _, values = self.entries
            self._norms = np.zeros(len(self), dtype=np.int64)
            # int64 terms: np.add.at on a dtype other than the target's is ~20x slower
            np.add.at(self._norms, rows, np.abs(values, dtype=np.int64))
            self._norms.setflags(write=False)
        return self._norms

    @property
    def items(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self._arr.tolist()))

    def __len__(self) -> int:
        return self._arr.shape[0]

    def __iter__(self):
        return iter(self.items)

    def __contains__(self, k) -> bool:
        target = _integers(k)  # a float, string, bool or wrong-length vector is no member
        ok = target is not None and target.shape == (self.d,)
        ok = ok and not any(isinstance(v, (bool, np.bool_)) for v in k)  # numpy reads True as 1
        return ok and bool(np.any(np.all(self._arr == target, axis=1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return self._arr.shape == other._arr.shape and bool(np.array_equal(self._arr, other._arr))

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
    """Full cube [-N, N]^d."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1, N >= 0")
    side = 2 * N + 1
    if d * side**d > SIZE_CAP:
        raise ValueError(f"gen_cube(d={d}, N={N}) exceeds the size cap")
    grid = np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T - N
    # np.indices varies the first coordinate slowest, so rows come out in
    # natural order already and skip the re-sort.
    return FrequencySet._owning(grid)


def _axis_rows(D: int, N: int) -> np.ndarray:
    """The axis cross in D dimensions in natural order: the negative values
    by position ascending, the zero row, then the positive values by
    position descending."""
    rows = np.zeros((2 * D * N + 1, D), dtype=np.int64)
    i = np.arange(D * N)
    rows[i, i // N] = i % N - N
    rows[D * N + 1 + i, D - 1 - i // N] = i % N + 1
    return rows


def gen_axis_cross(d: int, N: int) -> FrequencySet:
    """Axis cross: at most one nonzero component, of magnitude <= N."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1, N >= 0")
    if 2 * d * N + 1 > SIZE_CAP:
        raise ValueError(f"gen_axis_cross(d={d}, N={N}) exceeds the size cap")
    return FrequencySet._owning(_axis_rows(d, N))


def gen_superposition2(d: int, N: int) -> FrequencySet:
    """All k in [-N, N]^d with at most two nonzero components."""
    if d < 2:
        raise ValueError("superposition family needs d >= 2")
    if N < 0:
        raise ValueError("need N >= 0")
    n = 2 * N * d * (1 + (d - 1) * N) + 1
    if n > SIZE_CAP:
        raise ValueError(f"gen_superposition2(d={d}, N={N}) exceeds the size cap")
    # Natural order: a row whose first nonzero component is k_s < 0 comes
    # before every row with k_s = 0, and is followed by an axis cross in the
    # later columns. So the blocks k_s = -N..-1 run for s = 0..d-2, then the
    # last column alone takes -N..N, then the blocks k_s = 1..N run for
    # s = d-2..0.
    rows = np.zeros((n, d), dtype=np.int64)
    blocks = [(s, np.arange(-N, 0)) for s in range(d - 1)]
    blocks += [(d - 1, np.arange(-N, N + 1))]
    blocks += [(s, np.arange(1, N + 1)) for s in range(d - 2, -1, -1)]
    i = 0
    for s, values in blocks:
        tail = _axis_rows(d - 1 - s, N)
        m = values.shape[0] * tail.shape[0]
        rows[i:i + m, s] = np.repeat(values, tail.shape[0])
        rows[i:i + m, s + 1:] = np.tile(tail, (values.shape[0], 1))
        i += m
    assert i == n
    return FrequencySet._owning(rows)


def gen_weighted_hyperbolic(weights: WeightSpec, threshold, dmax: int) -> FrequencySet:
    """Weighted hyperbolic cross {k : prod_j max(1, |k_j|/gamma_j) <= threshold}.

    The set is enumerated over the first dmax coordinates and returned as a
    dmax-dimensional set, depth-first with an exact rational budget num/den in
    Python ints, so no floating point decides the boundary. A row ends at the
    first coordinate whose bound floor(budget*gamma_j) is 0: the weights never
    increase. Rows come out in natural order, as tuples that are written into
    one growing int64 array every _CHUNK_CELLS components, so at most one
    chunk is held as Python objects.
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

    arr = np.empty((0, dmax), dtype=np.int64)
    rows: list[tuple[int, ...]] = []
    buf = [0] * dmax
    chunk = max(1, _CHUNK_CELLS // dmax)

    def flush() -> None:
        # arr grows in place by the chunk; no view of it exists, so it may move.
        n = arr.shape[0]
        arr.resize((n + len(rows), dmax), refcheck=False)
        arr[n:] = rows
        rows.clear()
        if arr.shape[0] * dmax > SIZE_CAP:
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
    return FrequencySet._owning(arr)


def difference_set(I: FrequencySet) -> FrequencySet:
    """D(I) = {h - k : h, k in I}; contains 0 and is closed under negation."""
    n = len(I)
    if n * n > SIZE_CAP:
        raise ValueError("difference_set exceeds the size cap")
    arr = I.array
    diffs = (arr[:, None, :] - arr[None, :, :]).reshape(n * n, I.d)
    return FrequencySet(diffs)


def expansion(I: FrequencySet) -> int:
    """N_I: the largest per-coordinate spread max k_t - min k_t."""
    spans = I.spans
    return int((spans[:, 1] - spans[:, 0]).max())


def max_abs(I: FrequencySet) -> int:
    """max over k in I of the max-norm of k; 0 iff I = {0}."""
    return int(np.abs(I.spans).max())  # |k_t| <= COMPONENT_LIMIT: no int64 overflow


def _chunk_text(block: np.ndarray) -> str:
    """block's rows as set-file text, built as bytes in a few numpy passes."""
    d = block.shape[1]
    flat = block.ravel()
    neg = flat < 0
    mag = np.abs(flat).astype(np.int32)  # |v| <= COMPONENT_LIMIT < 2^31
    digits = np.searchsorted(_POW10[:9], mag, side="right").astype(np.int32) + 1
    last = np.cumsum(digits + neg + 1, dtype=np.int32)  # int32: a chunk is < 2^16 * 12 bytes
    last -= 2  # each component's last digit
    buf = np.empty(int(last[-1]) + 2, dtype=np.uint8)
    buf[last + 1] = ord(" ")
    buf[last[d - 1::d] + 1] = ord("\n")
    buf[(last - digits)[neg]] = ord("-")
    if digits.max() == 1:
        buf[last] = mag + ord("0")
    else:  # right to left, each pass over the components with digits left
        while mag.size:
            mag, digit = np.divmod(mag, 10)
            buf[last] = digit + ord("0")
            more = mag > 0
            mag, last = mag[more], last[more] - 1
    return str(memoryview(buf), "ascii")


def format_set(I: FrequencySet):
    """Yield I's set-file text (one frequency per line, components joined by one
    space) one chunk of at most _CHUNK_CELLS components at a time. Each chunk is
    built as bytes in a few numpy passes: no Python object per component, and
    its temporaries stay under 5 MB whatever |I| and d are."""
    step = max(1, _CHUNK_CELLS // I.d)
    for start in range(0, len(I), step):
        yield _chunk_text(I.array[start:start + step])


def write_set(I: FrequencySet, path) -> None:
    """Write format_set(I) to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(format_set(I))


def _chunk_rows(chunk: bytes, out: np.ndarray) -> int | None:
    """Parse chunk, whole lines of write_set's layout, into the first rows of
    out and return how many; None if it is not that layout. Every byte is
    checked once: the separators (all bytes below '-') as one space between
    components and a newline after every d-th, each component's last byte as a
    digit, and the bytes before it, right to left, as digits up to a separator
    or to a '-' that follows one."""
    b = np.frombuffer(chunk, dtype=np.uint8)
    seps = np.flatnonzero(b < ord("-"))
    kinds = b[seps]
    if b[-1] != ord("\n") or kinds.size % out.shape[1]:
        return None
    kinds = kinds.reshape(-1, out.shape[1])
    if np.any(kinds[:, -1] != ord("\n")) or np.any(kinds[:, :-1] != ord(" ")):
        return None
    flat = out[:kinds.shape[0]].reshape(-1)
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
    return kinds.shape[0]


def _read_layout(data: bytes) -> np.ndarray | None:
    """data's rows if it is write_set's layout (components -?[0-9]+ of at most
    18 digits, one space between them, a newline after every line), else None.
    Chunks of whole lines of about _CHUNK_BYTES fill one preallocated (lines, d)
    int64 array, so the memory beyond data and that array stays bounded."""
    lines = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    d = data.count(b" ", 0, data.find(b"\n")) + 1
    if not lines or 2 * lines * d > len(data):  # each component takes at least 2 bytes
        return None
    out = np.empty((lines, d), dtype=np.int64)
    row = start = 0
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK_BYTES - 1) + 1 or len(data)
        done = _chunk_rows(data[start:end], out[row:])
        if done is None:
            return None
        row, start = row + done, end
    return out


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
    """Read a set file or stream (a pipe too) in one pass: write_set's own
    layout by numpy byte passes per chunk of lines, with no Python step per
    line or component; any other text by _read_by_lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = _read_layout(data)
    if rows is not None:
        del data  # before the set's checks, which set the peak
        return FrequencySet._owning(rows)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line holding the bad byte, counted as _read_by_lines counts lines
        line = len(io.StringIO(data[:exc.start].decode() + "x", newline=None).readlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    del data
    return FrequencySet(_read_by_lines(text, path))
