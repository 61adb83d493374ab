"""Frequency sets: data model, generator families, difference sets, file I/O.

A frequency set is a finite set I of integer vectors k in Z^d. Sets are stored
deduplicated and sorted in the natural (lexicographic) order on construction,
which the incremental residue bookkeeping downstream relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Default guard against runaway enumerations, measured in items/cells as stated
# by each generator. Every generator accepts an explicit override.
SIZE_CAP = 10**8

# Components are capped so that v + y*k for residues v, y < M stays in int64
# for every M < 2^32 (lattice.exact_operand); larger M use Python ints.
COMPONENT_LIMIT = 2**31 - 1

_CHUNK_CELLS = 1 << 20  # components per chunk of format_set's text: bounds its memory


def _effective_cap(size_cap) -> int:
    cap = SIZE_CAP if size_cap is None else int(size_cap)
    if cap < 1:
        raise ValueError("size cap must be positive")
    return cap


def _strictly_increasing(arr: np.ndarray) -> bool:
    """True iff the rows are in strictly increasing lexicographic order.

    O(n d): each pair of adjacent rows is compared at its first differing
    column (column 0 for equal rows, which then fail the strict test).
    """
    col = (arr[1:] != arr[:-1]).argmax(axis=1)
    rows = np.arange(col.shape[0])
    return bool(np.all(arr[1:][rows, col] > arr[:-1][rows, col]))


class FrequencySet:
    """Deduplicated, lexicographically sorted set of frequency vectors.

    Wraps an immutable (n, d) int64 array whose rows are the frequencies.
    """

    __slots__ = ("_arr", "_nonzeros")

    def __init__(self, rows, d: int | None = None):
        try:
            # A copy, so freezing it below never freezes the caller's buffer.
            arr = np.array(rows, dtype=np.int64)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"invalid frequency data: {exc}") from None
        if arr.ndim != 2:
            raise ValueError("expected a sequence of equal-length frequency vectors")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("frequency set must contain at least one frequency, d >= 1")
        if d is not None and arr.shape[1] != d:
            raise ValueError(f"expected dimension {d}, got {arr.shape[1]}")
        if np.any(arr > COMPONENT_LIMIT) or np.any(arr < -COMPONENT_LIMIT):
            raise ValueError(f"frequency components must satisfy |k_t| <= {COMPONENT_LIMIT}")
        if not _strictly_increasing(arr):
            arr = np.unique(arr, axis=0)
        arr.setflags(write=False)
        self._arr = arr
        self._nonzeros = None

    @property
    def d(self) -> int:
        return self._arr.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only (n, d) int64 view of the frequencies in natural order."""
        return self._arr

    def nonzeros(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows j with k_{j,t} != 0, in set order, and those components.

        Built for every column at once on first use (one np.nonzero over the
        transposed array) and kept, since the set never changes.
        """
        if self._nonzeros is None:
            cols, rows = np.nonzero(self._arr.T)
            values = self._arr.T[cols, rows]
            rows.setflags(write=False)
            values.setflags(write=False)
            cuts = np.searchsorted(cols, np.arange(1, self.d))
            self._nonzeros = tuple(zip(np.split(rows, cuts), np.split(values, cuts)))
        return self._nonzeros[t]

    @property
    def items(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self._arr.tolist()))

    def __len__(self) -> int:
        return self._arr.shape[0]

    def __iter__(self):
        for row in self._arr:
            yield tuple(int(v) for v in row)

    def __contains__(self, k) -> bool:
        target = np.asarray(k, dtype=np.int64)
        if target.shape != (self.d,):
            return False
        return bool(np.any(np.all(self._arr == target, axis=1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return self._arr.shape == other._arr.shape and bool(np.array_equal(self._arr, other._arr))

    def __repr__(self) -> str:
        return f"FrequencySet(d={self.d}, n={len(self)})"


@dataclass(frozen=True)
class WeightSpec:
    """Product weights gamma_j for the weighted hyperbolic cross.

    kind is either "inverse-square-builtin" (gamma_j = j^-2) or
    "explicit-list" with positive, non-increasing rationals.
    """

    kind: str
    gammas: tuple[Fraction, ...] | None = None

    INVERSE_SQUARE = "inverse-square-builtin"
    EXPLICIT = "explicit-list"

    def __post_init__(self):
        if self.kind == self.INVERSE_SQUARE:
            if self.gammas is not None:
                raise ValueError("builtin weights take no gamma list")
        elif self.kind == self.EXPLICIT:
            if not self.gammas:
                raise ValueError("explicit weights need a non-empty gamma list")
            prev = None
            for g in self.gammas:
                if g <= 0:
                    raise ValueError("gamma_j must be positive")
                if prev is not None and g > prev:
                    raise ValueError("gamma_j must be non-increasing")
                prev = g
        else:
            raise ValueError(f"unknown weight kind: {self.kind!r}")

    @classmethod
    def inverse_square(cls) -> "WeightSpec":
        return cls(cls.INVERSE_SQUARE)

    @classmethod
    def explicit(cls, gammas) -> "WeightSpec":
        return cls(cls.EXPLICIT, tuple(Fraction(g) for g in gammas))

    def gamma(self, j: int) -> Fraction:
        """Weight of coordinate j (1-based)."""
        if j < 1:
            raise ValueError("coordinate index is 1-based")
        if self.kind == self.INVERSE_SQUARE:
            return Fraction(1, j * j)
        if j > len(self.gammas):
            raise ValueError(f"explicit weights cover only {len(self.gammas)} coordinates")
        return self.gammas[j - 1]


def gen_cube(d: int, N: int, size_cap=None) -> FrequencySet:
    """Full cube [-N, N]^d."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1, N >= 0")
    side = 2 * N + 1
    if d * side**d > _effective_cap(size_cap):
        raise ValueError(f"gen_cube(d={d}, N={N}) exceeds the size cap")
    grid = np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T - N
    # np.indices varies the first coordinate slowest, so rows come out in
    # natural order already and skip the re-sort.
    return FrequencySet(grid)


def _axis_rows(D: int, N: int) -> np.ndarray:
    """The axis cross in D dimensions in natural order: the negative values
    by position ascending, the zero row, then the positive values by
    position descending."""
    rows = np.zeros((2 * D * N + 1, D), dtype=np.int64)
    i = np.arange(D * N)
    rows[i, i // N] = i % N - N
    rows[D * N + 1 + i, D - 1 - i // N] = i % N + 1
    return rows


def gen_axis_cross(d: int, N: int, size_cap=None) -> FrequencySet:
    """Axis cross: at most one nonzero component, of magnitude <= N."""
    if d < 1 or N < 0:
        raise ValueError("need d >= 1, N >= 0")
    if 2 * d * N + 1 > _effective_cap(size_cap):
        raise ValueError(f"gen_axis_cross(d={d}, N={N}) exceeds the size cap")
    return FrequencySet(_axis_rows(d, N))


def gen_superposition2(d: int, N: int, size_cap=None) -> FrequencySet:
    """All k in [-N, N]^d with at most two nonzero components."""
    if d < 2:
        raise ValueError("superposition family needs d >= 2")
    if N < 0:
        raise ValueError("need N >= 0")
    n = 2 * N * d * (1 + (d - 1) * N) + 1
    if n > _effective_cap(size_cap):
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
    return FrequencySet(rows)


def gen_weighted_hyperbolic(weights: WeightSpec, threshold, dmax: int, size_cap=None) -> FrequencySet:
    """Weighted hyperbolic cross {k : prod_j max(1, |k_j|/gamma_j) <= threshold}.

    The set is enumerated over the first dmax coordinates and returned as a
    dmax-dimensional set, depth-first with an exact rational budget, so no
    floating point decides the boundary. A row ends at the first coordinate
    whose bound int(budget*gamma_j) is 0: the weights never increase.
    """
    thr = threshold if isinstance(threshold, Fraction) else Fraction(threshold)
    if thr <= 0:
        raise ValueError("threshold must be positive")
    if thr < 1:
        raise ValueError("threshold < 1 would produce an empty set")
    if dmax < 1:
        raise ValueError("need dmax >= 1")
    cap = _effective_cap(size_cap)
    gammas = [weights.gamma(j) for j in range(1, dmax + 1)]

    rows: list[tuple[int, ...]] = []
    buf = [0] * dmax

    def descend(j: int, budget: Fraction) -> None:
        # budget = threshold / (product of factors fixed so far), always >= 1.
        bound = int(budget * gammas[j]) if j < dmax else 0
        if bound == 0:
            rows.append(tuple(buf))
            if len(rows) > cap:
                raise ValueError("gen_weighted_hyperbolic exceeds the size cap")
            return
        for k in range(-bound, bound + 1):
            buf[j] = k
            descend(j + 1, budget * gammas[j] / abs(k) if k else budget)
        buf[j] = 0

    descend(0, thr)
    return FrequencySet(rows)


def difference_set(I: FrequencySet, size_cap=None) -> FrequencySet:
    """D(I) = {h - k : h, k in I}; contains 0 and is closed under negation."""
    n = len(I)
    if n * n > _effective_cap(size_cap):
        raise ValueError("difference_set exceeds the size cap")
    arr = I.array
    diffs = (arr[:, None, :] - arr[None, :, :]).reshape(n * n, I.d)
    return FrequencySet(diffs)


def expansion(I: FrequencySet) -> int:
    """N_I: the largest per-coordinate spread max k_t - min k_t."""
    arr = I.array
    return int(np.max(arr.max(axis=0) - arr.min(axis=0)))


def max_abs(I: FrequencySet) -> int:
    """max over k in I of the max-norm of k; 0 iff I = {0}."""
    arr = I.array
    return int(max(arr.max(), -arr.min(), 0))


def format_set(I: FrequencySet):
    """Yield I's set-file text (one frequency per line, components joined by one
    space), one %-format per chunk of at most _CHUNK_CELLS components."""
    step = max(1, _CHUNK_CELLS // I.d)
    line = " ".join(["%d"] * I.d) + "\n"
    for start in range(0, len(I), step):
        block = I.array[start:start + step]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def write_set(I: FrequencySet, path) -> None:
    """Write format_set(I) to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(format_set(I))


def read_set(path) -> FrequencySet:
    """Parse the text format written by write_set.

    Lines starting with '#' and blank lines are ignored; the dimension is
    inferred from the first data line and every later line must match it.
    numpy's C parser reads the kept lines first; where it fails (it also rejects
    1_000, non-ASCII digits, values past int64) an int() rescan names the first bad line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = [(lineno, s) for lineno, s in enumerate((line.strip() for line in fh), start=1)
                if s and not s.startswith("#")]
    if not data:
        raise ValueError(f"{path}: no frequencies found")
    try:
        rows = np.loadtxt([s for _, s in data], dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        rows = []
        for lineno, stripped in data:
            try:
                row = [int(p) for p in stripped.split()]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed frequency line {stripped!r}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} components, "
                                 f"got {len(row)}")
            rows.append(row)
    return FrequencySet(rows)
