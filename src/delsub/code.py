"""The residue-class code family: class counting and member enumeration."""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .syndromes import _position_shift, wt_f1_f2
from .words import SCAN_CEILING, Word, _check_length

__all__ = [
    "SCAN_CEILING",
    "ENUMERATION_BYTE_CAP",
    "CodeParams",
    "CodeStats",
    "params_from_bucket",
    "params_of",
    "is_codeword",
    "matches_value",
    "bucket_counts",
    "choose_params",
    "codeword_values",
    "enumerate_code",
]

# codeword_values refuses a class whose listing would pass this many bytes:
# _listing_bytes estimates it from the subset states of the two halves and
# the member count, and each part is checked before it is allocated.
ENUMERATION_BYTE_CAP = 1 << 29
# Peak working bytes per subset state (the states, their stable order and
# the run arrays of their join; 21-25 measured with tracemalloc at n = 30..40)
# and per member (its suffix rank and value and the suffix index read between
# them; 23.6 measured).
_BYTES_PER_STATE = 26
_BYTES_PER_MEMBER = 24
_DRAW_BATCH = 1 << 12  # draws per batch of the member sampler
_Runs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # see _suffix_runs


def _moduli(n: int) -> tuple[int, int, int]:
    """Moduli of the (c0, c1, c2) residues at length n: 4, 2n and 2n^2.

    Also the shape of the class counter table, whose C-order ravel is the
    flat bucket layout, so ascending index is lexicographic (c0, c1, c2).
    """
    return 4, 2 * n, 2 * n * n


@dataclass(frozen=True)
class CodeParams:
    """Block length together with the (c0, c1, c2) residue triple.

    A word of length n belongs to the class when its weight is c0 mod 4,
    its first-order VT syndrome is c1 mod 2n and its second-order VT
    syndrome is c2 mod 2n^2; the two constant words are excluded.
    """

    n: int
    c0: int
    c1: int
    c2: int

    def __post_init__(self) -> None:
        # Plain ints, as in Word: a numpy integer becomes one, a float is refused.
        for name in ("n", "c0", "c1", "c2"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n < 2:
            raise ValueError(f"block length must be >= 2, got {self.n}")
        for name, c, m in zip(("c0", "c1", "c2"), (self.c0, self.c1, self.c2), _moduli(self.n)):
            if not 0 <= c < m:
                raise ValueError(f"{name} must lie in [0, {m}), got {c}")

    @property
    def bucket_index(self) -> int:
        """Position of this triple in the flat (c0, c1, c2) counter table."""
        return int(np.ravel_multi_index((self.c0, self.c1, self.c2), _moduli(self.n)))


def params_from_bucket(n: int, index: int) -> CodeParams:
    shape = _moduli(n)
    if not 0 <= index < math.prod(shape):
        raise ValueError(f"bucket index {index} out of range for n={n}")
    return CodeParams(n, *map(int, np.unravel_index(index, shape)))


@dataclass(frozen=True)
class CodeStats:
    """Size of one residue class and the redundancy it implies."""

    n: int
    size: int

    @property
    def redundancy(self) -> float | None:
        """n - log2(size); None for an empty class."""
        if self.size == 0:
            return None
        return self.n - math.log2(self.size)


def params_of(x: Word) -> CodeParams:
    """The residue triple whose class would contain x."""
    wt, f1, f2 = wt_f1_f2(x.value, x.n)
    m0, m1, m2 = _moduli(x.n)
    return CodeParams(x.n, wt % m0, f1 % m1, f2 % m2)


def matches_value(p: CodeParams, value: int) -> bool:
    """Membership test on a packed value, skipping Word construction."""
    if value == 0 or value == (1 << p.n) - 1:
        return False
    wt, f1, f2 = wt_f1_f2(value, p.n)
    m0, m1, m2 = _moduli(p.n)
    return wt % m0 == p.c0 and f1 % m1 == p.c1 and f2 % m2 == p.c2


def is_codeword(x: Word, p: CodeParams) -> bool:
    """True iff x is non-constant and carries exactly the residues of p."""
    if x.n != p.n:
        raise ValueError(f"word length {x.n} does not match code length {p.n}")
    return matches_value(p, x.value)


def _add_shifted(dst: np.ndarray, src: np.ndarray, d1: int, d2: int) -> None:
    """dst += src cyclically shifted by (d1, d2), in four blocks with no copy.

    The shift must lie in the plane: 0 <= d1 < m1 and 0 <= d2 < m2.
    """
    m1, m2 = src.shape
    for rows, from_rows in ((slice(d1, None), slice(m1 - d1)), (slice(d1), slice(m1 - d1, None))):
        for cols, from_cols in ((slice(d2, None), slice(m2 - d2)), (slice(d2), slice(m2 - d2, None))):
            dst[rows, cols] += src[from_rows, from_cols]


def _listed_positions(n: int) -> int:
    """The largest h <= n with 2^h <= n^3: how many positions get their subsets listed."""
    return min(n, (n**3).bit_length() - 1)


def _class_sizes(n: int) -> np.ndarray:
    """Size of every residue class, flat, in the fold table's own dtype.

    The flat layout is that of bucket_index, so ascending index order is
    lexicographic (c0, c1, c2) order, and the two constant words are
    excluded.  The sizes are the coefficients of
    prod_i (1 + t^(1, i, i(i+1)/2)) over Z4 x Z2n x Z2n^2.  The first h
    factors, h the largest with 2^h <= n^3, are expanded by listing the
    flat states of all 2^h prefixes and counting them; the other n - h
    fold into the 16n^3 cells in place, one weight plane at a time with
    one spare plane, so no word of {0,1}^n is visited and the table is
    never copied whole.  The cells are int32 for n <= 31, where a cell
    never holds all 2^n words (0^n and 10...0 differ in weight) and so
    stays below 2^31, and int64 above.
    """
    _check_length(n, "class counting")
    shape = _moduli(n)
    h = _listed_positions(n)
    state = _subset_states(n, range(1, h + 1))
    table = np.zeros(shape, dtype=np.int32 if n <= 31 else np.int64)
    cells, sizes = np.unique(state, return_counts=True)
    table.ravel()[cells] = sizes  # a view: the table is C-contiguous
    del state, cells, sizes  # freed before the spare plane is allocated
    top = np.empty_like(table[-1])
    for i in range(h + 1, n + 1):
        # Factor i: every word so far either leaves position i at 0 or adds its
        # shift.  The weight always moves by 1, so plane a takes plane a - 1;
        # going down from the top, only the old top plane must be kept aside.
        # The (f1, f2) shift, i < 2n and i(i+1)/2 < 2n^2, lies in the plane.
        _, d1, d2 = _position_shift(i)
        top[...] = table[-1]
        for a in range(shape[0] - 1, 0, -1):
            _add_shifted(table[a], table[a - 1], d1, d2)
        _add_shifted(table[0], top, d1, d2)
    sizes = table.ravel()
    for w in (Word.zeros(n), Word.ones(n)):  # in no class, by definition
        sizes[params_of(w).bucket_index] -= 1
    return sizes


def bucket_counts(n: int) -> np.ndarray:
    """Size of every residue class as int64, in _class_sizes' flat layout.

    The one int64 copy of the class table (for n <= 31); the package's own
    callers read _class_sizes directly.
    """
    return _class_sizes(n).astype(np.int64, copy=False)


def choose_params(n: int) -> tuple[CodeParams, CodeStats]:
    """Largest residue class at length n; ties break to the smallest triple.

    The 16n^3 classes partition {0,1}^n minus the constant words, so the
    winner holds at least (2^n - 2) / 16n^3 words.  Reads the class table
    in its own dtype (_class_sizes), with no int64 copy.
    """
    sizes = _class_sizes(n)
    best = int(np.argmax(sizes))  # first maximum = smallest (c0, c1, c2)
    return params_from_bucket(n, best), CodeStats(n, int(sizes[best]))


def _subset_states(
    n: int, positions: range, start: tuple[int, int, int] = (0, 0, 0), sign: int = 1
) -> np.ndarray:
    """Flat residue states of start moved by every subset of positions.

    Bit k of an entry's index says whether the subset holds positions[k]:
    entry 0 is start, a (wt, f1, f2) triple, and each doubling appends the
    triples so far with the next position's shift added (subtracted, for
    sign -1).  The residues are taken once, at the end.  int32 is exact:
    every sum stays within n^3 of start, and the flat states below 16n^3.
    """
    shifts = np.array([_position_shift(i) for i in positions], dtype=np.int32).reshape(-1, 3, 1)
    parts = np.empty((3, 1 << len(positions)), dtype=np.int32)
    parts[:, 0] = start
    for k, shift in enumerate(sign * shifts):
        np.add(parts[:, : 1 << k], shift, out=parts[:, 1 << k : 2 << k])
    m0, m1, m2 = _moduli(n)
    parts %= np.array([m0, m1, m2], dtype=np.int32)[:, None]
    state = parts[0] * m1
    state += parts[1]
    state *= m2
    state += parts[2]
    return state


def _listing_bytes(n: int, members: int) -> int:
    """Estimated peak bytes of listing a class of n-bit words with this many members."""
    half = 1 << (n // 2)
    return _BYTES_PER_STATE * (half + (half << (n % 2))) + _BYTES_PER_MEMBER * members


def _check_cap(p: CodeParams, what: str, need: int) -> None:
    if need > ENUMERATION_BYTE_CAP:
        raise ValueError(
            f"listing {what} of {p} needs about {need} bytes, "
            f"over the {ENUMERATION_BYTE_CAP}-byte cap"
        )


def _suffix_runs(n: int, b: int) -> _Runs:
    """Subset states of the last b positions (bit k of j is position n - k), by run.

    Returns order, a stable argsort of the states, so each run of one state
    lists its suffixes in ascending j, and run_start, run_len and run_state:
    each run's first rank in order, length and state, in ascending state.
    """
    suffix = _subset_states(n, range(n, n - b, -1))
    order = np.argsort(suffix, kind="stable")
    ranked = suffix[order]
    del suffix
    run_start = np.flatnonzero(np.diff(ranked, prepend=-1))
    return order, run_start, np.diff(run_start, append=len(ranked)), ranked[run_start]


def _find_runs(runs: _Runs, missing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each missing state's run in _suffix_runs: its first rank and its length, 0 if it has none."""
    _, run_start, run_len, run_state = runs
    run = np.searchsorted(run_state, missing)
    np.minimum(run, len(run_state) - 1, out=run)
    return run_start[run], np.where(run_state[run] == missing, run_len[run], 0)


def codeword_values(p: CodeParams) -> np.ndarray:
    """All members of the class as packed values, ascending: a meet-in-the-middle join.

    A word is a prefix i of the first a = n // 2 positions and a suffix j
    of the other b, position 1 the most significant bit of each, and its
    value is i << b | j.  It is a member when the suffix's residue state
    equals p's triple minus the prefix's.  _suffix_runs groups the suffixes
    by state, each run in ascending j; for every prefix in ascending i, one
    searchsorted over the runs' states finds the run of its missing state.
    The values then come out ascending with no sort, and the member count
    is known before any member array is allocated.
    """
    n = p.n
    _check_length(n, "class counting")
    a = n // 2
    b = n - a
    _check_cap(p, "the subset states", _listing_bytes(n, 0))
    runs = _suffix_runs(n, b)
    # What each prefix (bit k of i is position a - k) leaves for its suffix.
    first, count = _find_runs(runs, _subset_states(n, range(a, 0, -1), (p.c0, p.c1, p.c2), -1))
    total = int(count.sum())
    _check_cap(p, f"the {total} members", _listing_bytes(n, total))
    # Member m of prefix i takes the suffix at rank first[i] + m.
    rank = np.repeat(first - (np.cumsum(count) - count), count)
    rank += np.arange(total)
    values = np.repeat(np.arange(1 << a, dtype=np.int64) << b, count)
    values |= runs[0][rank]
    values = values.view(np.uint64)
    # 0^n can only come first and 1^n last.
    lo = int(total > 0 and values[0] == 0)
    hi = total - int(total > 0 and values[-1] == (1 << n) - 1)
    return values[lo:hi]


def _pick(p: CodeParams, h: int, runs: _Runs, i: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Class words picked by (prefix i, rank m) pairs; runs are _suffix_runs(n, h).

    Pair (i, m), bit k of i being position n - h - k, picks i << h | j, j
    the suffix of rank m in the run of i's missing state, if that run is
    longer than m; other pairs are dropped.  Distinct pairs pick distinct
    words, and every class word has one pair.
    """
    a = p.n - h
    shifts = np.array([_position_shift(a - k) for k in range(a)], dtype=np.int64).reshape(a, 3)
    parts = np.array([p.c0, p.c1, p.c2]) - ((i[:, None] >> np.arange(a)) & 1) @ shifts
    missing = np.ravel_multi_index(tuple((parts % _moduli(p.n)).T), _moduli(p.n))
    first, count = _find_runs(runs, missing)
    hit = m < count
    return i[hit] << h | runs[0][first[hit] + m[hit]]


def _random_members(p: CodeParams, rng: random.Random) -> Iterator[int]:
    """Endless members of a class with at least one, uniform, drawn without listing.

    Each batch draws uniform prefixes of the first n - h positions and ranks
    below the longest run of the last h, h = _listed_positions(n) (at most
    n^3 suffix states), and keeps the non-constant words that _pick finds.
    """
    n = p.n
    h = _listed_positions(n)
    runs = _suffix_runs(n, h)
    width = int(runs[2].max())
    # A draw is one random 64-bit word: its low r bits a rank, kept below
    # width, then n - h bits a prefix; r <= h, as no run is longer than 2^h.
    r = (width - 1).bit_length()
    constant = (0, (1 << n) - 1)
    while True:
        word = np.frombuffer(rng.randbytes(8 * _DRAW_BATCH), dtype=np.int64)
        m = word & ((1 << r) - 1)
        keep = m < width
        i = word[keep] >> r & ((1 << (n - h)) - 1)
        for value in _pick(p, h, runs, i, m[keep]).tolist():
            if value not in constant:
                yield value


def enumerate_code(p: CodeParams) -> Iterator[Word]:
    """Codewords in ascending numeric order (position 1 = most significant bit)."""
    for v in codeword_values(p):
        yield Word(p.n, int(v))
