"""The residue-class code family: class counting and member enumeration."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .syndromes import wt_f1_f2
from .words import Word

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

# Class counts are exact int64 up to here: every count, and their total
# 2^n - 2, stays below 2^63.
SCAN_CEILING = 62

# codeword_values refuses a class whose reachability table (n * 16n^3
# bytes) and member arrays would together pass this many bytes.
ENUMERATION_BYTE_CAP = 1 << 29
# Peak working bytes per prefix of the last (widest) level: packed values
# and flat states of the level, of its two-way expansion and of the
# residue arithmetic in between (82 measured with tracemalloc).
_BYTES_PER_PREFIX = 96


def _moduli(n: int) -> tuple[int, int, int]:
    """Moduli of the (c0, c1, c2) residues at length n: 4, 2n and 2n^2.

    Also the shape of the class counter table, whose C-order ravel is the
    flat bucket layout, so ascending index is lexicographic (c0, c1, c2).
    """
    return 4, 2 * n, 2 * n * n


def _position_shift(i: int) -> tuple[int, int, int]:
    """What a 1 at position i adds to (wt, f1, f2)."""
    return 1, i, i * (i + 1) // 2


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


def _check_scan_n(n: int) -> None:
    if not 2 <= n <= SCAN_CEILING:
        raise ValueError(f"class counting supports 2 <= n <= {SCAN_CEILING}, got {n}")


def _strip_constant_words(counts: np.ndarray, n: int) -> None:
    # 0^n and 1^n are excluded from every class by definition.
    for w in (Word.zeros(n), Word.ones(n)):
        counts[params_of(w).bucket_index] -= 1


def bucket_counts(n: int) -> np.ndarray:
    """Size of every residue class, the two constant words excluded.

    The flat layout is that of bucket_index, so ascending index order is
    lexicographic (c0, c1, c2) order.  The sizes are the
    coefficients of prod_i (1 + t^(1, i, i(i+1)/2)) over Z4 x Z2n x Z2n^2,
    found in n passes over the 16n^3 cells with no scan of {0,1}^n.
    """
    _check_scan_n(n)
    table = np.zeros(_moduli(n), dtype=np.int64)
    table[0, 0, 0] = 1  # the empty word
    for i in range(1, n + 1):
        # Factor i: every word so far either leaves position i at 0 or adds its shift.
        table += np.roll(table, _position_shift(i), axis=(0, 1, 2))
    counts = table.ravel()
    _strip_constant_words(counts, n)
    return counts


def choose_params(n: int) -> tuple[CodeParams, CodeStats]:
    """Largest residue class at length n; ties break to the smallest triple.

    The 16n^3 classes partition {0,1}^n minus the constant words, so the
    winner holds at least (2^n - 2) / 16n^3 words.
    """
    counts = bucket_counts(n)
    best = int(np.argmax(counts))  # first maximum = smallest (c0, c1, c2)
    return params_from_bucket(n, best), CodeStats(n, int(counts[best]))


def _reachability(p: CodeParams) -> np.ndarray:
    """Backward reachability table, one row per prefix length.

    Row k - 1 marks the flat residue states that positions 1..k may leave
    and that some choice of positions k+1..n still carries to p's triple.
    """
    n = p.n
    reach = np.zeros((n,) + _moduli(n), dtype=bool)
    reach[n - 1][p.c0, p.c1, p.c2] = True
    for k in range(n - 1, 0, -1):
        back = tuple(-v for v in _position_shift(k + 1))
        np.logical_or(reach[k], np.roll(reach[k], back, axis=(0, 1, 2)), out=reach[k - 1])
    return reach.reshape(n, -1)


def _set_position(state: np.ndarray, n: int, i: int) -> np.ndarray:
    """Flat residue states after a 1 is placed at position i."""
    m0, m1, m2 = _moduli(n)
    wt, rest = np.divmod(state, m1 * m2)
    f1, f2 = np.divmod(rest, m2)
    d0, d1, d2 = _position_shift(i)
    return (((wt + d0) % m0) * m1 + (f1 + d1) % m1) * m2 + (f2 + d2) % m2


def codeword_values(p: CodeParams) -> np.ndarray:
    """All members of the class as packed values, ascending."""
    _check_scan_n(p.n)
    return _list_values(p, int(bucket_counts(p.n)[p.bucket_index]))


def _list_values(p: CodeParams, size: int) -> np.ndarray:
    """codeword_values for a class already counted to hold size members.

    Prefixes grow one position at a time, 0 before 1, and a prefix is kept
    only when the reachability table says some suffix completes it into the
    class; so every level holds at most the class size plus the two constant
    words, and values stay in ascending order.
    """
    n = p.n
    need = n * math.prod(_moduli(n)) + _BYTES_PER_PREFIX * (size + 2)  # table + widest level
    if need > ENUMERATION_BYTE_CAP:
        raise ValueError(
            f"listing the {size} members of {p} needs about {need} bytes, "
            f"over the {ENUMERATION_BYTE_CAP}-byte cap"
        )
    reach = _reachability(p)
    values = np.zeros(1, dtype=np.uint64)
    state = np.zeros(1, dtype=np.int64)
    for k in range(1, n + 1):
        state = np.stack((state, _set_position(state, n, k)), axis=1).ravel()
        keep = reach[k - 1][state]
        state = state[keep]
        twice = values << 1
        values = np.stack((twice, twice | 1), axis=1).ravel()[keep]
    top = np.uint64((1 << n) - 1)
    return values[(values != 0) & (values != top)]


def _random_members(p: CodeParams, rng: random.Random) -> Iterator[int]:
    """Endless members of a class with at least one, drawn without listing.

    Each draw walks down the reachability table from the empty prefix,
    picking at each position one of the bits whose next state some suffix
    still completes into the class, and starts over when it ends on a
    constant word.  Every member can be drawn, but not with equal
    probability.  Only the table (n * 16n^3 bytes) is allocated, so any
    length up to SCAN_CEILING stays under ENUMERATION_BYTE_CAP.
    """
    n = p.n
    reach = _reachability(p)
    top = (1 << n) - 1
    while True:
        state = value = 0
        for k in range(1, n + 1):
            steps = [(0, state), (1, int(_set_position(state, n, k)))]
            bit, state = rng.choice([(b, s) for b, s in steps if reach[k - 1][s]])
            value = value << 1 | bit
        if value not in (0, top):
            yield value


def enumerate_code(p: CodeParams) -> Iterator[Word]:
    """Codewords in ascending numeric order (position 1 = most significant bit)."""
    for v in codeword_values(p):
        yield Word(p.n, int(v))
