"""Single-deletion single-substitution corruption of binary words."""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .words import Word, _check_length, delete_bit, flip_bit

__all__ = [
    "Substitution",
    "ErrorEvent",
    "WeightDeltaClass",
    "WeightWindowError",
    "WEIGHT_DELTA_TABLE",
    "CANONICAL_CLASS_BY_DELTA",
    "validate_event",
    "apply_del_sub",
    "iter_events",
    "iter_corruptions",
    "error_ball",
    "classify_weight_delta",
]


class Substitution(Enum):
    """Direction of the substituted symbol, if any."""

    NONE = "none"
    ZERO_TO_ONE = "0->1"
    ONE_TO_ZERO = "1->0"


class ErrorEvent(NamedTuple):
    """Deletion position d plus substitution position e (None = pure deletion)."""

    d: int
    e: int | None = None


class WeightDeltaClass(NamedTuple):
    """Weight drop wt(x) - wt(y) and the symbol values it pins down."""

    delta: int
    deleted_value: int
    substitution: Substitution


class WeightWindowError(ValueError):
    """The reconstructed original weight is impossible for the word length."""


# wt(x) - wt(y) for each (deleted symbol, substitution) combination.
WEIGHT_DELTA_TABLE: dict[tuple[int, Substitution], int] = {
    (1, Substitution.NONE): 1,
    (1, Substitution.ONE_TO_ZERO): 2,
    (1, Substitution.ZERO_TO_ONE): 0,
    (0, Substitution.NONE): 0,
    (0, Substitution.ONE_TO_ZERO): 1,
    (0, Substitution.ZERO_TO_ONE): -1,
}

# Canonical exactly-one-substitution reading of each possible weight drop:
# the substitution rows of WEIGHT_DELTA_TABLE, inverted.  Drops 0 and 1
# also arise from pure deletions, but on any non-constant word those
# re-express as a deletion plus one substitution.
CANONICAL_CLASS_BY_DELTA: dict[int, tuple[int, Substitution]] = {
    delta: key for key, delta in WEIGHT_DELTA_TABLE.items() if key[1] is not Substitution.NONE
}


def validate_event(n: int, ev: ErrorEvent) -> None:
    if n < 2:
        raise ValueError(f"deleting from a word needs length >= 2, got n={n}")
    if not 1 <= ev.d <= n:
        raise ValueError(f"deletion position {ev.d} out of range [1, {n}]")
    if ev.e is not None:
        if not 1 <= ev.e <= n:
            raise ValueError(f"substitution position {ev.e} out of range [1, {n}]")
        if ev.e == ev.d:
            raise ValueError(
                "substitution position must differ from the deletion position; "
                "use e=None for a pure deletion"
            )


def apply_del_sub(x: Word, ev: ErrorEvent) -> Word:
    """Flip position e (if any), then remove position d; the result has length n-1."""
    validate_event(x.n, ev)
    v = x.value
    if ev.e is not None:
        v = flip_bit(v, x.n, ev.e)
    return Word(x.n - 1, delete_bit(v, x.n, ev.d))


def iter_events(n: int) -> Iterator[ErrorEvent]:
    """All valid events on an n-bit word, pure deletions included."""
    for d in range(1, n + 1):
        yield ErrorEvent(d, None)
        for e in range(1, n + 1):
            if e != d:
                yield ErrorEvent(d, e)


def iter_corruptions(x: Word) -> Iterator[tuple[ErrorEvent, Word]]:
    """Every (event, corrupted word) pair, with multiplicity."""
    if x.n < 2:
        raise ValueError(f"corruption needs length >= 2, got n={x.n}")
    for ev in iter_events(x.n):
        v = x.value if ev.e is None else flip_bit(x.value, x.n, ev.e)
        yield ev, Word(x.n - 1, delete_bit(v, x.n, ev.d))


def _packed_deletions(values: Sequence[int], n: int) -> tuple[np.ndarray, np.uint64]:
    """Every word's distinct pure-deletion results, each packed as y << k | i.

    i is the word's index in k bits, so for ascending values the sorted
    keys order the entries by y and, within one y, by word.  The keys are
    exact while y and i fit in 64 bits: n - 1 + k <= 64.  Deleting any bit
    of a run of equal bits leaves one word, so only the last deletion of
    each run is kept, and one word's kept results are distinct.  Returns
    the flat uint64 key array, word by word, and k.
    """
    k = np.uint64((len(values) - 1).bit_length())
    xs = np.asarray(values, dtype=np.uint64)[:, None]
    keys = delete_bit(xs, n, np.arange(1, n + 1, dtype=np.uint64)) << k
    keys |= np.arange(len(values), dtype=np.uint64)[:, None]
    run_end = np.ones(keys.shape, dtype=bool)
    run_end[:, :-1] = keys[:, :-1] != keys[:, 1:]
    return keys[run_end], k


# What _ball_keys writes over a repeated ball entry: above every key, so it sorts last.
_REPEAT = np.iinfo(np.uint64).max


def _ball_keys(n: int, dels: np.ndarray, k: np.uint64) -> np.ndarray:
    """Every word's distinct ball entries, y << k | i, sorted; (dels, k) from _packed_deletions.

    Each kept deletion result and its n-1 single flips make one uint64
    array.  One word's rows r - 1 and r differ in one bit of y, at the
    earlier run's end, so their xor is the flip of that bit.  Flipping it
    in either row gives the other row's deletion, and flipping the r-2/r-1
    bit in row r gives row r - 2 with the r-1/r bit flipped.  These are a
    word's only repeats, 3R - 4M of them for R rows of M words.  They are
    set to _REPEAT, so one in-place sort puts them last and a slice cuts
    them off, with no mask and no copy.
    """
    flips = np.array([0] + [1 << q for q in range(n - 1)], dtype=np.uint64) << k
    keys = dels[:, None] ^ flips
    member = (np.uint64(1) << k) - np.uint64(1)
    step = dels[1:] ^ dels[:-1]
    pair = np.flatnonzero((step & member) == 0)  # rows j and j + 1 of one word
    chain = pair[:-1][np.diff(pair) == 1]  # rows j, j + 1 and j + 2 of one word
    col = np.bitwise_count((step >> k) - np.uint64(1)).astype(np.intp) + 1  # flips[col] == step
    keys[pair + 1, col[pair]] = _REPEAT
    keys[pair, col[pair]] = _REPEAT
    keys[chain + 2, col[chain]] = _REPEAT
    keys = keys.ravel()
    keys.sort()
    return keys[: len(keys) - 2 * len(pair) - len(chain)]


def error_ball(x: Word) -> set[Word]:
    """Distinct words reachable by one deletion and at most one substitution.

    Flipping e and then deleting d reaches the same word as deleting d and
    then flipping e's place, so the deletion results and their single flips
    cover the ball: _ball_keys of the one word, whose keys (k = 0) are the
    received words themselves.  Refuses n > SCAN_CEILING.
    """
    _check_length(x.n, "the corruption ball")
    keys = _ball_keys(x.n, *_packed_deletions([x.value], x.n))
    return {Word(x.n - 1, y) for y in keys.tolist()}


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Bit lengths of int64 values in [0, 2^62), 0 for 0.

    frexp's exponent e is the bit length, except where a value of 2^53 or
    more rounds up to 2^e: then v < 2^(e-1).
    """
    e = np.frexp(v)[1]
    return e - (v < (np.int64(1) << e >> 1))


def _substitution_witnesses(
    n: int, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every substitution witness (d, e) mapping x to y, for int64 arrays of rows.

    Deleting d leaves x_1..x_{d-1} facing y_1..y_{d-1} and x_{d+1}..x_n
    facing y_d..y_{n-1}, so A = (x >> 1) ^ y holds the mismatches before d
    and B = (x mod 2^(n-1)) ^ y those from d on.  With a1 < a2 the first
    two mismatches of A (n when absent) and b1 > b2 the last two of B (0
    when absent), the witnesses are d in (b2, min(b1, a1)] with e = b1 + 1
    and d in (max(a1, b1), a2] with e = a1; d in (b1, a1] leaves no
    mismatch, a pure deletion.  Exact for n <= SCAN_CEILING.  Returns
    (row, d, e), one entry per witness, by row and ascending d.
    """
    a = (x >> 1) ^ y
    b = (x & ((1 << (n - 1)) - 1)) ^ y
    # Position q of y is bit n-1-q, so the highest set bit is the first mismatch.
    a_len = _bit_length(a)
    a1 = n - a_len
    a2 = n - _bit_length(a ^ (np.int64(1) << a_len >> 1))  # a without its highest bit
    rest = b & (b - 1)  # b without its lowest bit
    b1 = np.where(b != 0, n - _bit_length(b ^ rest), 0)
    b2 = np.where(rest != 0, n - _bit_length(rest & -rest), 0)
    lo = np.stack((b2, np.maximum(a1, b1)), axis=1).ravel()
    hi = np.maximum(np.stack((np.minimum(b1, a1), a2), axis=1).ravel(), lo)
    e = np.stack((b1 + 1, a1), axis=1).ravel()
    size = hi - lo
    interval = np.repeat(np.arange(len(size)), size)
    step = np.arange(len(interval)) - np.repeat(np.cumsum(size) - size, size)
    return interval // 2, lo[interval] + 1 + step, e[interval]


def classify_weight_delta(c0: int, wt_y: int, n: int) -> WeightDeltaClass:
    """Recover the corruption pattern from the received weight.

    Exactly one of wt_y - 1 .. wt_y + 2 is congruent to c0 mod 4; that
    value must be the original weight, and the implied drop pins the
    deleted symbol and the substitution direction.  Raises
    WeightWindowError when the recovered weight cannot occur in an n-bit
    word.
    """
    if not 0 <= c0 < 4:
        raise ValueError(f"weight residue must lie in [0, 4), got {c0}")
    if wt_y < 0:
        raise ValueError(f"received weight must be nonnegative, got {wt_y}")
    delta = (c0 - wt_y + 1) % 4 - 1  # unique value in {-1, 0, 1, 2}
    wt_x = wt_y + delta
    if not 0 <= wt_x <= n:
        raise WeightWindowError(
            f"no {n}-bit word has weight {wt_x} "
            f"(received weight {wt_y}, weight residue {c0})"
        )
    deleted, sub = CANONICAL_CLASS_BY_DELTA[delta]
    return WeightDeltaClass(delta, deleted, sub)
