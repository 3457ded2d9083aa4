"""List decoding of a received (n-1)-bit word against one residue class."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    _FLIP_OF,
    CANONICAL_CLASS_BY_DELTA,
    ErrorEvent,
    WeightWindowError,
    _substitution_witnesses,
    _weight_drop,
    classify_weight_delta,
)
from .code import CodeParams, _moduli, matches_value
from .syndromes import _position_shift
from .words import SCAN_CEILING, Word, _check_length, flip_bit, insert_bit

__all__ = [
    "DecodeResult",
    "ListBoundError",
    "canonical_witness",
    "list_decode_brute",
    "list_decode",
]


class ListBoundError(RuntimeError):
    """More than two codewords cover one received word: the class is broken."""


# Indexed by weight drop + 1, drop = -1..2: the symbol the deletion removed,
# which decoding inserts, and the symbol the substitution wrote (the
# flipped-back symbol), which decoding flips.
_INSERTED, _FLIPPED_BACK = np.array([
    (deleted, 1 - _FLIP_OF.index(sub))
    for _, (deleted, sub) in sorted(CANONICAL_CLASS_BY_DELTA.items())
]).T


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """Candidate codewords (at most two) with canonical witnesses.

    `examined` is the number of deletion positions the decoder tested: a
    count of the work done, not a setting.  It is n, and 0 when the
    received weight fits no word of the class.
    """

    candidates: list[tuple[Word, ErrorEvent]]
    examined: int

    @property
    def words(self) -> list[Word]:
        return [w for w, _ in self.candidates]


def canonical_witness(x: Word, y: Word) -> ErrorEvent:
    """Deterministic witness: smallest (d, e) with a substitution when one exists.

    The first of channel._substitution_witnesses on the one pair: every
    non-constant word that reaches y has one, while a constant word reaches
    its own deletion only by pure deletions, the first at d = 1.
    """
    n = x.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit original length {n}")
    _check_length(n, "canonical_witness")
    _, d, e = _substitution_witnesses(n, np.array([x.value]), np.array([y.value]))  # int64
    if len(d):
        return ErrorEvent(int(d[0]), int(e[0]))
    if x.value in (0, (1 << n) - 1) and y.value == x.value >> 1:
        return ErrorEvent(1, None)
    raise ValueError(f"{y} is not reachable from {x}")


def _collect(found: dict[int, ErrorEvent], y: Word, p: CodeParams, examined: int) -> DecodeResult:
    if len(found) > 2:
        raise ListBoundError(
            f"{len(found)} codewords of {p} reach {y}; the two-candidate bound is broken"
        )
    return DecodeResult([(Word(p.n, v), found[v]) for v in sorted(found)], examined)


def list_decode_brute(y: Word, p: CodeParams) -> DecodeResult:
    """Definitional decoder: insert one bit anywhere, flip at most one other, filter.

    Candidates number 2n^2; membership filtering keeps exactly the
    codewords whose corruption ball contains y.  Like canonical_witness,
    which names each candidate's witness, it stops at SCAN_CEILING.
    """
    n = p.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit code length {n}")
    _check_length(n, "list_decode_brute")
    examined = 0
    found: set[int] = set()
    for d in range(1, n + 1):
        for b in (0, 1):
            base = insert_bit(y.value, n - 1, d, b)
            examined += 1
            if matches_value(p, base):
                found.add(base)
            for e in range(1, n + 1):
                if e == d:
                    continue
                cand = flip_bit(base, n, e)
                examined += 1
                if matches_value(p, cand):
                    found.add(cand)
    return _collect({v: canonical_witness(Word(n, v), y) for v in found}, y, p, examined)


@functools.lru_cache(maxsize=16)
def _kernel_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """_decode_rows' per-length constants.

    The shifts that read y's positions q = 1..n-1 (bit n-1-q), in the word
    dtype (int64 while n-bit words fit it, n <= SCAN_CEILING, Python ints
    above), and column i of a (3, 2n) table: what a 1 at position i adds to
    (wt, f1, f2), for i = 0..2n-1, every residue of f1 mod 2n.  Both are
    read-only, since every caller shares them.
    """
    shifts = np.arange(n - 2, -1, -1).astype(np.int64 if n <= SCAN_CEILING else object)
    steps = np.array([_position_shift(i) for i in range(2 * n)]).T
    shifts.flags.writeable = steps.flags.writeable = False
    return shifts, steps


def _decode_rows(
    values: Sequence[int] | np.ndarray, p: CodeParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate of every received (n-1)-bit word in values, by syndrome arithmetic.

    The received weight fixes the symbol b the deletion removed and the
    symbol the substitution wrote.  Inserting b at d adds W + b*d to f1 and
    F + W + b*d(d+1)/2 to f2, where W and F are y's weight and sum of
    1-positions from position d on.  Flipping e back then moves f1 by ±e,
    so its residue mod 2n names the one possible e (Levenshtein's VT
    deficiency argument), and the f2 residue accepts or rejects it: O(1)
    per deletion.  Returns (row, x, d, e) with rows ascending, x ascending
    within a row and, for each x, the witness with the smallest d, which
    is its canonical witness.  x has values' dtype: int64 for n <=
    SCAN_CEILING, Python ints above.
    """
    n = p.n
    _, m1, m2 = _moduli(n)
    shifts, steps = _kernel_tables(n)
    _, d, tri = steps[:, 1 : n + 1]  # d = 1..n and d(d+1)/2
    values = np.asarray(values, dtype=shifts.dtype)
    bits = ((values[:, None] >> shifts) & 1).astype(np.int64)
    # sums[:, k, d - 1]: component k of (wt, f1, f2) over y's positions d..n-1.
    sums = np.zeros((len(values), 3, n), dtype=np.int64)
    np.cumsum((bits[:, None, :] * steps[:, 1:n])[..., ::-1], axis=2, out=sums[..., -2::-1])
    w_from, f_from = sums[:, 0], sums[:, 1]
    drop = _weight_drop(p.c0, w_from[:, 0])
    weight = w_from[:, 0] + drop  # every candidate's
    fits = (0 < weight) & (weight < n)  # a constant word is in no class
    inserted = _INSERTED[drop + 1][:, None]
    back = _FLIPPED_BACK[drop + 1][:, None]
    sign = 2 * back - 1  # flipping position e back moves f1 by -sign * e
    f1 = f_from[:, :1] + w_from + inserted * d
    f2 = sums[:, 2, :1] + f_from + w_from + inserted * tri
    e = sign * (f1 - p.c1) % m1
    # The base word's symbol at e != d is y's at e before d and at e - 1 after
    # it; column 0 and columns n.. of `symbols` hold 2, which matches no
    # symbol, so an e outside 1..n never hits.
    symbols = np.full((len(values), 2 * n), 2, dtype=np.int64)
    symbols[:, 1:n] = bits
    at_e = symbols.ravel()[e - (e > d) + 2 * n * np.arange(len(values))[:, None]]
    hit = fits[:, None] & (at_e == back)
    hit &= e != d
    hit &= (f2 - sign * steps[2, e] - p.c2) % m2 == 0
    row, col = np.nonzero(hit)
    d, e = col + 1, e[row, col]
    word = shifts.dtype
    x = insert_bit(values[row], n - 1, d.astype(word), inserted[row, 0].astype(word))
    x ^= 1 << (n - e).astype(word)
    order = np.lexsort((d, x, row))
    row, x, d, e = row[order], x[order], d[order], e[order]
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (x[1:] != x[:-1])
    return row[first], x[first], d[first], e[first]


def list_decode(y: Word, p: CodeParams) -> DecodeResult:
    """Syndrome-arithmetic decoder; extensionally equal to list_decode_brute.

    _decode_rows on the one row.  `examined` counts the deletions tested:
    n when the received weight fits a word of the class, else 0.  Takes
    any length.
    """
    n = p.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit code length {n}")
    try:
        classify_weight_delta(p.c0, y.weight, n)
    except WeightWindowError:
        return DecodeResult([], 0)
    _, x, d, e = _decode_rows([y.value], p)
    found = {v: ErrorEvent(*ev) for v, *ev in zip(x.tolist(), d.tolist(), e.tolist())}
    return _collect(found, y, p, n)
