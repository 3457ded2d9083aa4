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
    _weight_drop,
)
from .code import CodeParams, _moduli, matches_value
from .syndromes import _position_shift
from .words import SCAN_CEILING, Word, _check_length, flip_bit, insert_bit

__all__ = [
    "DecodeResult",
    "ListBoundError",
    "list_decode_brute",
    "list_decode",
]


class ListBoundError(RuntimeError):
    """More than two codewords cover one received word: the class is broken."""


# Per weight drop, -1..2: the symbol the deletion removed, which decoding
# inserts, and the symbol the substitution wrote (the flipped-back symbol),
# which decoding flips.
_SYMBOLS = {
    drop: (deleted, 1 - _FLIP_OF.index(sub))
    for drop, (deleted, sub) in sorted(CANONICAL_CLASS_BY_DELTA.items())
}


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """Candidate codewords (at most two) with canonical witnesses.

    `examined` is the number of deletion positions the decoder tested: a
    count of the work done, not a setting.  It is n when the weight the
    received weight's drop recovers is a non-constant word's, and 0
    otherwise, where no kernel runs.
    """

    candidates: list[tuple[Word, ErrorEvent]]
    examined: int

    @property
    def words(self) -> list[Word]:
        return [w for w, _ in self.candidates]


def _collect(found: dict[int, ErrorEvent], y: Word, p: CodeParams, examined: int) -> DecodeResult:
    if len(found) > 2:
        raise ListBoundError(
            f"{len(found)} codewords of {p} reach {y}; the two-candidate bound is broken"
        )
    return DecodeResult([(Word(p.n, v), found[v]) for v in sorted(found)], examined)


def list_decode_brute(y: Word, p: CodeParams) -> DecodeResult:
    """Definitional decoder: insert one bit anywhere, flip at most one other, filter.

    Candidates number 2n^2; membership filtering keeps exactly the
    codewords whose corruption ball contains y.  Each keeps the first
    substitution event of the ascending (d, e) loop that produced it: for
    one d at most one e maps a word to y, so that is its canonical
    witness.  Stops at SCAN_CEILING.
    """
    n = p.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit code length {n}")
    _check_length(n, "list_decode_brute")
    examined = 0
    found: dict[int, ErrorEvent] = {}
    deleted: set[int] = set()
    for d in range(1, n + 1):
        for b in (0, 1):
            base = insert_bit(y.value, n - 1, d, b)
            examined += 1
            if matches_value(p, base):
                deleted.add(base)
            for e in range(1, n + 1):
                if e == d:
                    continue
                cand = flip_bit(base, n, e)
                examined += 1
                if matches_value(p, cand):
                    found.setdefault(cand, ErrorEvent(d, e))
    # Only a constant word reaches y by pure deletions alone, and no class holds one.
    if not deleted <= found.keys():
        raise RuntimeError(f"members {sorted(deleted - found.keys())} reach {y} only by deletion")
    return _collect(found, y, p, examined)


@functools.lru_cache(maxsize=16)
def _kernel_tables(n: int) -> np.ndarray:
    """The kernel's per-length constants, int64 at every n.

    Column i of a (3, 2n) table: what a 1 at position i adds to (wt, f1,
    f2), for i = 0..2n-1, every residue of f1 mod 2n.  Read-only, since
    every caller shares it.
    """
    steps = np.array([_position_shift(i) for i in range(2 * n)], dtype=np.int64).T
    steps.flags.writeable = False
    return steps


def _fits(weight, n):
    """Whether a candidate weight is a class member's: no class holds a constant word.

    Elementwise on integer arrays, like channel._weight_drop.
    """
    return (0 < weight) & (weight < n)


def _symbol_rows(values: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Received (n-1)-bit words as padded (rows, 2n) int64 rows of symbols.

    Column q = 1..n-1 of a row holds the word's symbol at position q;
    column 0 and columns n.. hold 2, which matches no symbol.  An int64
    array is read through its big-endian bytes, Python ints through
    int.to_bytes; np.unpackbits spreads either, and the last n-1 bits of
    each row are the word's.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        octets = values.astype(">i8").view(np.uint8).reshape(len(values), 8)
    else:
        size = (n + 6) // 8
        octets = np.frombuffer(b"".join(int(v).to_bytes(size, "big") for v in values), np.uint8)
        octets = octets.reshape(len(values), size)
    bits = np.unpackbits(octets, axis=1)
    symbols = np.full((len(values), 2 * n), 2, dtype=np.int64)
    symbols[:, 1:n] = bits[:, bits.shape[1] - (n - 1) :]
    return symbols


def _decode_class(
    symbols: np.ndarray, p: CodeParams, drop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (row, d, e) hit of received words that share one weight drop and fit.

    symbols are _symbol_rows' padded rows, and every array here is int64
    at every n.  The drop fixes the symbol b the deletion removed and the
    symbol the substitution wrote.  Inserting b at d adds W + b*d to f1 and
    F + W + b*d(d+1)/2 to f2, where W and F are y's weight and sum of
    1-positions from position d on.  Flipping e back then moves f1 by -e
    when it flips a 1 and by +e when it flips a 0, so the f1 residue mod 2n
    names the one possible e (Levenshtein's VT deficiency argument), and
    the f2 residue accepts or rejects it: O(1) per deletion.  Hits come by
    row, then by ascending d (np.nonzero's row-major order), and
    list_decode relies on it; one x may hit at several d.  The callers
    rebuild x from (row, d, e).
    """
    n = p.n
    _, m1, m2 = _moduli(n)
    steps = _kernel_tables(n)
    _, d, tri = steps[:, 1 : n + 1]  # d = 1..n and d(d+1)/2
    inserted, back = _SYMBOLS[drop]
    # sums[:, k, d - 1]: component k of (wt, f1, f2) over y's positions d..n-1.
    sums = np.zeros((len(symbols), 3, n), dtype=np.int64)
    np.cumsum((symbols[:, None, 1:n] * steps[:, 1:n])[..., ::-1], axis=2, out=sums[..., -2::-1])
    w_from, f_from = sums[:, 0], sums[:, 1]
    f1 = f_from[:, :1] + w_from
    f1 -= p.c1
    f2 = sums[:, 2, :1] + f_from
    f2 += w_from
    f2 -= p.c2
    if inserted:
        f1 += d
        f2 += tri
    e = f1 if back else np.negative(f1, out=f1)
    e %= m1
    # The base word's symbol at e is y's at e before d and at e - 1 after
    # it.  e == d reads pad column 0, as does e = 0, and an e past n reads
    # pad past column n - 1: none of them hits.
    at = e - (e > d)
    at[e == d] = 0
    at += 2 * n * np.arange(len(symbols))[:, None]
    hit = symbols.ravel()[at] == back
    if back:
        f2 -= steps[2, e]
    else:
        f2 += steps[2, e]
    f2 %= m2
    hit &= f2 == 0
    row, col = np.nonzero(hit)
    return row, col + 1, e[row, col]


def _first_hits(
    row: np.ndarray, x: np.ndarray, d: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The hits by row and ascending x, each (row, x) once with its smallest d.

    That d's (d, e) is x's canonical witness.  It merges _decode_rows' four
    drop groups back into row order; list_decode's one row needs no sort.
    """
    order = np.lexsort((d, x, row))
    row, x, d, e = row[order], x[order], d[order], e[order]
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (x[1:] != x[:-1])
    return row[first], x[first], d[first], e[first]


def _decode_rows(
    values: Sequence[int] | np.ndarray, p: CodeParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate of every received (n-1)-bit word in values, by syndrome arithmetic.

    The route for many words, which smoke_report takes per draw batch: groups
    the words whose candidates' weight fits by weight drop, runs
    _decode_class once per drop on their symbol rows, and rebuilds each
    hit's x from its row's value, vectorised.  Returns (row, x, d, e) with
    rows ascending, x ascending within a row and, for each x, its canonical
    witness.  The kernel is int64 at every n; x has the values' dtype,
    int64 for n <= SCAN_CEILING and Python ints above.
    """
    n = p.n
    word = np.int64 if n <= SCAN_CEILING else object
    values = np.asarray(values, dtype=word)
    symbols = _symbol_rows(values, n)
    weight = symbols[:, 1:n].sum(axis=1)
    drop = _weight_drop(p.c0, weight)
    fits = _fits(weight + drop, n)
    hits = []
    for k, (inserted, _) in _SYMBOLS.items():
        rows = np.flatnonzero(fits & (drop == k))
        row, d, e = _decode_class(symbols[rows], p, k)
        row = rows[row]
        x = insert_bit(values[row], n - 1, d.astype(word, copy=False), inserted)
        x ^= 1 << (n - e).astype(word, copy=False)
        hits.append((row, x, d, e))
    return _first_hits(*map(np.concatenate, zip(*hits)))


def list_decode(y: Word, p: CodeParams) -> DecodeResult:
    """Syndrome-arithmetic decoder; extensionally equal to list_decode_brute.

    _decode_class on the one row, in the class its weight drop names, then
    each hit's x rebuilt in Python ints: there are only ever a few.  The
    hits come in ascending d, so each x's first hit is its canonical
    witness.  `examined` counts the deletions tested: n when the recovered
    weight is a non-constant word's, else 0.  Takes any length.
    """
    n = p.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit code length {n}")
    drop = _weight_drop(p.c0, y.weight)
    weight = y.weight + drop
    if not _fits(weight, n):
        # Weight 0 or n is a constant word's, which no class holds: no deletion is tested.
        return DecodeResult([], 0)
    _, d, e = _decode_class(_symbol_rows([y.value], n), p, drop)
    inserted, _ = _SYMBOLS[drop]
    found: dict[int, ErrorEvent] = {}
    for dv, ev in zip(d.tolist(), e.tolist()):
        x = flip_bit(insert_bit(y.value, n - 1, dv, inserted), n, ev)
        found.setdefault(x, ErrorEvent(dv, ev))
    return _collect(found, y, p, n)
