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
def _kernel_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's per-length constants: four O(n) int64 arrays.

    With T(i) = i(i+1)/2:
    - terms, (3, n - 1): (1, q + 1, T(q + 1)) for received positions
      q = 1..n-1, what y_q adds to (wt, f1, f2) once an insertion before it
      moves it to q + 1;
    - inserts, (2, n): (d, T(d)) for d = 1..n, what inserting a 1 at d
      adds to (f1, f2);
    - tri, (2n,): T(e) for e = 0..2n-1, every residue of f1 mod 2n;
    - shift, (3n,): at index e - d + n, the step from the base word's
      position e to its column of a padded symbol row: 0 for e < d, -1
      for e > d, and n - 1 for e = d, which lands in the pad.
    Read-only, since every caller shares them.
    """
    steps = np.array([_position_shift(i) for i in range(2 * n)], dtype=np.int64).T
    tables = (
        steps[:, 2 : n + 1].copy(),
        steps[1:, 1 : n + 1].copy(),
        steps[2].copy(),
        np.repeat(np.array([0, n - 1, -1], dtype=np.int64), [n, 1, 2 * n - 1]),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


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
    symbol the substitution wrote.  Inserting b at d moves each y_q with
    q >= d to position q + 1, and T(q + 1) - T(q) = q + 1, so the base word
    has f1 = sum (q+1) y_q - sum_{q<d} y_q + b*d and f2 = sum T(q+1) y_q -
    sum_{q<d} (q+1) y_q + b*T(d): one forward cumsum of the term rows gives
    both at every d.  Flipping e back then moves f1 by -e when it flips a 1
    and by +e when it flips a 0, so the f1 residue mod 2n names the one
    possible e (Levenshtein's VT deficiency argument), and the f2 residue
    accepts or rejects it: O(1) per deletion.  Hits come by row, then by
    ascending d (np.nonzero's row-major order), and list_decode relies on
    it; one x may hit at several d.  The callers rebuild x from (row, d, e).
    """
    n = p.n
    _, m1, m2 = _moduli(n)
    terms, inserts, tri, shift = _kernel_tables(n)
    inserted, back = _SYMBOLS[drop]
    # sums[:, k, j]: term row k summed over y's positions 1..j, for j = 0..n-1.
    sums = np.zeros((len(symbols), 3, n), dtype=np.int64)
    np.cumsum(symbols[:, None, 1:n] * terms, axis=2, out=sums[..., 1:])
    # f[:, :, d - 1]: the base word's (f1, f2) less (c1, c2), from the
    # shifted totals less the prefixes before d.
    f = (sums[:, 1:, -1:] - [[p.c1], [p.c2]]) - sums[:, :2]
    if inserted:
        f += inserts
    f1, f2 = f[:, 0], f[:, 1]
    e = f1 if back else np.negative(f1, out=f1)
    e %= m1
    # The base word's symbol at e sits in y's column e before d and e - 1
    # after it; e == d, e = 0 and e > n read pad, which no hit matches.
    at = e - inserts[0]
    at += n
    at = shift[at] + e
    at += 2 * n * np.arange(len(symbols))[:, None]
    hit = symbols.ravel()[at] == back
    if back:
        f2 -= tri[e]
    else:
        f2 += tri[e]
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
