"""List decoding of a received (n-1)-bit word against one residue class."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    ErrorEvent,
    Substitution,
    WeightWindowError,
    _substitution_witnesses,
    classify_weight_delta,
)
from .code import CodeParams, _moduli, matches_value
from .syndromes import wt_f1_f2
from .words import Word, _check_length, flip_bit, insert_bit

__all__ = [
    "DecodeResult",
    "ListBoundError",
    "canonical_witness",
    "list_decode_brute",
    "list_decode",
]


class ListBoundError(RuntimeError):
    """More than two codewords cover one received word: the class is broken."""


@dataclass(frozen=True)
class DecodeResult:
    """Candidate codewords (at most two) with canonical witnesses.

    `examined` is the number of membership tests the pruned decoder ran:
    a count of the work done, not a setting.  It is n times the number of
    symbols of y equal to the flipped-back symbol, and 0 when the received
    weight fits no word of the class.
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


def list_decode(y: Word, p: CodeParams) -> DecodeResult:
    """Weight-pruned decoder; extensionally equal to list_decode_brute.

    The received weight determines the deleted symbol and the substitution
    direction, so only one insertion value and one flip direction survive:
    about a quarter of the brute-force candidates.  Each deletion d walks
    only the other positions holding the flipped-back symbol, so every
    candidate has the recovered weight, c0 mod 4, and one syndrome read
    checks (c1, c2).  Every substitution witness of a candidate carries those
    symbols, so the search's first hit, at the smallest d, is the canonical one.
    """
    n = p.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit code length {n}")
    try:
        cls = classify_weight_delta(p.c0, y.weight, n)
    except WeightWindowError:
        return DecodeResult([], 0)
    inserted = cls.deleted_value
    # The substitution happened on the way out; decoding flips it back.
    flip_from = 1 if cls.substitution is Substitution.ZERO_TO_ONE else 0
    full = (1 << n) - 1
    _, m1, m2 = _moduli(n)
    examined = 0
    found: dict[int, ErrorEvent] = {}
    for d in range(1, n + 1):
        base = insert_bit(y.value, n - 1, d, inserted)
        flips = (base if flip_from else full ^ base) & ~(1 << (n - d))
        examined += flips.bit_count()
        while flips:
            bit = flips & -flips
            flips ^= bit
            cand = base ^ bit
            _, f1, f2 = wt_f1_f2(cand, n)
            if f1 % m1 == p.c1 and f2 % m2 == p.c2 and 0 < cand < full:
                e = n + 1 - bit.bit_length()
                found.setdefault(cand, ErrorEvent(d, e))
    return _collect(found, y, p, examined)
