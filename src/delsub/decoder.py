"""List decoding of a received (n-1)-bit word against one residue class."""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ErrorEvent, Substitution, WeightWindowError, classify_weight_delta
from .code import CodeParams, matches_value
from .words import Word, flip_bit, get_bit, insert_bit

__all__ = [
    "DecodeResult",
    "ListBoundError",
    "all_witnesses",
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
    a count of the work done, not a setting.
    """

    candidates: list[tuple[Word, ErrorEvent]]
    examined: int

    @property
    def words(self) -> list[Word]:
        return [w for w, _ in self.candidates]


def all_witnesses(x: Word, y: Word) -> list[ErrorEvent]:
    """Every event mapping x to y: substitution events first, then by (d, e).

    Deleting position d leaves x_1..x_{d-1} facing y_1..y_{d-1} and
    x_{d+1}..x_n facing y_d..y_{n-1}.  So two masks over y's positions
    decide every d at once: A = (x >> 1) ^ y compares x_1..x_{n-1} with y
    and B = (x mod 2^(n-1)) ^ y compares x_2..x_n with y.  Deleting d
    leaves A's mismatches before d and B's from d on.  With a1 < a2 the
    first two mismatches of A (n when absent) and b1 > b2 the last two of
    B (0 when absent):

    - d in (b2, min(b1, a1)] leaves only B's b1: witness (d, b1 + 1);
    - d in (max(a1, b1), a2] leaves only A's a1: witness (d, a1);
    - d in (b1, a1] leaves nothing: the pure deletion (d, None).

    The first range lies below the second, so the substitutions come out
    ordered by d.
    """
    n = x.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit original length {n}")
    a = (x.value >> 1) ^ y.value
    b = (x.value & ((1 << (n - 1)) - 1)) ^ y.value
    # Position q of y is bit n-1-q, so the highest set bit is the first mismatch.
    a1 = n - a.bit_length()
    a2 = n - (a ^ (1 << (a.bit_length() - 1))).bit_length() if a else n
    low = b & -b
    b1 = n - low.bit_length() if b else 0
    rest = b ^ low
    b2 = n - (rest & -rest).bit_length() if rest else 0
    return (
        [ErrorEvent(d, b1 + 1) for d in range(b2 + 1, min(b1, a1) + 1)]
        + [ErrorEvent(d, a1) for d in range(max(a1, b1) + 1, a2 + 1)]
        + [ErrorEvent(d, None) for d in range(b1 + 1, a1 + 1)]
    )


def canonical_witness(x: Word, y: Word) -> ErrorEvent:
    """Deterministic witness: smallest (d, e) with a substitution when one exists."""
    witnesses = all_witnesses(x, y)
    if not witnesses:
        raise ValueError(f"{y} is not reachable from {x}")
    return witnesses[0]


def _collect(found: dict[int, ErrorEvent], y: Word, p: CodeParams, examined: int) -> DecodeResult:
    if len(found) > 2:
        raise ListBoundError(
            f"{len(found)} codewords of {p} reach {y}; the two-candidate bound is broken"
        )
    return DecodeResult([(Word(p.n, v), found[v]) for v in sorted(found)], examined)


def list_decode_brute(y: Word, p: CodeParams) -> DecodeResult:
    """Definitional decoder: insert one bit anywhere, flip at most one other, filter.

    Candidates number 2n^2; membership filtering keeps exactly the
    codewords whose corruption ball contains y.
    """
    n = p.n
    if y.n != n - 1:
        raise ValueError(f"received length {y.n} does not fit code length {n}")
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
    about a quarter of the brute-force candidates.  Every substitution
    witness of a candidate carries those symbols, and the search visits
    them in ascending (d, e), so its first hit is the canonical witness.
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
    examined = 0
    found: dict[int, ErrorEvent] = {}
    for d in range(1, n + 1):
        base = insert_bit(y.value, n - 1, d, inserted)
        for e in range(1, n + 1):
            if e == d or get_bit(base, n, e) != flip_from:
                continue
            cand = flip_bit(base, n, e)
            examined += 1
            if matches_value(p, cand):
                found.setdefault(cand, ErrorEvent(d, e))
    return _collect(found, y, p, examined)
