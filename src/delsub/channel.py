"""Single-deletion single-substitution corruption of binary words."""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple

from .words import Word, delete_bit, flip_bit

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
    "ball_values",
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

# Canonical exactly-one-substitution reading of each possible weight drop.
# Drops 0 and 1 also arise from pure deletions, but on any non-constant
# word those re-express as a deletion plus one substitution.
CANONICAL_CLASS_BY_DELTA: dict[int, tuple[int, Substitution]] = {
    -1: (0, Substitution.ZERO_TO_ONE),
    0: (1, Substitution.ZERO_TO_ONE),
    1: (0, Substitution.ONE_TO_ZERO),
    2: (1, Substitution.ONE_TO_ZERO),
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


def ball_values(value: int, n: int) -> set[int]:
    """Corruption ball of a packed n-bit value, as packed (n-1)-bit values.

    Flipping position e and then deleting d reaches the same word as
    deleting d and then flipping e's place in the shorter word, so each
    deletion result and its n-1 single flips cover the ball.
    """
    out: set[int] = set()
    for d in range(1, n + 1):
        base = delete_bit(value, n, d)
        out.add(base)
        for q in range(n - 1):
            out.add(base ^ (1 << q))
    return out


def error_ball(x: Word) -> set[Word]:
    """Distinct words reachable by one deletion and at most one substitution."""
    if x.n < 2:
        raise ValueError(f"corruption needs length >= 2, got n={x.n}")
    return {Word(x.n - 1, y) for y in ball_values(x.value, x.n)}


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
