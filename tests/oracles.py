"""Independent test oracles: each fact delsub computes, by definition or on Python ints.

delsub keeps one production route per fact; the tests check each against
an oracle here.

- vt_syndrome sums the j-th order VT syndrome by its definition, and
  vt_syndrome_from_suffix_sums by suffix weight (the sum the sign scan
  buckets words by); wt_f1_f2 and the scan are checked against them.
- iter_corruptions lists every (event, received word) pair through
  iter_events and apply_del_sub: the corruption ball by definition.
- bucket_counts is the class table widened to int64, the dtype the
  counting oracles compare in.
- weight_drop and classify_weight_delta find the weight drop by trying
  each of -1..2, the definition of channel._weight_drop's closed form.
- ball_values and all_witnesses are the closed forms of channel._ball_keys
  and channel._substitution_witnesses on Python ints, exact at any length,
  checked in turn against iter_corruptions and deleting at every d;
  canonical_witness names the one witness the decoders and the verifier's
  records report.
"""

from typing import Iterator, NamedTuple

import numpy as np

from delsub import (
    CANONICAL_CLASS_BY_DELTA,
    ErrorEvent,
    Substitution,
    Word,
    apply_del_sub,
    delete_bit,
    get_bit,
    iter_events,
)
from delsub.code import _class_sizes
from delsub.syndromes import _power_sum, _suffix_weights


def vt_syndrome(x: Word, j: int) -> int:
    """j-th order VT syndrome, exact: the coefficient of x_i is 1^(j-1) + ... + i^(j-1).

    f1 is the classic VT checksum (coefficient i), f2 its second-order
    analogue (coefficient i(i+1)/2).
    """
    if j < 1:
        raise ValueError(f"syndrome order must be >= 1, got {j}")
    coeff = 0
    total = 0
    for i in range(1, x.n + 1):
        coeff += i ** (j - 1)
        if get_bit(x.value, x.n, i):
            total += coeff
    return total


def vt_syndrome_from_suffix_sums(x: Word, j: int) -> int:
    """Same syndrome from the rearranged sum: (suffix weight from i) * i^(j-1).

    The sum the sign scan buckets words by (it calls _power_sum on each
    word's _suffix_weights directly), cross-checked against vt_syndrome.
    """
    if j < 1:
        raise ValueError(f"syndrome order must be >= 1, got {j}")
    return _power_sum(_suffix_weights(x.value, x.n), j)


def iter_corruptions(x: Word) -> Iterator[tuple[ErrorEvent, Word]]:
    """Every (event, corrupted word) pair, with multiplicity."""
    if x.n < 2:
        raise ValueError(f"corruption needs length >= 2, got n={x.n}")
    for ev in iter_events(x.n):
        yield ev, apply_del_sub(x, ev)


def bucket_counts(n: int) -> np.ndarray:
    """Size of every residue class as int64, in the flat (c0, c1, c2) layout of bucket_index."""
    return _class_sizes(n).astype(np.int64, copy=False)


class WeightDeltaClass(NamedTuple):
    """Weight drop wt(x) - wt(y) and the symbol values it pins down."""

    delta: int
    deleted_value: int
    substitution: Substitution


class WeightWindowError(ValueError):
    """The reconstructed original weight is impossible for the word length."""


def weight_drop(c0: int, wt_y: int) -> int:
    """The one d in -1..2 with wt_y + d = c0 mod 4, found by trying each."""
    (drop,) = [d for d in range(-1, 3) if (wt_y + d) % 4 == c0]
    return drop


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
    delta = weight_drop(c0, wt_y)
    wt_x = wt_y + delta
    if not 0 <= wt_x <= n:
        raise WeightWindowError(
            f"no {n}-bit word has weight {wt_x} "
            f"(received weight {wt_y}, weight residue {c0})"
        )
    deleted, sub = CANONICAL_CLASS_BY_DELTA[delta]
    return WeightDeltaClass(delta, deleted, sub)


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
    """Deterministic witness: smallest (d, e) with a substitution when one exists.

    The first of all_witnesses, which lists the substitutions first, by
    ascending d: every non-constant word that reaches y has one, while a
    constant word reaches its own deletion only by pure deletions, the
    first at d = 1.
    """
    witnesses = all_witnesses(x, y)
    if not witnesses:
        raise ValueError(f"{y} is not reachable from {x}")
    return witnesses[0]
