"""Weights, higher-order VT syndromes, and suffix-weight difference vectors."""

from __future__ import annotations

from typing import Sequence

from .words import Word

__all__ = [
    "SuffixDiff",
    "wt_f1_f2",
    "suffix_diff",
    "sign_segments_ok",
]

SuffixDiff = tuple[int, ...]


def _position_shift(i: int) -> tuple[int, int, int]:
    """What a 1 at position i adds to (wt, f1, f2)."""
    return 1, i, i * (i + 1) // 2


def wt_f1_f2(value: int, n: int) -> tuple[int, int, int]:
    """Exact (weight, f1, f2) of a packed n-bit value; ValueError outside [0, 2^n) or for n < 1.

    f1 sums the positions of the 1-bits, f2 sums i(i+1)/2 over those
    positions.  Membership (matches_value, is_codeword) reads it: one
    _position_shift per 1-bit, from the top bit (position 1) down.
    """
    if n < 1 or value >> n:
        raise ValueError(f"need n >= 1 and 0 <= value < 2^n, got value {value}, n {n}")
    value = int(value)  # numpy integers too, which have no bit_length
    wt = f1 = f2 = 0
    while value:
        top = value.bit_length()
        dw, d1, d2 = _position_shift(n + 1 - top)
        wt, f1, f2 = wt + dw, f1 + d1, f2 + d2
        value ^= 1 << (top - 1)
    return wt, f1, f2


def _suffix_weights(value: int, n: int) -> list[int]:
    """s_1..s_n of a packed n-bit value: s_i is the weight of positions i..n.

    suffix_diff and the sign scan (verifier.verify_sign_split) read it.
    """
    return [(value & ((1 << k) - 1)).bit_count() for k in range(n, 0, -1)]


def _power_sum(s: Sequence[int], j: int) -> int:
    """Sum of s_i * i^(j-1): f_j from suffix weights s, or f_j(x) - f_j(x2) from their u.

    f_j gives x_i the coefficient 1^(j-1) + ... + i^(j-1); summed by suffix
    instead, it is this.  The sign scan buckets words by it for j = 1..m+1.
    """
    return sum(w * i ** (j - 1) for i, w in enumerate(s, 1))


def suffix_diff(x: Word, x2: Word) -> SuffixDiff:
    """u with u_i = (suffix weight of x from i) - (suffix weight of x2 from i).

    u is the all-zero vector exactly when x == x2.
    """
    if x.n != x2.n:
        raise ValueError(f"length mismatch: {x.n} vs {x2.n}")
    return tuple(a - b for a, b in zip(_suffix_weights(x.value, x.n), _suffix_weights(x2.value, x2.n)))


def _mixed_starts(u: Sequence[int]) -> list[int]:
    """Prefix scan of u: entry b is the largest a where u_a..u_b holds both signs, else 0.

    So u_a..u_b (1-based; zeros go with either sign) is sign-constant iff a > entry b.
    """
    mixed = [0]
    last_pos = last_neg = 0
    for i, v in enumerate(u, 1):
        if v > 0:
            last_pos = i
        elif v < 0:
            last_neg = i
        mixed.append(last_pos if last_pos < last_neg else last_neg)
    return mixed


def sign_segments_ok(
    u: Sequence[int],
    breakpoints: Sequence[int],
    *,
    first_segment_from_one: bool = True,
) -> bool:
    """True iff every segment cut by the breakpoints is sign-constant.

    Breakpoints p_1 < ... < p_m split [1, n] into segments ending at each
    p_j and finally at n, each tested on _mixed_starts(u).  The first one
    starts at position 1, the stricter convention, or with
    first_segment_from_one=False at 2, leaving u_1 unconstrained.
    """
    n = len(u)
    bps = list(breakpoints)
    if any(not 1 <= p <= n for p in bps):
        raise ValueError(f"breakpoints out of range [1, {n}]: {bps}")
    if any(bps[k] >= bps[k + 1] for k in range(len(bps) - 1)):
        raise ValueError(f"breakpoints must be strictly ascending: {bps}")
    mixed = _mixed_starts(u)
    starts = [1 if first_segment_from_one else 2] + [p + 1 for p in bps]
    return all(a > mixed[b] for a, b in zip(starts, bps + [n]))
