"""Fixed-length binary words stored as packed integers."""

from __future__ import annotations

import operator
from dataclasses import dataclass

__all__ = ["Word", "get_bit", "flip_bit", "delete_bit", "insert_bit"]

# The package's one length ceiling.  Class counts are exact int64 up to
# here: every count, and their total 2^n - 2, stays below 2^63.
SCAN_CEILING = 62


def _check_length(n: int, what: str, lo: int = 2, hi: int = SCAN_CEILING) -> None:
    """Refuse a length outside [lo, hi].

    The one ceiling guard: class counting, the ball, the witnesses, the
    verifier's check ranges and the CLI's check and decode all call it.
    """
    if not lo <= n <= hi:
        raise ValueError(f"{what} supports {lo} <= n <= {hi}, got {n}")


def get_bit(value: int, n: int, i: int) -> int:
    """Bit at 1-based position i of an n-bit word; position 1 is the MSB."""
    return (value >> (n - i)) & 1


def flip_bit(value: int, n: int, i: int) -> int:
    return value ^ (1 << (n - i))


def delete_bit(value: int, n: int, d: int) -> int:
    """Remove position d and close the gap, leaving an (n-1)-bit value."""
    low = n - d  # bits to the right of position d
    return ((value >> (low + 1)) << low) | (value & ((1 << low) - 1))


def insert_bit(value: int, n: int, d: int, bit: int) -> int:
    """Insert `bit` so it sits at position d of the resulting (n+1)-bit value."""
    low = n - d + 1  # existing bits that end up to the right of the new one
    return ((value >> low) << (low + 1)) | (bit << low) | (value & ((1 << low) - 1))


@dataclass(frozen=True, order=True, slots=True)
class Word:
    """Binary word of fixed length n; the textual form reads position 1 first."""

    n: int
    value: int

    def __post_init__(self) -> None:
        # Plain ints: a numpy integer becomes one, a float or string is refused.
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "value", operator.index(self.value))
        if self.n < 1:
            raise ValueError(f"word length must be positive, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} does not fit in {self.n} bits")

    @classmethod
    def from_text(cls, text: str) -> Word:
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"expected a nonempty string over 0/1, got {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def zeros(cls, n: int) -> Word:
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> Word:
        return cls(n, (1 << n) - 1)

    def bit(self, i: int) -> int:
        """Symbol at 1-based position i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range [1, {self.n}]")
        return get_bit(self.value, self.n, i)

    def bits(self) -> tuple[int, ...]:
        return tuple(get_bit(self.value, self.n, i) for i in range(1, self.n + 1))

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")
