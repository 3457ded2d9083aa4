"""Big-int closed forms of the corruption ball and the witnesses, kept as test oracles.

delsub computes both facts on numpy arrays (channel._ball_keys and
channel._substitution_witnesses); these are the same formulas on Python
ints, exact at any length, and the tests check them in turn against the
definitions (iter_corruptions, and deleting at every d).  canonical_witness
names the one witness the decoders and the verifier's records report.
"""

from delsub import ErrorEvent, Word, delete_bit


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
