"""Exhaustive desk-scale verification of the construction's guarantees.

Everything here is enumeration, not proof: corruption balls of whole
classes are intersected, syndrome-equal word pairs are scanned for
sign-splittable difference vectors, and the weight-drop table is checked
on every word/event combination.  full_report is the one entry point for
the list2, lemma2 and deletion checks: it counts the classes once, lists
the members once, feeds the ball coverage and the deletion check from one
packing of their run-end deletion results, and draws the lemma2 cases and
the collision records from one array form of the substitution witnesses.
Sampled shortcuts live only in the separate smoke mode, which never lists
a class, and are labeled as such.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .channel import (
    CANONICAL_CLASS_BY_DELTA,
    WEIGHT_DELTA_TABLE,
    ErrorEvent,
    Substitution,
    _FLIP_OF,
    _ball_keys,
    _corrupted,
    _packed_deletions,
    _substitution_witnesses,
    _weight_drop,
    iter_events,
)
from .code import CodeParams, CodeStats, _class_sizes, _random_members, choose_params, codeword_values
from .decoder import _decode_rows
from .syndromes import _mixed_starts, _power_sum, _suffix_weights
from .words import Word, _check_length, get_bit

__all__ = [
    "VERIFY_CEILING",
    "SignSplitResult",
    "RedundancyRow",
    "verify_sign_split",
    "verify_weight_deltas",
    "redundancy_table",
    "classify_case",
    "predicted_suffix_profile",
    "full_report",
    "smoke_report",
]

# Ball-coverage checks scan the whole class and its corruption balls.
VERIFY_CEILING = 28

# Lengths each check supports.  full_report tests every selected check
# before it counts or lists a class, so an out-of-range request does no work.
_CHECK_RANGES = {
    "list2": (2, VERIFY_CEILING),
    "lemma2": (2, VERIFY_CEILING),
    "sign": (2, 14),
    "table1": (2, 12),
    "deletion": (2, VERIFY_CEILING),
}


def _check_n(check: str, n: int) -> None:
    _check_length(n, f"the {check} check", *_CHECK_RANGES[check])


@dataclass(frozen=True)
class _Coverage:
    """One pass over a class's corruption balls."""

    max_list_size: int
    # The colliding (y, x, x') as three uint64 arrays, one row per triple,
    # with x < x' and the rows ascending.
    collisions: tuple[np.ndarray, np.ndarray, np.ndarray]


# Member offsets, within a run, of the pairs of its first three members.
_PAIR_OFFSETS = np.array([[0, 0, 1], [1, 2, 2]])


def _cover(n: int, values: Sequence[int], dels: np.ndarray, k: np.uint64) -> _Coverage:
    """Cover every member's ball, then list the colliding (y, x, x') in order.

    values must ascend, as codeword_values returns them, and (dels, k) is
    their _packed_deletions.  In _ball_keys' order each run of equal y
    holds that word's covering members in ascending order.  The longest run
    is the max list size, counted up to 3, and each run of two or more gives
    collisions from its first three members, the three smallest: enough to
    tell 2 from broken.
    """
    keys = _ball_keys(n, dels, k)
    # y < 2^27 at VERIFY_CEILING, so its uint32 copy is exact.
    ys = np.right_shift(keys, k, out=np.empty(len(keys), dtype=np.uint32), casting="same_kind")
    same = np.zeros(len(keys), dtype=bool)  # entry j + 1 has entry j's y
    np.equal(ys[1:], ys[:-1], out=same[:-1])
    opens = same.copy()  # first entry of a run of two or more
    opens[1:] &= ~same[:-1]
    first = np.flatnonzero(opens)
    three = same[first + 1]  # the run holds a third member
    # A run of two gives its one pair, a longer run the three pairs of its
    # first three members, in combinations order.
    take = np.ones((len(first), 3), dtype=bool)
    take[:, 1:] = three[:, None]
    member = (np.uint64(1) << k) - np.uint64(1)
    xs = np.asarray(values, dtype=np.uint64)
    lo = keys[(first[:, None] + _PAIR_OFFSETS[0])[take]] & member
    hi = keys[(first[:, None] + _PAIR_OFFSETS[1])[take]] & member
    y = np.repeat(ys[first], take.sum(axis=1)).astype(np.uint64)
    return _Coverage(int(len(keys) > 0) + int(same.any()) + int(three.any()), (y, xs[lo], xs[hi]))


# The ordering case by the ranges of e1 and e2, each 0 before d1, 1 between
# the deletions or 2 after d2: the case names in report order, and the 3x3
# table of their indices.
_CASES, _CASE_TABLE = np.unique(
    [["i", "ii", "iii"], ["ii", "iv", "v"], ["iii", "v", "vi"]], return_inverse=True
)


def classify_case(d1: int, e1: int, d2: int, e2: int) -> str:
    """Merged ordering case of the four positions, assuming d1 <= d2.

    Only case "iv" (both substitutions strictly between the deletions,
    d1 < e1 <= d2 and d1 <= e2 < d2) can occur for two distinct members
    of one class; every other case forces the words to be equal.
    """
    if d1 > d2:
        raise ValueError("expected d1 <= d2")
    if e1 == d1 or e2 == d2:
        raise ValueError("substitution positions must differ from their deletions")
    return str(_CASES[_case_indices(d1, e1, d2, e2)])


def _case_indices(d1, e1, d2, e2):
    """classify_case as an index into _CASES, on ints or int64 arrays of valid positions.

    e1 lies between the deletions when d1 < e1 <= d2, e2 when d1 <= e2 < d2.
    """
    a = np.add(e1 >= d1, e1 > d2, dtype=np.intp)
    b = np.add(e2 >= d1, e2 >= d2, dtype=np.intp)
    return _CASE_TABLE[a, b]


# One side's substitution witnesses, as _substitution_witnesses returns them.
_Witnesses = tuple[np.ndarray, np.ndarray, np.ndarray]


def _collision_witnesses(n: int, cov: _Coverage, rows: int | None) -> tuple[_Witnesses, _Witnesses]:
    """The substitution witnesses of x and of x' on the first rows collision rows (None: all).

    One _substitution_witnesses pass over both sides' rows, x's first,
    split where x''s rows begin.  The int64 views are exact: x < 2^28 at
    VERIFY_CEILING.
    """
    y, xa, xb = (c[:rows] for c in cov.collisions)
    row, d, e = _substitution_witnesses(
        n, np.concatenate((xa, xb)).view(np.int64), np.concatenate((y, y)).view(np.int64)
    )
    split = np.searchsorted(row, len(y))
    return (row[:split], d[:split], e[:split]), (row[split:] - len(y), d[split:], e[split:])


def _collision_records(
    n: int, cov: _Coverage, wits: tuple[_Witnesses, _Witnesses], limit: int
) -> list[dict]:
    """Records of the first limit collisions; the member whose witness deletes first leads.

    wits are _collision_witnesses on at least the first limit rows.  A
    member's canonical witness is its first substitution witness in
    ascending d, which every non-constant word has, so every row has one;
    on equal d the smaller member, x, leads.
    """
    y, *xs = (c[:limit] for c in cov.collisions)
    sides = []  # each row's (word, d, e) for x, then for x'
    for x, (row, d, e) in zip(xs, wits):
        first = np.flatnonzero(np.diff(row, prepend=-1))[:limit]
        words = (format(v, f"0{n}b") for v in x.tolist())
        sides.append(zip(words, d[first].tolist(), e[first].tolist()))
    records = []
    for yv, a, b in zip(y.tolist(), *sides):
        (x1, d1, e1), (x2, d2, e2) = (b, a) if a[1] > b[1] else (a, b)
        yw = format(yv, f"0{n - 1}b")
        records.append({"y": yw, "x": x1, "x_prime": x2, "d1": d1, "e1": e1, "d2": d2, "e2": e2})
    return records


def _collision_ordering(n: int, cov: _Coverage, wits: tuple[_Witnesses, _Witnesses]) -> dict:
    """The lemma2 report fields over every collision's witness pairs.

    Every substitution-witness pair (relabeled so d1 <= d2) must fall in
    case "iv"; the deleted symbols must agree and the two weights must be
    equal.  Each collision pairs every substitution witness of x with
    every one of x' (wits, from _collision_witnesses on all rows), all
    collisions in one pass over int64 arrays.
    """
    xa, xb = (c.astype(np.int64) for c in cov.collisions[1:])
    (ra, da, ea), (rb, db, eb) = wits
    # Witness i of x repeats once per witness of x' in its row, and j walks
    # those, which start at first_b[row]: the cross product of every row.
    per_row = np.bincount(rb, minlength=len(xa))
    first_b = np.cumsum(per_row) - per_row
    partners = per_row[ra]
    i = np.repeat(np.arange(len(ra)), partners)
    j = np.arange(len(i)) + np.repeat(first_b[ra] - (np.cumsum(partners) - partners), partners)
    da, ea, db, eb = da[i], ea[i], db[j], eb[j]
    deleted_a = (xa[ra[i]] >> (n - da)) & 1
    deleted_b = (xb[rb[j]] >> (n - db)) & 1
    swap = da > db  # relabel so d1 <= d2
    cases = _case_indices(
        np.minimum(da, db), np.where(swap, eb, ea), np.maximum(da, db), np.where(swap, ea, eb)
    )
    counts = dict(zip(_CASES.tolist(), np.bincount(cases, minlength=len(_CASES)).tolist()))
    weights_differ = np.bitwise_count(xa) != np.bitwise_count(xb)
    return {
        "lemma2_violations": len(cases) - counts["iv"],
        "lemma2_cases": {case: c for case, c in counts.items() if c},
        "lemma2_weight_mismatches": int(np.count_nonzero(weights_differ)),
        "lemma2_deleted_symbol_mismatches": int(np.count_nonzero(deleted_a != deleted_b)),
    }


def _deletion_balls_disjoint(dels: np.ndarray, k: np.uint64) -> bool:
    """True iff no two distinct members share a pure-deletion result."""
    # One member's run-end results are distinct, so equal neighbours come from two members.
    ys = np.sort(dels >> k)
    return not (ys[1:] == ys[:-1]).any()


@dataclass
class SignSplitResult:
    """Pair-scan outcome for one (n, segment count) setting."""

    n: int
    m: int
    pairs_checked: int  # distinct pairs with equal exact syndromes f1..f_{m+1}
    counterexamples: int  # splittable pairs, first segment anchored at 1
    relaxed_counterexamples: int  # same with the first segment starting at 2


def _splittable(mixed: Sequence[int], m: int, first_from_one: bool) -> bool:
    """Can m breakpoints cut u into sign-constant segments?  mixed is _mixed_starts(u).

    u_a..u_b is one such segment iff a > mixed[b].  mixed never decreases,
    so the longest segment from a ends just before bisect_left(mixed, a).
    Taking it m + 1 times covers u, whose length n is len(mixed) - 1, iff
    some split does, given m breakpoints fit in [1, n].
    """
    start = 1 if first_from_one else 2
    for _ in range(m + 1):
        start = bisect_left(mixed, start)
    return m < len(mixed) and start == len(mixed)


def verify_sign_split(n: int, m: int) -> SignSplitResult:
    """Scan all pairs with equal exact syndromes for splittable difference vectors.

    A counterexample is a pair of distinct words whose f1..f_{m+1} agree
    as exact integers and whose suffix-difference vector can be cut into
    m+1 sign-constant segments; zero counterexamples means equal syndromes
    plus a sign split force equality.  Each word's suffix weights s are
    computed once; words are bucketed by the f_j read from s, so only
    genuinely colliding pairs are compared, on one _mixed_starts scan of
    u = s(x) - s(x') for both conventions.
    """
    if m not in (1, 2):
        raise ValueError(f"segment parameter must be 1 or 2, got {m}")
    _check_n("sign", n)
    buckets: dict[tuple[int, ...], list[list[int]]] = {}
    for v in range(1 << n):
        s = _suffix_weights(v, n)
        buckets.setdefault(tuple(_power_sum(s, j) for j in range(1, m + 2)), []).append(s)
    pairs = strict = relaxed = 0
    for group in buckets.values():
        for sa, sb in combinations(group, 2):
            mixed = _mixed_starts([p - q for p, q in zip(sa, sb)])
            pairs += 1
            strict += _splittable(mixed, m, True)
            relaxed += _splittable(mixed, m, False)
    return SignSplitResult(n, m, pairs, strict, relaxed)


def verify_weight_deltas(n: int) -> int:
    """Check the weight-drop table and the one-substitution re-expression.

    Brute force over every word and every event: the weight drop must
    match the table row of the event's kind (deleted symbol, substitution),
    and for every non-constant word each reachable received word must also
    be reachable by an event of the kind its received weight implies: its
    _weight_drop read through CANONICAL_CLASS_BY_DELTA, the lookup the
    decoder reads.  Returns the number of violations.
    """
    _check_n("table1", n)
    events = list(iter_events(n))
    violations = 0
    for v in range(1 << n):
        wt_x = v.bit_count()
        kinds: dict[int, set[tuple[int, Substitution]]] = {}  # by received word
        for ev in events:
            y = _corrupted(v, n, ev)
            sub = Substitution.NONE if ev.e is None else _FLIP_OF[get_bit(v, n, ev.e)]
            kind = (get_bit(v, n, ev.d), sub)
            violations += wt_x - y.bit_count() != WEIGHT_DELTA_TABLE[kind]
            kinds.setdefault(y, set()).add(kind)
        if v == 0 or v == (1 << n) - 1:
            continue  # constant words are exempt from the re-expression clause
        for y, seen in kinds.items():
            violations += CANONICAL_CLASS_BY_DELTA[_weight_drop(wt_x & 3, y.bit_count())] not in seen
    return violations


@dataclass(frozen=True)
class RedundancyRow:
    n: int
    size: int
    redundancy: float
    bound: float  # 3 log2 n + 4
    margin: float  # bound - redundancy; negative would break the guarantee


def redundancy_table(n_list: Iterable[int]) -> list[RedundancyRow]:
    """Best-class redundancy against the 3 log2 n + 4 guarantee, one row per n."""
    rows = []
    for n in n_list:
        _, stats = choose_params(n)
        r = stats.redundancy
        bound = 3 * math.log2(n) + 4
        rows.append(RedundancyRow(n, stats.size, r, bound, bound - r))
    return rows


def _case_lambdas(case: str, d1: int, e1: int, d2: int, e2: int) -> tuple[int, int]:
    if case in ("i", "iii", "vi"):
        return min(e1, e2), max(e1, e2)
    if case == "ii":
        # e1 < d1 <= e2 < d2  or  e2 < d1 < e1 <= d2
        return (e1, e2 + 1) if e1 < d1 else (e2, e1)
    if case == "v":
        # d1 < e1 <= d2 < e2  or  d1 <= e2 < d2 < e1
        return (e1, e2) if e1 <= d2 else (e2 + 1, e1)
    raise ValueError(f"no closed-form profile for case {case!r}")


def predicted_suffix_profile(
    x: Word, x_prime: Word, w1: ErrorEvent, w2: ErrorEvent
) -> tuple[int, ...]:
    """Closed-form suffix-difference vector for a colliding pair.

    Defined for ordering cases i, ii, iii, v and vi of the witness pair
    (w1 on x, w2 on x_prime, d1 <= d2, both with substitutions); case iv
    has no closed form.  Assumes equal weights mod 4, which forces the
    deleted symbols to agree.
    """
    n = x.n
    if x_prime.n != n:
        raise ValueError("words must have equal length")
    if w1.e is None or w2.e is None:
        raise ValueError("profiles need substitution witnesses on both sides")
    d1, e1, d2, e2 = w1.d, w1.e, w2.d, w2.e
    case = classify_case(d1, e1, d2, e2)
    lam1, lam2 = _case_lambdas(case, d1, e1, d2, e2)
    xb = x.bit
    pb = x_prime.bit
    u = [0] * (n + 1)  # 1-based

    def fill(lo: int, hi: int, val) -> None:
        for i in range(lo, hi + 1):
            u[i] = val(i) if callable(val) else val

    if case == "i":
        fill(lam1 + 1, lam2, xb(lam2) - pb(lam2))
        fill(d1 + 1, d2, lambda i: xb(i) - pb(d2))
    elif case == "ii":
        step = xb(lam2) - pb(lam2 - 1)
        fill(lam1 + 1, d1, step)
        fill(d1 + 1, lam2 - 1, lambda i: xb(i) + step - pb(d2))
        fill(lam2, d2, lambda i: xb(i) - pb(d2))
    elif case == "iii":
        step = xb(lam2) - pb(lam2)
        fill(lam1 + 1, d1, step)
        fill(d1 + 1, d2, lambda i: xb(i) + step - pb(d2))
        fill(d2 + 1, lam2, step)
    elif case == "v":
        step = xb(lam2) - pb(lam2)
        fill(d1 + 1, lam1 - 1, lambda i: xb(i) - pb(d2))
        fill(lam1, d2, lambda i: xb(i) + step - pb(d2))
        fill(d2 + 1, lam2, step)
    else:  # case "vi"
        fill(d1 + 1, d2, lambda i: xb(i) - pb(d2))
        fill(lam1 + 1, lam2, xb(lam2) - pb(lam2))
    return tuple(u[1:])


def _params_dict(p: CodeParams) -> dict:
    """The residue fields of p, in field order, without its length."""
    return {k: v for k, v in asdict(p).items() if k != "n"}


def _resolve_class(n: int, params: CodeParams | None) -> tuple[CodeParams, bool, int]:
    """(params, auto, size) of a report's class, from one count of the classes."""
    if params is None:
        params, stats = choose_params(n)
        return params, True, stats.size
    if params.n != n:
        raise ValueError(f"params are for n={params.n}, not n={n}")
    return params, False, int(_class_sizes(n)[params.bucket_index])


ALL_CHECKS = tuple(_CHECK_RANGES)
DEFAULT_CHECKS = ("list2", "lemma2", "deletion")


def full_report(
    n: int,
    params: CodeParams | None = None,
    *,
    checks: Sequence[str] = DEFAULT_CHECKS,
    max_collisions: int = 100,
    timing: bool = False,
) -> tuple[dict, bool]:
    """Run the selected checks and assemble one report dict.

    The only way to run list2, lemma2 and deletion.  The classes are
    counted once.  Only those three checks read the members: they are
    listed once and their balls covered once, and a class with no members
    is refused, since every check would pass on it vacuously.  list2
    and lemma2 read the same arrays of colliding (y, x, x') triples, and
    list2 keeps at most max_collisions records while its count stays
    exact.  Returns (report, passed).  Timing is opt-in so identical runs emit
    byte-identical JSON.
    """
    if not checks:
        raise ValueError(f"no checks selected; available: {', '.join(ALL_CHECKS)}")
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {', '.join(ALL_CHECKS)}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise ValueError(f"repeated checks {repeated}; name each check once")
    if max_collisions < 0:
        raise ValueError(f"max_collisions must be >= 0, got {max_collisions}")
    for check in checks:
        _check_n(check, n)
    start = time.perf_counter()
    params, auto, size = _resolve_class(n, params)
    if {"list2", "lemma2", "deletion"} & set(checks):
        if size == 0:
            raise ValueError(f"{params} has no members to check")
        values = codeword_values(params)
        if len(values) != size:
            raise RuntimeError(f"listed {len(values)} members of {params}, counted {size}")
        dels, k = _packed_deletions(values, n)  # n - 1 + k <= 55 bits at VERIFY_CEILING
    stats = CodeStats(n, size)
    report: dict = {
        "n": n,
        "params": _params_dict(params),
        "auto_params": auto,
        "checks": list(checks),
        "code_size": stats.size,
        "redundancy": stats.redundancy,
        "max_list_size": None,
        "collision_count": None,
        "collision_pairs": None,
        "lemma2_violations": None,
        "sign_counterexamples": None,
        "table1_violations": None,
        "single_deletion_ok": None,
    }
    passed = True

    if "list2" in checks or "lemma2" in checks:
        cov = _cover(n, values, dels, k)
        # lemma2 reads every row's witnesses, the records only the first rows.
        wits = _collision_witnesses(n, cov, None if "lemma2" in checks else max_collisions)
    if "list2" in checks:
        report["max_list_size"] = cov.max_list_size
        report["collision_count"] = len(cov.collisions[0])
        report["collision_pairs"] = _collision_records(n, cov, wits, max_collisions)
        passed &= cov.max_list_size <= 2
    if "lemma2" in checks:
        lemma2 = _collision_ordering(n, cov, wits)
        report.update(lemma2)
        passed &= (
            lemma2["lemma2_violations"] == 0
            and lemma2["lemma2_weight_mismatches"] == 0
            and lemma2["lemma2_deleted_symbol_mismatches"] == 0
        )
    if "sign" in checks:
        r = verify_sign_split(n, 1)
        report["sign_counterexamples"] = r.counterexamples
        report["sign_relaxed_counterexamples"] = r.relaxed_counterexamples
        report["sign_pairs_checked"] = r.pairs_checked
        passed &= r.counterexamples == 0
    if "table1" in checks:
        v = verify_weight_deltas(n)
        report["table1_violations"] = v
        passed &= v == 0
    if "deletion" in checks:
        ok = _deletion_balls_disjoint(dels, k)
        report["single_deletion_ok"] = ok
        passed &= ok

    report["pass"] = passed
    if timing:
        report["elapsed"] = time.perf_counter() - start
    return report, passed


def smoke_report(
    n: int,
    params: CodeParams | None = None,
    *,
    samples: int = 20,
    seed: int = 0,
) -> tuple[dict, bool]:
    """Sampled spot checks where full ball coverage is not worth the wait.

    Smoke, not verification: corruptions of members drawn uniformly, with
    no listing, by code._random_members must decode back, and no row may
    list over two candidates.  Each member still needed in a draw batch
    takes d, e and a noise word, in that order; one _decode_rows call then
    decodes rows 2j (its corruption) and 2j + 1 (the noise).  A row over
    the bound is a bound failure and counts in nothing else.
    """
    if samples < 1:
        raise ValueError(f"smoke sampling needs samples >= 1, got {samples}")
    rng = random.Random(seed)
    params, auto, size = _resolve_class(n, params)
    if size == 0:
        raise ValueError(f"{params} has no members to sample")
    draws = _random_members(params, rng)
    completeness_failures = bound_failures = max_list_seen = 0
    needed = samples
    while needed:
        sent = next(draws)[:needed]
        needed -= len(sent)
        received = []
        for v in sent.tolist():
            d = rng.randrange(1, n + 1)
            e = rng.choice([None] + [i for i in range(1, n + 1) if i != d])
            received += [_corrupted(v, n, ErrorEvent(d, e)), rng.randrange(0, 1 << (n - 1))]
        row, x, _, _ = _decode_rows(received, params)
        sizes = np.bincount(row, minlength=len(received))
        within = sizes <= 2
        bound_failures += int(np.count_nonzero(~within))
        max_list_seen = max(max_list_seen, int(sizes[within].max(initial=0)))
        listed = np.bincount(row[x == sent[row // 2]], minlength=len(received))[::2]
        completeness_failures += int(np.count_nonzero(within[::2] & (listed == 0)))
    passed = completeness_failures == 0 and bound_failures == 0
    report = {
        "mode": "smoke",
        "n": n,
        "params": _params_dict(params),
        "auto_params": auto,
        "samples": samples,
        "seed": seed,
        "decode_trials": samples,
        "max_list_seen": max_list_seen,
        "completeness_failures": completeness_failures,
        "bound_failures": bound_failures,
        "pass": passed,
    }
    return report, passed
