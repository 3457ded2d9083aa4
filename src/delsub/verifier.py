"""Exhaustive desk-scale verification of the construction's guarantees.

Everything here is enumeration, not proof: corruption balls of whole
classes are intersected, syndrome-equal word pairs are scanned for
sign-splittable difference vectors, and the weight-drop table is checked
on every word/event combination.  full_report is the one entry point for
the list2, lemma2 and deletion checks: it counts the classes once, lists
the members once, feeds the ball coverage and the deletion check from one
packing of their deletion results and walks the colliding triples once.
Sampled shortcuts live only in the separate smoke mode, which never lists
a class, and are labeled as such.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .channel import (
    WEIGHT_DELTA_TABLE,
    ErrorEvent,
    Substitution,
    classify_weight_delta,
    iter_events,
)
from .code import CodeParams, CodeStats, _list_values, _random_members, bucket_counts, choose_params
from .decoder import DecodeResult, ListBoundError, all_witnesses, canonical_witness, list_decode
from .syndromes import suffix_diff, vt_syndrome
from .words import Word, delete_bit, flip_bit, get_bit

__all__ = [
    "VERIFY_CEILING",
    "SignSplitResult",
    "RedundancyRow",
    "verify_sign_split",
    "verify_weight_deltas",
    "redundancy_table",
    "classify_case",
    "witness_pair_cases",
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
    lo, hi = _CHECK_RANGES[check]
    if not lo <= n <= hi:
        raise ValueError(f"the {check} check supports {lo} <= n <= {hi}, got {n}")


@dataclass(frozen=True)
class _Coverage:
    """One pass over a class's corruption balls."""

    max_list_size: int
    collisions: list[tuple[int, int, int]]  # (y, x, x') with x < x', ascending


def _packed_deletions(values: Sequence[int], n: int) -> tuple[np.ndarray, np.uint64]:
    """Every member's n pure-deletion results, each packed as y << k | i.

    i is the member's index in k bits, so for ascending values the sorted
    keys order the entries by y and, within one y, by member; at
    VERIFY_CEILING y and i take at most 55 bits.  Returns the
    (members, n) uint64 key array and k.
    """
    k = np.uint64((len(values) - 1).bit_length())
    xs = np.asarray(values, dtype=np.uint64)[:, None]
    keys = delete_bit(xs, n, np.arange(1, n + 1, dtype=np.uint64)) << k
    keys |= np.arange(len(values), dtype=np.uint64)[:, None]
    return keys, k


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort flat keys in place; drop equal neighbours (one member reaching y twice)."""
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _cover(values: Sequence[int], dels: np.ndarray, k: np.uint64) -> _Coverage:
    """Cover every member's ball, then list the colliding (y, x, x') in order.

    values must ascend, as codeword_values returns them, and (dels, k) is
    their _packed_deletions.  Each member's packed deletion results and
    their n-1 single flips make one uint64 array of members x n x n ball
    entries, sorted with repeats dropped.
    Each run of equal y then holds that word's covering members in
    ascending order.  The longest run is the max list size, counted up to
    3, and each run of two or more gives collisions from its first three
    members, the three smallest: enough to tell 2 from broken.  Only those
    runs become Python ints.
    """
    if not values:
        return _Coverage(0, [])
    one = np.uint64(1)
    flips = np.array([0] + [1 << q for q in range(dels.shape[1] - 1)], dtype=np.uint64) << k
    keys = _sorted_unique((dels[:, :, None] ^ flips).ravel())
    ys = keys >> k
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1])))
    sizes = np.diff(starts, append=len(ys))
    hit = sizes >= 2
    first = starts[hit]
    mask = (one << k) - one
    collisions = []
    for y, s, size in zip(ys[first].tolist(), first.tolist(), sizes[hit].tolist()):
        xs3 = [values[i] for i in (keys[s : s + min(size, 3)] & mask).tolist()]
        collisions += [(y, a, b) for a, b in combinations(xs3, 2)]
    return _Coverage(min(int(sizes.max()), 3), collisions)


def _collision_record(n: int, y: int, a: int, b: int) -> dict:
    """Report record of one collision; the member whose witness deletes first leads."""
    yw = Word(n - 1, y)
    xa, xb = Word(n, a), Word(n, b)
    wa, wb = canonical_witness(xa, yw), canonical_witness(xb, yw)
    if wa.d > wb.d:
        xa, xb, wa, wb = xb, xa, wb, wa
    return {
        "y": str(yw),
        "x": str(xa),
        "x_prime": str(xb),
        "d1": wa.d,
        "e1": wa.e,
        "d2": wb.d,
        "e2": wb.e,
    }


# Ordering case by the ranges (1 before d1, 2 between, 3 after d2) of e1 and e2.
_CASE_BY_RANGES = {
    (1, 1): "i",
    (1, 2): "ii",
    (2, 1): "ii",
    (1, 3): "iii",
    (3, 1): "iii",
    (2, 2): "iv",
    (2, 3): "v",
    (3, 2): "v",
    (3, 3): "vi",
}


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
    a = 1 if e1 < d1 else (2 if e1 <= d2 else 3)
    b = 1 if e2 < d1 else (2 if e2 < d2 else 3)
    return _CASE_BY_RANGES[(a, b)]


def witness_pair_cases(
    x: Word, x_prime: Word, y: Word
) -> list[tuple[str, ErrorEvent, ErrorEvent, bool]]:
    """Ordering case of every substitution-witness pair, relabeled so d1 <= d2.

    The returned events follow the relabeled order: the first event is the
    one with the smaller deletion position (taken from x or x_prime as
    needed).  The flag says whether the two deleted symbols agree: x at
    x's deletion position against x_prime at x_prime's, which relabeling
    does not change.
    """
    n = x.n
    wits_x = [w for w in all_witnesses(x, y) if w.e is not None]
    wits_xp = [w for w in all_witnesses(x_prime, y) if w.e is not None]
    out = []
    for wa in wits_x:
        deleted = get_bit(x.value, n, wa.d)
        for wb in wits_xp:
            w1, w2 = (wa, wb) if wa.d <= wb.d else (wb, wa)
            case = classify_case(w1.d, w1.e, w2.d, w2.e)
            out.append((case, w1, w2, deleted == get_bit(x_prime.value, n, wb.d)))
    return out


def _collision_ordering(n: int, cov: _Coverage) -> dict:
    """The lemma2 report fields over every collision's witness pairs.

    Every substitution-witness pair (relabeled so d1 <= d2) must fall in
    case "iv"; the deleted symbols must agree and the two weights must be
    equal.
    """
    violations = wt_bad = del_bad = 0
    case_counts: dict[str, int] = {}
    for y, a, b in cov.collisions:
        xa, xb = Word(n, a), Word(n, b)
        if xa.weight != xb.weight:
            wt_bad += 1
        for case, _, _, same_deleted in witness_pair_cases(xa, xb, Word(n - 1, y)):
            case_counts[case] = case_counts.get(case, 0) + 1
            if case != "iv":
                violations += 1
            if not same_deleted:
                del_bad += 1
    return {
        "lemma2_violations": violations,
        "lemma2_cases": dict(sorted(case_counts.items())),
        "lemma2_weight_mismatches": wt_bad,
        "lemma2_deleted_symbol_mismatches": del_bad,
    }


def _deletion_balls_disjoint(dels: np.ndarray, k: np.uint64) -> bool:
    """True iff no two distinct members share a pure-deletion result (reads a copy of dels)."""
    # With repeats dropped, neighbouring keys that share y come from two members.
    ys = _sorted_unique(dels.flatten()) >> k
    return not (ys[1:] == ys[:-1]).any()


@dataclass
class SignSplitResult:
    """Pair-scan outcome for one (n, segment count) setting."""

    n: int
    m: int
    pairs_checked: int  # distinct pairs with equal exact syndromes f1..f_{m+1}
    counterexamples: int  # splittable pairs, first segment anchored at 1
    relaxed_counterexamples: int  # same with the first segment starting at 2


def _splittable(u: Sequence[int], m: int, first_from_one: bool) -> bool:
    """Can m breakpoints cut u into sign-constant segments?"""
    n = len(u)
    pos = [0] * (n + 1)
    neg = [0] * (n + 1)
    for i, v in enumerate(u, 1):
        pos[i] = pos[i - 1] + (v > 0)
        neg[i] = neg[i - 1] + (v < 0)

    def ok(a: int, b: int) -> bool:
        if a > b:
            return True
        return not (pos[b] - pos[a - 1] and neg[b] - neg[a - 1])

    start = 1 if first_from_one else 2
    if m == 1:
        return any(ok(start, p1) and ok(p1 + 1, n) for p1 in range(1, n + 1))
    return any(
        ok(start, p1) and ok(p1 + 1, p2) and ok(p2 + 1, n)
        for p1 in range(1, n)
        for p2 in range(p1 + 1, n + 1)
    )


def verify_sign_split(n: int, m: int) -> SignSplitResult:
    """Scan all pairs with equal exact syndromes for splittable difference vectors.

    A counterexample is a pair of distinct words whose f1..f_{m+1} agree
    as exact integers and whose suffix-difference vector can be cut into
    m+1 sign-constant segments; zero counterexamples means equal syndromes
    plus a sign split force equality.  Words are bucketed by syndrome
    tuple first, so only genuinely colliding pairs are compared.
    """
    if m not in (1, 2):
        raise ValueError(f"segment parameter must be 1 or 2, got {m}")
    _check_n("sign", n)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for v in range(1 << n):
        w = Word(n, v)
        key = tuple(vt_syndrome(w, j) for j in range(1, m + 2))
        buckets.setdefault(key, []).append(v)
    pairs = strict = relaxed = 0
    for group in buckets.values():
        for a, b in combinations(group, 2):
            u = suffix_diff(Word(n, a), Word(n, b))
            pairs += 1
            if _splittable(u, m, True):
                strict += 1
            if _splittable(u, m, False):
                relaxed += 1
    return SignSplitResult(n, m, pairs, strict, relaxed)


def verify_weight_deltas(n: int) -> int:
    """Check the weight-drop table and the one-substitution re-expression.

    Brute force over every word and every event: the weight drop must
    match the (deleted symbol, substitution) table row, and for every
    non-constant word each reachable received word must also be reachable
    by an event using exactly the symbols the received weight implies.
    Returns the number of violations.
    """
    _check_n("table1", n)
    violations = 0
    for v in range(1 << n):
        wt_x = v.bit_count()
        by_y: dict[int, list[ErrorEvent]] = {}
        for ev in iter_events(n):
            w = v if ev.e is None else flip_bit(v, n, ev.e)
            y = delete_bit(w, n, ev.d)
            if ev.e is None:
                sub = Substitution.NONE
            elif get_bit(v, n, ev.e) == 0:
                sub = Substitution.ZERO_TO_ONE
            else:
                sub = Substitution.ONE_TO_ZERO
            if wt_x - y.bit_count() != WEIGHT_DELTA_TABLE[(get_bit(v, n, ev.d), sub)]:
                violations += 1
            by_y.setdefault(y, []).append(ev)
        if v == 0 or v == (1 << n) - 1:
            continue  # constant words are exempt from the re-expression clause
        for y, events in by_y.items():
            cls = classify_weight_delta(wt_x & 3, y.bit_count(), n)
            wanted_from = 0 if cls.substitution is Substitution.ZERO_TO_ONE else 1
            if not any(
                ev.e is not None
                and get_bit(v, n, ev.d) == cls.deleted_value
                and get_bit(v, n, ev.e) == wanted_from
                for ev in events
            ):
                violations += 1
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
    return {"c0": p.c0, "c1": p.c1, "c2": p.c2}


def _resolve_class(n: int, params: CodeParams | None) -> tuple[CodeParams, bool, int]:
    """(params, auto, size) of a report's class, from one count of the classes."""
    if params is None:
        params, stats = choose_params(n)
        return params, True, stats.size
    if params.n != n:
        raise ValueError(f"params are for n={params.n}, not n={n}")
    return params, False, int(bucket_counts(n)[params.bucket_index])


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
    counted once, members listed once and their balls covered once; list2
    and lemma2 read the same ascending walk over the colliding (y, x, x')
    triples, and list2 keeps at most max_collisions records while its
    count stays exact.  Returns (report, passed).  Timing is opt-in so identical runs emit
    byte-identical JSON.
    """
    if not checks:
        raise ValueError(f"no checks selected; available: {', '.join(ALL_CHECKS)}")
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {', '.join(ALL_CHECKS)}")
    if max_collisions < 0:
        raise ValueError(f"max_collisions must be >= 0, got {max_collisions}")
    for check in checks:
        _check_n(check, n)
    start = time.perf_counter()
    params, auto, size = _resolve_class(n, params)
    values = _list_values(params, size).tolist()
    dels, k = _packed_deletions(values, n)
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
        cov = _cover(values, dels, k)
    if "list2" in checks:
        report["max_list_size"] = cov.max_list_size
        report["collision_count"] = len(cov.collisions)
        report["collision_pairs"] = [
            _collision_record(n, *t) for t in cov.collisions[:max_collisions]
        ]
        passed &= cov.max_list_size <= 2
    if "lemma2" in checks:
        lemma2 = _collision_ordering(n, cov)
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

    Smoke, not verification: random corruptions of randomly drawn
    codewords must decode back, and no decode may ever list more than
    two candidates.  The class is counted once and never listed: each
    codeword comes from a random walk down its reachability table, which
    reaches every member but is not uniform over them, so any length up
    to SCAN_CEILING runs.
    """
    if samples < 1:
        raise ValueError(f"smoke sampling needs samples >= 1, got {samples}")
    rng = random.Random(seed)
    params, auto, size = _resolve_class(n, params)
    if size == 0:
        raise ValueError(f"{params} has no members to sample")
    draws = _random_members(params, rng)
    completeness_failures = bound_failures = 0
    max_list_seen = 0

    def probe(y: Word) -> DecodeResult | None:
        nonlocal bound_failures, max_list_seen
        try:
            res = list_decode(y, params)
        except ListBoundError:
            bound_failures += 1
            return None
        max_list_seen = max(max_list_seen, len(res.candidates))
        return res

    for _ in range(samples):
        x = next(draws)
        d = rng.randrange(1, n + 1)
        e = rng.choice([None] + [i for i in range(1, n + 1) if i != d])
        w = x if e is None else flip_bit(x, n, e)
        res = probe(Word(n - 1, delete_bit(w, n, d)))
        if res is not None and Word(n, x) not in res.words:
            completeness_failures += 1
        probe(Word(n - 1, rng.randrange(0, 1 << (n - 1))))
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
