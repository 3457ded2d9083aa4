import ast
import inspect
import random
import tracemalloc
from collections import Counter
from itertools import accumulate, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsub import (
    SCAN_CEILING,
    VERIFY_CEILING,
    CodeParams,
    ErrorEvent,
    Word,
    choose_params,
    classify_case,
    codeword_values,
    delete_bit,
    error_ball,
    flip_bit,
    full_report,
    get_bit,
    insert_bit,
    is_codeword,
    params_from_bucket,
    params_of,
    predicted_suffix_profile,
    redundancy_table,
    sign_segments_ok,
    smoke_report,
    suffix_diff,
    verify_sign_split,
    verify_weight_deltas,
)
from delsub.channel import (
    CANONICAL_CLASS_BY_DELTA,
    WEIGHT_DELTA_TABLE,
    Substitution,
    _ball_keys,
    _corrupted,
    _packed_deletions,
    _substitution_witnesses,
)
from delsub.code import _random_members
from delsub.decoder import _decode_rows
from delsub.syndromes import _mixed_starts
from delsub.verifier import (
    _CASES,
    _CHECK_RANGES,
    _case_indices,
    _case_lambdas,
    _collision_ordering,
    _collision_records,
    _collision_witnesses,
    _cover,
    _deletion_balls_disjoint,
    _splittable,
)
from oracles import all_witnesses, ball_values, bucket_counts, canonical_witness, vt_syndrome

W = Word.from_text

X1, XP1, Y1 = W("1101101000101110"), W("1001111001011010"), W("110111100101110")


# --- ordering-case classification -----------------------------------------


# The lemma's ordering case by the ranges (1 before d1, 2 between, 3 after d2) of e1 and e2.
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


def _case_by_inequalities(d1, e1, d2, e2):
    """Oracle for the case rule: e1 lies between when d1 < e1 <= d2, e2 when d1 <= e2 < d2."""
    a = 1 if e1 < d1 else (2 if e1 <= d2 else 3)
    b = 1 if e2 < d1 else (2 if e2 < d2 else 3)
    return _CASE_BY_RANGES[(a, b)]


@pytest.mark.parametrize(
    "positions, expected",
    [
        ((10, 6, 14, 2), "i"),
        ((5, 2, 14, 9), "ii"),
        ((6, 8, 14, 2), "ii"),
        ((5, 15, 10, 2), "iii"),
        ((3, 5, 7, 4), "iv"),
        ((3, 5, 7, 9), "v"),
        ((3, 8, 5, 9), "vi"),
    ],
)
def test_classify_case_rows(positions, expected):
    assert classify_case(*positions) == expected == _case_by_inequalities(*positions)


def test_case_indices_match_classify_case_on_every_valid_position():
    # Cases ii and iii never occur on collision sets, so only this test
    # reaches them in the vectorized classifier.
    for n in range(2, 13):
        rows = [
            (d1, e1, d2, e2)
            for d1 in range(1, n + 1)
            for d2 in range(d1, n + 1)
            for e1 in range(1, n + 1)
            for e2 in range(1, n + 1)
            if e1 != d1 and e2 != d2
        ]
        expected = [_case_by_inequalities(*r) for r in rows]
        got = _case_indices(*np.array(rows, dtype=np.int64).T)
        assert [_CASES[c] for c in got.tolist()] == expected
        assert [classify_case(*r) for r in rows] == expected
    assert set(_CASES) == {"i", "ii", "iii", "iv", "v", "vi"}


def test_classify_case_validation():
    with pytest.raises(ValueError):
        classify_case(5, 2, 3, 1)  # d1 > d2
    with pytest.raises(ValueError):
        classify_case(3, 3, 7, 4)  # e1 == d1


def witness_pair_cases(x, x_prime, y):
    """Ordering case of every substitution-witness pair, relabeled so d1 <= d2.

    The per-pair oracle for the lemma2 check.  The returned events follow
    the relabeled order: the first event is the one with the smaller
    deletion position (taken from x or x_prime as needed).  The flag says
    whether the two deleted symbols agree: x at x's deletion position
    against x_prime at x_prime's, which relabeling does not change.
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


def test_non_member_pair_is_flagged():
    """Words that merely share a received word, but not a class, break the ordering."""
    cases = witness_pair_cases(X1, XP1, Y1)
    assert cases
    assert all(case != "iv" for case, *_ in cases)


def _flags(x, xp, y):
    """Deleted-symbol flag of each witness pair, keyed by its two events."""
    return sorted((sorted((w1, w2)), same) for _, w1, w2, same in witness_pair_cases(x, xp, y))


def test_witness_pairs_flag_the_deleted_symbols():
    # x reaches y by (d=5, e=3) and x' by (d=4, e=5), so the relabeled pair
    # puts x' first; the deleted symbols x_5 = 1 and x'_4 = 0 differ.
    x, xp, y = W("00001"), W("00101"), W("0010")
    assert witness_pair_cases(x, xp, y) == [
        ("ii", ErrorEvent(4, 5), ErrorEvent(5, 3), False)
    ]
    # The comparison does not depend on the relabeling, so swapping the
    # two words keeps every flag.
    n = 5
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            x, xp = Word(n, a), Word(n, b)
            for y in error_ball(x) & error_ball(xp):
                assert _flags(x, xp, y) == _flags(xp, x, y)


# --- ball coverage ----------------------------------------------------------


def _coverage_oracle(n):
    """Independent one-pass coverage of *every* class at length n."""
    cover: dict[tuple[int, int], set[int]] = {}
    for v in range(1, (1 << n) - 1):
        key = params_of(Word(n, v)).bucket_index
        for y in error_ball(Word(n, v)):
            cover.setdefault((key, y.value), set()).add(v)
    return cover


def test_every_class_respects_the_two_candidate_bound():
    for n in (8, 9):
        cover = _coverage_oracle(n)
        assert max(len(s) for s in cover.values()) <= 2


def _cover_oracle(values, n):
    """Dict-based coverage of ascending values: (max list size up to 3, collisions)."""
    cover: dict[int, tuple[int, ...]] = {}
    for x in values:
        for y in ball_values(x, n):
            cur = cover.get(y)
            if cur is None:
                cover[y] = (x,)
            elif len(cur) < 3:
                cover[y] = cur + (x,)
    hits = sorted((y, xs) for y, xs in cover.items() if len(xs) >= 2)
    return (
        max((len(xs) for xs in cover.values()), default=0),
        [(y, a, b) for y, xs in hits for a, b in combinations(xs, 2)],
    )


def _triples(cov):
    """The coverage's colliding (y, x, x') rows as a list of int triples."""
    return list(zip(*(c.tolist() for c in cov.collisions)))


def _covered(values, n):
    return _cover(n, values, *_packed_deletions(values, n))


def _assert_cover_matches_oracle(values, n):
    cov = _covered(values, n)
    assert all(c.dtype == np.int64 for c in cov.collisions)
    assert (cov.max_list_size, _triples(cov)) == _cover_oracle(values, n)
    return cov


def test_cover_matches_the_oracle_on_every_class_n9():
    n = 9
    seen = 0
    for key in np.flatnonzero(bucket_counts(n)).tolist():
        values = codeword_values(params_from_bucket(n, key)).tolist()
        seen += len(_triples(_assert_cover_matches_oracle(values, n))) > 0
    assert seen > 0


def test_cover_matches_the_oracle_on_best_classes():
    for n in range(2, 21):
        p, _ = choose_params(n)
        _assert_cover_matches_oracle(codeword_values(p).tolist(), n)


def test_cover_keeps_the_three_smallest_of_a_crowded_word():
    # Not a class: every non-constant 6-bit word.  Many received words have
    # more than three covering members, so only the three smallest count.
    cov = _assert_cover_matches_oracle(list(range(1, 63)), 6)
    assert cov.max_list_size == 3
    per_word = Counter(y for y, _, _ in _triples(cov))
    assert max(per_word.values()) == 3  # the three pairs of the three smallest
    assert _cover(6, [], *_packed_deletions([], 6)).max_list_size == 0


def test_coverage_widths_hold_through_the_verify_ceiling():
    """The coverage's fixed widths are exact at every length its checks take.

    _cover scans y, n - 1 bits, as uint32; the ball keys y << k | i need
    n - 1 + k <= 64 bits, and k <= n since a class has fewer than 2^n
    members; the members and the colliding (y, x, x'), n bits at most,
    are int64.  A VERIFY_CEILING raised past n - 1 <= 32 or 2n - 1 <= 64
    fails here instead of truncating.
    """
    top = max(_CHECK_RANGES[c][1] for c in ("list2", "lemma2", "deletion"))
    assert top == VERIFY_CEILING
    assert top - 1 <= np.iinfo(np.uint32).bits
    assert 2 * top - 1 <= np.iinfo(np.uint64).bits
    assert top < np.iinfo(np.int64).bits


def test_words_are_int64_from_listing_to_lemma2():
    """int64 is the one array type for words: the listed and the drawn
    members, the colliding (y, x, x') and every decoded x up to SCAN_CEILING.
    Only the packed ball keys are uint64."""
    for n in (9, 16, 24):
        p, _ = choose_params(n)
        values = codeword_values(p)
        dels, k = _packed_deletions(values, n)
        cov = _cover(n, values, dels, k)
        assert values.dtype == np.int64 and dels.dtype == np.uint64, n
        assert len(cov.collisions[0]) and all(c.dtype == np.int64 for c in cov.collisions), n
    for n in (9, 24, SCAN_CEILING):
        p, _ = choose_params(n)
        sent = next(_random_members(p, random.Random(n)))[:8]
        _, x, _, _ = _decode_rows([_corrupted(v, n, ErrorEvent(1, n)) for v in sent.tolist()], p)
        assert sent.dtype == x.dtype == np.int64 and len(x), n


def _ball_keys_oracle(n, dels, k):
    """Every entry of each kept result and its n-1 flips, sorted, equal neighbours dropped."""
    flips = np.array([0] + [1 << q for q in range(n - 1)], dtype=np.uint64) << k
    keys = (dels[:, None] ^ flips).ravel()
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _assert_ball_keys_match_oracle(values, n):
    dels, k = _packed_deletions(values, n)
    keys = _ball_keys(n, dels, k)
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, _ball_keys_oracle(n, dels, k))
    # Each member keeps exactly its ball, and 3R - 4M entries of the R rows
    # of M members are dropped.
    member = (keys & ((np.uint64(1) << k) - np.uint64(1))).astype(np.intp)
    per_member = np.bincount(member, minlength=len(values)).tolist()
    assert per_member == [len(ball_values(x, n)) for x in values]
    assert len(dels) * n - len(keys) == 3 * len(dels) - 4 * len(values)


def test_ball_keys_match_the_dedupe_oracle_on_every_class():
    for n in range(2, 10):
        for key in np.flatnonzero(bucket_counts(n)).tolist():
            _assert_ball_keys_match_oracle(codeword_values(params_from_bucket(n, key)).tolist(), n)


def test_ball_keys_match_the_dedupe_oracle_on_best_classes():
    for n in range(10, 21):
        p, _ = choose_params(n)
        _assert_ball_keys_match_oracle(codeword_values(p).tolist(), n)


def test_ball_keys_of_every_word_drop_only_repeats():
    # Not a class: every non-constant 7-bit word, so neighbouring members
    # share deletion results and rows of different members meet.
    _assert_ball_keys_match_oracle(list(range(1, 127)), 7)


def _list2(n, p=None, **kwargs):
    report, _ = full_report(n, p, checks=("list2",), **kwargs)
    return report


def test_list2_agrees_with_the_oracle():
    n = 9
    cover = _coverage_oracle(n)
    worst: dict[int, int] = {}
    collisions: dict[int, int] = {}
    for (key, _), members in cover.items():
        worst[key] = max(worst.get(key, 0), len(members))
        if len(members) >= 2:
            collisions[key] = collisions.get(key, 0) + 1
    for key in sorted(collisions):
        p = params_from_bucket(n, key)
        report = _list2(n, p)
        assert report["max_list_size"] == worst[key]
        assert report["collision_count"] == collisions[key]
        assert report["code_size"] == len(codeword_values(p))
        for c in report["collision_pairs"]:
            x, xp, y = W(c["x"]), W(c["x_prime"]), W(c["y"])
            assert is_codeword(x, p) and is_codeword(xp, p)
            assert y in error_ball(x) and y in error_ball(xp)


def test_list2_on_best_class():
    p, stats = choose_params(12)
    report = _list2(12, p, timing=True)
    assert report["code_size"] == stats.size
    assert report["redundancy"] == stats.redundancy
    assert report["max_list_size"] == 2
    assert report["collision_count"] == len(report["collision_pairs"])
    assert report["elapsed"] >= 0


def test_list2_collision_cap():
    full = _list2(14)
    capped = _list2(14, max_collisions=3)
    assert capped["collision_count"] == full["collision_count"]
    assert len(capped["collision_pairs"]) == 3
    assert capped["collision_pairs"] == full["collision_pairs"][:3]


def test_list2_is_repeatable():
    reference = _list2(12)
    for _ in range(2):
        got = _list2(12)
        assert got["max_list_size"] == reference["max_list_size"]
        assert got["collision_count"] == reference["collision_count"]
        assert got["collision_pairs"] == reference["collision_pairs"]


def test_verify_ceiling():
    with pytest.raises(ValueError):
        _list2(30, CodeParams(30, 0, 0, 0))


def test_full_report_at_the_ceiling():
    report, passed = full_report(VERIFY_CEILING)
    assert passed
    assert report["max_list_size"] == 2
    assert report["collision_count"] > 0
    assert report["lemma2_violations"] == 0
    assert report["single_deletion_ok"] is True


def test_singleton_class_covers_its_own_ball():
    x = W("10110100")
    p = params_of(x)
    if len(codeword_values(p)) == 1:
        report = _list2(8, p)
        assert report["code_size"] == 1
        assert report["max_list_size"] == 1
        assert report["collision_count"] == 0


def test_empty_class_report():
    # With no members, list2, lemma2 and deletion would pass vacuously.
    n = 8
    counts = bucket_counts(n)
    p = params_from_bucket(n, int(np.flatnonzero(counts == 0)[0]))
    for check in ("list2", "lemma2", "deletion"):
        with pytest.raises(ValueError, match="no members"):
            full_report(n, p, checks=("sign", check))
    report, passed = full_report(n, p, checks=("sign", "table1"))
    assert passed
    assert report["code_size"] == 0
    assert report["redundancy"] is None


# --- collision ordering -------------------------------------------------------


def test_collision_ordering_on_best_classes():
    for n in (10, 12):
        p, _ = choose_params(n)
        r, _ = full_report(n, p, checks=("list2", "lemma2"))
        assert r["lemma2_violations"] == 0
        assert r["lemma2_weight_mismatches"] == 0
        assert r["lemma2_deleted_symbol_mismatches"] == 0
        assert set(r["lemma2_cases"]) <= {"iv"}
        assert r["collision_count"] > 0  # the check must not pass vacuously here


def test_collision_ordering_across_all_colliding_classes():
    n = 9
    cover = _coverage_oracle(n)
    keys = sorted({key for (key, _), members in cover.items() if len(members) >= 2})
    assert keys
    for key in keys:
        r, _ = full_report(n, params_from_bucket(n, key), checks=("lemma2",))
        assert r["lemma2_violations"] == 0
        assert set(r["lemma2_cases"]) <= {"iv"}


def _assert_witness_rows_match(n, rows):
    """_substitution_witnesses on (x, y) rows: all_witnesses' substitutions, row by row, in order."""
    x, y = np.array(rows, dtype=np.int64).T
    got = list(zip(*(c.tolist() for c in _substitution_witnesses(n, x, y))))
    assert got == [
        (r, w.d, w.e)
        for r, (xv, yv) in enumerate(rows)
        for w in all_witnesses(Word(n, xv), Word(n - 1, yv))
        if w.e is not None
    ]


def test_substitution_witnesses_match_all_witnesses_on_every_ball():
    for n in range(2, 11):
        rows = [(x, y) for x in range(1, (1 << n) - 1) for y in sorted(ball_values(x, n))]
        _assert_witness_rows_match(n, rows)


def test_substitution_witnesses_match_all_witnesses_at_n28():
    n = 28
    rng = random.Random(28)
    xs = [rng.randrange(1, (1 << n) - 1) for _ in range(12)] + [1, 1 << (n - 1), 0b1011 << 20]
    rows = [(x, y) for x in xs for y in sorted(ball_values(x, n))]
    # The bit-length edge cases: no mismatch in A or in B, and B with two.
    a = [(x >> 1) ^ y for x, y in rows]
    b = [(x & ((1 << (n - 1)) - 1)) ^ y for x, y in rows]
    assert 0 in a and 0 in b and any((v & (v - 1)).bit_count() == 1 for v in b)
    _assert_witness_rows_match(n, rows)


def test_witnesses_past_53_bits_match_the_oracle():
    # frexp rounds values of 2^53 or more to a float, so a bit length read
    # from its exponent alone can be one too large.  (01)^30 with position 1
    # deleted has the witness (2, 1), which such a bit length loses.
    x = Word(60, int("01" * 30, 2))
    y = Word(59, delete_bit(x.value, 60, 1))
    assert canonical_witness(x, y) == all_witnesses(x, y)[0] == ErrorEvent(2, 1)
    for n in range(54, 63):
        for pattern in ("01", "10"):
            xv = int((pattern * n)[:n], 2)
            rows = [(xv, y) for y in sorted(ball_values(xv, n))]
            _assert_witness_rows_match(n, rows)
            x = Word(n, xv)
            for d in range(1, n + 1):
                y = Word(n - 1, delete_bit(xv, n, d))
                assert canonical_witness(x, y) == all_witnesses(x, y)[0], (x, d)


def _ordering_oracle(n, cov):
    """The lemma2 report fields from witness_pair_cases, one collision at a time."""
    violations = wt_bad = del_bad = 0
    case_counts: dict[str, int] = {}
    for y, a, b in _triples(cov):
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


def _record_oracle(n, y, a, b):
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


def _assert_ordering_matches_oracle(values, n):
    """lemma2 fields and every collision record against their one-at-a-time oracles."""
    cov = _covered(values, n)
    wits = _collision_witnesses(n, cov, None)
    got = _collision_ordering(n, cov, wits)
    assert got == _ordering_oracle(n, cov)
    triples = _triples(cov)
    expected = [_record_oracle(n, *t) for t in triples]
    assert _collision_records(n, cov, wits, len(triples)) == expected
    # Records need only their own rows' witnesses, as a list2-only report has.
    few = len(triples) // 2
    assert _collision_records(n, cov, _collision_witnesses(n, cov, few), few) == expected[:few]
    return got


def test_collision_ordering_matches_the_oracle_on_every_word():
    """Not a class: every non-constant word, so every field is non-zero."""
    for n in range(5, 11):
        got = _assert_ordering_matches_oracle(list(range(1, (1 << n) - 1)), n)
        assert got["lemma2_violations"] > 0
        assert got["lemma2_weight_mismatches"] > 0
        assert got["lemma2_deleted_symbol_mismatches"] > 0
        if n == 6:
            assert got == {
                "lemma2_violations": 376,
                "lemma2_cases": {"i": 187, "iv": 179, "v": 68, "vi": 121},
                "lemma2_weight_mismatches": 26,
                "lemma2_deleted_symbol_mismatches": 134,
            }


def test_collision_ordering_matches_the_oracle_on_every_class_n9():
    n = 9
    seen = 0
    for key in np.flatnonzero(bucket_counts(n)).tolist():
        values = codeword_values(params_from_bucket(n, key)).tolist()
        seen += sum(_assert_ordering_matches_oracle(values, n)["lemma2_cases"].values()) > 0
    assert seen > 0


def test_collision_ordering_matches_the_oracle_on_best_classes():
    for n in range(2, 25):
        p, _ = choose_params(n)
        _assert_ordering_matches_oracle(codeword_values(p).tolist(), n)


def test_collision_ordering_of_no_collisions():
    assert _assert_ordering_matches_oracle([], 6) == {
        "lemma2_violations": 0,
        "lemma2_cases": {},
        "lemma2_weight_mismatches": 0,
        "lemma2_deleted_symbol_mismatches": 0,
    }


# --- single-deletion balls ------------------------------------------------------


def test_single_deletion_balls_disjoint_for_best_classes():
    for n in (8, 12):
        p, _ = choose_params(n)
        report, _ = full_report(n, p, checks=("deletion",))
        assert report["single_deletion_ok"] is True


def _disjoint(values, n):
    return _deletion_balls_disjoint(*_packed_deletions(values, n))


def test_deletion_disjointness_flags_a_real_overlap():
    # "10" and "01" both reach "0" and "1" by one deletion.
    assert not _disjoint([0b10, 0b01], 2)
    assert _disjoint([0b10], 2)


def _deletion_oracle(values, n):
    """Dict walk: True iff no two distinct members share a pure-deletion result."""
    seen: dict[int, int] = {}
    for x in values:
        for y in {delete_bit(x, n, d) for d in range(1, n + 1)}:
            other = seen.get(y)
            if other is not None and other != x:
                return False
            seen[y] = x
    return True


def _assert_deletion_matches_oracle(values, n):
    got = _disjoint(values, n)
    assert type(got) is bool and got == _deletion_oracle(values, n)  # the report emits it as JSON
    return got


def test_deletion_matches_the_oracle_on_every_class_n9():
    n = 9
    classes = [
        codeword_values(params_from_bucket(n, key)).tolist()
        for key in np.flatnonzero(bucket_counts(n)).tolist()
    ]
    assert all(_assert_deletion_matches_oracle(values, n) for values in classes)
    # Unions of neighbouring classes are no codes, so both answers occur.
    outcomes = Counter(
        _assert_deletion_matches_oracle(sorted(a + b), n) for a, b in zip(classes, classes[1:])
    )
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_deletion_matches_the_oracle_on_best_classes():
    for n in range(2, 21):
        p, _ = choose_params(n)
        assert _assert_deletion_matches_oracle(codeword_values(p).tolist(), n)


def test_deletion_flags_crowded_words():
    # Not a class: every non-constant 6-bit word.
    assert not _assert_deletion_matches_oracle(list(range(1, 63)), 6)


def test_deletion_within_a_run_is_no_collision():
    # Deleting either bit of a run reaches one word: "0110" -> "010" twice,
    # "110" twice and "011" twice, yet one member collides with nothing.
    for values, n in (([0b0110], 4), ([0b110], 3), ([0b0110, 0b1001], 4)):
        assert _assert_deletion_matches_oracle(values, n)
    assert _disjoint([], 5)


# --- sign-split scan -------------------------------------------------------------


def test_sign_split_zero_counterexamples_small():
    for n in range(2, 11):
        assert verify_sign_split(n, 1).counterexamples == 0
    for n in range(2, 9):
        assert verify_sign_split(n, 2).counterexamples == 0


# (pairs_checked, counterexamples, relaxed_counterexamples) at n = 2..14.
_SIGN_COUNTS = {
    1: [
        *[(0, 0, 0)] * 4,
        (2, 0, 2),
        (7, 0, 5),
        (29, 0, 20),
        (90, 0, 48),
        (312, 0, 144),
        (905, 0, 336),
        (3067, 0, 1024),
        (9258, 0, 2368),
        (29244, 0, 6144),
    ],
    2: [
        *[(0, 0, 0)] * 9,
        (16, 0, 16),
        (48, 0, 32),
        (200, 0, 132),
        (544, 0, 264),
    ],
}


@pytest.mark.parametrize("m", (1, 2))
def test_sign_split_counts_are_pinned(m):
    got = []
    for n in range(2, 15):
        r = verify_sign_split(n, m)
        got.append((r.pairs_checked, r.counterexamples, r.relaxed_counterexamples))
    assert got == _SIGN_COUNTS[m]


def test_sign_split_scans_each_pair_once(monkeypatch):
    import delsub.verifier as verifier

    calls = _count_calls(monkeypatch, [(verifier, "_mixed_starts")])
    r = verify_sign_split(10, 1)
    assert r.pairs_checked > 0
    assert calls == {"_mixed_starts": r.pairs_checked}  # both conventions read one scan


def test_sign_split_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_sign_split(8, 3)
    with pytest.raises(ValueError):
        verify_sign_split(15, 1)


def test_relaxed_first_segment_admits_counterexamples():
    """Anchoring the first segment at position 1 is load-bearing.

    With the first segment starting at position 2 (u_1 unconstrained)
    there are pairs with equal exact syndromes, a valid split, and
    different words; the smallest live at n=6.
    """
    r = verify_sign_split(6, 1)
    assert r.counterexamples == 0
    assert r.relaxed_counterexamples > 0

    x, xp = W("000110"), W("110001")
    assert vt_syndrome(x, 1) == vt_syndrome(xp, 1) == 9
    assert vt_syndrome(x, 2) == vt_syndrome(xp, 2) == 25
    u = suffix_diff(x, xp)
    assert u == (-1, 0, 1, 1, 0, -1)
    assert not _splittable(_mixed_starts(u), 1, True)
    assert _splittable(_mixed_starts(u), 1, False)


def test_splittable_matches_sign_segments():
    u = (0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0)
    assert _splittable(_mixed_starts(u), 1, True)
    assert sign_segments_ok(u, [6])
    assert not _splittable(_mixed_starts((1, -1, 1)), 1, True)
    assert _splittable(_mixed_starts((1, -1, 1)), 2, True)


def _split_by_breakpoints(u, m, first):
    """Oracle: some set of m breakpoints cuts u into sign-constant segments."""
    return any(
        sign_segments_ok(u, bps, first_segment_from_one=first)
        for bps in combinations(range(1, len(u) + 1), m)
    )


def test_splittable_matches_sign_segments_on_every_difference_vector():
    """Every u that is the suffix sums of some d in {-1, 0, 1}^n, n <= 8.

    d itself is tried too: its signs may flip with no zero between them,
    which a difference vector never does.
    """
    cases = 0
    for n in range(1, 9):
        for d in product((-1, 0, 1), repeat=n):
            for u in (tuple(accumulate(reversed(d)))[::-1], d):
                for m, first in product((1, 2, 3), (True, False)):
                    got = _splittable(_mixed_starts(u), m, first)
                    assert got == _split_by_breakpoints(u, m, first), (u, m, first)
                    cases += 1
    assert cases == 12 * sum(3**n for n in range(1, 9))


@st.composite
def sign_runs(draw):
    """u in {-2..2}^n for 9 <= n <= 24: one to six runs of alternating sign, zeros allowed."""
    n = draw(st.integers(9, 24))
    runs = draw(st.integers(1, 6))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=runs - 1, max_size=runs - 1)))
    sign = draw(st.sampled_from((-1, 1)))
    u = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        u += [sign * a for a in draw(st.lists(st.integers(0, 2), min_size=hi - lo, max_size=hi - lo))]
        sign = -sign
    return tuple(u)


@given(sign_runs(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_splittable_matches_sign_segments_beyond_n8(u, m):
    for first in (True, False):
        got = _splittable(_mixed_starts(u), m, first)
        assert got == _split_by_breakpoints(u, m, first), (u, m, first)


# --- weight-delta table -----------------------------------------------------------


def test_weight_deltas_hold_up_to_n8():
    for n in range(2, 9):
        assert verify_weight_deltas(n) == 0


def test_weight_deltas_count_a_broken_table_row(monkeypatch):
    # Every pure deletion of a 1, n 2^(n-1) of them over all n-bit words, now misses its row.
    row = (1, Substitution.NONE)
    monkeypatch.setitem(WEIGHT_DELTA_TABLE, row, WEIGHT_DELTA_TABLE[row] + 1)
    assert [verify_weight_deltas(n) for n in (4, 6, 8)] == [32, 192, 1024]


def test_weight_deltas_count_a_broken_canonical_class(monkeypatch):
    # A drop of 2 read as deleting a 0: only the re-expression clause can see it.
    monkeypatch.setitem(CANONICAL_CLASS_BY_DELTA, 2, (0, Substitution.ONE_TO_ZERO))
    assert [verify_weight_deltas(n) for n in (4, 6, 8)] == [16, 186, 1464]


def test_weight_deltas_ceiling():
    with pytest.raises(ValueError):
        verify_weight_deltas(13)


# --- redundancy table --------------------------------------------------------------


def test_redundancy_table_rows():
    rows = redundancy_table([8, 16])
    assert [r.n for r in rows] == [8, 16]
    assert rows[0].bound == pytest.approx(13.0)
    assert rows[1].bound == pytest.approx(16.0)
    for row in rows:
        assert row.margin == pytest.approx(row.bound - row.redundancy)
        assert row.margin >= 0
        assert row.size >= 1


# --- closed-form suffix profiles ------------------------------------------------------


def _collision_candidates(xp, d2, e2):
    """All (x, witness) pairs reaching the same received word as (xp, (d2, e2))."""
    n = xp.n
    y = xp.value
    if e2 is not None:
        y = flip_bit(y, n, e2)
    from delsub import delete_bit

    y = delete_bit(y, n, d2)
    out = []
    for d1 in range(1, n + 1):
        for v in (0, 1):
            base = insert_bit(y, n - 1, d1, v)
            for e1 in range(1, n + 1):
                if e1 == d1:
                    continue
                out.append((Word(n, flip_bit(base, n, e1)), ErrorEvent(d1, e1)))
    return Word(n - 1, y), out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_predicted_profiles_match_suffix_diff(data):
    """For every non-"iv" witness-pair ordering the closed form must be exact."""
    n = data.draw(st.integers(5, 12))
    xp = Word(n, data.draw(st.integers(1, (1 << n) - 2)))
    d2 = data.draw(st.integers(1, n))
    e2 = data.draw(st.sampled_from([i for i in range(1, n + 1) if i != d2]))
    y, candidates = _collision_candidates(xp, d2, e2)
    w2 = ErrorEvent(d2, e2)
    checked = 0
    for x, w1 in candidates:
        if x == xp or x.weight % 4 != xp.weight % 4:
            continue
        # Same weight residue plus a shared received word force these:
        assert x.weight == xp.weight
        if w1.d <= d2:
            first, second, wa, wb = x, xp, w1, w2
        else:
            first, second, wa, wb = xp, x, w2, w1
        assert first.bit(wa.d) == second.bit(wb.d)
        case = classify_case(wa.d, wa.e, wb.d, wb.e)
        if case == "iv":
            with pytest.raises(ValueError):
                predicted_suffix_profile(first, second, wa, wb)
            continue
        u = suffix_diff(first, second)
        assert predicted_suffix_profile(first, second, wa, wb) == u
        bound = 1 if case in ("i", "vi") else 2
        assert max(abs(v) for v in u) <= bound
        # The bridge to exactness: outside case "iv" the syndrome gap is
        # smaller than the modulus, so congruence mod 2n^j forces equality.
        for j in (1, 2):
            gap = vt_syndrome(first, j) - vt_syndrome(second, j)
            assert abs(gap) < bound * n**j
            if gap % (2 * n**j) == 0:
                assert gap == 0
        lam1, lam2 = _case_lambdas(case, wa.d, wa.e, wb.d, wb.e)
        split = {"i": lam2, "ii": lam2 - 1, "iii": None, "v": lam1 - 1, "vi": wb.d}[case]
        breakpoints = [split] if split is not None and 1 <= split <= n else []
        assert sign_segments_ok(u, breakpoints)
        checked += 1


# --- aggregate reports ---------------------------------------------------------------


def test_full_report_structure_and_pass():
    report, passed = full_report(10, checks=("list2", "lemma2", "sign", "table1", "deletion"))
    assert passed and report["pass"]
    assert report["auto_params"]
    assert report["max_list_size"] == 2
    assert report["lemma2_violations"] == 0
    assert report["sign_counterexamples"] == 0
    assert report["table1_violations"] == 0
    assert report["single_deletion_ok"] is True
    assert "elapsed" not in report
    timed, _ = full_report(8, checks=("list2",), timing=True)
    assert timed["elapsed"] > 0


def test_full_report_explicit_params_and_unknown_check():
    p = CodeParams(8, 0, 0, 53)  # not the best class, (0, 0, 47)
    report, passed = full_report(8, p, checks=("list2",))
    assert not report["auto_params"]
    assert report["params"] == {"c0": 0, "c1": 0, "c2": 53}
    assert passed
    with pytest.raises(ValueError):
        full_report(8, checks=("list2", "bogus"))
    with pytest.raises(ValueError):
        full_report(8, CodeParams(10, 0, 0, 0))


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) so its calls are counted under name."""
    calls = {name: 0 for _, name in targets}

    def counted(real, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    return calls


def _forbid(monkeypatch, targets, why):
    def forbidden(*args, **kwargs):
        pytest.fail(why)

    for module, name in targets:
        monkeypatch.setattr(module, name, forbidden)


def test_full_report_lists_members_and_covers_once(monkeypatch):
    _check_lists_members_and_covers_once(monkeypatch, explicit=False)


def test_full_report_lists_members_and_covers_once_for_explicit_params(monkeypatch):
    _check_lists_members_and_covers_once(monkeypatch, explicit=True)


def _check_lists_members_and_covers_once(monkeypatch, explicit):
    import delsub.channel as channel
    import delsub.code as code
    import delsub.verifier as verifier

    p = choose_params(14)[0] if explicit else None
    # choose_params counts through the code module's name, the explicit
    # path through the verifier's; both count under one key, as do the
    # two names of the listing.
    calls = _count_calls(
        monkeypatch,
        [
            (code, "_class_sizes"),
            (verifier, "_class_sizes"),
            (code, "codeword_values"),
            (verifier, "codeword_values"),
            (verifier, "_cover"),
            (verifier, "_packed_deletions"),
            (verifier, "_substitution_witnesses"),
        ],
    )
    # The records take their witnesses from the verifier's arrays.
    one_pair = [(channel, "_substitution_witnesses")]
    _forbid(monkeypatch, one_pair, "a report took witnesses outside its one pass")
    drawn = [(code, "_random_members"), (verifier, "_random_members")]
    _forbid(monkeypatch, drawn, "a report drew samples")
    report, passed = full_report(14, p)
    assert passed and report["collision_count"] > 0
    assert report["auto_params"] is not explicit
    assert calls == {
        "_class_sizes": 1,
        "codeword_values": 1,
        "_cover": 1,
        "_packed_deletions": 1,  # one packing for list2/lemma2 and deletion
        "_substitution_witnesses": 1,  # x and x' of every row, for the records and lemma2
    }


def test_class_free_checks_list_nothing(monkeypatch):
    import delsub.code as code
    import delsub.verifier as verifier

    calls = _count_calls(
        monkeypatch,
        [
            (code, "codeword_values"),
            (verifier, "codeword_values"),
            (verifier, "_packed_deletions"),
        ],
    )
    report, passed = full_report(10, checks=("sign", "table1"))
    assert passed and report["code_size"] == choose_params(10)[1].size
    assert calls == {"codeword_values": 0, "_packed_deletions": 0}


def test_verifier_imports_no_other_private_code_name():
    import delsub.verifier as verifier

    imported = {
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(verifier)))
        if isinstance(node, ast.ImportFrom) and node.module == "code"
        for alias in node.names
    }
    assert {name for name in imported if name.startswith("_")} <= {"_class_sizes", "_random_members"}


def test_full_report_memory_peak():
    # The packing keeps one deletion per run of equal bits.  The coverage
    # sorts its ball entries in place and slices the repeats off, with no
    # dedupe copy; its keys, their uint32 y and the run masks set the peak.
    # The class count folds into its 16n^3 int32 counters with one spare
    # weight plane and never copies the whole table, nor widens it.
    full_report(24)
    tracemalloc.start()
    try:
        full_report(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * (1 << 20)


def test_full_report_rejects_an_empty_check_list():
    with pytest.raises(ValueError, match="no checks"):
        full_report(10, checks=())


@pytest.mark.parametrize(
    "n, checks",
    [
        (29, ("list2",)),
        (40, ("lemma2",)),
        (40, ("deletion",)),
        (15, ("list2", "sign")),
        (13, ("deletion", "table1")),
        (1, ("table1",)),
        (1, ("sign",)),
    ],
)
def test_full_report_checks_the_length_before_any_work(monkeypatch, n, checks):
    import delsub.code as code
    import delsub.verifier as verifier

    _forbid(
        monkeypatch,
        [
            (code, "_class_sizes"),
            (code, "codeword_values"),
            (verifier, "_class_sizes"),
            (verifier, "choose_params"),
            (verifier, "codeword_values"),
        ],
        "a class was counted or listed before the length check",
    )
    with pytest.raises(ValueError, match=checks[-1]):
        full_report(n, checks=checks)
    if n >= 2:
        with pytest.raises(ValueError, match=checks[-1]):
            full_report(n, CodeParams(n, 0, 0, 0), checks=checks)


def test_smoke_report_refuses_a_vacuous_run():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            smoke_report(10, samples=samples)
    empty = CodeParams(8, 0, 0, 1)
    assert len(codeword_values(empty)) == 0
    with pytest.raises(ValueError, match="no members"):
        smoke_report(8, empty, samples=5)


def test_smoke_report_is_deterministic():
    a, ok_a = smoke_report(10, samples=8, seed=42)
    b, ok_b = smoke_report(10, samples=8, seed=42)
    assert a == b and ok_a and ok_b
    assert a["mode"] == "smoke"
    c, _ = smoke_report(10, samples=8, seed=43)
    assert c != a or c["seed"] != a["seed"]
    p = CodeParams(30, 1, 2, 3)
    assert smoke_report(30, p, samples=6, seed=5) == smoke_report(30, p, samples=6, seed=5)


def test_smoke_report_draws_in_a_fixed_order(monkeypatch):
    """Each sample draws its member, d, e and noise word in that order.

    The report alone would not show a reordering, since the seeded reports
    all read max_list_seen = 2, so the decoded words are pinned: per
    sample, the corrupted member, then the noise word.
    """
    import delsub.verifier as verifier

    decoded = []
    real = verifier._decode_rows

    def spy(values, p):
        decoded.extend(str(Word(p.n - 1, v)) for v in values)
        return real(values, p)

    monkeypatch.setattr(verifier, "_decode_rows", spy)
    smoke_report(12, samples=3, seed=3)
    assert decoded == [
        "01110010000", "11001000011", "10101010100", "10110101010", "01110110010", "10111001010",
    ]


def _edit_smoke_rows(monkeypatch, edit):
    """Route smoke's _decode_rows output through edit(sent, row, x), which
    returns the kept (row, x); sent is the first draw batch's first member."""
    import delsub.verifier as verifier

    real_rows, real_draws = verifier._decode_rows, verifier._random_members
    sent = []

    def draws(p, rng):
        for batch in real_draws(p, rng):
            sent.extend(batch[:1].tolist())
            yield batch

    def rows(values, p):
        row, x, _, _ = real_rows(values, p)
        return (*edit(sent[0], row, x), None, None)  # smoke reads no witness

    monkeypatch.setattr(verifier, "_random_members", draws)
    monkeypatch.setattr(verifier, "_decode_rows", rows)


def test_smoke_report_counts_a_crowded_row_only_as_a_bound_failure(monkeypatch):
    """Row 0, member 0's corruption, lists three words and not member 0: one
    bound failure, and the row counts neither in max_list_seen nor as a
    completeness failure."""
    others = []

    def crowd(member, row, x):
        keep = row != 0
        others.append(int(np.bincount(row[keep]).max()))
        return np.r_[0, 0, 0, row[keep]], np.r_[-1, -2, -3, x[keep]]

    _edit_smoke_rows(monkeypatch, crowd)
    report, passed = smoke_report(12, samples=5, seed=1)
    assert len(others) == 1 and others[0] <= 2
    assert (report["bound_failures"], report["completeness_failures"]) == (1, 0)
    assert report["max_list_seen"] == others[0]
    assert passed is report["pass"] is False


def test_smoke_report_counts_a_missing_member_as_a_completeness_failure(monkeypatch):
    def drop(member, row, x):
        keep = (row != 0) | (x != member)
        assert not keep.all()
        return row[keep], x[keep]

    _edit_smoke_rows(monkeypatch, drop)
    report, passed = smoke_report(12, samples=5, seed=1)
    assert (report["bound_failures"], report["completeness_failures"]) == (0, 1)
    assert passed is report["pass"] is False


def test_smoke_report_decodes_each_draw_batch_in_one_call(monkeypatch):
    """One _decode_rows call per draw batch read, on the batch's members
    still needed, two rows each, and no list_decode call."""
    import delsub.decoder as decoder
    import delsub.verifier as verifier

    assert not hasattr(verifier, "list_decode")
    _forbid(monkeypatch, [(decoder, "list_decode")], "smoke decoded one word at a time")
    real_rows, real_draws = verifier._decode_rows, verifier._random_members
    batches, calls = [], []

    def draws(p, rng):
        for batch in real_draws(p, rng):
            batches.append(len(batch))
            yield batch

    def rows(values, p):
        calls.append(len(values))
        return real_rows(values, p)

    monkeypatch.setattr(verifier, "_random_members", draws)
    monkeypatch.setattr(verifier, "_decode_rows", rows)
    report, passed = smoke_report(62, samples=30, seed=1)
    assert passed and len(calls) == len(batches) > 1
    assert sum(calls) == 2 * 30
    assert calls[:-1] == [2 * k for k in batches[:-1]] and calls[-1] <= 2 * batches[-1]


@pytest.mark.parametrize(
    "n, samples, params",
    [(12, 40, (2, 12, 161)), (16, 40, (0, 0, 372)), (62, 200, (3, 108, 5440))],
)
def test_smoke_report_is_pinned(n, samples, params):
    """Seeded reports, the n = 62 one over about twenty draw batches."""
    report, passed = smoke_report(n, samples=samples, seed=1)
    assert report == {
        "mode": "smoke", "n": n, "params": dict(zip(("c0", "c1", "c2"), params)),
        "auto_params": True, "samples": samples, "seed": 1, "decode_trials": samples,
        "max_list_seen": 2, "completeness_failures": 0, "bound_failures": 0, "pass": True,
    }
    assert passed


@pytest.mark.parametrize("explicit", [False, True])
def test_smoke_report_counts_once_and_never_lists(monkeypatch, explicit):
    import delsub.code as code
    import delsub.verifier as verifier

    p = choose_params(20)[0] if explicit else None
    _forbid(
        monkeypatch,
        [(code, "codeword_values"), (verifier, "codeword_values")],
        "smoke mode listed the class",
    )
    calls = _count_calls(monkeypatch, [(code, "_class_sizes"), (verifier, "_class_sizes")])
    report, passed = smoke_report(20, p, samples=10, seed=3)
    assert passed and report["auto_params"] is not explicit
    assert calls == {"_class_sizes": 1}
