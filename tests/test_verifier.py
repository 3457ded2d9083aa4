from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsub import (
    VERIFY_CEILING,
    CodeParams,
    ErrorEvent,
    Word,
    ball_values,
    bucket_counts,
    choose_params,
    classify_case,
    codeword_values,
    delete_bit,
    error_ball,
    flip_bit,
    full_report,
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
    vt_syndrome,
    witness_pair_cases,
)
from delsub.verifier import (
    _case_lambdas,
    _cover,
    _deletion_balls_disjoint,
    _packed_deletions,
    _splittable,
)

W = Word.from_text

X1, XP1, Y1 = W("1101101000101110"), W("1001111001011010"), W("110111100101110")


# --- ordering-case classification -----------------------------------------


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
    assert classify_case(*positions) == expected


def test_classify_case_validation():
    with pytest.raises(ValueError):
        classify_case(5, 2, 3, 1)  # d1 > d2
    with pytest.raises(ValueError):
        classify_case(3, 3, 7, 4)  # e1 == d1


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


def _assert_cover_matches_oracle(values, n):
    cov = _cover(values, *_packed_deletions(values, n))
    assert (cov.max_list_size, cov.collisions) == _cover_oracle(values, n)
    return cov


def test_cover_matches_the_oracle_on_every_class_n9():
    n = 9
    seen = 0
    for key in np.flatnonzero(bucket_counts(n)).tolist():
        values = codeword_values(params_from_bucket(n, key)).tolist()
        seen += len(_assert_cover_matches_oracle(values, n).collisions) > 0
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
    per_word = Counter(y for y, _, _ in cov.collisions)
    assert max(per_word.values()) == 3  # the three pairs of the three smallest
    assert _cover([], *_packed_deletions([], 6)).max_list_size == 0


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
    n = 8
    counts = bucket_counts(n)
    idx = int(np.flatnonzero(counts == 0)[0])
    report, _ = full_report(n, params_from_bucket(n, idx), checks=("list2", "deletion"))
    assert report["code_size"] == 0
    assert report["redundancy"] is None
    assert report["max_list_size"] == 0
    assert report["collision_pairs"] == []
    assert report["single_deletion_ok"] is True


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
    assert not _splittable(u, 1, True)
    assert _splittable(u, 1, False)


def test_splittable_matches_sign_segments():
    u = (0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0)
    assert _splittable(u, 1, True)
    assert sign_segments_ok(u, [6])
    assert not _splittable((1, -1, 1), 1, True)
    assert _splittable((1, -1, 1), 2, True)


# --- weight-delta table -----------------------------------------------------------


def test_weight_deltas_hold_up_to_n8():
    for n in range(2, 9):
        assert verify_weight_deltas(n) == 0


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
    p = CodeParams(8, 0, 0, 0)
    report, passed = full_report(8, p, checks=("list2",))
    assert not report["auto_params"]
    assert report["params"] == {"c0": 0, "c1": 0, "c2": 0}
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
    import delsub.code as code
    import delsub.verifier as verifier

    p = choose_params(14)[0] if explicit else None
    # choose_params counts through the code module's name, the explicit
    # path through the verifier's; both count under one key.
    calls = _count_calls(
        monkeypatch,
        [
            (code, "bucket_counts"),
            (verifier, "bucket_counts"),
            (code, "codeword_values"),
            (verifier, "_list_values"),
            (verifier, "_cover"),
            (verifier, "_packed_deletions"),
        ],
    )
    report, passed = full_report(14, p)
    assert passed and report["collision_count"] > 0
    assert report["auto_params"] is not explicit
    assert calls == {
        "bucket_counts": 1,
        "codeword_values": 0,
        "_list_values": 1,
        "_cover": 1,
        "_packed_deletions": 1,  # one packing for list2/lemma2 and deletion
    }


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
            (code, "bucket_counts"),
            (code, "codeword_values"),
            (verifier, "bucket_counts"),
            (verifier, "choose_params"),
            (verifier, "_list_values"),
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


@pytest.mark.parametrize("explicit", [False, True])
def test_smoke_report_counts_once_and_never_lists(monkeypatch, explicit):
    import delsub.code as code
    import delsub.verifier as verifier

    p = choose_params(20)[0] if explicit else None
    _forbid(
        monkeypatch,
        [(code, "codeword_values"), (code, "_list_values"), (verifier, "_list_values")],
        "smoke mode listed the class",
    )
    calls = _count_calls(monkeypatch, [(code, "bucket_counts"), (verifier, "bucket_counts")])
    report, passed = smoke_report(20, p, samples=10, seed=3)
    assert passed and report["auto_params"] is not explicit
    assert calls == {"bucket_counts": 1}
