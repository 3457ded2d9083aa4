import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsub import (
    ENUMERATION_BYTE_CAP,
    SCAN_CEILING,
    CodeParams,
    CodeStats,
    Word,
    bucket_counts,
    choose_params,
    codeword_values,
    enumerate_code,
    is_codeword,
    matches_value,
    params_from_bucket,
    params_of,
    wt_f1_f2,
)
from delsub.code import _random_members

W = Word.from_text


@st.composite
def words(draw, min_n=2, max_n=16):
    n = draw(st.integers(min_n, max_n))
    return Word(n, draw(st.integers(0, (1 << n) - 1)))


def _gray_counts(n):
    """Oracle: visit {0,1}^n in Gray-code order, one bit flip per step.

    Each step flips one bit, so (wt, f1, f2) move by (+-1, +-i, +-i(i+1)/2)
    for the flipped position i; the incremental updates are exercised on
    every word and share nothing with the dynamic program under test.
    """
    m1 = 2 * n
    m2 = 2 * n * n
    counts = [0] * (4 * m1 * m2)
    counts[0] = 1  # word 0^n, visited at step 0
    wt = f1 = f2 = 0
    g = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        g ^= 1 << bit
        i = n - bit
        if g >> bit & 1:
            wt += 1
            f1 += i
            f2 += i * (i + 1) >> 1
        else:
            wt -= 1
            f1 -= i
            f2 -= i * (i + 1) >> 1
        counts[((wt & 3) * m1 + f1 % m1) * m2 + f2 % m2] += 1
    # The constant words 0^n and 1^n belong to no class.
    counts[0] -= 1
    counts[((n & 3) * m1 + n * (n + 1) // 2 % m1) * m2 + n * (n + 1) * (n + 2) // 6 % m2] -= 1
    return np.asarray(counts, dtype=np.int64)


def _arange_classes(n):
    """Oracle: flat class index of every value in range(2^n), by numpy."""
    values = np.arange(1 << n, dtype=np.int64)
    wt = np.zeros_like(values)
    f1 = np.zeros_like(values)
    f2 = np.zeros_like(values)
    for i in range(1, n + 1):
        bit = (values >> (n - i)) & 1
        wt += bit
        f1 += bit * i
        f2 += bit * (i * (i + 1) // 2)
    return ((wt & 3) * 2 * n + f1 % (2 * n)) * (2 * n * n) + f2 % (2 * n * n)


# --- params and membership -------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(1, 0, 0, 0)
    # At n = 8 the residues lie in [0, 4), [0, 2n) = [0, 16) and [0, 2n^2) = [0, 128).
    bounds = {"c0": 4, "c1": 16, "c2": 128}
    zeros = dict.fromkeys(bounds, 0)
    for field, bound in bounds.items():
        for bad in (bound, -1):
            message = rf"^{field} must lie in \[0, {bound}\), got {bad}$"
            with pytest.raises(ValueError, match=message):
                CodeParams(8, **{**zeros, field: bad})
        assert getattr(CodeParams(8, **{**zeros, field: bound - 1}), field) == bound - 1


@given(st.integers(2, 24), st.data())
def test_bucket_index_round_trip(n, data):
    idx = data.draw(st.integers(0, 16 * n**3 - 1))
    assert params_from_bucket(n, idx).bucket_index == idx


def test_constant_words_are_never_codewords():
    for n in (4, 9):
        for p in (params_of(Word.zeros(n)), params_of(Word.ones(n))):
            assert not is_codeword(Word.zeros(n), p)
            assert not is_codeword(Word.ones(n), p)


def test_known_codeword():
    assert is_codeword(W("1010"), CodeParams(4, 2, 4, 7))
    assert not is_codeword(W("1010"), CodeParams(4, 2, 4, 6))


def test_is_codeword_rejects_length_mismatch():
    with pytest.raises(ValueError):
        is_codeword(W("10100"), CodeParams(4, 2, 4, 7))


@given(words())
def test_params_of_contains_its_word(w):
    expected = w.value not in (0, (1 << w.n) - 1)
    assert is_codeword(w, params_of(w)) == expected


def test_params_of_known_values():
    assert params_of(W("0000")) == CodeParams(4, 0, 0, 0)
    assert params_of(W("1010")) == CodeParams(4, 2, 4, 7)
    # wt=9 -> 1 mod 4, f1=72 -> 8 mod 32, f2=439 mod 512.
    assert params_of(W("1101101000101110")) == CodeParams(16, 1, 8, 439)


@given(words(max_n=20))
def test_params_of_residues_in_range(w):
    p = params_of(w)
    assert p.n == w.n
    assert 0 <= p.c0 < 4
    assert 0 <= p.c1 < 2 * w.n
    assert 0 <= p.c2 < 2 * w.n * w.n


# --- scans -------------------------------------------------------------------


def test_partition_sums_to_all_nonconstant_words():
    for n in range(2, 21):
        assert bucket_counts(n).sum() == (1 << n) - 2


def test_scan_engines_agree_exhaustively():
    for n in range(2, 17):
        assert np.array_equal(bucket_counts(n), _gray_counts(n))


def test_counts_and_members_match_arange_scan_at_18():
    n = 18
    classes = _arange_classes(n)
    classes = classes[1:-1]  # the constant words belong to no class
    expected = np.bincount(classes, minlength=16 * n**3)
    assert np.array_equal(bucket_counts(n), expected)
    p, stats = choose_params(n)
    members = np.flatnonzero(classes == p.bucket_index) + 1
    assert stats.size == members.size
    assert np.array_equal(codeword_values(p), members.astype(np.uint64))


def test_counts_stay_exact_up_to_the_ceiling():
    for n in (40, SCAN_CEILING):
        assert bucket_counts(n).sum() == 2**n - 2


def test_scan_rejects_out_of_range_n():
    with pytest.raises(ValueError):
        bucket_counts(SCAN_CEILING + 1)
    with pytest.raises(ValueError):
        choose_params(1)


@given(words(max_n=24), st.data())
def test_single_flip_deltas(w, data):
    """Flipping position i moves (wt, f1, f2) by exactly (1, i, i(i+1)/2)."""
    i = data.draw(st.integers(1, w.n))
    before = wt_f1_f2(w.value, w.n)
    after = wt_f1_f2(w.value ^ (1 << (w.n - i)), w.n)
    sign = -1 if w.bit(i) else 1
    assert after[0] - before[0] == sign
    assert after[1] - before[1] == sign * i
    assert after[2] - before[2] == sign * i * (i + 1) // 2


def test_choose_params_pigeonhole_bound():
    for n in range(2, 17):
        _, stats = choose_params(n)
        assert stats.size >= math.ceil(((1 << n) - 2) / (16 * n**3))
        # redundancy form of the same bound, with the exact correction term
        slack = math.log2((1 << n) / ((1 << n) - 2))
        assert stats.redundancy <= 3 * math.log2(n) + 4 + slack


def test_choose_params_tie_break_is_first_maximum():
    for n in (6, 10):
        counts = bucket_counts(n)
        best = int(np.argmax(counts))
        p, stats = choose_params(n)
        assert p.bucket_index == best
        assert stats.size == counts[best]
        # every earlier bucket is strictly smaller: smallest-triple tie-break
        assert (counts[:best] < counts[best]).all()


def test_choose_params_worker_and_engine_invariance():
    reference = choose_params(12)
    assert choose_params(12) == reference
    oracle = _gray_counts(12)
    best = int(np.argmax(oracle))
    assert reference == (params_from_bucket(12, best), CodeStats(12, int(oracle[best])))


# --- enumeration ------------------------------------------------------------


def test_enumerate_matches_membership_filter():
    p, _ = choose_params(10)
    got = list(enumerate_code(p))
    expected = [Word(10, v) for v in range(1 << 10) if is_codeword(Word(10, v), p)]
    assert got == expected
    assert got == sorted(got)


def test_enumerate_arbitrary_class():
    p = CodeParams(9, 1, 3, 17)
    got = list(enumerate_code(p))
    assert got == [Word(9, v) for v in range(1 << 9) if is_codeword(Word(9, v), p)]


def test_enumerate_skips_constant_words():
    for n in (6, 9):
        for w in (Word.zeros(n), Word.ones(n)):
            assert w not in set(enumerate_code(params_of(w)))


def test_codeword_values_worker_invariance():
    p, _ = choose_params(12)
    reference = codeword_values(p)
    assert np.array_equal(codeword_values(p), reference)
    assert reference.tolist() == [v for v in range(1 << 12) if matches_value(p, v)]


@settings(deadline=None)
@given(st.integers(2, 14), st.data())
def test_codeword_values_match_membership_filter(n, data):
    p = params_from_bucket(n, data.draw(st.integers(0, 16 * n**3 - 1)))
    got = codeword_values(p)
    assert got.dtype == np.uint64
    assert got.tolist() == [v for v in range(1 << n) if matches_value(p, v)]


def test_random_members_draw_only_and_every_member():
    """Support, not uniformity: every non-empty class at n <= 10."""
    for n in range(2, 11):
        for key in np.flatnonzero(bucket_counts(n)).tolist():
            p = params_from_bucket(n, key)
            members = set(codeword_values(p).tolist())
            draws = _random_members(p, random.Random(key))
            seen = set()
            for _ in range(64 * len(members)):
                x = next(draws)
                assert matches_value(p, x)
                seen.add(x)
                if seen == members:
                    break
            assert seen == members


def test_random_members_skip_the_constant_words():
    # The first lengths whose constant words share a class with members
    # (1, 6 and 2 of them), so a walk can end on 0^n or 1^n there.
    for n in (17, 19, 20):
        for w in (Word.zeros(n), Word.ones(n)):
            p = params_of(w)
            members = set(codeword_values(p).tolist())
            assert members
            draws = _random_members(p, random.Random(n))
            assert {next(draws) for _ in range(50 * len(members))} == members


def test_codeword_values_refuses_a_class_over_the_memory_cap():
    n = 48
    p = params_from_bucket(n, 0)
    assert bucket_counts(n)[0] * 8 > ENUMERATION_BYTE_CAP  # its members alone pass the cap
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            codeword_values(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 16 * n**3  # the reachability table was never allocated


def test_class_sizes_match_bucket_counts():
    n = 6
    counts = bucket_counts(n)
    for idx in range(16 * n**3):
        assert len(codeword_values(params_from_bucket(n, idx))) == counts[idx]


# --- stats -------------------------------------------------------------------


def test_redundancy_values():
    assert CodeStats(7, 1).redundancy == 7
    near_full = CodeStats(10, (1 << 10) - 2)
    assert near_full.redundancy == pytest.approx(10 - math.log2((1 << 10) - 2))


def test_redundancy_of_empty_class():
    empty = CodeStats(8, 0)
    assert empty.redundancy is None
