import functools
import math
import random
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsub import (
    ENUMERATION_BYTE_CAP,
    SCAN_CEILING,
    VERIFY_CEILING,
    CodeParams,
    CodeStats,
    Word,
    choose_params,
    codeword_values,
    enumerate_code,
    full_report,
    is_codeword,
    matches_value,
    params_from_bucket,
    params_of,
    wt_f1_f2,
)
from delsub.code import (
    _DRAW_BATCH,
    _class_sizes,
    _listed_positions,
    _listing_bytes,
    _moduli,
    _pick,
    _position_shift,
    _random_members,
    _suffix_runs,
)
from oracles import bucket_counts
from strategies import words

W = Word.from_text


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


def _roll_counts(n):
    """Oracle: the dense group-ring product, one full np.roll pass per position."""
    table = np.zeros((4, 2 * n, 2 * n * n), dtype=np.int64)
    table[0, 0, 0] = 1  # the empty word
    for i in range(1, n + 1):
        table += np.roll(table, (1, i, i * (i + 1) // 2), axis=(0, 1, 2))
    counts = table.ravel()
    for w in (Word.zeros(n), Word.ones(n)):
        counts[params_of(w).bucket_index] -= 1
    return counts


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


@functools.lru_cache(maxsize=4)
def _suffix_sums(n):
    """Oracle: the residue states the suffixes reach, one bit-packed row per prefix length.

    Row k - 1 marks the flat (wt, f1, f2) residue states that some set of
    1s among positions k+1..n adds up to: row n - 1 marks only 0, and each
    row before it takes one more position by np.roll.  The rows depend on
    n alone, so one table, built once per length, serves every class;
    _reached reads it.  Each row packs the 16n^3 states into 2n^3 bytes.
    """
    sums = np.zeros(_moduli(n), dtype=bool)
    sums[0, 0, 0] = True
    packed = np.empty((n, sums.size // 8), dtype=np.uint8)
    packed[n - 1] = np.packbits(sums, bitorder="little")
    for k in range(n - 1, 0, -1):
        sums |= np.roll(sums, _position_shift(k + 1), axis=(0, 1, 2))
        packed[k - 1] = np.packbits(sums, bitorder="little")
    packed.flags.writeable = False
    return packed


def _reached(row, state):
    """Whether a packed row of _suffix_sums marks each flat state (an int or int64 array)."""
    return ((row[state >> 3] >> (state & 7)) & 1) == 1


def _take_position(state, n, i):
    """Flat residue states less the shift of a 1 at position i."""
    m0, m1, m2 = _moduli(n)
    wt, rest = np.divmod(state, m1 * m2)
    f1, f2 = np.divmod(rest, m2)
    d0, d1, d2 = _position_shift(i)
    return (((wt - d0) % m0) * m1 + (f1 - d1) % m1) * m2 + (f2 - d2) % m2


def _reach_list_oracle(p):
    """Oracle: list a class by growing prefixes through its length's suffix sums.

    Prefixes grow one position at a time, 0 before 1, and each carries the
    state its suffix must still add: p's triple less the prefix's own.  A
    prefix is kept only when the suffix sums of the positions after it
    reach that state, so values stay in ascending order.
    """
    n = p.n
    sums = _suffix_sums(n)
    values = np.zeros(1, dtype=np.uint64)
    state = np.array([np.ravel_multi_index((p.c0, p.c1, p.c2), _moduli(n))], dtype=np.int64)
    for k in range(1, n + 1):
        state = np.stack((state, _take_position(state, n, k)), axis=1).ravel()
        keep = _reached(sums[k - 1], state)
        state = state[keep]
        twice = values << 1
        values = np.stack((twice, twice | 1), axis=1).ravel()[keep]
    top = np.uint64((1 << n) - 1)
    return values[(values != 0) & (values != top)]


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


@pytest.mark.parametrize("fields", [(12, 0.0, 1.0, 5.0), (12.0, 0, 1, 5), (12, 0, "1", 5)])
def test_params_refuse_non_integers(fields):
    with pytest.raises(TypeError):
        CodeParams(*fields)


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


@given(words(2, 16))
def test_params_of_contains_its_word(w):
    expected = w.value not in (0, (1 << w.n) - 1)
    assert is_codeword(w, params_of(w)) == expected


def test_params_of_known_values():
    assert params_of(W("0000")) == CodeParams(4, 0, 0, 0)
    assert params_of(W("1010")) == CodeParams(4, 2, 4, 7)
    # wt=9 -> 1 mod 4, f1=72 -> 8 mod 32, f2=439 mod 512.
    assert params_of(W("1101101000101110")) == CodeParams(16, 1, 8, 439)


@given(words(2, 20))
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
    assert np.array_equal(codeword_values(p), members)


def test_counts_match_the_dense_product():
    # n <= 9 is all prefix listing, n = 10 folds one position, later lengths
    # split the positions between the two.
    for n in [*range(2, 41), SCAN_CEILING]:
        got = bucket_counts(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, _roll_counts(n)), n


def test_count_memory_peak():
    # The table of 16n^3 int64 counters and one spare weight plane; a pass
    # that copied the whole table would read twice the table.
    n = SCAN_CEILING
    table_bytes = 16 * n**3 * 8
    bucket_counts(n)
    tracemalloc.start()
    try:
        bucket_counts(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table_bytes


def test_choose_params_reads_the_class_table_in_its_own_dtype():
    # int32 cells up to n = 31: choose_params argmaxes them in place, and
    # only the oracle bucket_counts widens them to int64.
    for n in (2, 24, 31, 32, 40):
        sizes = _class_sizes(n)
        assert sizes.dtype == (np.int32 if n <= 31 else np.int64)
        counts = bucket_counts(n)
        assert counts.dtype == np.int64 and np.array_equal(counts, sizes)
    choose_params(24)
    tracemalloc.start()
    try:
        choose_params(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * (1 << 20)  # the int32 table is 0.84 MiB; an int64 copy adds 1.7


def test_counts_stay_exact_up_to_the_ceiling():
    for n in (40, SCAN_CEILING):
        assert bucket_counts(n).sum() == 2**n - 2


def test_scan_rejects_out_of_range_n():
    with pytest.raises(ValueError):
        bucket_counts(SCAN_CEILING + 1)
    with pytest.raises(ValueError):
        choose_params(1)


@given(words(2, 24), st.data())
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


def test_choose_params_is_repeatable_and_matches_the_gray_scan():
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


def test_codeword_values_are_repeatable_and_match_the_membership_scan():
    p, _ = choose_params(12)
    reference = codeword_values(p)
    assert np.array_equal(codeword_values(p), reference)
    assert reference.tolist() == [v for v in range(1 << 12) if matches_value(p, v)]


@settings(deadline=None)
@given(st.integers(2, 14), st.data())
def test_codeword_values_match_membership_filter(n, data):
    p = params_from_bucket(n, data.draw(st.integers(0, 16 * n**3 - 1)))
    got = codeword_values(p)
    assert got.dtype == np.int64
    assert got.tolist() == [v for v in range(1 << n) if matches_value(p, v)]


def _drawn_members(p, rng):
    """The sampler's members one at a time, batch after batch, in draw order."""
    return chain.from_iterable(batch.tolist() for batch in _random_members(p, rng))


def test_random_members_read_the_rng_once_per_batch():
    """A batch is one int64 array of members, and the sampler reads rng only
    when the next batch is asked for: one randbytes call of _DRAW_BATCH words."""
    p, _ = choose_params(24)
    rng, expected = random.Random(3), random.Random(3)
    draws = _random_members(p, rng)
    assert rng.getstate() == expected.getstate()
    for _ in range(3):
        batch = next(draws)
        expected.randbytes(8 * _DRAW_BATCH)
        assert rng.getstate() == expected.getstate()
        assert batch.dtype == np.int64 and 0 < len(batch) <= _DRAW_BATCH
        assert all(matches_value(p, x) for x in batch.tolist())


def test_random_members_draw_only_and_every_member():
    """Support, not uniformity: every non-empty class at n <= 10."""
    for n in range(2, 11):
        for key in np.flatnonzero(bucket_counts(n)).tolist():
            p = params_from_bucket(n, key)
            members = set(codeword_values(p).tolist())
            draws = _drawn_members(p, random.Random(key))
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
            draws = _drawn_members(p, random.Random(n))
            assert {next(draws) for _ in range(50 * len(members))} == members


def _pick_grid(p):
    """The sampler's accept map over every (prefix, rank) pair, constant words dropped."""
    n = p.n
    h = _listed_positions(n)
    runs = _suffix_runs(n, h)
    width = int(runs[2].max())
    i = np.repeat(np.arange(1 << (n - h), dtype=np.int64), width)
    m = np.tile(np.arange(width), 1 << (n - h))
    picked = _pick(p, h, runs, i, m)
    return np.sort(picked[(picked != 0) & (picked != (1 << n) - 1)])


def test_random_members_pick_each_member_from_exactly_one_draw():
    """Exact uniformity: the accepted (prefix, rank) pairs and the members are in bijection."""
    for n in range(2, 10):
        for key in np.flatnonzero(bucket_counts(n)).tolist():
            p = params_from_bucket(n, key)
            assert np.array_equal(_pick_grid(p), codeword_values(p)), p
    for n in range(10, 21):
        p, _ = choose_params(n)
        assert np.array_equal(_pick_grid(p), codeword_values(p)), p


def test_random_members_memory_peak_at_the_counting_ceiling():
    p, _ = choose_params(SCAN_CEILING)
    tracemalloc.start()
    try:
        draws = _drawn_members(p, random.Random(0))
        members = [next(draws) for _ in range(20)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(matches_value(p, x) for x in members)
    assert peak < 8 * (1 << 20)


def test_listing_names_itself_past_the_counting_ceiling():
    with pytest.raises(ValueError, match=f"member listing supports 2 <= n <= {SCAN_CEILING}, got 63"):
        next(enumerate_code(CodeParams(63, 0, 0, 0)))


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


def test_listing_bytes_admit_every_class_the_reachability_listing_did():
    """No class that listed under the former estimate is refused now; nothing is listed."""
    for n in range(40, 47):
        counts = bucket_counts(n)
        # The reachability table and 96 bytes a prefix of the widest level.
        old = n * 16 * n**3 // 8 + 96 * (counts + 2)
        new = _listing_bytes(n, counts + 2)
        assert (new[old <= ENUMERATION_BYTE_CAP] <= ENUMERATION_BYTE_CAP).all(), n
        if n == 44:
            assert (old <= ENUMERATION_BYTE_CAP).any()  # the boundary lies past 44
    assert _listing_bytes(48, 0) > ENUMERATION_BYTE_CAP  # the states alone pass the cap


def test_listing_bytes_bound_the_listing_peak():
    n = 36
    p, stats = choose_params(n)
    codeword_values(p)
    tracemalloc.start()
    try:
        codeword_values(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _listing_bytes(n, stats.size)
    assert peak > _listing_bytes(n, stats.size) / 2  # an estimate, not a blanket


def test_class_sizes_match_bucket_counts():
    n = 6
    counts = bucket_counts(n)
    for idx in range(16 * n**3):
        assert len(codeword_values(params_from_bucket(n, idx))) == counts[idx]


def _assert_lists_like_the_oracle(p):
    got = codeword_values(p)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reach_list_oracle(p)), p


def test_codeword_values_match_the_reachability_oracle_on_every_class():
    # The oracle reads one suffix-sum table per length; an empty class is
    # held to its count instead, which the Gray-code oracle pins.
    for n in range(2, 11):
        for key, size in enumerate(bucket_counts(n).tolist()):
            p = params_from_bucket(n, key)
            if size:
                _assert_lists_like_the_oracle(p)
            else:
                got = codeword_values(p)
                assert got.dtype == np.int64 and len(got) == 0, p


def test_codeword_values_match_the_reachability_oracle_on_best_classes():
    # Odd lengths give the suffixes one position more than the prefixes.
    for n in range(11, 33):
        _assert_lists_like_the_oracle(choose_params(n)[0])


def test_the_oracle_catches_suffixes_out_of_order_within_a_state(monkeypatch):
    """Mutation check: the join needs the stable order of equal suffix states."""
    real = np.argsort

    def ties_descending(a, kind=None):
        return len(a) - 1 - real(a[::-1], kind="stable")

    p, _ = choose_params(16)
    _assert_lists_like_the_oracle(p)
    monkeypatch.setattr(np, "argsort", ties_descending)
    with pytest.raises(AssertionError):
        _assert_lists_like_the_oracle(p)


def test_full_report_is_unchanged_under_the_reachability_oracle(monkeypatch):
    import delsub.verifier as verifier

    lengths = range(2, VERIFY_CEILING + 1)
    fast = [full_report(n)[0] for n in lengths]
    monkeypatch.setattr(verifier, "codeword_values", _reach_list_oracle)
    assert [full_report(n)[0] for n in lengths] == fast


def test_decode_setup_counts_the_classes_once(monkeypatch):
    """choose_params then codeword_values: the listing needs no count of its own."""
    import delsub.code as code

    calls = {"_class_sizes": 0}
    real = code._class_sizes

    def counted(n):
        calls["_class_sizes"] += 1
        return real(n)

    monkeypatch.setattr(code, "_class_sizes", counted)
    p, stats = choose_params(24)
    assert len(codeword_values(p)) == stats.size
    assert calls == {"_class_sizes": 1}


# --- stats -------------------------------------------------------------------


def test_redundancy_values():
    assert CodeStats(7, 1).redundancy == 7
    near_full = CodeStats(10, (1 << 10) - 2)
    assert near_full.redundancy == pytest.approx(10 - math.log2((1 << 10) - 2))


def test_redundancy_of_empty_class():
    empty = CodeStats(8, 0)
    assert empty.redundancy is None
