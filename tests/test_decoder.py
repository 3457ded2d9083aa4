import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delsub.channel as channel_module
import delsub.decoder as decoder_module
from delsub import (
    SCAN_CEILING,
    CodeParams,
    ErrorEvent,
    ListBoundError,
    Word,
    apply_del_sub,
    choose_params,
    codeword_values,
    delete_bit,
    error_ball,
    flip_bit,
    insert_bit,
    is_codeword,
    list_decode,
    list_decode_brute,
    params_of,
)
from delsub.code import _class_sizes, _random_members, params_from_bucket
from delsub.syndromes import _position_shift
from oracles import (
    WeightWindowError,
    all_witnesses,
    canonical_witness,
    classify_weight_delta,
    vt_syndrome,
)

W = Word.from_text

X1 = W("1101101000101110")
XP1 = W("1001111001011010")
Y1 = W("110111100101110")
P1 = CodeParams(16, 1, 8, 439)  # the class containing X1


@st.composite
def corrupted(draw, min_n=4, max_n=12):
    """A non-constant word, its class, and one corruption of it."""
    n = draw(st.integers(min_n, max_n))
    v = draw(st.integers(1, (1 << n) - 2))
    x = Word(n, v)
    d = draw(st.integers(1, n))
    e = draw(st.sampled_from([None] + [i for i in range(1, n + 1) if i != d]))
    return x, params_of(x), apply_del_sub(x, ErrorEvent(d, e))


# --- witnesses ---------------------------------------------------------------


def test_all_witnesses_fixture():
    assert all_witnesses(X1, Y1) == [
        ErrorEvent(6, 8),
        ErrorEvent(8, 6),
        ErrorEvent(9, 6),
        ErrorEvent(10, 6),
    ]
    assert canonical_witness(X1, Y1) == ErrorEvent(6, 8)


def test_all_witnesses_pure_deletion_listed_last():
    x = W("0110001")
    y = W("011001")  # drop the 0 at position 5; also one flip away via (3, 4)
    wits = all_witnesses(x, y)
    assert ErrorEvent(3, 4) in wits
    assert ErrorEvent(5, None) in wits
    assert wits[-1].e is None
    assert canonical_witness(x, y).e is not None


def test_all_witnesses_unreachable():
    assert all_witnesses(W("0000"), W("111")) == []
    with pytest.raises(ValueError):
        canonical_witness(W("0000"), W("111"))


def test_all_witnesses_rejects_bad_lengths():
    with pytest.raises(ValueError):
        all_witnesses(W("0000"), W("00"))


@given(corrupted())
@settings(max_examples=80)
def test_every_witness_reproduces_the_received_word(triple):
    x, _, y = triple
    wits = all_witnesses(x, y)
    assert wits, "a generated corruption must be witnessable"
    for ev in wits:
        assert apply_del_sub(x, ev) == y


def _witnesses_by_definition(x, y):
    """Oracle for all_witnesses: delete at every d, compare, read the single flip."""
    n = x.n
    subs = []
    dels = []
    for d in range(1, n + 1):
        diff = delete_bit(x.value, n, d) ^ y.value
        if diff == 0:
            dels.append(ErrorEvent(d, None))
        elif diff & (diff - 1) == 0:
            # One mismatch after the deletion: a single flip explains it.
            q = n - diff.bit_length()  # 1-based position of the mismatch in y
            subs.append(ErrorEvent(d, q if q < d else q + 1))
    return subs + dels


def test_all_witnesses_matches_the_definition_exhaustively():
    for n in range(2, 10):
        for xv in range(1 << n):
            x = Word(n, xv)
            for yv in range(1 << (n - 1)):
                y = Word(n - 1, yv)
                assert all_witnesses(x, y) == _witnesses_by_definition(x, y), (x, y)


def test_canonical_witness_is_the_first_witness_on_every_reachable_pair():
    # Constant words included: their own deletion has only pure-deletion witnesses.
    for n in range(2, 8):
        for xv in range(1 << n):
            x = Word(n, xv)
            for y in error_ball(x):
                assert canonical_witness(x, y) == _witnesses_by_definition(x, y)[0], (x, y)
    assert canonical_witness(Word.ones(5), Word.ones(4)) == ErrorEvent(1, None)
    with pytest.raises(ValueError, match="does not fit"):
        canonical_witness(W("0000"), W("00"))


@st.composite
def wide_pairs(draw, max_n=96):
    """A word of any length up to max_n and either a corruption of it or any y."""
    n = draw(st.integers(2, max_n))
    x = Word(n, draw(st.integers(0, (1 << n) - 1)))
    if draw(st.booleans()):
        return x, Word(n - 1, draw(st.integers(0, (1 << (n - 1)) - 1)))
    d = draw(st.integers(1, n))
    e = draw(st.sampled_from([None] + [i for i in range(1, n + 1) if i != d]))
    return x, apply_del_sub(x, ErrorEvent(d, e))


@given(wide_pairs())
@settings(max_examples=300, deadline=None)
def test_all_witnesses_matches_the_definition_beyond_64_bits(pair):
    x, y = pair
    assert all_witnesses(x, y) == _witnesses_by_definition(x, y)


# --- decoding the bundled fixture ---------------------------------------------


def test_decode_fixture_returns_exactly_the_transmitted_word():
    # The companion word's checksum differs (73 vs 72 -> 9 vs 8 mod 32),
    # so it sits in another class and the list is a singleton.
    assert vt_syndrome(X1, 1) == 72
    assert vt_syndrome(XP1, 1) == 73
    assert not is_codeword(XP1, P1)

    result = list_decode(Y1, P1)
    assert result.words == [X1]
    word, witness = result.candidates[0]
    assert apply_del_sub(word, witness) == Y1
    assert witness == ErrorEvent(6, 8)  # smallest (d, e) witness
    assert ErrorEvent(10, 6) in all_witnesses(X1, Y1)


def test_brute_decoder_agrees_on_fixture():
    brute = list_decode_brute(Y1, P1)
    pruned = list_decode(Y1, P1)
    assert brute.candidates == pruned.candidates
    assert pruned.examined <= brute.examined


# --- equivalence and completeness ----------------------------------------------


def test_decoders_match_covering_sets_exhaustively_n8():
    p, _ = choose_params(8)
    covering: dict[Word, set[Word]] = {}
    for v in range(1 << 8):
        x = Word(8, v)
        if not is_codeword(x, p):
            continue
        for y in error_ball(x):
            covering.setdefault(y, set()).add(x)
    for yv in range(1 << 7):
        y = Word(7, yv)
        expected = covering.get(y, set())
        brute = list_decode_brute(y, p)
        pruned = list_decode(y, p)
        assert set(brute.words) == expected
        assert brute.candidates == pruned.candidates
        assert pruned.examined <= brute.examined


def test_decoders_match_on_an_arbitrary_class():
    p = CodeParams(8, 3, 5, 77)
    for yv in range(1 << 7):
        y = Word(7, yv)
        assert list_decode(y, p).candidates == list_decode_brute(y, p).candidates


@given(corrupted())
@settings(max_examples=60, deadline=None)
def test_decode_completeness(triple):
    x, p, y = triple
    assert x in list_decode(y, p).words
    assert x in list_decode_brute(y, p).words


@st.composite
def wide_received(draw, min_n=13, max_n=SCAN_CEILING):
    """A class params_of(x) past the exhaustive lengths, a corruption of x and one uniform word."""
    x, p, y = draw(corrupted(min_n=min_n, max_n=max_n))
    return x, p, (y, Word(p.n - 1, draw(st.integers(0, (1 << (p.n - 1)) - 1))))


def _pin_top_lengths(test):
    """One explicit example at each n = 53..62, where the int64 witnesses pass 2^53."""
    for n in range(53, SCAN_CEILING + 1):
        x = W(("1101" * n)[:n])
        received = (apply_del_sub(x, ErrorEvent(2, n - 1)), Word(n - 1, (1 << (n - 1)) - 1 - n))
        test = example((x, params_of(x), received))(test)
    return test


@given(wide_received())
@_pin_top_lengths
@settings(max_examples=40, deadline=None)
def test_decoders_match_past_the_exhaustive_lengths(triple):
    x, p, received = triple
    for y in received:
        assert list_decode(y, p).candidates == list_decode_brute(y, p).candidates, (p, y)
    assert x in list_decode(received[0], p).words


def test_decoders_refuse_the_constant_words():
    """A weight-1 word is one corruption of 0^n, which has the residues (0, 0, 0),
    and a weight-(n-2) word one of 1^n: neither constant word may be listed."""
    for n in range(2, 11):
        for constant, weight in ((Word.zeros(n), 1), (Word.ones(n), n - 2)):
            p = params_of(constant)
            for yv in range(1 << (n - 1)):
                if yv.bit_count() != weight:
                    continue
                y = Word(n - 1, yv)
                got = list_decode(y, p)
                assert got.candidates == list_decode_brute(y, p).candidates, (p, y)
                assert constant not in got.words


def test_two_candidate_results_interleave_their_witnesses():
    """When the list has two words, the reported witnesses (ordered by d)
    must place both substitutions between the two deletions."""
    p, _ = choose_params(12)
    seen = 0
    for yv in range(1 << 11):
        result = list_decode(Word(11, yv), p)
        if len(result.candidates) != 2:
            continue
        seen += 1
        (w1, ev1), (w2, ev2) = result.candidates
        if ev1.d > ev2.d:
            ev1, ev2 = ev2, ev1
        assert ev1.d < ev1.e <= ev2.d
        assert ev1.d <= ev2.e < ev2.d
    assert seen > 0


def test_search_witnesses_are_canonical_on_every_class():
    """The decoder lists what brute force lists, its witness on each
    candidate is the canonical one, and it tests each of the n deletion
    positions once exactly when the recovered weight is a non-constant
    word's, 0 < weight < n."""
    for n in range(2, 8):
        classes = {params_of(Word(n, v)) for v in range(1, (1 << n) - 1)}
        for p in sorted(classes, key=lambda p: p.bucket_index):
            for yv in range(1 << (n - 1)):
                y = Word(n - 1, yv)
                got = list_decode(y, p)
                assert got.candidates == list_decode_brute(y, p).candidates, (p, y)
                for w, ev in got.candidates:
                    assert ev == canonical_witness(w, y), (p, y, w)
                    assert apply_del_sub(w, ev) == y
                try:
                    weight = y.weight + classify_weight_delta(p.c0, y.weight, n).delta
                except WeightWindowError:
                    weight = 0  # no n-bit word has it, so no class member either
                assert got.examined == (n if 0 < weight < n else 0), (p, y)


def _kernel_candidates(p, ys):
    """_decode_rows on all of ys in one call, as one candidate list per word."""
    row, x, d, e = decoder_module._decode_rows(ys, p)
    found = {i: [] for i in range(len(ys))}
    for r, v, dv, ev in zip(row.tolist(), x.tolist(), d.tolist(), e.tolist()):
        found[r].append((Word(p.n, v), ErrorEvent(dv, ev)))
    return [found[i] for i in range(len(ys))]


def _kernel_matches_brute(p):
    ys = list(range(1 << (p.n - 1)))
    for yv, got in zip(ys, _kernel_candidates(p, ys)):
        assert got == list_decode_brute(Word(p.n - 1, yv), p).candidates, (p, yv)


def test_decode_rows_match_the_brute_decoder_on_every_class():
    """One kernel call over all of {0,1}^(n-1) lists, word by word, what
    list_decode_brute lists, canonical witnesses included."""
    for n in range(2, 8):
        for p in sorted({params_of(Word(n, v)) for v in range(1, (1 << n) - 1)},
                        key=lambda p: p.bucket_index):
            _kernel_matches_brute(p)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_decode_rows_match_the_brute_decoder_on_the_best_class(n):
    _kernel_matches_brute(choose_params(n)[0])


def _mixed_stream(p, rng, count):
    """count seeded received words: a quarter uniform random, the rest
    corrupted members (uniform d, e uniform over none and the other
    positions).  Members are listed up to n = 40, and past that taken from
    one batch of the sampler."""
    n = p.n
    members = codeword_values(p) if n <= 40 else next(_random_members(p, random.Random(n)))
    ys = []
    for _ in range(count):
        if rng.random() < 0.25:
            ys.append(int(rng.integers(0, 1 << (n - 1))))
            continue
        x = Word(n, members[rng.integers(len(members))])
        d = int(rng.integers(1, n + 1))
        e = int(rng.choice([0] + [i for i in range(1, n + 1) if i != d])) or None
        ys.append(apply_del_sub(x, ErrorEvent(d, e)).value)
    return ys


def test_decode_rows_batch_equals_one_row_decodes():
    """A batch over a seeded stream of corrupted members and random words
    equals list_decode row by row."""
    rng = np.random.default_rng(5)
    for n in (16, 24, 40, 62):
        p, _ = choose_params(n)
        ys = _mixed_stream(p, rng, 300)
        batch = _kernel_candidates(p, ys)
        assert sum(map(len, batch)) > len(ys) // 2
        for yv, got in zip(ys, batch):
            assert got == list_decode(Word(n - 1, yv), p).candidates, (p, yv)


@pytest.mark.parametrize("n", [24, SCAN_CEILING + 8])
def test_decode_rows_of_no_fitting_word_are_empty(n):
    """An empty batch, and a batch whose only candidate would be the
    constant 1^n, give four empty arrays, x in the word dtype."""
    p = params_of(Word.ones(n))  # y of weight n - 2 or n - 1 recovers weight n: 1^n only
    word = np.int64 if n <= SCAN_CEILING else object
    for ys in ([], [(1 << (n - 1)) - 1 - (1 << k) for k in range(n - 1)] + [(1 << (n - 1)) - 1]):
        row, x, d, e = decoder_module._decode_rows(ys, p)
        assert len(row) == len(x) == len(d) == len(e) == 0
        assert x.dtype == word, (n, ys)


def _decode_rows_match_the_ball(p):
    """Check _decode_rows over all of {0,1}^(n-1) against the class's balls; return its hits."""
    n = p.n
    values = codeword_values(p)
    dels, k = channel_module._packed_deletions(values, n)
    keys = channel_module._ball_keys(n, dels, k)
    row, x, d, e = decoder_module._decode_rows(np.arange(1 << (n - 1)), p)
    assert np.array_equal(row, (keys >> k).astype(np.int64)), p
    assert np.array_equal(x, values[keys & ((np.uint64(1) << k) - np.uint64(1))].astype(np.int64)), p
    assert (e != d).all(), p
    return row, x, d, e


@pytest.mark.parametrize("n", [12, 16, 18])
def test_decode_rows_of_every_received_word_match_the_ball(n):
    """Decoding all of {0,1}^(n-1) and covering the class's balls answer one
    question from opposite ends: the kernel's (row, x) are exactly the
    ball's (y, x), and each witness (d, e) has e != d and maps x to y."""
    row, x, d, e = _decode_rows_match_the_ball(choose_params(n)[0])
    for y, v, ev in zip(row.tolist(), x.tolist(), zip(d.tolist(), e.tolist())):
        assert channel_module._corrupted(v, n, ErrorEvent(*ev)) == y, (y, v, ev)


@pytest.mark.parametrize("n", [8, 9])
def test_decode_rows_of_every_received_word_match_the_ball_on_every_class(n):
    """The same two ends on every non-empty class (245 at n = 8, 474 at
    n = 9), so the kernel meets every residue pair, not only the best."""
    classes = np.flatnonzero(_class_sizes(n))
    assert len(classes) == {8: 245, 9: 474}[n]
    for index in classes.tolist():
        _decode_rows_match_the_ball(params_from_bucket(n, index))


@given(wide_received(min_n=SCAN_CEILING + 1, max_n=200))
@settings(max_examples=40, deadline=None)
def test_decode_past_int64_on_python_ints(case):
    """Above SCAN_CEILING, where the words outgrow int64 and only x is
    rebuilt in Python ints: a corrupted member decodes back, and every
    candidate is a member that reproduces y."""
    x, p, received = case
    assert x in list_decode(received[0], p).words
    for y in received:
        got = list_decode(y, p)
        assert len(got.candidates) <= 2
        for w, ev in got.candidates:
            assert is_codeword(w, p) and apply_del_sub(w, ev) == y, (p, y, w, ev)


def _wide_stream(n, count):
    """A class past SCAN_CEILING and count seeded received words of it: a
    quarter uniform random, the rest corruptions of one member."""
    rng = random.Random(n)
    x = W(("1101" * n)[:n])
    ys = []
    for _ in range(count):
        if rng.random() < 0.25:
            ys.append(rng.getrandbits(n - 1))
            continue
        d = rng.randrange(1, n + 1)
        e = rng.choice([None] + [i for i in range(1, n + 1) if i != d])
        ys.append(apply_del_sub(x, ErrorEvent(d, e)).value)
    return params_of(x), ys


@pytest.mark.parametrize("n", [12, 24, 62, SCAN_CEILING + 1])
def test_one_row_hits_come_in_ascending_d(n):
    """list_decode keeps each x's first hit as its canonical witness, so
    _decode_class must give one row's hits in non-decreasing d: on every
    received word of the best class at n = 12, on 300 seeded words at
    n = 24 and 62, and on 300 past SCAN_CEILING."""
    if n > SCAN_CEILING:
        p, ys = _wide_stream(n, 300)
    else:
        p, _ = choose_params(n)
        ys = range(1 << (n - 1)) if n == 12 else _mixed_stream(p, np.random.default_rng(n), 300)
    repeats = 0
    for yv in ys:
        weight = bin(yv).count("1")
        drop = channel_module._weight_drop(p.c0, weight)
        if not decoder_module._fits(weight + drop, n):
            continue  # list_decode runs no kernel
        row, d, e = decoder_module._decode_class(decoder_module._symbol_rows([yv], n), p, drop)
        assert (row == 0).all()
        assert (np.diff(d) >= 0).all(), (p, yv, d)
        inserted, _ = decoder_module._SYMBOLS[drop]
        x = [flip_bit(insert_bit(yv, n - 1, dv, inserted), n, ev) for dv, ev in zip(d.tolist(), e.tolist())]
        repeats += len(x) > len(set(x))
    assert repeats > 0  # some x hits at several d, where the order picks its witness


@pytest.mark.parametrize("n", [9, 17, 24, 63, 65, 129])
def test_symbol_rows_match_the_word_bits(n):
    """A padded symbol row holds Word.bits() in columns 1..n-1 and 2
    elsewhere, whether n - 1 fills its last byte or not, built from Python
    ints and, while (n-1)-bit words fit it, from an int64 array."""
    rng = random.Random(n)
    top = (1 << (n - 1)) - 1
    values = [0, top, top // 3, 1, 1 << (n - 2)] + [rng.getrandbits(n - 1) for _ in range(20)]
    builds = [decoder_module._symbol_rows(values, n)]
    if n <= SCAN_CEILING + 1:
        builds.append(decoder_module._symbol_rows(np.array(values, dtype=np.int64), n))
    for symbols in builds:
        assert symbols.dtype == np.int64 and symbols.shape == (len(values), 2 * n)
        for v, row in zip(values, symbols.tolist()):
            assert row[1:n] == list(Word(n - 1, v).bits()), (n, v)
            assert row[0] == 2 and set(row[n:]) == {2}, (n, v)


@pytest.mark.parametrize("n", [24, 63, 130])
def test_the_kernel_runs_on_int64_at_every_length(n):
    """One dtype route: the kernel's tables, symbol rows, d and e are int64
    at every n, and only _decode_rows' x takes the values' dtype.  Each
    table is shared, so read-only, and O(n) in size."""
    if n > SCAN_CEILING:
        p, ys = _wide_stream(n, 60)
    else:
        p, _ = choose_params(n)
        ys = _mixed_stream(p, np.random.default_rng(n), 60)
    for table in decoder_module._kernel_tables(n):
        assert table.dtype == np.int64 and not table.flags.writeable, (n, table)
        assert table.size <= 3 * n, (n, table.shape)  # O(n): no (n, 2n) table
    symbols = decoder_module._symbol_rows(ys, n)
    assert symbols.dtype == np.int64
    hits = 0
    for drop in decoder_module._SYMBOLS:
        row, d, e = decoder_module._decode_class(symbols, p, drop)
        assert d.dtype == e.dtype == np.int64, (drop, d.dtype, e.dtype)
        hits += len(row)
    assert hits
    row, x, d, e = decoder_module._decode_rows(ys, p)
    assert d.dtype == e.dtype == np.int64 and len(row)
    assert x.dtype == (np.int64 if n <= SCAN_CEILING else object)


@pytest.mark.parametrize("n", [*range(2, 13), 63, 130])
def test_kernel_tables_match_their_definitions(n):
    """The term and insertion rows are _position_shift's, and the shift
    table sends the base word's position e, after inserting at d, to the
    padded symbol column insert_bit takes it from: a pad column when e = d,
    e = 0 or e > n, since no symbol there can be flipped."""
    terms, inserts, tri, shift = decoder_module._kernel_tables(n)
    assert terms.tolist() == [list(r) for r in zip(*(_position_shift(q + 1) for q in range(1, n)))]
    assert inserts.tolist() == [list(r) for r in zip(*(_position_shift(d)[1:] for d in range(1, n + 1)))]
    assert tri.tolist() == [_position_shift(e)[2] for e in range(2 * n)]
    for d in range(1, n + 1):
        # source[e]: the received position q that lands on position e, from a
        # word whose only 1 is at q.
        source = {}
        for q in range(1, n):
            base = insert_bit(1 << (n - 1 - q), n - 1, d, 0)
            source[n - base.bit_length() + 1] = q
        assert sorted(source) == [e for e in range(1, n + 1) if e != d], (n, d)
        for e in range(2 * n):
            column = e + int(shift[e - d + n])
            if e in source:
                assert column == source[e], (n, d, e)
            else:
                assert column == 0 or n <= column < 2 * n, (n, d, e, column)


def test_list_decode_needs_no_dedupe_sort(monkeypatch):
    """_first_hits is _decode_rows' merge: list_decode takes each x's first
    hit in its one row's d order and decodes as the brute decoder does."""
    def forbidden(*args, **kwargs):
        pytest.fail("list_decode sorted its one row's hits")

    monkeypatch.setattr(decoder_module, "_first_hits", forbidden)
    assert list_decode(Y1, P1).candidates == [(X1, ErrorEvent(6, 8))]
    p, _ = choose_params(9)
    for yv in range(1 << 8):
        y = Word(8, yv)
        assert list_decode(y, p).candidates == list_decode_brute(y, p).candidates, y
    x = W("1101" * 18)  # n = 72: words past int64
    y = apply_del_sub(x, ErrorEvent(5, 40))
    assert (x, canonical_witness(x, y)) in list_decode(y, params_of(x)).candidates


def test_list_decode_takes_its_witnesses_from_the_search(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("list_decode called a closed-form witness")

    monkeypatch.setattr(channel_module, "_substitution_witnesses", forbidden)
    result = list_decode(Y1, P1)
    assert result.candidates == [(X1, ErrorEvent(6, 8))]


def test_brute_decoder_refuses_a_member_reached_only_by_deletion(monkeypatch):
    """A membership test that admitted the constant 0^n would make it a
    candidate with no substitution witness: refused, not dropped."""
    monkeypatch.setattr(decoder_module, "matches_value", lambda p, value: value == 0)
    with pytest.raises(RuntimeError, match="only by deletion"):
        list_decode_brute(Word.zeros(5), params_of(W("010011")))


def test_decode_a_corrupted_numpy_member():
    p, _ = choose_params(12)
    x = Word(12, codeword_values(p)[0])
    assert type(x.value) is int
    assert x in list_decode(apply_del_sub(x, ErrorEvent(2, 5)), p).words


def test_decode_under_numpy_residues():
    p, _ = choose_params(12)
    q = CodeParams(*map(np.uint64, (p.n, p.c0, p.c1, p.c2)))
    assert q == p and all(type(v) is int for v in (q.n, q.c0, q.c1, q.c2))
    y = apply_del_sub(Word(12, codeword_values(p)[0]), ErrorEvent(2, 5))
    got = list_decode(y, q)
    assert got == list_decode(y, p) and got.candidates


def test_brute_decoder_stops_at_the_scan_ceiling_and_list_decode_does_not(monkeypatch):
    n = SCAN_CEILING + 1
    x = W("10" * (n // 2) + "1")
    y = apply_del_sub(x, ErrorEvent(3, 7))

    def forbidden(*args, **kwargs):
        pytest.fail("list_decode_brute searched past the ceiling")

    monkeypatch.setattr(decoder_module, "matches_value", forbidden)
    with pytest.raises(ValueError, match=f"n <= {SCAN_CEILING}"):
        list_decode_brute(y, params_of(x))
    monkeypatch.undo()
    assert x in list_decode(y, params_of(x)).words  # the production decoder keeps every length


def test_decode_empty_class_returns_nothing():
    # Weight residue 1 forces original weight 9 for an 8-bit word: impossible.
    p = CodeParams(8, 1, 0, 0)
    result = list_decode(Word(7, 127), p)
    assert result.candidates == [] and result.examined == 0


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError):
        list_decode(W("10101"), CodeParams(8, 0, 0, 0))
    with pytest.raises(ValueError):
        list_decode_brute(W("1010101"), CodeParams(4, 0, 0, 0))


def test_more_than_two_matches_is_fatal(monkeypatch):
    # No real class can do this; force membership to always pass.
    monkeypatch.setattr(decoder_module, "matches_value", lambda p, v: True)
    with pytest.raises(ListBoundError):
        list_decode_brute(W("0101"), CodeParams(5, 0, 0, 0))


def test_list_decode_refuses_a_third_candidate(monkeypatch):
    """_collect's bound holds on list_decode's own path: a kernel that
    lists three candidates raises ListBoundError."""
    def three_hits(symbols, p, drop):
        return np.zeros(3, dtype=np.intp), np.array([6, 1, 2]), np.array([8, 3, 4])

    monkeypatch.setattr(decoder_module, "_decode_class", three_hits)
    with pytest.raises(ListBoundError, match="3 codewords"):
        list_decode(Y1, P1)
