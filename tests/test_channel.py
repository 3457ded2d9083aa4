import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delsub import (
    CANONICAL_CLASS_BY_DELTA,
    SCAN_CEILING,
    WEIGHT_DELTA_TABLE,
    ErrorEvent,
    Substitution,
    Word,
    apply_del_sub,
    error_ball,
    iter_events,
)
from delsub.channel import _weight_drop
from oracles import (
    WeightWindowError,
    ball_values,
    classify_weight_delta,
    iter_corruptions,
    weight_drop,
)
from strategies import words

W = Word.from_text


@st.composite
def corruptions(draw, min_n=2, max_n=14):
    w = draw(words(min_n, max_n))
    d = draw(st.integers(1, w.n))
    e = draw(st.sampled_from([None] + [i for i in range(1, w.n + 1) if i != d]))
    return w, ErrorEvent(d, e)


# --- the corruption operator ---------------------------------------------


def test_apply_del_sub_fixtures():
    assert apply_del_sub(W("1101101000101110"), ErrorEvent(10, 6)) == W("110111100101110")
    assert apply_del_sub(W("1001111001011010"), ErrorEvent(14, 2)) == W("110111100101110")
    assert apply_del_sub(W("1001010101001111"), ErrorEvent(5, 15)) == W("100110101001101")


@pytest.mark.parametrize("d", [1, 4, 7])
def test_pure_deletion_of_constant_word(d):
    assert apply_del_sub(Word.zeros(7), ErrorEvent(d)) == Word.zeros(6)


def test_apply_del_sub_validation():
    w = W("1010")
    with pytest.raises(ValueError):
        apply_del_sub(w, ErrorEvent(0))
    with pytest.raises(ValueError):
        apply_del_sub(w, ErrorEvent(5))
    with pytest.raises(ValueError):
        apply_del_sub(w, ErrorEvent(2, 5))
    with pytest.raises(ValueError):
        apply_del_sub(w, ErrorEvent(2, 2))
    with pytest.raises(ValueError):
        apply_del_sub(Word(1, 1), ErrorEvent(1))


@given(corruptions())
def test_apply_del_sub_shrinks_by_one(pair):
    w, ev = pair
    assert apply_del_sub(w, ev).n == w.n - 1


def test_event_count_is_n_squared():
    assert sum(1 for _ in iter_events(7)) == 49


# --- error balls ----------------------------------------------------------


def test_ball_of_two_bit_word_reaches_everything():
    assert {str(y) for y in error_ball(W("10"))} == {"0", "1"}


def test_ball_of_zero_word():
    got = error_ball(Word.zeros(6))
    expected = {Word.zeros(5)} | {Word(5, 1 << k) for k in range(5)}
    assert got == expected


@given(words(2, 14))
@settings(max_examples=60)
def test_ball_size_bounded_by_event_count(w):
    assert len(error_ball(w)) <= w.n * w.n


@st.composite
def patterned_words(draw, min_n, max_n):
    """A constant or alternating word of a length drawn from min_n..max_n."""
    n = draw(st.integers(min_n, max_n))
    return W((draw(st.sampled_from(["0", "1", "01", "10"])) * n)[:n])


@given(st.one_of(words(2, SCAN_CEILING), patterned_words(2, SCAN_CEILING)))
@example(Word.ones(SCAN_CEILING))
@example(W("10" * (SCAN_CEILING // 2)))
@settings(max_examples=60, deadline=None)
def test_ball_equals_event_images(w):
    ball = error_ball(w)
    assert ball == {y for _, y in iter_corruptions(w)}
    assert {y.value for y in ball} == ball_values(w.value, w.n)


def test_ball_stops_at_the_scan_ceiling():
    with pytest.raises(ValueError, match=f"n <= {SCAN_CEILING}"):
        error_ball(Word.ones(SCAN_CEILING + 1))


# --- weight-drop classification -------------------------------------------


def test_table_has_six_rows_and_matches_canonical_map():
    assert len(WEIGHT_DELTA_TABLE) == 6
    for delta, (deleted, sub) in CANONICAL_CLASS_BY_DELTA.items():
        assert WEIGHT_DELTA_TABLE[(deleted, sub)] == delta


def test_classify_known_cases():
    # A drop of 2 can only be: delete a 1, flip a 1 to 0.
    c = classify_weight_delta(3, 1, 8)
    assert (c.delta, c.deleted_value, c.substitution) == (2, 1, Substitution.ONE_TO_ZERO)
    # A gain of 1 can only be: delete a 0, flip a 0 to 1.
    c = classify_weight_delta(3, 4, 8)
    assert (c.delta, c.deleted_value, c.substitution) == (-1, 0, Substitution.ZERO_TO_ONE)
    # Residue 1, received weight 9: original weight must be 9 itself.
    c = classify_weight_delta(1, 9, 16)
    assert (c.delta, c.deleted_value, c.substitution) == (0, 1, Substitution.ZERO_TO_ONE)


def test_classify_rejects_impossible_weights():
    with pytest.raises(WeightWindowError):
        classify_weight_delta(3, 0, 8)  # would need original weight -1
    with pytest.raises(WeightWindowError):
        classify_weight_delta(1, 7, 8)  # would need original weight 9 > n


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        classify_weight_delta(4, 3, 8)
    with pytest.raises(ValueError):
        classify_weight_delta(1, -1, 8)


@given(st.integers(0, 3), st.integers(0, 30), st.integers(2, 31))
def test_classify_recovers_the_unique_window_value(c0, wt_y, n):
    try:
        cls = classify_weight_delta(c0, wt_y, n)
    except WeightWindowError:
        candidates = [w for w in range(wt_y - 1, wt_y + 3) if w % 4 == c0]
        assert all(not 0 <= w <= n for w in candidates)
        return
    assert cls.delta in (-1, 0, 1, 2)
    assert (wt_y + cls.delta) % 4 == c0
    assert (cls.deleted_value, cls.substitution) == CANONICAL_CLASS_BY_DELTA[cls.delta]


def test_weight_drop_matches_the_definition():
    # On Python ints, as list_decode and table1 call it, and elementwise on
    # one int64 array of received weights, as _decode_rows calls it.
    wt_y = np.arange(131, dtype=np.int64)
    for c0 in range(4):
        expected = [weight_drop(c0, w) for w in range(131)]
        assert [_weight_drop(c0, w) for w in range(131)] == expected
        got = _weight_drop(c0, wt_y)
        assert got.dtype == np.int64 and got.tolist() == expected


@given(corruptions())
@settings(max_examples=100)
def test_weight_drop_matches_table(pair):
    w, ev = pair
    y = apply_del_sub(w, ev)
    if ev.e is None:
        sub = Substitution.NONE
    elif w.bit(ev.e) == 0:
        sub = Substitution.ZERO_TO_ONE
    else:
        sub = Substitution.ONE_TO_ZERO
    assert w.weight - y.weight == WEIGHT_DELTA_TABLE[(w.bit(ev.d), sub)]
