import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from delsub import Word, delete_bit, flip_bit, get_bit, insert_bit
from strategies import words


def test_from_text_round_trip():
    w = Word.from_text("1101101000101110")
    assert w.n == 16
    assert str(w) == "1101101000101110"
    assert w.bit(1) == 1 and w.bit(3) == 0 and w.bit(16) == 0
    assert w.bits() == (1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0)
    assert w.weight == 9


def test_leading_zeros_survive():
    w = Word.from_text("0010")
    assert w.n == 4 and w.value == 2 and str(w) == "0010"


def test_zeros_and_ones():
    assert str(Word.zeros(5)) == "00000"
    assert str(Word.ones(5)) == "11111"
    assert Word.ones(5).weight == 5


@pytest.mark.parametrize("bad", ["", "012", "1a0", " 10"])
def test_from_text_rejects(bad):
    with pytest.raises(ValueError):
        Word.from_text(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Word(0, 0)
    with pytest.raises(ValueError):
        Word(3, 8)
    with pytest.raises(ValueError):
        Word(3, -1)


def test_numpy_integers_become_ints():
    w = Word(np.int64(12), np.uint64(5))
    assert type(w.n) is int and type(w.value) is int
    assert w == Word(12, 5) and hash(w) == hash(Word(12, 5))
    assert w.weight == 2


@pytest.mark.parametrize("n, value", [(3, 1.0), (3.0, 1), (3, "1"), ("3", 1)])
def test_constructor_refuses_non_integers(n, value):
    with pytest.raises(TypeError):
        Word(n, value)


def test_bit_position_range():
    w = Word.from_text("101")
    with pytest.raises(ValueError):
        w.bit(0)
    with pytest.raises(ValueError):
        w.bit(4)


@given(words(2, 20))
def test_text_round_trip_property(w):
    assert Word.from_text(str(w)) == w


@given(words(1, 16), st.data())
def test_flip_is_involution(w, data):
    i = data.draw(st.integers(1, w.n))
    v = flip_bit(w.value, w.n, i)
    assert get_bit(v, w.n, i) == 1 - w.bit(i)
    assert flip_bit(v, w.n, i) == w.value


@given(words(1, 16), st.data())
def test_insert_then_delete_round_trips(w, data):
    d = data.draw(st.integers(1, w.n + 1))
    b = data.draw(st.integers(0, 1))
    grown = insert_bit(w.value, w.n, d, b)
    assert get_bit(grown, w.n + 1, d) == b
    assert delete_bit(grown, w.n + 1, d) == w.value


@given(words(2, 16), st.data())
def test_delete_matches_text_slicing(w, data):
    d = data.draw(st.integers(1, w.n))
    text = str(w)
    expected = text[: d - 1] + text[d:]
    assert format(delete_bit(w.value, w.n, d), f"0{w.n - 1}b") == expected
