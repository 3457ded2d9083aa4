import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delsub import (
    Word,
    sign_segments_ok,
    suffix_diff,
    wt_f1_f2,
)
from oracles import vt_syndrome, vt_syndrome_from_suffix_sums
from strategies import words

W = Word.from_text


@st.composite
def word_pairs(draw, min_n=1, max_n=16):
    n = draw(st.integers(min_n, max_n))
    top = (1 << n) - 1
    return Word(n, draw(st.integers(0, top))), Word(n, draw(st.integers(0, top)))


# --- weight -------------------------------------------------------------


def test_weight_known_values():
    assert W("0000").weight == 0
    assert W("1101101000101110").weight == 9
    assert W("1111").weight == 4


# --- VT syndromes -------------------------------------------------------


def test_vt_syndrome_rejects_order_zero():
    with pytest.raises(ValueError):
        vt_syndrome(W("1010"), 0)
    with pytest.raises(ValueError):
        vt_syndrome_from_suffix_sums(W("1010"), 0)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_vt_syndrome_zero_word(j):
    assert vt_syndrome(Word.zeros(9), j) == 0


def test_vt_syndrome_known_values():
    # f1 sums the positions of the ones: 1+2+4+5+7+11+13+14+15 = 72.
    assert vt_syndrome(W("1101101000101110"), 1) == 72
    # Second order: coefficients i(i+1)/2 at positions 1 and 3 give 1 + 6.
    assert vt_syndrome(W("1010"), 2) == 7


def test_summation_orders_agree_exhaustively():
    """Every word to n = 12, so every position of wt_f1_f2's bit walk at each length too."""
    for n in range(1, 13):
        for v in range(1 << n):
            w = Word(n, v)
            f = [vt_syndrome(w, j) for j in (1, 2, 3)]
            for j in (1, 2, 3):
                assert f[j - 1] == vt_syndrome_from_suffix_sums(w, j)
            assert wt_f1_f2(v, n) == (w.weight, f[0], f[1])


@given(words(1, 24), st.integers(1, 5))
@settings(max_examples=150)
def test_summation_orders_agree_property(w, j):
    assert vt_syndrome(w, j) == vt_syndrome_from_suffix_sums(w, j)


def _table_edge_examples(test):
    """All-ones and alternating words at byte and machine-word lengths and one off them."""
    for n in (7, 8, 9, 62, 63, 64, 255, 256, 257):
        for v in ((1 << n) - 1, int(("10" * n)[:n], 2), int(("01" * n)[:n], 2)):
            test = example(Word(n, v))(test)
    return test


@given(words(1, 300))
@_table_edge_examples
def test_wt_f1_f2_matches_reference_routes(w):
    wt, f1, f2 = wt_f1_f2(w.value, w.n)
    assert wt == w.weight
    assert f1 == vt_syndrome(w, 1)
    assert f2 == vt_syndrome(w, 2)


def test_wt_f1_f2_takes_numpy_integers():
    """Listings come as numpy arrays: their elements read as Python ints do."""
    for v in (np.int64(0b1011), np.uint8(3), np.int64((1 << 62) + 5)):
        assert wt_f1_f2(v, 63) == wt_f1_f2(int(v), 63)


@pytest.mark.parametrize("value, n", [(-1, 4), (16, 4), (1 << 70, 64), (0, 0), (1, 0), (0, -1)])
def test_wt_f1_f2_refuses_values_outside_the_length(value, n):
    with pytest.raises(ValueError):
        wt_f1_f2(value, n)


# --- suffix differences -------------------------------------------------

FIXTURE_VECTORS = [
    (
        "1101101000101110",
        "1001111001011010",
        (0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0),
    ),
    (
        "1001011101001110",
        "1101111000011010",
        (0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 0, 0, 1, 1, 0, 0),
    ),
    (
        "1001010101001111",
        "1101101010001101",
        (0, 0, 1, 1, 1, 2, 1, 2, 1, 2, 1, 1, 1, 1, 1, 0),
    ),
]


def test_suffix_diff_identity_is_zero():
    w = W("1001011101001110")
    assert suffix_diff(w, w) == (0,) * 16


@pytest.mark.parametrize("a, b, expected", FIXTURE_VECTORS)
def test_suffix_diff_fixture_vectors(a, b, expected):
    assert suffix_diff(W(a), W(b)) == expected


def test_suffix_diff_rejects_length_mismatch():
    with pytest.raises(ValueError):
        suffix_diff(W("101"), W("1010"))


@given(word_pairs())
def test_suffix_diff_antisymmetry(pair):
    x, y = pair
    assert suffix_diff(x, y) == tuple(-v for v in suffix_diff(y, x))


@given(word_pairs())
def test_suffix_diff_structure(pair):
    """Entries move by at most one per step and end with a single-bit difference."""
    x, y = pair
    u = suffix_diff(x, y)
    assert u[-1] in (-1, 0, 1)
    assert all(abs(a - b) <= 1 for a, b in zip(u, u[1:]))
    assert (u == (0,) * x.n) == (x == y)


@given(words(1, 20))
def test_weight_is_first_suffix_diff_against_zero(w):
    assert suffix_diff(w, Word.zeros(w.n))[0] == w.weight


def test_suffix_diff_against_zero_is_the_suffix_weight_vector():
    """Together with the summation-order check this pins the pair identity:
    suffix_diff subtracts these vectors elementwise, so f_j differences
    equal the u-weighted power sums for every pair."""
    for n in range(1, 11):
        for v in range(1 << n):
            w = Word(n, v)
            expected = tuple(sum(w.bits()[i - 1 :]) for i in range(1, n + 1))
            assert suffix_diff(w, Word.zeros(n)) == expected


def test_syndrome_difference_is_weighted_suffix_sum_exhaustive():
    """f_j(x) - f_j(x') must equal sum_i u_i * i^(j-1)."""
    for n in range(2, 7):
        for a in range(1 << n):
            for b in range(1 << n):
                u = suffix_diff(Word(n, a), Word(n, b))
                for j in (1, 2):
                    lhs = vt_syndrome(Word(n, a), j) - vt_syndrome(Word(n, b), j)
                    assert lhs == sum(ui * i ** (j - 1) for i, ui in enumerate(u, 1))


@given(word_pairs(min_n=2, max_n=16), st.integers(1, 3))
@settings(max_examples=150)
def test_syndrome_difference_is_weighted_suffix_sum_property(pair, j):
    x, y = pair
    u = suffix_diff(x, y)
    lhs = vt_syndrome(x, j) - vt_syndrome(y, j)
    assert lhs == sum(ui * i ** (j - 1) for i, ui in enumerate(u, 1))


# --- sign segments ------------------------------------------------------


def test_sign_segments_zero_vector_always_passes():
    assert sign_segments_ok((0,) * 8, [3, 5])
    assert sign_segments_ok((0,) * 8, [])


def test_sign_segments_fixture_split():
    u = FIXTURE_VECTORS[0][2]
    assert sign_segments_ok(u, [6])


def test_sign_segments_small_example():
    u = (0, 1, -1, 0)
    assert sign_segments_ok(u, [2])
    assert not sign_segments_ok(u, [3])


def test_sign_segments_first_segment_convention():
    # Anchored at 1 the whole vector is one mixed segment; starting at 2
    # leaves u_1 out and the rest is sign-constant.
    u = (-1, 1)
    assert not sign_segments_ok(u, [])
    assert sign_segments_ok(u, [], first_segment_from_one=False)


def test_sign_segments_validates_breakpoints():
    u = (0, 1, 0, -1)
    with pytest.raises(ValueError):
        sign_segments_ok(u, [3, 2])
    with pytest.raises(ValueError):
        sign_segments_ok(u, [0])
    with pytest.raises(ValueError):
        sign_segments_ok(u, [5])
    with pytest.raises(ValueError):
        sign_segments_ok(u, [2, 2])
