"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from delsub import Word


@st.composite
def words(draw, min_n, max_n):
    """A uniformly drawn value of a length drawn from min_n..max_n."""
    n = draw(st.integers(min_n, max_n))
    return Word(n, draw(st.integers(0, (1 << n) - 1)))
