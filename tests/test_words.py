import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cascadelab.errors import ConfigError
from cascadelab.words import word_from_index
from helpers import word_index


def test_digit_validation():
    with pytest.raises(ConfigError):
        word_index("2", 2)
    with pytest.raises(ConfigError):
        word_index("11", 11)


word_strategy = st.integers(2, 5).flatmap(
    lambda b: st.tuples(st.just(b), st.text(alphabet="".join(map(str, range(b))), max_size=10))
)


@given(word_strategy)
def test_index_round_trip(bt):
    b, text = bt
    assert word_from_index(word_index(text, b), len(text), b) == text


@pytest.mark.parametrize(
    "text,base",
    [("1a", 2), ("+1", 2), (" 1", 2), ("1 ", 2), ("1.0", 2), ("²", 10), ("٣", 10),
     ("1..0", 11), (".1.", 11), (".", 11), ("1.", 11), ("+1", 11), ("1_0", 11), ("9" * 5000, 11)],
)
def test_word_index_rejects_anything_but_plain_decimal_digits(text, base):
    with pytest.raises(ConfigError):
        word_index(text, base)


@example((2, 0, 0))
@example((11, 0, 0))
@given(st.integers(2, 40).flatmap(
    lambda b: st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(b), st.just(n), st.integers(0, b**n - 1)))
))
def test_word_index_reads_back_every_written_word(bni):
    b, n, i = bni
    assert word_index(word_from_index(i, n, b), b) == i
