import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cascadelab import words
from cascadelab.errors import ConfigError
from cascadelab.words import Word, parse_word


def test_digit_validation():
    with pytest.raises(ConfigError):
        Word(2, (0, 2))
    with pytest.raises(ConfigError):
        Word(1, ())


@pytest.mark.parametrize("base, digits", [(2, (1.5, 0.2)), (2, (1.0,)), (2, (True,)), (2.5, (2,)), (2.0, ())])
def test_base_and_digits_must_be_integers(base, digits):
    # Word(2, (1.5, 0.2)) had the digits (1, 0), and Word(2.5, (2,)) was built
    with pytest.raises(ConfigError, match="must be an integer"):
        Word(base, digits)


def test_numpy_integer_base_and_digits_are_python_ints():
    w = Word(np.int64(3), (np.uint8(2), np.int32(0)))
    assert w == Word(3, (2, 0))
    assert type(w.base) is int and all(type(d) is int for d in w.digits)


word_strategy = st.integers(2, 5).flatmap(
    lambda b: st.tuples(
        st.just(b), st.lists(st.integers(0, b - 1), max_size=10).map(tuple)
    )
)


@given(word_strategy)
def test_index_round_trip(bd):
    b, digits = bd
    w = Word(b, digits)
    assert words.word_from_index(w.index, len(w), b) == w


@pytest.mark.parametrize(
    "text,base",
    [("1a", 2), ("+1", 2), (" 1", 2), ("1 ", 2), ("1.0", 2), ("²", 10), ("٣", 10),
     ("1..0", 11), (".1.", 11), (".", 11), ("1.", 11), ("+1", 11), ("1_0", 11), ("9" * 5000, 11)],
)
def test_parse_word_rejects_anything_but_plain_decimal_digits(text, base):
    with pytest.raises(ConfigError):
        parse_word(text, base)


@example((2, ()))
@example((11, ()))
@given(st.integers(2, 40).flatmap(
    lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), max_size=8).map(tuple))
))
def test_parse_word_reads_back_every_written_word(bd):
    b, digits = bd
    assert parse_word(str(Word(b, digits)), b) == Word(b, digits)
