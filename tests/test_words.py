from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cascadelab import words
from cascadelab.errors import ConfigError
from cascadelab.words import Word, interval_of, parse_word, pi, successor, word_of


def test_word_of_left_endpoint():
    assert str(word_of(0.0, 3, 2)) == "000"


def test_word_of_known_binary_point():
    # 0.625 = 1/2 + 1/8
    assert str(word_of(0.625, 3, 2)) == "101"


def test_word_of_one_maps_to_all_top_digit():
    assert str(word_of(1, 2, 3)) == "22"


def test_word_of_rejects_outside_unit_interval():
    with pytest.raises(ConfigError):
        word_of(-0.1, 3, 2)
    with pytest.raises(ConfigError):
        word_of(1.5, 3, 2)


def test_interval_of_empty_word_is_unit_interval():
    iv = interval_of(Word(2))
    assert iv.left == 0 and iv.right == 1


def test_interval_of_binary_word():
    iv = interval_of(parse_word("101", 2))
    assert iv.left == Fraction(5, 8)
    assert iv.right == Fraction(6, 8)


def test_interval_of_ternary_word():
    iv = interval_of(parse_word("2", 3))
    assert iv.left == Fraction(2, 3)
    assert iv.right == 1


def test_successor_binary_increment():
    assert str(successor(parse_word("011", 2))) == "100"


def test_successor_of_top_word_is_none():
    assert successor(parse_word("11", 2)) is None


def test_successor_ternary():
    assert str(successor(parse_word("02", 3))) == "10"


def test_digit_validation():
    with pytest.raises(ConfigError):
        Word(2, (0, 2))
    with pytest.raises(ConfigError):
        Word(1, ())


word_strategy = st.integers(2, 5).flatmap(
    lambda b: st.tuples(
        st.just(b), st.lists(st.integers(0, b - 1), max_size=10).map(tuple)
    )
)


@given(word_strategy)
def test_round_trip(bd):
    b, digits = bd
    w = Word(b, digits)
    assert word_of(pi(w), len(w), b) == w


@given(word_strategy)
def test_successor_ordering(bd):
    b, digits = bd
    w = Word(b, digits)
    s = successor(w)
    if s is None:
        assert all(d == b - 1 for d in digits)
    else:
        assert len(s) == len(w)
        assert pi(s) - pi(w) == Fraction(1, b ** len(w))


@given(
    st.integers(2, 5),
    st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1),
    st.integers(0, 8),
)
def test_prefix_consistency(b, x, n):
    shorter = word_of(x, n, b)
    longer = word_of(x, n + 1, b)
    assert longer.digits[:n] == shorter.digits


@given(word_strategy)
def test_index_round_trip(bd):
    b, digits = bd
    w = Word(b, digits)
    assert words.word_from_index(w.index, len(w), b) == w


def test_interval_membership():
    w = parse_word("101", 2)
    iv = interval_of(w)
    assert iv.left <= Fraction(5, 8) < iv.right
    # boundary point belongs to the interval on its right
    assert word_of(Fraction(6, 8), 3, 2) != w


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
