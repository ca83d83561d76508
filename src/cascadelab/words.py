"""b-adic words and their text.

A word is a finite digit string over {0, ..., b-1}.  The word of length
n with digits d_1 ... d_n addresses the interval ``I_w = [j * b**-n,
(j + 1) * b**-n]``, where j is its digits read in base b: a level's
values are flat arrays indexed by j, and the library hands out and reads
words as that index alone.  This module owns the text ``simulate.csv``
holds: the digits without separators, or dot-separated for b > 10
(``word_from_index`` writes it, ``parse_word`` reads it back, and
``LevelWords`` writes a whole level of it one block at a time).
"""

from __future__ import annotations

from .errors import ConfigError

_WORD_BLOCK = 2**12  # rows of the largest block of words that an export builds at once


def word_from_index(index: int, length: int, base: int) -> str:
    """The text of the length-``length`` word whose index is ``index``: "0121", or "10.0.3" for base > 10."""
    if not 0 <= index < base**length:
        raise ConfigError(f"index {index} out of range for length {length}")
    digits = []
    for _ in range(length):
        index, d = divmod(index, base)
        digits.append(str(d))
    return ("." if base > 10 else "").join(reversed(digits))


def parse_word(text: str, base: int) -> int:
    """The index of the word that ``word_from_index`` writes as ``text``.

    Digits are ASCII decimal numerals below ``base``, one character each
    up to base 10 and dot-separated above; the empty text is the empty
    word.  Any other text raises ConfigError.
    """
    digits = text.split(".") if base > 10 and text else list(text)
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ConfigError(f"not a base-{base} word: {text!r}")
    index = 0
    for d in digits:
        try:
            d = int(d)
        except ValueError:  # a digit too long for int()
            raise ConfigError(f"not a base-{base} word: {text!r}") from None
        if d >= base:
            raise ConfigError(f"digit {d} out of range for base {base}")
        index = index * base + d
    return index


def level_words(b: int, level: int) -> list[str]:
    """Every level-``level`` word's text, in index order.

    Each level's words are the previous level's with one digit appended,
    dot-separated for b > 10.
    """
    digits = [str(d) for d in range(b)]
    tails = ["." + d for d in digits] if b > 10 else digits
    words = digits if level else [""]
    for _ in range(level - 1):
        words = [w + t for w in words for t in tails]
    return words


class LevelWords:
    """A level's words' text, in index order, read one aligned block at a time.

    The level's b**level rows fall in aligned blocks of ``block`` = b**k
    rows, b**k the largest power of b within _WORD_BLOCK and at least b
    (b**level at most).  Block p's words are its prefix, the
    level-(level - k) word p and a dot after it for b > 10, joined to
    each of the b**k level-k words, in order; only those tails are kept,
    never the level's b**level strings.  ``words[lo:hi]`` reads rows lo
    .. hi - 1 of one block.
    """

    def __init__(self, b: int, level: int):
        k = 1
        while b ** (k + 1) <= _WORD_BLOCK:
            k += 1
        k = min(k, level)
        self._b, self._digits, self._len = b, level - k, b**level
        self._tails = level_words(b, k)
        self.block = len(self._tails)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, rows: slice) -> list[str]:
        p, t = divmod(rows.start, self.block)
        prefix = word_from_index(p, self._digits, self._b) + ("." if self._b > 10 and self._digits else "")
        return list(map(prefix.__add__, self._tails[t : t + rows.stop - rows.start]))
