"""b-adic words.

A word is a finite digit string over {0, ..., b-1}.  The word ``w`` of
length n addresses the interval ``I_w = [j * b**-n, (j + 1) * b**-n]``,
where j = ``w.index`` is its digits read in base b: a level's values
are flat arrays indexed by j, and the readers work on those indices.
Words are what ``level_set`` hands out (``sample_tilted_path`` hands
out the index j alone), and ``str(w)`` is the text ``simulate.csv``
holds (``parse_word`` reads it back).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, as_integer


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {0, ..., base-1}; base and digits are integers."""

    base: int
    digits: tuple[int, ...] = ()

    def __post_init__(self):
        base = as_integer(self.base, "base")
        if base < 2:
            raise ConfigError(f"base must be >= 2, got {base}")
        # plain ints skip the call: level_set builds one Word per crossing word
        digits = tuple(d if type(d) is int else as_integer(d, "digit") for d in self.digits)
        for d in digits:
            if not 0 <= d < base:
                raise ConfigError(f"digit {d} out of range for base {base}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def index(self) -> int:
        """Integer value of the digit string read in base ``base``.

        This is the canonical encoding of a word within its level: the
        words of length n, sorted by left endpoint, have indices
        0 .. base**n - 1.
        """
        v = 0
        for d in self.digits:
            v = v * self.base + d
        return v

    def __str__(self) -> str:
        if self.base > 10:
            return ".".join(str(d) for d in self.digits)
        return "".join(str(d) for d in self.digits)


def word_from_index(index: int, length: int, base: int) -> Word:
    """Inverse of ``Word.index`` at a fixed length."""
    if not 0 <= index < base**length:
        raise ConfigError(f"index {index} out of range for length {length}")
    digits = []
    for _ in range(length):
        index, d = divmod(index, base)
        digits.append(d)
    return Word(base, tuple(reversed(digits)))


def parse_word(text: str, base: int) -> Word:
    """Parse a word as ``str(Word)`` writes it: "0121", or "10.0.3" for base > 10.

    Digits are ASCII decimal numerals, one character each up to base 10
    and dot-separated above; the empty text is the empty word.  Any
    other text raises ConfigError.
    """
    digits = text.split(".") if base > 10 and text else list(text)
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ConfigError(f"not a base-{base} word: {text!r}")
    try:
        return Word(base, tuple(int(d) for d in digits))
    except ValueError:  # a digit too long for int()
        raise ConfigError(f"not a base-{base} word: {text!r}") from None
