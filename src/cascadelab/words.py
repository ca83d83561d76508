"""b-adic words and the intervals they address.

A word is a finite digit string over {0, ..., b-1}.  The word ``w``
addresses the half-open interval ``I_w = [pi(w), pi(w) + b**-len(w))``
where ``pi(w) = sum(digit_i * b**-i)``.  Interval endpoints are kept as
exact rationals so that points sitting exactly on b-adic boundaries are
classified without rounding ambiguity (a boundary point belongs to the
interval on its right).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError


@dataclass(frozen=True)
class Word:
    """A finite word over the alphabet {0, ..., base-1}."""

    base: int
    digits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.base < 2:
            raise ConfigError(f"base must be >= 2, got {self.base}")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ConfigError(f"digit {d} out of range for base {self.base}")
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))

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

    def prefix(self, i: int) -> "Word":
        return Word(self.base, self.digits[:i])

    def child(self, j: int) -> "Word":
        return Word(self.base, self.digits + (j,))

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


def pi(w: Word) -> Fraction:
    """Left endpoint of I_w, exactly."""
    num = 0
    for d in w.digits:
        num = num * w.base + d
    return Fraction(num, w.base ** len(w))


@dataclass(frozen=True)
class BadicInterval:
    """The half-open interval [left, left + length) addressed by a word."""

    word: Word
    left: Fraction
    length: Fraction

    @property
    def right(self) -> Fraction:
        return self.left + self.length


def interval_of(w: Word) -> BadicInterval:
    return BadicInterval(w, pi(w), Fraction(1, w.base ** len(w)))


def word_of(x, n: int, base: int) -> Word:
    """The unique length-n word whose interval contains x.

    x = 1 maps to the all-(base-1) word.  The float (or Fraction) x is
    classified by exact scaled-integer floor, so b-adic boundary points
    always fall into the interval on their right.
    """
    if n < 0:
        raise ConfigError("depth must be >= 0")
    xf = Fraction(x)
    if not 0 <= xf <= 1:
        raise ConfigError(f"x={x} outside [0, 1]")
    if xf == 1:
        return Word(base, (base - 1,) * n)
    index = int(xf * base**n)  # exact floor, Fraction arithmetic
    return word_from_index(index, n, base)


def successor(w: Word) -> Word | None:
    """The same-length word w+ with pi(w+) = pi(w) + b**-len(w).

    Returns None iff w is the all-(base-1) word (no successor at this
    length).
    """
    digits = list(w.digits)
    for i in range(len(digits) - 1, -1, -1):
        if digits[i] < w.base - 1:
            digits[i] += 1
            return Word(w.base, tuple(digits[: i + 1]) + (0,) * (len(digits) - i - 1))
        digits[i] = 0
    return None
