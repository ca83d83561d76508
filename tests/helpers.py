"""Test helpers: forms the tests read that the library has no use for."""

from cascadelab import cascade
from cascadelab.errors import ConfigError
from cascadelab.weights import Fractional, SignJoint


def oscillations(real, level):
    """(O1, O2) at one level: O_k(w) = max - min of the depth-n grid of F_k over closed I_w."""
    (min1, max1), (min2, max2) = cascade.grid_min_max(real, level)
    return max1 - min1, max2 - min2


def word_index(text, base):
    """The index of the word that ``words.word_from_index`` writes as ``text``.

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


def graph_bed(a):
    """Fractional b = 2 with alpha1 = a, alpha2 = 1 and W2 always positive.

    The sign table (p, 0, 1 - p, 0) with p = (2**(a - 1) + 1) / 2 gives
    E(W1) = 1/2, and W2 = 1/2 at every node, so F2(t) = t and F([0, 1])
    is the graph of F1, of box dimension 2 - a.
    """
    p = (2.0 ** (a - 1.0) + 1.0) / 2.0
    return Fractional(2, a, 1.0, SignJoint(p, 0.0, 1.0 - p, 0.0))
