"""Reading weight-model specification files, the text ``WeightModel.describe`` writes.

The format is line-oriented key/value text.  Keys and values are
whitespace separated; an optional ``=`` between them is accepted and
``#`` starts a comment.  Recognized keys:

    kind        fractional | lognormal | mixed | table
    b           integer base >= 2
    alpha       (lognormal, mixed)
    alpha1      (fractional)
    alpha2      (fractional)
    sigma       (lognormal, mixed) volatility; alternatively
    beta        (lognormal, mixed) sigma**2 / (2 ln b)
    sign XY p   (fractional, lognormal) one row of the 2x2 sign table,
                XY in {++, +-, -+, --}
    signplus p  (mixed) marginal P(sign of W1 = +)
    atom w1 w2 p  (table) one support atom

Each key and each sign row may appear once; ``atom`` rows repeat.  Any
malformed text raises ConfigError, as does a key that the model's kind
does not read.

Omitted sign tables default to independent signs with the marginals
that make E(W_k) = 1/b.
"""

from __future__ import annotations

from .errors import ConfigError
from .weights import (
    DiscreteTable,
    Fractional,
    LognormalSigned,
    Mixed,
    SignJoint,
    WeightModel,
    sigma_from_beta,
)

_SIGN_KEYS = ("++", "+-", "-+", "--")
# the keys each kind reads besides kind and b; "sign" and "atom" stand for their rows
_READS = {
    "fractional": {"alpha1", "alpha2", "sign"},
    "lognormal": {"alpha", "sigma", "beta", "sign"},
    "mixed": {"alpha", "sigma", "beta", "signplus"},
    "table": {"atom"},
}


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as e:
        raise ConfigError(f"bad {what}: {text!r}") from e


def parse_model(text: str) -> WeightModel:
    kv: dict[str, str] = {}
    signs: dict[str, float] = {}
    atoms: list[tuple[tuple[float, float], float]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("=", " ").split()
        if not parts:
            raise ConfigError(f"unparseable model line: {raw!r}")
        key = parts[0].lower()
        if key == "sign":
            if len(parts) != 3 or parts[1] not in _SIGN_KEYS:
                raise ConfigError(f"bad sign row: {raw!r}")
            if parts[1] in signs:
                raise ConfigError(f"duplicate sign row {parts[1]!r}")
            signs[parts[1]] = _number(parts[2], f"sign {parts[1]} probability")
        elif key == "atom":
            if len(parts) != 4:
                raise ConfigError(f"bad atom row: {raw!r}")
            w1, w2, p = (_number(v, "atom value") for v in parts[1:])
            atoms.append(((w1, w2), p))
        elif len(parts) == 2:
            if key in kv:
                raise ConfigError(f"duplicate model key {key!r}")
            kv[key] = parts[1]
        else:
            raise ConfigError(f"unparseable model line: {raw!r}")

    kind = kv.get("kind")
    if kind is None:
        raise ConfigError("model file missing 'kind'")
    try:
        base = int(kv.get("b", "2"))
    except ValueError as e:
        raise ConfigError(f"bad base: {kv.get('b')!r}") from e
    if kind in _READS:
        given = set(kv) | {row for row, rows in (("sign", signs), ("atom", atoms)) if rows}
        unread = sorted(given - _READS[kind] - {"kind", "b"})
        if unread:
            raise ConfigError(f"model kind {kind!r} does not read {', '.join(map(repr, unread))}")

    sign_joint = None
    if signs:
        missing = [s for s in _SIGN_KEYS if s not in signs]
        if missing:
            raise ConfigError(f"incomplete sign table, missing rows {missing}")
        sign_joint = SignJoint(signs["++"], signs["+-"], signs["-+"], signs["--"])

    def get_float(key):
        if key not in kv:
            raise ConfigError(f"model kind {kind!r} requires key {key!r}")
        return _number(kv[key], key)

    def get_sigma():
        if "sigma" in kv and "beta" in kv:
            raise ConfigError("give sigma or beta, not both")
        if "beta" in kv:
            return sigma_from_beta(get_float("beta"), base)
        return get_float("sigma")

    try:
        if kind == "fractional":
            return Fractional(base, get_float("alpha1"), get_float("alpha2"), sign_joint)
        if kind == "lognormal":
            return LognormalSigned(base, get_float("alpha"), get_sigma(), sign_joint)
        if kind == "mixed":
            sign_plus = get_float("signplus") if "signplus" in kv else None
            return Mixed(base, get_float("alpha"), get_sigma(), sign_plus)
        if kind == "table":
            if not atoms:
                raise ConfigError("table model needs at least one 'atom' row")
            return DiscreteTable(base, tuple(atoms))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown model kind {kind!r}")


def load_model(path) -> WeightModel:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read model file {path}: {e}") from e
    return parse_model(text)
