"""Input checking: the report config and the exact numbers every command reads.

Every value that comes in from a file or the command line passes through
here, so no input can switch the arithmetic to floats.  A bad value is a
`ConfigError`, which the CLI prints with exit 2.  The module needs only the
standard library, so a command that reads input loads no arithmetic layer
it does not run.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import factor_int


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "local_factors": {"2": "3", "7": "1"},
    "indices": {"congruence": 7},
}


def load_config(path: str | None = None) -> dict:
    """The default config, or the one at `path`, which must have exactly the
    sections of `DEFAULT_CONFIG` and the same `indices` keys."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ConfigError("config is nested too deeply to read") from e
    _check_keys("config", cfg, DEFAULT_CONFIG)
    _check_keys("indices", cfg["indices"], DEFAULT_CONFIG["indices"])
    return cfg


def _check_keys(where: str, got, known: dict) -> None:
    if not isinstance(got, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown, missing = sorted(set(got) - set(known)), sorted(set(known) - set(got))
    if unknown or missing:
        raise ConfigError(f"{where}: unknown keys {unknown}, missing keys {missing}")


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_DECIMAL = re.compile(r"[1-9][0-9]*")
_PRIME_LIMIT = 2 ** 32


def exact_rational(value, what: str) -> Fraction:
    """A JSON integer, or a string "p" or "p/q" of integers, as a Fraction.
    Anything else (a float, bool, null, "1.5", "1e9") is a ConfigError, so no
    input can switch the arithmetic to floats."""
    if isinstance(value, bool) or not isinstance(value, (int, str)) or (
            isinstance(value, str) and not _RATIONAL.fullmatch(value)):
        raise ConfigError(f"{what} must be an integer or a string p or p/q, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad {what}: {e}") from e


def exact_integer(value, what: str) -> int:
    """A JSON integer; a float, bool, string or any other value is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def decimal_key(key: str, what: str) -> int:
    """A JSON object key that spells a positive integer in plain decimal."""
    if not _DECIMAL.fullmatch(key):
        raise ConfigError(f"{what} must be a positive integer in decimal, got {key!r}")
    try:
        return int(key)
    except ValueError as e:
        raise ConfigError(f"bad {what}: {e}") from e


def local_factors(cfg: dict) -> dict[str, Fraction]:
    """The config's `local_factors`: a nonempty mapping from primes below
    2^32, written in decimal, to exact rationals."""
    factors = cfg["local_factors"]
    if not isinstance(factors, dict) or not factors:
        raise ConfigError("local_factors must be a nonempty JSON object")
    local = {}
    for prime, v in factors.items():
        p = decimal_key(prime, "local factor key")
        if not (2 <= p < _PRIME_LIMIT and factor_int(p) == {p: 1}):
            raise ConfigError(f"local factor key must be a prime below 2^32, got {prime!r}")
        local[prime] = exact_rational(v, f"local factor at {prime}")
    return local
