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


DEFAULT_CONFIG = {"local_factors": {"2": "3", "7": "1"}}


def load_config(path: str | None = None) -> dict:
    """The default config, or the one at `path`, whose one section must be
    `local_factors`, as in `DEFAULT_CONFIG`; `local_factors(cfg)` checks what
    that section holds."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    cfg = read_object(path, "config")
    unknown = sorted(set(cfg) - set(DEFAULT_CONFIG))
    missing = sorted(set(DEFAULT_CONFIG) - set(cfg))
    if unknown or missing:
        raise ConfigError(f"config: unknown keys {unknown}, missing keys {missing}")
    return cfg


def read_object(path: str, what: str) -> dict:
    """The JSON object in the file at `path`, named `what` in errors; an unreadable
    file, invalid or too deeply nested JSON, or a non-object is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except RecursionError as e:
        raise ConfigError(f"{what} is nested too deeply to read") from e
    except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8 text
        raise ConfigError(f"cannot read {what} as JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return data


def required(data: dict, key: str, what: str):
    """data[key]; a missing key is a ConfigError that names it and `what`."""
    try:
        return data[key]
    except KeyError:
        raise ConfigError(f"{what} has no key {key!r}") from None


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
