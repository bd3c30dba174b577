"""Exact-arithmetic toolkit for a family of arithmetic ball-quotient surfaces."""

import os

__version__ = "1.0.0"


def read_data(name: str) -> str:
    """The text of the package data file `data/<name>`."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division up to sqrt(|n|)."""
    factors: dict[int, int] = {}
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:  # no factor up to its square root: a prime
        factors[n] = 1
    return factors


def _require_int(value, what: str) -> None:
    """Refuse anything but an int (a bool or a float included), naming its type."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {type(value).__name__}")


class Frozen:
    """Base of an immutable record: `__init__` sets the fields named in
    `_fields` once; equality, hash and repr are by field values, and a record
    equals only a record of its own class, never a tuple.  A record that
    checks its fields is a `Frozen` whose `__init__` checks them before it
    sets them (`CycElt`, `SymbolicReal`, `AlgElt`, `OrderBasis`,
    `ClassDataset`, `CyclicSingularity`, `KodairaFiber`, `HermMatrix`,
    `DirichletCharacter`); a NamedTuple checks nothing.  `AlgElt`'s fields
    are its integer vector and denominator, and its repr shows the components
    x0, x1, x2 instead."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _immutable(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
