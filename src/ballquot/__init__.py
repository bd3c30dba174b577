"""Exact-arithmetic toolkit for a family of arithmetic ball-quotient surfaces."""

import os
from math import gcd
from operator import attrgetter

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


def _lowest_terms(num, den: int) -> tuple[tuple[int, ...], int]:
    """The integers num over den > 0 as a tuple and a denominator, divided by
    their gcd; a den <= 0 is refused, as no canonical form has one."""
    if den <= 0:
        raise ValueError(f"the denominator den must be positive, got {den}")
    num = tuple(num)
    g = gcd(den, *num)
    return (num, den) if g == 1 else (tuple([a // g for a in num]), den // g)


class Frozen:
    """Base of an immutable record: `__init__` sets the fields named in
    `_fields` once; equality, hash and repr are by field values, and a record
    equals only a record of its own class, never a tuple.  `==` and `hash`
    read the fields through one `operator.attrgetter` per class, `_key`, set
    when the class is made.  A record that checks its fields is a `Frozen`
    whose `__init__` checks them before it sets them (`CycElt`,
    `SymbolicReal`, `AlgElt`, `OrderBasis`, `ClassDataset`,
    `CyclicSingularity`, `KodairaFiber`, `HermMatrix`, `DirichletCharacter`);
    a NamedTuple checks nothing.  Three builders skip the check, as their
    inputs are valid by construction: `CycElt._set`, which sets a field
    element's three slots for `_make` and `from_K`,
    `cyclic_algebra._canonical` and `ClassDataset.conjugated`.  `AlgElt`'s
    fields are its integer vector and denominator, and its repr shows the
    components x0, x1, x2 instead."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _immutable(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
