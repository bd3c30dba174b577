"""Per-layer tracing installed from outside the program.

`Tracer.install(package)` wraps the public functions and methods of every
module of the package, plus the arithmetic dunders of its classes.  A
function imported by name into another module (`from .cyclotomic import
alpha`) gets a wrapper of its own in that namespace, keyed by the namespace
the caller looks it up in, so `cyclic_algebra.alpha` and `cyclotomic.alpha`
count apart.  A layer is a module: each key also records the module that
defines the code, which is the layer its self time belongs to.

Self time is busy time minus the time of wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from dataclasses import dataclass
from time import perf_counter

ARITHMETIC_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                      "__truediv__", "__call__")


@dataclass
class Stat:
    layer: str
    origin: str
    count: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    max_arg: int = 0


class Tracer:
    def __init__(self, arg_probes: dict[str, int] | None = None):
        # arg_probes maps an origin to the positional index of an integer
        # argument whose largest value is recorded (e.g. the precision).
        self.stats: dict[str, Stat] = {}
        self._child_time: list[float] = []
        self._arg_probes = arg_probes or {}

    def wrap(self, owner, name: str, key: str) -> None:
        """Replace the function `owner.name` (a module or class attribute) by a
        wrapper recorded under `key`."""
        attr = vars(owner)[name]
        if isinstance(attr, staticmethod):
            setattr(owner, name, staticmethod(self._wrap(key, key, attr.__func__)))
        else:
            setattr(owner, name, self._wrap(key, key, attr))

    def _wrap(self, key: str, origin: str, fn):
        stat = self.stats[key] = Stat(origin.split(".")[0], origin)
        probe = self._arg_probes.get(origin)
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None and len(args) > probe:
                stat.max_arg = max(stat.max_arg, args[probe])
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                stat.count += 1
                stat.inclusive_s += dt
                stat.self_s += dt - nested
                if stack:
                    stack[-1] += dt
        return wrapper

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [importlib.import_module(prefix + m.name)
                   for m in pkgutil.iter_modules(package.__path__) if not m.ispkg]

        def short(module_name: str) -> str:
            return module_name[len(prefix):]

        # module-level functions, wrapped in every namespace that holds them
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(obj):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if not getattr(obj, "__module__", "").startswith(prefix):
                    continue
                origin = f"{short(obj.__module__)}.{name}"
                setattr(mod, name, self._wrap(f"{short(mod.__name__)}.{name}", origin, obj))

        # methods of the classes each module defines
        for mod in modules:
            for cname, cls in list(vars(mod).items()):
                if (not inspect.isclass(cls) or cls.__module__ != mod.__name__
                        or issubclass(cls, BaseException)):
                    continue
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name not in ARITHMETIC_DUNDERS:
                        continue
                    if isinstance(attr, staticmethod) or inspect.isfunction(attr):
                        self.wrap(cls, name, f"{short(mod.__name__)}.{cname}.{name}")

    def summary(self) -> dict:
        """Stats of the wrappers that ran, as plain data for the parent process."""
        return {key: [s.layer, s.origin, s.count, s.self_s, s.max_arg]
                for key, s in self.stats.items() if s.count}


class TraceSummary:
    """Queries over `Tracer.summary()` output."""

    def __init__(self, summary: dict):
        self._rows = summary

    def _rows_where(self, column: int, value: str):
        return [row for row in self._rows.values() if row[column] == value]

    def count(self, origin: str) -> int:
        return sum(row[2] for row in self._rows_where(1, origin))

    def self_s(self, origin: str) -> float:
        return sum(row[3] for row in self._rows_where(1, origin))

    def max_arg(self, origin: str) -> int:
        return max((row[4] for row in self._rows_where(1, origin)), default=0)

    def site_count(self, key: str) -> int:
        row = self._rows.get(key)
        return row[2] if row else 0

    def layer_self_s(self, layer: str) -> float:
        return sum(row[3] for row in self._rows_where(0, layer))
