"""Span tracing of sgcalc from outside the package.

Every public function of each sgcalc module is wrapped at every place it is
bound (modules import by name, so ``sgcalc.calculus.op_norm`` is patched as
well as ``sgcalc.linalg.op_norm``), together with the three methods that carry
most of the work: ``OperatorValue.norm``, ``SemigroupBackend.materialize`` and
``apply``.  Spans are kept in memory as (name, start, end, parent) and turned
into per-name call counts and self times once the traced pass is over.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import weakref
from collections import Counter
from time import perf_counter

LAYERS = ("measures", "complexfn", "semigroups", "calculus", "linalg", "spectral", "cli")

# Above this reduced size OperatorValue.norm leaves dense SVD for svds
# (calculus._shift_opnorm); mirrored here because the route is read from outside.
SHIFT_DENSE_MAX = 2048


def classify_norm(op) -> tuple[str, int, bool]:
    """(route, size, gcd_reduced) that ``op.norm()`` takes, from public fields.

    Shift operators sum_k w_k S^k whose live offsets share a gcd g > 1 split
    into g chains of length ceil(n/g); the SVD then runs on one chain.
    """
    if op.diag is not None:
        return "diag", len(op.diag), False
    if op.shift_weights is None:
        return "generic", op.matrix.shape[0], False
    n = op.dim
    live = [k for k, w in op.shift_weights.items() if k < n and w != 0]
    if not live:
        return "shift_zero", 0, False
    g = math.gcd(*live)
    m = -(-n // g) if g > 1 else n
    return ("shift_dense" if m <= SHIFT_DENSE_MAX else "shift_svds"), m, g > 1


class Tracer:
    """In-memory span log plus the counters read at the span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._backends = weakref.WeakKeyDictionary()  # backend -> serial number
        self._serials = itertools.count()
        self._materialized: set = set()

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    # -- hooks run at specific boundaries ---------------------------------

    def norm_label(self, op) -> str:
        route, m, reduced = classify_norm(op)
        if route.startswith("shift"):
            self.counters["shift_norms"] += 1
            self.counters["gcd_reduced"] += reduced
        if route == "shift_dense":
            self.counters["n3_sum"] += m**3
        return f"calculus.norm.{route}"

    def note_materialize(self, backend, t) -> None:
        if backend not in self._backends:
            self._backends[backend] = next(self._serials)
        serial = self._backends[backend]
        self._materialized.add((serial, float(t)))

    def note_power(self, res) -> None:
        self.counters["power_iterations"] += res.iterations
        self.counters["power_unconverged"] += not res.converged

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self time (duration minus child spans)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, d, c in zip(self.names, dur, child):
            calls[name] += 1
            self_s[name] += d - c
        return {"calls": calls, "self_s": self_s,
                "distinct_materialized": len(self._materialized)}

    def dump(self) -> dict:
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        return {
            "names": list(index),
            "spans": [[index[n], s, e, p] for n, s, e, p in
                      zip(self.names, self.starts, self.ends, self.parents)],
            "counters": dict(self.counters),
        }


def _wrap(tracer: Tracer, fn, name, before=None, after=None):
    """Span around fn; ``name`` may be a callable of the call's arguments."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        i = tracer.open(name(*args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(result)
        return result

    return traced


def install(tracer: Tracer) -> list:
    """Patch sgcalc in place; returns what ``uninstall`` needs to undo it."""
    mods = {layer: sys.modules[f"sgcalc.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                after = tracer.note_power if f"{layer}.{attr}" == "linalg.power_opnorm" else None
                wrappers[obj] = _wrap(tracer, obj, f"{layer}.{attr}", after=after)

    patches = []
    for mod in [m for k, m in sys.modules.items() if k == "sgcalc" or k.startswith("sgcalc.")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    sg = mods["semigroups"]
    methods = [
        (mods["calculus"].OperatorValue, "norm", dict(name=tracer.norm_label)),
        (sg.SemigroupBackend, "materialize",
         dict(name="semigroups.materialize", before=tracer.note_materialize)),
        (sg.SemigroupBackend, "apply", dict(name="semigroups.apply")),
        (sg.DiagonalSemigroup, "apply", dict(name="semigroups.apply")),
    ]
    for cls, attr, kw in methods:
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, original, **kw))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
