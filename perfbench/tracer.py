"""In-memory spans around the public functions of the `pherm` modules and
around `numpy.einsum`, installed from outside the program.

`install` wraps every public module-level function of `spaces`, `algebra`,
`invariants`, `liemodels`, `maps` and `cli`, the `Curv4` tag verifier
(`Curv4.__post_init__`) and `numpy.einsum`.  A name imported with
`from .x import f` is a binding of its own, so every binding of a wrapped
function in every `pherm` module is replaced; `uninstall` puts each one
back.  Each call records one span (name, start, end, parent span, raised);
self time is worked out from the spans after the run.  Counts that need the
call's arguments or result are noted after its span has closed, so they add
no time to it.
"""
from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import Counter, namedtuple

import numpy as np

MODULES = ("spaces", "algebra", "invariants", "liemodels", "maps", "cli")

# the projectors `random_curv4` alternates between
PROJECTORS = frozenset(
    {
        "spaces.pair_sym_grid",
        "spaces.split_average_grid",
        "spaces.bianchi_project_grid",
        "spaces.primitive_grid",
    }
)

Span = namedtuple("Span", "name start end parent raised")
Operand = namedtuple("Operand", "shape dtype")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the direct children of a span
    cover disjoint parts of it and their durations add up to the part of
    it they cover.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def _thaw(value):
    return list(value) if isinstance(value, tuple) and not isinstance(value, Operand) else value


def _einsum_key(args, kwargs, result) -> tuple:
    """What decides an einsum call's cost: its subscripts, operand shapes
    and dtypes, contraction-path setting and output shape."""
    spec = tuple(
        a if isinstance(a, str) else _freeze(a) if isinstance(a, list)
        else Operand(np.shape(a), np.asarray(a).dtype.str)
        for a in args
    )
    out = np.asarray(result)
    return spec, _freeze(kwargs.get("optimize", False)), Operand(out.shape, out.dtype.str)


_FLOPS = re.compile(r"Optimized FLOP count:\s*(\S+)")


def einsum_costs(keys: Counter) -> tuple[float, int]:
    """(flops, bytes) of the counted einsum calls.

    Flops are numpy's own estimate from `np.einsum_path` for the call's
    path setting (the naive count when `optimize` is off).  Bytes are
    computed as operand plus output sizes; cache misses are not counted.
    """
    flops, nbytes = 0.0, 0
    for (spec, optimize, out), count in keys.items():
        operands = [
            np.broadcast_to(np.zeros((), a.dtype), a.shape) if isinstance(a, Operand) else _thaw(a)
            for a in spec
        ]
        _, report = np.einsum_path(*operands, optimize=_thaw(optimize))
        flops += count * float(_FLOPS.search(report).group(1))
        sizes = [a for a in spec if isinstance(a, Operand)] + [out]
        nbytes += count * sum(int(np.prod(a.shape)) * np.dtype(a.dtype).itemsize for a in sizes)
    return flops, nbytes


class Tracer:
    """Spans and counts of one traced `pherm` run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]
        self._restore: list = []
        self.einsum_keys: Counter = Counter()
        self.tag_checks = 0
        self.canonical_inputs: list = []
        self.suite_trials = 0

    def wrap(self, fn, name: str, note=None):
        """`fn` recording a span named `name` per call; `note(args, kwargs,
        result)` runs after a call that returned."""
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[span] = Span(index, start, end, parent, raised)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _note_einsum(self, args, kwargs, result):
        self.einsum_keys[_einsum_key(args, kwargs, result)] += 1

    def _note_curv4(self, args, kwargs, result):
        self.tag_checks += len(args[0].tags)

    def _note_canonical(self, args, kwargs, result):
        space = args[0] if args else kwargs["space"]
        self.canonical_inputs.append((space.d, space.has_torsion))

    def _note_suite(self, args, kwargs, result):
        self.suite_trials += sum(r.trials for r in result.results)

    def install(self):
        """Wrap the public functions of the `pherm` modules and numpy.einsum."""
        notes = {
            "algebra.canonical_tensors": self._note_canonical,
            "maps.identity_suite": self._note_suite,
        }
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"pherm.{short}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(obj, name, notes.get(name))
        for modname, module in list(sys.modules.items()):
            if modname == "pherm" or modname.startswith("pherm."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(module, attr, wrappers[obj])
        curv4 = sys.modules["pherm.spaces"].Curv4
        self._set(curv4, "__post_init__", self.wrap(curv4.__post_init__, "spaces.Curv4", self._note_curv4))
        self._set(np, "einsum", self.wrap(np.einsum, "numpy.einsum", self._note_einsum))

    def uninstall(self):
        """Put back every binding `install` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Calls, self time and errors per wrapped function and per module,
        and the layer counters."""
        out: Counter = Counter()
        for name in self.names:  # functions never called report zeros
            for key in (name, name.split(".")[0]):
                out.update({f"{key}.calls": 0, f"{key}.self_s": 0.0, f"{key}.errors": 0})
        own = self_times(self.spans)
        for span, own_s in zip(self.spans, own):
            name = self.names[span.name]
            module = name.split(".")[0]
            for key in (name, module):
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += own_s
                out[f"{key}.errors"] += span.raised
        out["spaces.Curv4.tag_checks"] = self.tag_checks
        names = self.names
        out["spaces.random_curv4.projections"] = sum(
            1
            for s in self.spans
            if names[s.name] in PROJECTORS
            and s.parent >= 0
            and names[self.spans[s.parent].name] == "spaces.random_curv4"
        )
        calls = len(self.canonical_inputs)
        repeats = calls - len(set(self.canonical_inputs))
        out["algebra.canonical_tensors.repeat_frac"] = repeats / calls if calls else 0.0
        out["maps.identity_suite.trials"] = self.suite_trials
        flops, nbytes = einsum_costs(self.einsum_keys)
        out["numpy.einsum.flops"] = flops
        out["numpy.einsum.bytes"] = nbytes
        return dict(out)
