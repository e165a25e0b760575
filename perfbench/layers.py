"""In-process layer tracer for the qsl package, applied from outside src/qsl.

`Tracer.installed()` wraps every public function defined in the qsl modules
named in MODULES and restores the originals on exit. A wrapped call is one
span; its self time is its duration minus the time of the wrapped calls it
makes. A function is often bound under several names (`first_passage` is
re-imported into `sweeps` and `counterexamples`, `alpha` into `cli`, the
handlers sit in `cli.HANDLERS`), so every attribute of every loaded qsl.*
module, and every entry of a module-level dict, that refers to a wrapped
function is patched. `HermitianOperator.eig` is a cached_property: its
function is wrapped and the replacement property is re-bound with
`__set_name__`, so only eigendecompositions actually computed are counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import types
from collections import Counter
from functools import cached_property
from time import perf_counter

PACKAGE = "qsl"
MODULES = ("linalg", "evolution", "bounds", "counterexamples", "sweeps", "cli")

# The entry point the benchmark calls is not a span: its own time (argument
# parsing, config loading) is what trace.coverage leaves unaccounted.
NOT_SPANNED = frozenset({"cli.main"})


class Tracer:
    """Per-function call counts, self and total times, plus layer counters."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: Counter = Counter()
        self.alpha_deltas: set[float] = set()
        self.top_s = 0.0  # summed duration of spans with no wrapped parent
        self._open: list[float] = []  # child time accumulated per open span

    # ------------------------------------------------------------------ spans
    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        before, after = self._hooks(name, fn)
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "bounds.first_passage" and type(exc).__name__ == "NotReached":
                    self.counts["bounds.first_passage.not_reached"] += 1
                raise
            finally:
                duration = perf_counter() - start
                child = open_spans.pop()
                stat[0] += 1
                stat[1] += duration - child
                stat[2] += duration
                if open_spans:
                    open_spans[-1] += duration
                else:
                    self.top_s += duration
            return after(result) if after is not None else result

        return wrapper

    def _hooks(self, name: str, fn):
        """Counters computed from a call's arguments or its result."""
        signature = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if name == "evolution.sample_trajectory":
            def before(args, kwargs):
                self.counts["evolution.sample_trajectory.samples"] += int(arguments(args, kwargs)["n"]) + 1
            return before, None
        if name == "evolution.propagate_numeric":
            def before(args, kwargs):
                a = arguments(args, kwargs)
                t, step = float(a["t"]), float(a["step"])
                if step > 0 and t >= 0:
                    full = int(t // step)
                    self.counts["evolution.propagate_numeric.steps"] += full + (t - full * step > 1e-15)
            return before, None
        if name == "bounds.alpha":
            def before(args, kwargs):
                self.alpha_deltas.add(float(arguments(args, kwargs)["delta"]))
            return before, None
        if name == "evolution.fidelity_function":
            def after(fid):
                counts = self.counts

                def counted(t):
                    counts["evolution.fidelity_evals"] += 1
                    return fid(t)

                return counted
            return None, after
        return None, None

    # ---------------------------------------------------------------- install
    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the public qsl functions; restore on exit."""
        undo: list = []
        try:
            self._install(undo)
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _install(self, undo: list) -> None:
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        wrappers: dict[int, tuple] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in NOT_SPANNED
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))

        def replacement(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        loaded = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                new = replacement(obj)
                if new is not None:
                    setattr(module, attr, new)
                    undo.append(functools.partial(setattr, module, attr, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        new = replacement(value)
                        if new is not None:
                            obj[key] = new
                            undo.append(functools.partial(obj.__setitem__, key, value))

        operator = modules["linalg"].HermitianOperator
        original = operator.__dict__["eig"]
        traced = cached_property(self._wrap("linalg.eig", original.func))
        traced.__set_name__(operator, "eig")
        setattr(operator, "eig", traced)
        undo.append(functools.partial(setattr, operator, "eig", original))

    # ---------------------------------------------------------------- results
    def snapshot(self) -> dict[str, float]:
        """Flat metric map: <layer>.calls, .self_s, .total_s and the counters."""
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s) in sorted(self.stats.items()):
            if calls:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
                out[f"{name}.total_s"] = total_s
        out.update(self.counts)
        out["bounds.alpha.distinct"] = len(self.alpha_deltas)
        return out
