"""Layer tracer for the benchmark: per-module call counts and self time.

The tracer replaces every public function and method of the package's
layer modules with a timing wrapper, at every binding where the object
appears (a name re-imported into another module, such as ``codec.image``,
is wrapped there too).  Spans are not kept one per call: each wrapper
adds its call count, inclusive time and self time (inclusive time minus
the time covered by nested wrapped calls) to an in-memory table, which
is written out once at the end of the run.  The package itself is left
untouched; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("transforms", "arcs", "subshift", "interval_system", "codec",
          "sofic", "existence", "systems", "cli")
PACKAGE = "moebius_systems"

class FunctionStats:
    __slots__ = ("layer", "calls", "incl_s", "self_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Wraps the layer modules' public callables; see the module docstring.

    ``hooks`` maps a qualified name such as ``"codec.encode"`` to a
    callable ``hook(args, kwargs, result)`` run after each successful call,
    once that call's span has closed (its time counts to the caller); the
    benchmark uses hooks for work counters such as digits consumed.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.stats: dict[str, FunctionStats] = {}
        self.edges: dict[tuple[str, str], list] = {}  # (caller layer, callee layer) -> [calls, s]
        self.top_s = 0.0   # total duration of outermost spans
        self._stack: list[list] = []   # [child_time, layer] per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{name}", layer)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _set(self, target, key, value) -> None:
        self._patches.append((target, key, target.__dict__[key]))
        setattr(target, key, value)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":  # constructors are public
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(attr.__func__, key, layer)))
            elif isinstance(attr, property) and attr.fget is not None:
                self._set(cls, name, property(self._wrap(attr.fget, key, layer),
                                              attr.fset, attr.fdel, attr.__doc__))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, key, layer))

    # -- spans ------------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        st = self.stats.setdefault(key, FunctionStats(layer))
        hook = self.hooks.get(key)
        stack = self._stack
        edges = self.edges
        perf = time.perf_counter

        def close(frame, t0):
            dt = perf() - t0
            stack.pop()
            st.calls += 1
            st.incl_s += dt
            st.self_s += dt - frame[0]
            if stack:
                parent = stack[-1]
                parent[0] += dt
                edge = edges.get((parent[1], layer))
                if edge is None:
                    edge = edges[(parent[1], layer)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
            else:
                self.top_s += dt

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, t0)
            if inspect.isgenerator(result):
                result = self._traced_generator(result, key + "<resume>", layer)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _traced_generator(self, gen, key: str, layer: str):
        """Attribute the generator body's work to its layer, one span per resume."""
        resume = self._wrap(gen.__next__, key, layer)
        while True:
            try:
                item = resume()
            except StopIteration:
                return
            yield item

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Layer -> (calls, self seconds)."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for st in self.stats.values():
            out[st.layer][0] += st.calls
            out[st.layer][1] += st.self_s
        return {k: (c, s) for k, (c, s) in out.items()}

    def unit_us(self, *keys: str, per: float | None = None) -> float:
        """Mean inclusive microseconds per call of the named functions (or
        per `per` units of work); 0.0 when they were never called."""
        calls = sum(self.stats[k].calls for k in keys if k in self.stats)
        incl = sum(self.stats[k].incl_s for k in keys if k in self.stats)
        denom = calls if per is None else per
        return 1e6 * incl / denom if denom else 0.0

    def calls(self, key: str) -> int:
        st = self.stats.get(key)
        return st.calls if st else 0

    def to_json(self) -> dict:
        return {
            "functions": {k: {"layer": s.layer, "calls": s.calls, "incl_s": s.incl_s,
                              "self_s": s.self_s}
                          for k, s in sorted(self.stats.items()) if s.calls},
            "edges": [{"caller": a, "callee": b, "calls": c, "incl_s": t}
                      for (a, b), (c, t) in sorted(self.edges.items())],
            "top_s": self.top_s,
        }
