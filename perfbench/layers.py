"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function and public method of each
layer module with a wrapper that times it, and rebinds the wrapper wherever
problisp imported the original by name; `uninstall()` puts the originals
back.  Nothing under src/ changes.  Spans are not kept one by one: each
wrapper adds its call count, its self time (its duration minus the time of
the wrapped calls it made) and its inclusive time to running totals, keyed by
the function and by the wrapped function that called it.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

# The modules that do timed work.  `values` and `errors` hold only data.
LAYERS = ("sexpr", "rewrite", "session", "concepts", "rng", "evaluator",
          "inference", "sampler", "cli")

_ROOT = "<root>"


def _public(name):
    return not name.startswith("_")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"problisp.{layer}")
                        for layer in LAYERS}
        self.all_modules = [importlib.import_module("problisp"), *self.modules.values()]
        self.patches = Patches()
        self.stack = []          # [key, time covered by wrapped callees]
        self.calls = {}          # key -> count
        self.self_s = {}         # key -> seconds
        self.edges = {}          # (caller key, key) -> [count, inclusive seconds]
        self.hooks = {}          # key -> fn(result, exception)

    # -- install -------------------------------------------------------------

    def targets(self):
        """(key, owner, attribute name, kind) for every public function
        and public method defined in a layer module."""
        out = []
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if not _public(name) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    out.append((f"{layer}.{name}", module, name, "function"))
                elif isinstance(obj, type):
                    for attr, member in list(vars(obj).items()):
                        if not _public(attr):
                            continue
                        key = f"{layer}.{name}.{attr}"
                        if isinstance(member, types.FunctionType):
                            out.append((key, obj, attr, "function"))
                        elif isinstance(member, (classmethod, staticmethod)):
                            out.append((key, obj, attr, type(member).__name__))
        return out

    def install(self):
        for key, owner, name, kind in self.targets():
            member = owner.__dict__[name]
            fn = member if kind == "function" else member.__func__
            wrapped = self._wrap(fn, key)
            if kind != "function":
                wrapped = type(member)(wrapped)
            self.patches.set(owner, name, wrapped)
            if isinstance(owner, types.ModuleType):
                # `from .module import name` made other bindings of `fn`
                for module in self.all_modules:
                    if module is not owner and module.__dict__.get(name) is fn:
                        self.patches.set(module, name, wrapped)

    def uninstall(self):
        self.patches.undo()

    def _wrap(self, fn, key):
        stack, calls, self_s, edges = self.stack, self.calls, self.self_s, self.edges
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        hook = self.hooks.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else _ROOT
            frame = [key, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                spent = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += spent
                calls[key] += 1
                self_s[key] += spent - frame[1]
                edge = edges.get((caller, key))
                if edge is None:
                    edges[(caller, key)] = [1, spent]
                else:
                    edge[0] += 1
                    edge[1] += spent
                if hook is not None:
                    hook(result, error)

        return functools.wraps(fn)(traced)

    # -- totals --------------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds)}."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, n in self.calls.items():
            row = out[key.split(".", 1)[0]]
            row[0] += n
            row[1] += self.self_s[key]
        return {layer: tuple(row) for layer, row in out.items()}

    def inclusive(self, key, callers=None, exclude_layer=None):
        """(calls, inclusive seconds) of `key`, over the given caller keys, or
        over callers outside `exclude_layer`, or over all callers."""
        n, spent = 0, 0.0
        for (caller, callee), (count, seconds) in self.edges.items():
            if callee != key:
                continue
            if callers is not None and caller not in callers:
                continue
            if exclude_layer is not None and caller.split(".", 1)[0] == exclude_layer:
                continue
            n += count
            spent += seconds
        return n, spent
