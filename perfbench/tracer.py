"""Per-function call counts and self time, gathered by rebinding names.

``Tracer.install`` wraps every public function of the graphdim layer
modules and rebinds the wrapper wherever the original is bound: in each
graphdim module namespace (so ``coloring.subdim``, ``cli.subdim`` and the
``dimension.subdim_exists`` that ``dim_exact`` looks up at call time are
all covered) and in module-level dicts.  Aggregates are kept online with
a stack of open spans, one ``[calls, total_s, self_s, returned_none]``
record per function, so a sweep with hundreds of thousands of decision
calls costs no memory per call.

A generator function's span covers only the creation of the generator;
the time spent iterating it is the consumer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("core", "inputs", "dimension", "coloring", "cayley", "embedding", "verify", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack = [[0.0]]  # root frame collects time of top-level spans
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"graphdim.{layer}"]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "graphdim" and not modname.startswith("graphdim."):
                continue
            space = vars(mod)
            for name, obj in list(space.items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._rebind(space, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) and val in wrappers:
                            self._rebind(obj, key, wrappers[val])

    def uninstall(self) -> None:
        for space, key, original in reversed(self._undo):
            space[key] = original
        self._undo.clear()

    def _rebind(self, space: dict, key, wrapper) -> None:
        self._undo.append((space, key, space[key]))
        space[key] = wrapper

    def _wrap(self, fn, key: str):
        record = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += span
                record[2] += span - frame[0]
                stack[-1][0] += span
            if result is None:
                record[3] += 1
            return result

        return traced

    def snapshot(self) -> dict[str, dict]:
        return {key: {"calls": r[0], "total_s": r[1], "self_s": r[2], "none": r[3]}
                for key, r in self.stats.items()}
