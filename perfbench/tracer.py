"""Outside-in tracer for taudec: wraps each module's public functions from outside.

`install` rebinds every public function of the traced modules in every
`taudec.*` namespace that holds it (so `taudec.dynkin.classify` and the
`classify` that `taudec.signdec` imported are both wrapped); `src/` is not
touched.  Each function keeps aggregate counters -- calls, total and self
nanoseconds -- rather than one span per call, so hot leaves such as
`repa.ext_dim` stay cheap.  Self time is a call's duration minus the time of
the wrapped calls it made; time in unwrapped helpers (private functions,
dataclass constructors) counts as the caller's own.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterator

PACKAGE = "taudec"
# taudec.brauer only builds inputs and is left untimed.
LAYERS = ("quiver", "dynkin", "signdec", "repa", "glue", "matrices", "cli")

# Observer failures must never change the traced program's behaviour.
_OBSERVER_ERRORS = (AttributeError, TypeError, IndexError, ValueError)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Counter[str] = Counter()  # output sizes seen by observers
        self.classify_args: set[Any] = set()
        self.count_signs = False  # only count/finite commands feed visited_ratio
        self.signs_visited = 0
        self.signs_possible = 0
        self._stack = [0]  # time of wrapped children, one slot per open call
        self._observers: dict[str, Callable[[tuple, Any], Any]] = {
            "dynkin.classify": self._observe_classify,
            "signdec.enumerate_signs": self._observe_signs,
            "repa.tilting_modules": self._size_of("repa.tilting_modules.modules_out"),
            "repa.tilting_hasse": self._size_of("repa.tilting_hasse.arrows_out"),
            "glue.glued_hasse": self._observe_hasse,
        }

    def install(self) -> None:
        namespaces = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, wrapper)

    def begin_command(self, kind: str, n: int) -> None:
        """Tell the tracer which command runs next: its kind and vertex count."""
        self.count_signs = kind in ("count", "finite")
        if self.count_signs:
            self.signs_possible += 2 ** n

    def _wrap(self, name: str, fn: Callable) -> Callable:
        record = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
            if observe is not None:
                # observer time is booked as a child, so it leaves the caller's self time
                start = clock()
                try:
                    result = observe(args, result)
                except _OBSERVER_ERRORS:
                    pass
                stack[-1] += clock() - start
            return result

        return traced

    def _observe_classify(self, args: tuple, result: Any) -> Any:
        if args:
            self.classify_args.add(args[0])
        return result

    def _observe_signs(self, args: tuple, result: Any) -> Any:
        return self._counted(result) if self.count_signs else result

    def _counted(self, signs: Iterator) -> Iterator:
        for s in signs:
            self.signs_visited += 1
            yield s

    def _size_of(self, key: str) -> Callable[[tuple, Any], Any]:
        def observe(args: tuple, result: Any) -> Any:
            self.counts[key] += len(result)
            return result

        return observe

    def _observe_hasse(self, args: tuple, result: Any) -> Any:
        self.counts["glue.nodes"] += len(result.nodes)
        for arrow in result.arrows:
            self.counts[f"glue.arrows.{arrow[2]}"] += 1
        return result

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures: every wrapped function's calls and self_s, per-layer self_s,
        and the derived counts; a name that was never wrapped is simply missing."""
        out: dict[str, float] = {}
        for name, (calls, total_ns, self_ns) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = _per_pass(calls, passes)
            out[f"{name}.total_s"] = total_ns / passes / 1e9
            out[f"{name}.self_s"] = self_ns / passes / 1e9
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_ns / passes / 1e9
        for key, value in self.counts.items():
            out[key] = _per_pass(value, passes)
        if "dynkin.classify" in self.stats:
            out["dynkin.classify.distinct"] = len(self.classify_args)
        if "signdec.enumerate_signs" in self.stats:
            out["signdec.visited_ratio"] = (
                self.signs_visited / self.signs_possible if self.signs_possible else 0.0
            )
        if "glue.glued_hasse" in self.stats:
            for key in ("glue.nodes", "glue.arrows.internal", "glue.arrows.gluing"):
                out.setdefault(key, 0)
        for name, key in (("repa.tilting_modules", "modules_out"),
                          ("repa.tilting_hasse", "arrows_out")):
            if name in self.stats:
                out.setdefault(f"{name}.{key}", 0)
        if "repa.ext_dim" in self.stats:
            arrows = out.get("glue.arrows.internal", 0) + out.get("glue.arrows.gluing", 0)
            out["repa.ext_dim.calls_per_arrow"] = (
                out["repa.ext_dim.calls"] / arrows if arrows else 0.0
            )
        return out


def _per_pass(total: int, passes: int) -> float:
    return total // passes if total % passes == 0 else total / passes
