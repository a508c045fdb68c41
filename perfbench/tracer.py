"""In-memory spans around the public functions of every polyclass module.

Bindings are replaced in each namespace that holds them, because modules
import functions by name (``quartic.py`` does ``from .cubic import
viete_values``): wrapping only the defining module would miss those calls.
Nothing under ``src/`` is edited; ``installed()`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, List

MODULES = (
    "numeric", "poly", "cubic", "quartic", "geometry", "oracle", "batch",
    "reverse", "quintic", "report", "cli", "svg",
)
#: per-coefficient helpers called dozens of times per verdict: a span costs
#: more than their work and would bury the layers around them
SKIP = frozenset({
    "numeric.is_exact", "numeric.all_exact", "numeric.as_float",
    "numeric.ensure_finite", "numeric.sort_key_complex", "numeric.parse_number",
})
#: methods wrapped on their class, named after the module
METHODS = (("numeric", "Tolerance", "sign_terms"), ("report", "Report", "to_json"))

NAME, START, END, PARENT, VERDICT = range(5)


def layer_functions() -> Dict[str, object]:
    """Span name -> original function, for every wrapped public function."""
    import importlib

    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"polyclass.{short}")
        for attr, value in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in SKIP):
                out[name] = value
    return out


class Tracer:
    """Collects (name, start, end, parent, verdict) spans in memory."""

    def __init__(self):
        self.spans: List[list] = []
        self.verdict = -1
        self._stack: List[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self.verdict]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per verdict)."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def installed(self):
        """Patch every binding of every layer function and method, then restore."""
        import importlib

        originals = {id(fn): (name, fn) for name, fn in layer_functions().items()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        saved = []
        for modname, mod in list(sys.modules.items()):
            if modname != "polyclass" and not modname.startswith("polyclass."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"polyclass.{short}"), cls_name)
            original = cls.__dict__[meth]
            saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def reset(self) -> List[list]:
        """Hand over the spans recorded so far and start an empty list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def write_spans(path, spans: List[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": rec[NAME], "start_ns": rec[START],
                "end_ns": rec[END], "parent": rec[PARENT], "verdict": rec[VERDICT],
            }) + "\n")
