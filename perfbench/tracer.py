"""Outside-in span tracer for the benchmark.

The program under test is never edited: the tracer replaces public
functions and methods of the ``repro`` packages with timing wrappers at run
time, and puts the originals back on :meth:`Tracer.uninstall`.

* Functions are wrapped by identity in every ``repro.*`` module namespace
  that bound them, so ``from .x import f`` copies are covered too.
  Function-local imports resolve through the package attribute at call
  time, which is one of those namespaces.
* Methods are wrapped on the class that defines them.
* Kernels are timed by wrapping ``get_backend`` where the engines bound it:
  the wrapper hands back a ``KernelBackend`` whose callables are timed.

A span is (name, start, end, parent, run id). Spans stay in memory, in
flat arrays, until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Optional

_clock = time.perf_counter_ns


def _nbytes(value: Any) -> int:
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(int(v.nbytes) for v in value if hasattr(v, "nbytes"))
    return 0


def kernel_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    """Bytes a kernel call touches, computed from the ``nbytes`` of its
    array arguments and result (not measured traffic)."""
    total = _nbytes(result)
    for value in args:
        total += _nbytes(value)
    for value in kwargs.values():
        total += _nbytes(value)
    return total


class Tracer:
    """In-memory span recorder with run-time patching of ``repro``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run_ids: list[str] = []
        self._run = -1
        # One entry per span, in start order.
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("i")
        self.extra = array("q")
        # 1 when an enclosing span has the same name (recursion or a
        # wrapped helper calling a wrapped helper of the same layer): such
        # spans add to self time but not to calls or busy time.
        self.nested = array("b")
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self.active = False
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def set_run(self, run_id: str) -> None:
        self.run_ids.append(run_id)
        self._run = len(self.run_ids) - 1

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth[nid] = 0
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.nested.append(1 if self._depth[nid] else 0)
        self.extra.append(0)
        self.end.append(0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()
        self._depth[nid] -= 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark around its own call."""
        if not self.active:
            yield
            return
        nid = self._name_id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def wrap(
        self,
        name: str,
        fn: Callable,
        annotate: Optional[Callable[[tuple, dict, Any], int]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``; ``annotate`` turns the call's
        arguments and result into the span's extra count."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nid)
            if annotate is not None:
                tracer.extra[idx] = annotate(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, name: str, fn: Callable, annotate=None) -> None:
        """Replace ``fn`` in every loaded ``repro.*`` namespace."""
        wrapper = self.wrap(name, fn, annotate)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def patch_method(self, name: str, cls: type, attr: str, annotate=None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], annotate))

    def patch_backend(self, module: Any) -> None:
        """Make ``module.get_backend`` return a backend of timed kernels."""
        from repro.core.kernels import KERNEL_NAMES

        original = module.__dict__["get_backend"]
        timed: dict[int, Any] = {}
        tracer = self

        def get_backend(name: Optional[str] = None):
            real = original(name)
            backend = timed.get(id(real))
            if backend is None:
                backend = dataclasses.replace(
                    real,
                    **{
                        k: tracer.wrap(f"kernels.{k}", getattr(real, k), kernel_bytes)
                        for k in KERNEL_NAMES
                    },
                )
                timed[id(real)] = backend
            return backend

        self._set(module, "get_backend", get_backend)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output --------------------------------------------------------

    def arrays(self):
        """The spans as numpy arrays, with inclusive and self times (ns)."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        ).astype(np.int64)
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "run": np.frombuffer(self.run, dtype=np.int32).astype(np.int64),
            "extra": np.frombuffer(self.extra, dtype=np.int64),
            "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
            "dur": dur,
            "self": dur - covered,
        }

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``; names and run ids are
        stored alongside as string arrays)."""
        import numpy as np

        spans = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run_ids=np.array(self.run_ids),
            **{k: spans[k] for k in ("name", "start", "end", "parent", "run", "extra")},
        )
