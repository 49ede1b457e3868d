"""Span tracing of rislink's layers, installed from the benchmark's side.

`Tracer.install()` replaces every function a rislink module defines (public
names plus `_state_arrays`, the state repacking step) and every public
method of the classes it defines with a wrapper that records a span: name,
start, end, parent.  The replacement is made in every module that holds the
function, including the names other modules imported with `from .x import`,
and the oracle closure that `power_oracle` returns is wrapped as
`beamforming.oracle`.  `uninstall()` puts the originals back.

Spans live in flat arrays until the run ends; per-layer counts and self times
(duration minus the time covered by direct children) are derived from them.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("geometry", "channel", "ris", "link", "beamforming", "experiments", "config", "cli")
_PRIVATE_TRACED = {"_state_arrays"}


def _traced_names(module):
    """(owner, attribute, qualified span name) for everything one module defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and (not name.startswith("_") or name in _PRIVATE_TRACED):
            yield module, name, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and not meth.startswith("_"):
                    yield obj, meth, f"{layer}.{name}.{meth}"


class Tracer:
    """Records spans of rislink calls while installed; see the module docstring."""

    def __init__(self, package):
        self._package = package
        self._modules = [getattr(package, layer) for layer in LAYERS]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        stack, start, end, parent, name_id = self._stack, self.start, self.end, self.parent, self.name_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original) -> wrapper; originals stay referenced by _patches
        for module in self._modules:
            for owner, attr, span in _traced_names(module):
                original = vars(owner)[attr]
                fn = self._wrap_oracle_factory(original) if attr == "power_oracle" else original
                wrapped[id(original)] = self._wrap(span, fn)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])
        # names bound by `from .module import name` elsewhere
        for holder in [self._package, *self._modules]:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrapped:
                    self._patches.append((holder, attr, obj))
                    setattr(holder, attr, wrapped[id(obj)])

    def _wrap_oracle_factory(self, factory):
        @functools.wraps(factory)
        def power_oracle(*args, **kwargs):
            return self._wrap("beamforming.oracle", factory(*args, **kwargs))
        return power_oracle

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name ids, start, end, parent) of spans lo..hi as numpy arrays; parents re-based to lo."""
        hi = len(self) if hi is None else hi
        nid = np.array(self.name_id[lo:hi], dtype=np.int64)
        t0 = np.array(self.start[lo:hi], dtype=np.float64)
        t1 = np.array(self.end[lo:hi], dtype=np.float64)
        par = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        par[par < 0] = -1
        return nid, t0, t1, par

    def save(self, path, lo: int = 0, hi: int | None = None) -> None:
        """Write spans lo..hi (parents re-based) and the span names to an .npz file."""
        nid, t0, t1, par = self.arrays(lo, hi)
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, start=t0, end=t1,
                            parent=par)


class SpanTable:
    """Per-op view of a tracer's spans with the aggregates the benchmark reports."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.names = tracer.names
        self.nid, t0, t1, self.parent = tracer.arrays(lo, hi)
        self.dur = t1 - t0
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=int)
        self.layer = layer_of[self.nid]

    def _mask(self, span_names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in span_names]
        return np.isin(self.nid, ids)

    def _parent_in(self, mask) -> np.ndarray:
        """Spans whose direct parent is selected by `mask`."""
        out = np.zeros_like(mask)
        has_parent = self.parent >= 0
        out[has_parent] = mask[self.parent[has_parent]]
        return out

    def count(self, *span_names) -> int:
        return int(self._mask(span_names).sum())

    def mean_s(self, span_name) -> float:
        m = self._mask((span_name,))
        return float(self.dur[m].mean()) if m.any() else 0.0

    def inclusive_s(self, *span_names) -> float:
        """Time inside any of the spans, counting nested ones once."""
        m = self._mask(span_names)
        return float(self.dur[m & ~self._parent_in(m)].sum())

    def self_s(self, *span_names) -> float:
        return float(self.self_time[self._mask(span_names)].sum())

    def layer_calls(self, layer: str) -> int:
        return int((self.layer == LAYERS.index(layer)).sum())

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_time[self.layer == LAYERS.index(layer)].sum())

    def children_of(self, child: str, *parents) -> int:
        """Spans named `child` whose direct parent is one of `parents`."""
        return int((self._mask((child,)) & self._parent_in(self._mask(parents))).sum())
