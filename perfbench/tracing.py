"""Span tracing of the sp8d layers, applied from outside the package.

:class:`Tracer` replaces, for the duration of a ``with`` block, every
module-level function that ``sp8d.harness`` calls through a module
attribute (``beq.*``, ``channel.*``, ``demap.*``, ``fec.*``, ``modem.*``)
with a wrapper that records one span per call. It also hooks three harness
internals, so the harness's own time and its pool traffic can be told apart
from the layers:

* ``harness._gmi_batch`` / ``harness._ber_batch`` become ``harness.batch``
  spans, the parents of the layer calls a batch makes;
* ``harness.ProcessPoolExecutor`` becomes a subclass whose ``map`` counts
  the batches it dispatches and the results the harness takes, and records
  the time the parent blocks on them as ``harness.pool_wait`` spans.

Spans stay in memory (``Tracer.spans``). A layer function that another
layer function calls is not a call by the harness and records no span, so
layer spans never nest and their durations plus the harness's self time add
up to the traced wall time. Spans recorded in forked pool workers stay in
those processes and are lost.
"""

from __future__ import annotations

import ast
import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

LAYER_MODULES = ("beq", "channel", "demap", "fec", "modem")
BATCH_FUNCTIONS = ("_gmi_batch", "_ber_batch")

SWEEP = "harness.sweep"
BATCH = "harness.batch"
POOL_WAIT = "harness.pool_wait"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans; -1 for a root span
    layer: bool = False       # True for a call into beq/channel/demap/fec/modem
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _demap_counts(args, out):
    return {"symbols": len(args[0])}


def _decode_counts(args, out):
    _, iters, ok = out
    return {"frames": len(args[1]), "iterations": int(iters.sum()),
            "nonconverged_frames": int(np.count_nonzero(~ok))}


# Work counts taken from a layer call's arguments and result, by span name.
# The harness passes these arguments positionally.
COUNTERS = {
    "demap.demap_1d_batch": _demap_counts,
    "demap.demap_mlm_batch": _demap_counts,
    "demap.demap_ms_batch": _demap_counts,
    "demap.demap_posd_batch": _demap_counts,
    "fec.ldpc_decode_ms_batch": _decode_counts,
    "fec.ldpc_encode_batch": lambda args, out: {"frames": len(args[1])},
    "channel.observations": lambda args, out: {"samples": int(np.size(args[0]))},
}


def harness_layer_calls(harness) -> list[tuple[str, str]]:
    """(module, function) pairs the harness source calls as ``module.function(...)``."""
    tree = ast.parse(inspect.getsource(harness))
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in LAYER_MODULES):
            found.add((node.func.value.id, node.func.attr))
    return sorted(found)


class Tracer:
    """Records spans around the harness's layer calls while installed."""

    def __init__(self, harness):
        self.harness = harness
        self.spans: list[Span] = []
        self.missing: list[str] = []   # hooks whose target the harness lacks
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: bool = False, **counts) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               layer=layer, counts=counts))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _in_layer(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].layer

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        harness = self.harness
        for mod_name, attr in harness_layer_calls(harness):
            module = getattr(harness, mod_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patch(module, attr, self._layer_wrapper(f"{mod_name}.{attr}", fn))
        for attr in BATCH_FUNCTIONS:
            fn = getattr(harness, attr, None)
            if fn is None:
                self.missing.append(f"harness.{attr}")
                continue
            self._patch(harness, attr, self._batch_wrapper(fn))
        pool_cls = getattr(harness, "ProcessPoolExecutor", None)
        if pool_cls is None:
            self.missing.append("harness.ProcessPoolExecutor")
        else:
            self._patch(harness, "ProcessPoolExecutor", self._pool_class(pool_cls))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _layer_wrapper(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_layer():
                return fn(*args, **kwargs)
            index = self.open(name, layer=True)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.spans[index].counts = counter(args, out)
            return out
        return wrapper

    def _batch_wrapper(self, fn):
        # functools.wraps keeps __module__/__qualname__, so the pool still
        # pickles the (patched) batch function by reference.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(BATCH)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def map(self, fn, iterable, **kwargs):
                items = list(iterable)
                index = tracer.open(POOL_WAIT, dispatched=len(items))
                try:
                    results = super().map(fn, items, **kwargs)
                finally:
                    tracer.close(index)
                return tracer._drain(results)

        return TracedPool

    def _drain(self, results):
        try:
            while True:
                index = self.open(POOL_WAIT)
                try:
                    item = next(results)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                self.spans[index].counts["used"] = 1
                yield item
        finally:
            results.close()


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------

def batch_side(spans: list[Span]) -> list[Span]:
    """Layer spans made inside a batch, i.e. the work pool workers do."""
    return [s for s in spans if s.layer and s.parent >= 0 and spans[s.parent].name == BATCH]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per layer function: calls, busy seconds and summed work counts."""
    totals: dict[str, dict] = {}
    for s in spans:
        if not s.layer:
            continue
        entry = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += s.duration
        for key, value in s.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals


def harness_totals(spans: list[Span], wall: float) -> dict[str, float]:
    """Parent-side harness figures for spans recorded over ``wall`` seconds.

    ``self_s`` is the wall time no layer span and no pool wait covers.
    In a serial sweep every batch the harness runs is dispatched and used.
    """
    layer_s = sum(s.duration for s in spans if s.layer)
    waits = [s for s in spans if s.name == POOL_WAIT]
    wait_s = sum(s.duration for s in waits)
    serial = sum(1 for s in spans if s.name == BATCH)
    dispatched = serial + sum(s.counts.get("dispatched", 0) for s in waits)
    used = serial + sum(s.counts.get("used", 0) for s in waits)
    return {
        "self_s": wall - layer_s - wait_s,
        "pool_wait_s": wait_s,
        "batches_dispatched": dispatched,
        "batches_used": used,
        "useful_batch_ratio": used / dispatched if dispatched else 0.0,
    }


def span_records(spans: list[Span], origin: float) -> list[dict]:
    """JSON-ready spans with times in seconds from ``origin``."""
    return [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
             "parent": s.parent, **({"counts": s.counts} if s.counts else {})}
            for s in spans]
