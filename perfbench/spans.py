"""Spans around calls into runexp's layers, recorded from outside the library.

A :class:`Recorder` replaces every public function of the layer modules
(``families``, ``words``, ``periods``, ``runs``, ``handles``, ``cli``),
plus ``Word.factor``, with a wrapper that records one span per call:
name, start, end, parent span and the op (root span) it belongs to.
The wrapper is installed at every ``runexp`` module attribute that
refers to the function, because callers resolve their imports there
(``runexp.cli.find_runs``, ``runexp.handles.validate_run``, ...).
Nothing under ``src/`` changes.

Spans are kept in flat arrays in memory and written once, by
:meth:`Recorder.save`, when the run ends.

Opening and closing a span costs time in the caller. :func:`span_cost`
measures that cost on an empty call, and :func:`per_op_totals` takes it
off each parent's self time, once per child span. Inclusive times still
hold the tracing cost of every span below them.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("families", "words", "periods", "runs", "handles", "cli")

# Public methods worth a span of their own; other methods are attributed
# to the function that calls them.
METHODS = (("words", "Word", "factor"),)


def _observe_find_runs(rec: "Recorder", k: int, args, result) -> None:
    rec.size_in[k] = len(args[0])
    rec.size_out[k] = len(result)


def _observe_handle_report(rec: "Recorder", k: int, args, result) -> None:
    rec.size_out[k] = result.A + result.B


# Per-span sizes: letters in and runs out of find_runs, handle mass A + B.
OBSERVERS = {
    "runs.find_runs": _observe_find_runs,
    "handles.verify_handle_properties": _observe_handle_report,
}


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size_in = array("q")
        self.size_out = array("q")
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        k = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.size_in.append(0)
        self.size_out.append(0)
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(perf_counter())
        return k

    def _close(self, k: int) -> None:
        self.end[k] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """Root span of one op (or of the set-up); yields its index."""
        k = self._open(self._name(name))
        self.op[k] = k
        outer, self._op = self._op, k
        try:
            yield k
        finally:
            self._close(k)
            self._op = outer

    def _wrap(self, fn, name: str):
        nid = self._name(name)
        observe = OBSERVERS.get(name)
        open_span, close_span = self._open, self._close

        @wraps(fn)
        def traced(*args, **kwargs):
            k = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(k)
            if observe is not None:
                observe(self, k, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever runexp refers to them."""
        if self._patches:
            raise RuntimeError("tracing is already installed")
        holders = [m for n, m in sys.modules.items() if n == "runexp" or n.startswith("runexp.")]
        for layer in LAYERS:
            mod = sys.modules[f"runexp.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                traced = self._wrap(fn, f"{layer}.{attr}")
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, traced)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"runexp.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    @contextmanager
    def recording(self, root_name: str):
        """Trace every layer call made inside the block, under one root span."""
        self.install()
        try:
            with self.root(root_name):
                yield
        finally:
            self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, not views: a view would pin the arrays' buffers and
        # make the next span's append fail.
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "size_in": np.array(self.size_in, dtype=np.int64),
            "size_out": np.array(self.size_out, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds that one traced call adds to its caller's self time.

    Per call, the caller's self time around ``calls`` traced calls of an
    empty function, less the same loop of untraced calls; the median
    over ``rounds``.
    """
    rec = Recorder()

    def empty():
        pass

    traced = rec._wrap(empty, "calibrate.empty")
    bare = []
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(calls):
            empty()
        bare.append(perf_counter() - t0)
        with rec.root("calibrate"):
            for _ in range(calls):
                traced()
    loop_self = per_op_totals(rec, "calibrate")["calibrate"]["self_s"]
    return float(np.median((loop_self - np.array(bare)) / calls))


def per_op_totals(
    rec: Recorder, root_name: str, cost_per_span: float = 0.0
) -> dict[str, dict[str, np.ndarray]]:
    """Per span name, one total per op rooted at a ``root_name`` span.

    Each entry maps ``s`` (inclusive seconds), ``self_s`` (seconds not
    covered by child spans, less ``cost_per_span`` per child span),
    ``calls``, ``size_in`` and ``size_out`` to an array with one value
    per op, in op order.
    """
    a = rec.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    # Calls nest and never overlap in one thread, so the children of a
    # span cover exactly the sum of their durations.
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    children = np.bincount(parent[has_parent], minlength=dur.size)
    # Clipped at 0: the cost is an estimate, and a self time is never negative.
    self_s = np.maximum(dur - child - children * cost_per_span, 0.0)
    roots = np.flatnonzero(a["name_id"] == rec._ids[root_name])
    roots = roots[a["op"][roots] == roots]
    slot = np.full(dur.size, -1, dtype=np.int64)
    slot[roots] = np.arange(roots.size)
    op = a["op"]
    which = np.where(op >= 0, slot[op], -1)
    mine = which >= 0
    names = len(rec.names)
    key = which[mine] * names + a["name_id"][mine]
    size = roots.size * names

    def total(values):
        return np.bincount(key, weights=values[mine], minlength=size).reshape(roots.size, names)

    columns = {
        "s": total(dur),
        "self_s": total(self_s),
        "calls": total(np.ones_like(dur)),
        "size_in": total(a["size_in"].astype(np.float64)),
        "size_out": total(a["size_out"].astype(np.float64)),
    }
    return {
        name: {col: table[:, nid] for col, table in columns.items()}
        for name, nid in rec._ids.items()
    }


def call_durations(rec: Recorder, name: str, root_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Durations and input sizes of every ``name`` span inside ``root_name`` ops."""
    a = rec.arrays()
    nid = rec._ids.get(name)
    if nid is None:
        return np.empty(0), np.empty(0, dtype=np.int64)
    op = a["op"]
    in_ops = op >= 0
    in_ops[in_ops] = a["name_id"][op[in_ops]] == rec._ids[root_name]
    sel = (a["name_id"] == nid) & in_ops
    return (a["end"] - a["start"])[sel], a["size_in"][sel]
