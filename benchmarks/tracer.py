"""Span tracer for the sweep benchmark.

The tracer wraps the public functions of each qetchain module from outside
the library: every module attribute that binds a listed function is
replaced by one wrapper, because ``from .x import f`` copies the name into
the importing module.  ``CovarianceMatrix`` is a class, so its ``__init__``
(construction plus the symmetry check) is wrapped instead of the name.

Each call records a span: name, start, end, the span that caused it, and
the row it belongs to.  A row is one ``run_setting1``/``run_setting2`` call;
its descendants share its row id.  Parents come from a thread-local stack;
a pool thread with an empty stack takes the innermost span open on the
thread that installed the tracer, which is the sweep that submitted the row.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Layer:
    """One traced function: where it is defined and what is recorded about it."""

    module: str
    attrs: tuple[str, ...]
    name: str
    distinct: bool = False  # record argument tuples for distinct_frac
    max_dim: bool = False  # record the matrix order of the first argument
    row: bool = False  # each call starts a new sweep row


def _layer(module: str, attr: str, **kw) -> Layer:
    return Layer(module, (attr,), f"{module}.{attr}", **kw)


LAYERS = (
    _layer("gaussian_state", "symplectic_eigenvalues", max_dim=True),
    _layer("gaussian_state", "log_negativity"),
    _layer("gaussian_state", "mutual_information"),
    _layer("gaussian_state", "reduce"),
    _layer("gaussian_state", "partial_transpose"),
    _layer("gaussian_state", "CovarianceMatrix"),
    _layer("chain_model", "correlation_vectors", distinct=True),
    _layer("chain_model", "ground_covariance", distinct=True),
    _layer("povm_measurement", "build_m_matrix", distinct=True),
    _layer("povm_measurement", "post_measurement_covariance", distinct=True),
    _layer("povm_measurement", "sample_outcomes"),
    _layer("oracle", "general_dyne_update"),
    _layer("oracle", "monte_carlo_energy"),
    _layer("oracle", "fock_ground_state"),
    _layer("qet_protocol", "run_setting1", row=True),
    _layer("qet_protocol", "run_setting2", row=True),
    _layer("qet_protocol", "build_quadratics"),
    _layer("qet_protocol", "optimized_energy"),
    _layer("qet_protocol", "optimal_plan"),
    Layer("experiment", ("sweep_setting1", "sweep_setting2", "sweep_size"), "experiment.sweep"),
    _layer("experiment", "fit_power_law"),
    _layer("experiment", "render_csv"),
    _layer("cli", "run_validate"),
)

ROW_SPANS = frozenset(layer.name for layer in LAYERS if layer.row)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run prints."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.append((f"{layer.name}.errors", "count", "lower"))
        if layer.distinct:
            specs.append((f"{layer.name}.distinct_frac", "frac", "higher"))
        if layer.max_dim:
            specs.append((f"{layer.name}.max_dim", "count", "lower"))
    specs.append(("experiment.rows_in_flight", "rows", "higher"))
    specs.append(("trace.pass_s", "s", "lower"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


class Span:
    __slots__ = ("sid", "parent", "row", "name", "thread", "t0", "t1", "key", "dim", "error")

    def __init__(self, sid, parent, row, name):
        self.sid, self.parent, self.row, self.name = sid, parent, row, name
        self.thread = threading.get_ident()
        self.t0 = self.t1 = 0.0
        self.key = self.dim = None
        self.error = False

    def as_dict(self) -> dict:
        return {"sid": self.sid, "parent": self.parent, "row": self.row, "name": self.name,
                "thread": self.thread, "t0": self.t0, "t1": self.t1, "dim": self.dim,
                "error": self.error}


def _freeze(obj):
    """Hashable stand-in for an argument, comparing arrays by content."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, obj.dtype.str, hashlib.sha1(np.ascontiguousarray(obj)).hexdigest())
    if is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(_freeze(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    return obj


class Tracer:
    """Installs span-recording wrappers on qetchain and keeps the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._rows = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._owner = None
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, list] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._owner = threading.get_ident()
        self._local.stack = self._owner_stack
        self.originals = {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qetchain" or n.startswith("qetchain."))]
        for layer in LAYERS:
            home = sys.modules[f"qetchain.{layer.module}"]
            for attr in layer.attrs:
                original = getattr(home, attr)
                self.originals.setdefault(layer.name, []).append(original)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._patch(original, "__init__", self._wrap(layer, init, method=True))
                    continue
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _patch(self, target, name: str, wrapper) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, wrapper)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: Layer, fn, method: bool = False):
        first = 1 if method else 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner and threading.get_ident() != self._owner else None
            if layer.row:
                row = next(self._rows)
            else:
                row = parent.row if parent is not None else None
            span = Span(next(self._ids), None if parent is None else parent.sid, row, layer.name)
            if layer.distinct:
                span.key = _freeze((args[first:], kwargs))
            if layer.max_dim:
                operand = args[first] if len(args) > first else next(iter(kwargs.values()))
                span.dim = int(np.shape(getattr(operand, "matrix", operand))[0])
            stack.append(span)
            span.t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.t1 = perf_counter()
                stack.pop()
                self.spans.append(span)

        traced.__bench_layer__ = layer.name
        return traced

    # -- output -------------------------------------------------------------

    def take(self) -> list[Span]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize_pass(spans: list[Span], wall_s: float) -> dict:
    """Per-layer counts and self times of one traced pass.

    Self time is a span's duration minus the part of it that its child
    spans cover; children in pool threads may overlap, so their union is
    taken.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    stats = {layer.name: {"calls": 0, "self_s": 0.0, "errors": 0, "keys": set(), "max_dim": 0}
             for layer in LAYERS}
    row_time = 0.0
    for s in spans:
        st = stats[s.name]
        kids = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children[s.sid]]
        st["self_s"] += (s.t1 - s.t0) - _covered([k for k in kids if k[1] > k[0]])
        st["calls"] += 1
        st["errors"] += s.error
        if s.key is not None:
            st["keys"].add(s.key)
        if s.dim is not None:
            st["max_dim"] = max(st["max_dim"], s.dim)
        if s.name in ROW_SPANS:
            row_time += s.t1 - s.t0
    for st in stats.values():
        st["distinct_frac"] = len(st.pop("keys")) / st["calls"] if st["calls"] else 0.0
    return {"layers": stats, "rows_in_flight": row_time / wall_s,
            "row_threads": len({s.thread for s in spans if s.name in ROW_SPANS})}


def layer_metrics(passes: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-layer metric values: counts from the first traced pass, times as medians."""
    first = passes[0]["layers"]
    values = {}
    for layer in LAYERS:
        st = first[layer.name]
        values[f"{layer.name}.calls"] = st["calls"]
        values[f"{layer.name}.self_s"] = statistics.median(p["layers"][layer.name]["self_s"] for p in passes)
        values[f"{layer.name}.errors"] = max(p["layers"][layer.name]["errors"] for p in passes)
        if layer.distinct:
            values[f"{layer.name}.distinct_frac"] = st["distinct_frac"]
        if layer.max_dim:
            values[f"{layer.name}.max_dim"] = max(p["layers"][layer.name]["max_dim"] for p in passes)
    values["experiment.rows_in_flight"] = statistics.median(p["rows_in_flight"] for p in passes)
    values["trace.pass_s"] = statistics.median(traced_s)
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return values


def counts_agree(passes: list[dict]) -> bool:
    """True when every traced pass made the same calls with the same arguments."""
    def counts(p):
        return {name: (st["calls"], st["distinct_frac"], st["max_dim"]) for name, st in p["layers"].items()}
    return all(counts(p) == counts(passes[0]) for p in passes[1:])


def write_spans(path, spans_by_pass: list[list[Span]]) -> None:
    with open(path, "w") as handle:
        for index, spans in enumerate(spans_by_pass):
            for s in spans:
                handle.write(json.dumps({"pass": index, **s.as_dict()}) + "\n")
