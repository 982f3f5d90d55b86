"""Traced pass: spans and counters recorded from outside the program.

Public functions are replaced, in the namespace of the module that calls
them, by wrappers that record a span or bump a counter and then call the
original. `Tracer.installed()` restores every replaced name on exit. Spans
stay in memory; `run.py` writes them out when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import itertools
import statistics
import time
from dataclasses import dataclass

# (module whose namespace holds the name, name, what the wrapper records).
# A "span" times each call; a "count" only counts calls, for the hot scalar
# functions where a span per call would swamp what it measures.
WRAPS = (
    ("invspec.sl_forward", "neumann_eigenvalues", "span"),
    ("invspec.workbench", "roundtrip", "span"),
    ("invspec.workbench", "find_det_eigenvalues", "span"),
    ("invspec.workbench", "select_reconstruction_nodes", "span"),
    ("invspec.workbench", "reconstruct_coeffs", "span"),
    ("invspec.cli", "main", "span"),
    ("invspec.cli", "find_det_eigenvalues", "span"),
    ("invspec.cli", "emit_spectrum", "span"),
    ("invspec.cli", "save_text", "span"),
    ("invspec.cli", "load_spectrum", "span"),
    ("invspec.cli", "select_reconstruction_nodes", "span"),
    ("invspec.cli", "reconstruct_coeffs", "span"),
    ("invspec.reconstruct", "condition_estimate", "count"),
    ("invspec.char_det", "delta_scaled_eval", "count"),
    ("invspec.char_det", "delta_deriv", "count"),
)

# What a span keeps from its call besides the time: roots or eigenvalues
# returned, and bytes written.
_NOTES = {
    "sl_forward.neumann_eigenvalues": lambda args, result: len(result),
    "char_det.find_det_eigenvalues": lambda args, result: len(result),
    "fileio.save_text": lambda args, result: len(args[1].encode("utf-8")),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: tuple
    covered: float
    note: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.duration - self.covered


class Tracer:
    """Spans and counters of one traced pass, keyed by item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.items: list[tuple] = []
        self.useful: dict[tuple, int] = {}
        self.item: tuple | None = None
        # [span id, time covered by its children so far] per open span
        self._open: list[list] = []
        self._ids = itertools.count()

    def begin(self, item: tuple, useful: int | None = None) -> None:
        """Attribute what follows to `item`; `useful` is how many located roots it uses.

        An item is `("own", index, pass)` or `("probe", workload, pass)`.
        """
        self.item = item
        self.items.append(item)
        if useful is not None:
            self.useful[item] = useful

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.item, name)] += n

    def _span(self, name, fn):
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._open[-1][0] if self._open else None
            frame = [sid, 0.0]
            self._open.append(frame)
            result = done = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    # siblings run one after another, so their durations add up
                    self._open[-1][1] += end - start
                value = note(args, result) if note and done else None
                self.spans.append(
                    Span(sid, name, start, end, parent, self.item, frame[1], value))

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, kind in WRAPS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
                wrap = self._span if kind == "span" else self._counter
                saved.append((module, attr, fn))
                setattr(module, attr, wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


class CountingPotential:
    """Delegates to a potential and counts its q evaluation points.

    Every call of the `evaluator()` closure or of `__call__` is one point;
    `sample(xs)` adds `len(xs)`.
    """

    def __init__(self, q):
        self._q = q
        self.points = 0

    def __getattr__(self, name):
        return getattr(self._q, name)

    def __call__(self, x):
        self.points += 1
        return self._q(x)

    def sample(self, xs):
        self.points += len(xs)
        return self._q.sample(xs)

    def evaluator(self):
        f = self._q.evaluator()

        def counted(x):
            self.points += 1
            return f(x)

        return counted


# Which workload's probe item stands in for a layer that a workload does
# not enter, so that every traced run reports every per-layer metric.
LAYER_PROBE = {
    "potentials": "sl_low",
    "sl_forward": "sl_low",
    "char_det": "roundtrip",
    "reconstruct": "roundtrip",
    "workbench": "roundtrip",
    "fileio": "det_files",
    "cli": "det_files",
}

# Metrics that are work counts: they must repeat exactly for one seed.
COUNTERS = (
    "potentials.q_points_per_eig",
    "char_det.searches_per_item",
    "char_det.roots_per_search",
    "char_det.useful_root_frac",
    "char_det.scalar_evals_per_search",
    "reconstruct.condition_calls_per_solve",
    "fileio.bytes_written_per_item",
)


def _ms(seconds) -> float:
    return statistics.median(seconds) * 1e3


def layer_metrics(tracers: list[Tracer], covered: frozenset) -> dict:
    """Per-layer metrics of one or more traced passes over the same items.

    A layer in `covered` is read from the workload's own items; any other
    layer from the probe item named in LAYER_PROBE.
    """
    spans = [s for t in tracers for s in t.spans]
    counts = collections.Counter()
    for t in tracers:
        counts.update(t.counts)
    useful = {k: v for t in tracers for k, v in t.useful.items()}
    items = [k for t in tracers for k in t.items]

    def scope(layer):
        if layer in covered:
            return lambda item: item[0] == "own"
        probe = LAYER_PROBE[layer]
        return lambda item: item[0] == "probe" and item[1] == probe

    def named(name):
        keep = scope(name.split(".", 1)[0])
        return [s for s in spans if s.name == name and keep(s.item)]

    def counted(layer, *names):
        keep = scope(layer)
        return sum(n for (item, name), n in counts.items() if name in names and keep(item))

    def n_items(layer):
        keep = scope(layer)
        return sum(1 for k in items if keep(k))

    def per_item(layer, names, value):
        keep = scope(layer)
        totals = collections.defaultdict(float)
        for k in items:
            if keep(k):
                totals[k] = 0.0
        for s in spans:
            if s.name in names and keep(s.item):
                totals[s.item] += value(s)
        return list(totals.values())

    solves = named("sl_forward.neumann_eigenvalues")
    searches = named("char_det.find_det_eigenvalues")
    recs = named("reconstruct.reconstruct_coeffs")
    located = sum(s.note for s in searches)
    char_scope = scope("char_det")
    return {
        "potentials.q_points_per_eig":
            counted("potentials", "potentials.q_points") / sum(s.note for s in solves),
        "sl_forward.solve_ms": _ms([s.duration for s in solves]),
        "char_det.search_ms": _ms([s.duration for s in searches]),
        "char_det.searches_per_item": len(searches) / n_items("char_det"),
        "char_det.roots_per_search": located / len(searches),
        "char_det.useful_root_frac":
            sum(v for k, v in useful.items() if char_scope(k)) / located,
        "char_det.scalar_evals_per_search":
            counted("char_det", "char_det.delta_scaled_eval", "char_det.delta_deriv")
            / len(searches),
        "reconstruct.solve_ms": _ms([s.duration for s in recs]),
        "reconstruct.condition_calls_per_solve":
            counted("reconstruct", "reconstruct.condition_estimate") / len(recs),
        "workbench.self_ms": _ms([s.self_time for s in named("workbench.roundtrip")]),
        "fileio.write_ms": _ms(per_item(
            "fileio", ("fileio.emit_spectrum", "fileio.save_text"), lambda s: s.duration)),
        "fileio.read_ms": _ms(per_item("fileio", ("fileio.load_spectrum",), lambda s: s.duration)),
        "fileio.bytes_written_per_item":
            sum(s.note for s in named("fileio.save_text")) / n_items("fileio"),
        "cli.self_ms": _ms(per_item("cli", ("cli.main",), lambda s: s.self_time)),
    }
