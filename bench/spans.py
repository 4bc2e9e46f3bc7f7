"""In-memory spans around kdiss's public functions, and their arithmetic.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span in the same list (-1 at top level) and ``run`` names
the command or phase that produced it.  Wrappers sit on the module
attribute where the caller looks the function up (``kdiss.cli.compare``,
``kdiss.indexes.compare``, ...), so nothing inside ``src/`` changes.
Private functions are never wrapped.
"""

from __future__ import annotations

import functools
import statistics
import time

# (module, attribute, span name).  A class attribute is written
# "Class.method".  ``report.emit`` is named by its format argument.
CLI_TARGETS = (
    ("kdiss.cli", "cmd_ingest", "cli.ingest"),
    ("kdiss.cli", "cmd_mu", "cli.mu"),
    ("kdiss.cli", "cmd_batch", "cli.batch"),
    ("kdiss.cli", "cmd_punif", "cli.punif"),
    ("kdiss.cli", "cmd_report", "cli.report"),
    ("kdiss.cli", "ingest", "pyramids.ingest"),
    ("kdiss.pyramids", "normalize", "pyramids.normalize"),
    ("kdiss.pyramids", "PyramidTable.record", "pyramids.record"),
    ("kdiss.cli", "uniform_model", "pyramids.model"),
    ("kdiss.cli", "exponential_model", "pyramids.model"),
    ("kdiss.indexes", "uniform_model", "pyramids.model"),
    ("kdiss.indexes", "exponential_model", "pyramids.model"),
    ("kdiss.cli", "write_pyramid_csv", "pyramids.write_csv"),
    ("kdiss.cli", "compare", "dissimilarity.compare"),
    ("kdiss.indexes", "compare", "dissimilarity.compare"),
    ("kdiss.cli", "build_index_rows", "indexes.build_rows"),
    ("kdiss.indexes", "index_row_for", "indexes.index_row"),
    ("kdiss.cli", "write_index_csv", "indexes.write_csv"),
    ("kdiss.cli", "read_index_csv", "indexes.read_csv"),
    ("kdiss.cli", "read_indicators", "report.read_indicators"),
    ("kdiss.cli", "join", "report.join"),
    ("kdiss.cli", "fit_series", "report.fit"),
    ("kdiss.cli", "emit", "report.emit"),
)
STORE_TARGETS = (
    ("kdiss.dissimilarity", "IncrementStore.__init__", "store.open"),
    ("kdiss.dissimilarity", "IncrementStore.put", "store.put"),
    ("kdiss.dissimilarity", "IncrementStore.combine", "store.combine"),
    ("kdiss.dissimilarity", "IncrementStore.deltas_for", "store.deltas_for"),
)


class Recorder:
    """Collects spans of one process; ``run`` labels the spans opened next."""

    def __init__(self, run: str = ""):
        self.run = run
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "report.emit":
                span = f"report.emit_{kwargs.get('format', args[1] if len(args) > 1 else 'csv')}"
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self, targets) -> list[str]:
        """Replace each target attribute by its span wrapper.

        Returns the targets the program no longer has; their layers then
        read zero instead of failing the run.
        """
        import importlib

        missing = []
        for module_name, attr, span in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if not hasattr(owner, leaf):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), span))
        return missing


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def by_name(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, summed duration and self time, durations."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        entry = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
        entry["durations"].append(span[2] - span[1])
    return out


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile; a tail (q > 50) needs at least 10 samples beyond it.

    Raises ValueError when there are too few samples for that rule.
    """
    if q == 50:
        return statistics.median(samples)
    if len(samples) * (100 - q) < 1000:
        raise ValueError(f"p{q} needs {1000 // (100 - q)} samples, got {len(samples)}")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
