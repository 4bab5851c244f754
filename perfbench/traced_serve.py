"""Run ``repro serve`` with a span around every call into each layer.

Usage::

    python3 perfbench/traced_serve.py SPANS.json serve [repro serve args...]

The launcher wraps the public entry points listed in :data:`LAYERS`
(where a caller imported a function by name, the name in the caller's
module is wrapped too), then runs the unchanged ``repro serve`` command
line.  Each span records its name, start, end, parent and the request's
trace id — the id the front end passes to
``CategorizationService.categorize`` and echoes in ``X-Trace-Id``.  Spans
stay in memory and are written to ``SPANS.json`` when the server exits.

Times are ``time.monotonic_ns`` readings, the clock the benchmark's
client stamps requests with, so server spans and client latencies share
one time line.  The trace id travels with the request through a context
variable: it is set where the front end allocates the id, and thread-pool
submissions carry the caller's context to the worker thread.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: (module, attribute path, span name): the calls each layer is timed at.
LAYERS = (
    ("repro.serving.service", "CategorizationService.categorize", "service"),
    ("repro.serving.service", "CategorizationService.record_query", "ingest.record"),
    ("repro.sql.compiler", "parse_query", "sql.parse"),
    ("repro.relational.query", "SelectQuery.execute", "relational.select"),
    ("repro.core.algorithm", "LevelByLevelCategorizer.categorize", "core.categorize"),
    ("repro.core.partition.categorical", "CategoricalPartitioner.partition", "core.partition"),
    ("repro.core.partition.numeric", "NumericPartitioner.partition", "core.partition"),
    ("repro.core.cost", "CostModel.one_level_cost_all", "core.cost"),
    ("repro.core.cost", "CostModel.one_level_cost_one", "core.cost"),
    ("repro.render.treeview", "render_tree", "render"),
    ("repro.workload.preprocess", "WorkloadStatistics.record_query", "workload.fold"),
    ("repro.serving.journal", "SpillJournal.append", "journal.append"),
    ("repro.serving.snapshot", "SnapshotStore.publish_pending", "snapshot.publish"),
    ("repro.telemetry.pipeline", "TelemetryPipeline.emit", "telemetry.emit"),
    ("repro.relational.csvio", "read_csv", "setup.load"),
    ("repro.workload.log", "Workload.load", "setup.log"),
    ("repro.workload.preprocess", "preprocess_workload", "setup.preprocess"),
    ("repro.serving.warmstart", "load_warm", "setup.warm_load"),
)

#: Where request trace ids are allocated; the wrapper tags the context.
TRACE_ID_SOURCES = (
    ("repro.catalog.catalog", "Catalog.new_trace_id"),
    ("repro.serving.service", "CategorizationService.new_trace_id"),
)

#: Modules imported before wrapping, so by-name imports can be found.
PRELOAD = ("repro.cli", "repro.catalog", "repro.serving.aserve")

_trace: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_trace", default=None
)


class Recorder:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, trace)
        self.counts: list[tuple] = []  # (name, value, trace)
        self.missing: list[str] = []  # targets this build no longer has
        self._stack = threading.local()
        self._ids = itertools.count(1)

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span; the service call also sets the trace id."""
        sets_trace = name == "service"
        counts_nodes = name == "core.categorize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if sets_trace and kwargs.get("trace_id"):
                token = _trace.set(kwargs["trace_id"])
            stack = self._stack.__dict__.setdefault("ids", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            trace = _trace.get()
            stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, trace))
                if token is not None:
                    _trace.reset(token)
            if counts_nodes:
                internal = sum(1 for node in result.nodes() if not node.is_leaf)
                self.counts.append(("core.internal_nodes", internal, trace))
            return result

        return wrapper

    def install(self) -> None:
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for module_name, path, name in LAYERS:
            if not _install(module_name, path, functools.partial(self.timed, name)):
                self.missing.append(f"{module_name}:{path}")
        for module_name, path in TRACE_ID_SOURCES:
            if not _install(module_name, path, _tagging):
                self.missing.append(f"{module_name}:{path}")
        executor = concurrent.futures.ThreadPoolExecutor
        executor.submit = _carry_context(executor.submit)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "missing": self.missing},
                handle,
            )


def _tagging(fn):
    """A trace-id allocator that also records the id in the context."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        trace_id = fn(*args, **kwargs)
        _trace.set(trace_id)
        return trace_id

    return wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attribute)
    else:
        value = getattr(owner, attribute, None)
    if value is None:
        return None
    return owner, attribute, value


def _install(module_name: str, path: str, make) -> bool:
    target = _resolve(module_name, path)
    if target is None:
        return False
    owner, attribute, original = target
    if isinstance(original, classmethod):
        wrapped = classmethod(make(original.__func__))
    else:
        wrapped = make(original)
    setattr(owner, attribute, wrapped)
    if not isinstance(owner, type):
        # Callers that imported the function by name hold their own binding.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapped)
    return True


def _carry_context(submit):
    """Thread-pool submissions run ``fn`` in a copy of the caller's context."""

    @functools.wraps(submit)
    def wrapper(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return wrapper


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
