"""Benchmark-side tracing: spans around calls into the repro modules.

Nothing inside the program is edited.  :meth:`Tracer.install` replaces the
public functions and methods listed in :data:`TARGETS` with wrappers that
time each call, at every ``repro`` module that imported them, and hooks a
benchmark-owned :class:`~repro.parallel.ExecutorObserver` into every
executor the pipeline builds.

Each wrapper pushes a frame on a per-thread stack, so a layer's *self*
time (its duration minus the part covered by wrapped calls it made) is
known the moment the call returns.  Calls of the coarse layers are also
kept as span records ``(name, start, end, parent, span_id, thread)`` in
memory; the hot kernels (text, index, artifact and fingerprint calls)
are only aggregated, because keeping one record per call would cost more
than the call.  :meth:`Tracer.dump` writes everything out when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass

#: ``(span name, owner, attribute, keep span records, counter)``.  The
#: owner is a module path (a function, wrapped wherever it was imported)
#: or ``module:Class`` (a method, wrapped on the class).  The counter
#: maps ``(args, result)`` to the amount added to the span's work count.
TARGETS = (
    ("synthesis.build_world", "repro.synthesis.api", "build_world", True, None),
    ("corpus.ingest", "repro.corpus.store:CorpusStore", "ingest", True, None),
    ("corpus.get", "repro.corpus.store:CorpusStore", "get", False, None),
    (
        "matching.match_corpus",
        "repro.matching.schema_matcher:SchemaMatcher",
        "match_corpus",
        True,
        None,
    ),
    (
        "clustering.cluster",
        "repro.clustering.clusterer:RowClusterer",
        "cluster",
        True,
        lambda args, result: len(args[1]),
    ),
    (
        "fusion.create",
        "repro.fusion.fuser:EntityCreator",
        "create",
        True,
        lambda args, result: len(result),
    ),
    (
        "newdetect.detect",
        "repro.newdetect.detector:NewDetector",
        "detect",
        True,
        lambda args, result: len(args[1]),
    ),
    (
        "text.label_similarity",
        "repro.text.monge_elkan",
        "label_similarity",
        False,
        None,
    ),
    (
        "text.monge_elkan_memo",
        "repro.text.monge_elkan",
        "monge_elkan_symmetric_memo",
        False,
        None,
    ),
    ("index.search", "repro.index.label_index:LabelIndex", "search", False, None),
    (
        "index.similar_tokens",
        "repro.index.inverted:InvertedIndex",
        "similar_tokens",
        False,
        None,
    ),
    (
        "pipeline.artifact_get",
        "repro.pipeline.artifacts:ArtifactStore",
        "get",
        False,
        lambda args, result: int(result is not None),
    ),
    (
        "pipeline.artifact_put",
        "repro.pipeline.artifacts:ArtifactStore",
        "put",
        False,
        None,
    ),
    ("pipeline.run", "repro.pipeline.pipeline:LongTailPipeline", "run", True, None),
    ("pipeline.stage", "repro.pipeline.stages:SchemaMatchStage", "run", True, None),
    ("pipeline.stage", "repro.pipeline.stages:ClusterStage", "run", True, None),
    ("pipeline.stage", "repro.pipeline.stages:FuseStage", "run", True, None),
    ("pipeline.stage", "repro.pipeline.stages:DetectStage", "run", True, None),
    (
        "serve.list_entities",
        "repro.serve.service:KBService",
        "list_entities",
        True,
        None,
    ),
    ("serve.get_entity", "repro.serve.service:KBService", "get_entity", True, None),
    ("serve.list_facts", "repro.serve.service:KBService", "list_facts", True, None),
)

#: The service client calls of the load generator.
CLIENT_TARGETS = tuple(
    (f"client.{method}", "repro.serve.client:ServiceClient", method, True, None)
    for method in (
        "entities", "entity", "facts", "submit_run", "wait_for_run",
        "run_canonical",
    )
)

#: Every public ``fingerprint_*`` function of this module is wrapped as
#: one span name, ``pipeline.fingerprint``.
FINGERPRINT_MODULE = "repro.pipeline.delta"

#: Modules imported before wrapping, so that every import site of a
#: wrapped function already exists when the wrappers go in.
PRELOAD = (
    "repro.api",
    "repro.serve",
    "repro.cli",
    "repro.parallel.workqueue",
    "repro.pipeline.dedup",
    "repro.synthesis",
)


class _ThreadState:
    """One thread's frame stack, statistics and kept spans."""

    __slots__ = ("stack", "kept", "stats", "spans", "covered", "thread")

    def __init__(self, thread: str) -> None:
        #: Per open wrapped call: seconds covered by its wrapped children.
        self.stack: list[float] = []
        #: Span ids of the open kept calls (parents of new spans).
        self.kept: list[int] = []
        #: span name -> [calls, total seconds, self seconds, work count]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        #: Seconds covered by top-level (unnested) wrapped calls.
        self.covered = 0.0
        self.thread = thread


class Tracer:
    """Records wrapped calls of every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.observer = None
        #: ``(owner, attribute, original, wrapper)`` per replacement.
        self._replacements: list[tuple] = []
        self._counters: dict[str, int] = {}
        self._counters_at_install: dict[str, int] | None = None

    # -- recording ------------------------------------------------------
    def state(self) -> _ThreadState:
        """The calling thread's state (created on first use)."""
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def wrap(self, name: str, func, keep: bool = False, count=None):
        """``func`` wrapped so that each call is timed under ``name``."""
        perf = time.perf_counter
        ids = self._ids
        state_of = self.state

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            if keep:
                span_id = next(ids)
                parent = state.kept[-1] if state.kept else None
                state.kept.append(span_id)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                covered = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                else:
                    state.covered += duration
                stat = state.stats.get(name)
                if stat is None:
                    stat = state.stats[name] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - covered
                if keep:
                    state.kept.pop()
                    state.spans.append(
                        (name, start, end, parent, span_id, state.thread)
                    )
            if count is not None:
                stat[3] += count(args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def install(self, client: bool = False) -> None:
        """Wrap every target and hook the executor observer in.

        ``client`` also wraps the :class:`~repro.serve.ServiceClient`
        calls the load generator makes, so that its threads' wall clock
        is covered by spans too.  After :meth:`uninstall`, installing
        again puts the same wrappers back, and recording resumes.
        """
        from repro.perf.counters import kernel_counters

        if not self._replacements:
            self._plan(client)
        for owner, attribute, __, replacement in self._replacements:
            setattr(owner, attribute, replacement)
        self._counters_at_install = kernel_counters()

    def uninstall(self) -> None:
        """Put every original back; recorded statistics are kept."""
        for owner, attribute, original, __ in reversed(self._replacements):
            setattr(owner, attribute, original)
        self._counters = self._counter_totals()
        self._counters_at_install = None

    def _plan(self, client: bool) -> None:
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        targets = TARGETS + (CLIENT_TARGETS if client else ())
        for name, owner, attribute, keep, count in targets:
            if ":" in owner:
                module_name, class_name = owner.split(":")
                cls = getattr(importlib.import_module(module_name), class_name)
                original = cls.__dict__[attribute]
                self._replacements.append(
                    (cls, attribute, original, self.wrap(name, original, keep, count))
                )
            else:
                original = getattr(importlib.import_module(owner), attribute)
                self._everywhere(original, self.wrap(name, original, keep, count))
        delta = importlib.import_module(FINGERPRINT_MODULE)
        for attribute in sorted(vars(delta)):
            if attribute.startswith("fingerprint_"):
                original = getattr(delta, attribute)
                self._everywhere(original, self.wrap("pipeline.fingerprint", original))
        self.observer = make_observer()
        executor_module = importlib.import_module("repro.parallel.executor")
        original = executor_module.make_executor
        self._everywhere(original, _observed(original, self.observer))

    def _everywhere(self, original, replacement) -> None:
        """Replace ``original`` at every ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._replacements.append(
                        (module, attribute, original, replacement)
                    )

    def _counter_totals(self) -> dict[str, int]:
        """Kernel counters bumped while installed."""
        from repro.perf.counters import counter_delta

        totals = dict(self._counters)
        if self._counters_at_install is not None:
            for name, grown in counter_delta(self._counters_at_install).items():
                totals[name] = totals.get(name, 0) + grown
        return totals

    # -- results --------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates of every thread, plus counters and executor stats."""
        stats: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, values in list(state.stats.items()):
                into = stats.setdefault(name, [0, 0.0, 0.0, 0])
                for position, value in enumerate(values):
                    into[position] += value
        return {
            "stats": stats,
            "counters": self._counter_totals(),
            "parallel": self.observer.totals() if self.observer else {},
        }

    def spans(self) -> list[tuple]:
        with self._lock:
            states = list(self._states)
        return [span for state in states for span in state.spans]

    def dump(self, path: str | os.PathLike) -> None:
        """Write the aggregates and every kept span as one JSON document."""
        document = {
            "pid": os.getpid(),
            **self.snapshot(),
            "spans": self.spans(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _observed(make_executor, observer):
    """``make_executor`` with the benchmark's observer added."""

    @functools.wraps(make_executor)
    def observed(name=None, workers=None, observers=(), **kwargs):
        return make_executor(name, workers, [*observers, observer], **kwargs)

    return observed


def make_observer():
    """A benchmark-owned executor observer accumulating the parallel layer.

    Asks for chunk span records so every chunk reports the pid it ran
    in: the busiest worker's compute is the sum over its own chunks.
    """
    from repro.parallel import ExecutorObserver

    class ParallelObserver(ExecutorObserver):
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self.map_calls = 0
            self.chunks = 0
            self.items: dict[str, int] = {}
            self.chunk_compute_s = 0.0
            self.wait_s = 0.0
            self._busy: dict[int, dict] = {}

        def on_map_started(self, task_name, n_items, n_chunks):
            with self._lock:
                self.map_calls += 1
                self.items[task_name] = self.items.get(task_name, 0) + n_items

        def on_chunk_finished(self, task_name, chunk_index, n_items, seconds):
            with self._lock:
                self.chunks += 1
                self.chunk_compute_s += seconds

        def chunk_trace_context(self, task_name):
            return {"trace": "perfbench", "parent": None}

        def on_chunk_spans(self, task_name, records):
            per_worker: dict = {}
            for record in records:
                worker = record["attrs"].get("pid")
                per_worker[worker] = per_worker.get(worker, 0.0) + record["dur"]
            self._busy[threading.get_ident()] = per_worker

        def on_map_finished(self, task_name, n_items, seconds):
            per_worker = self._busy.pop(threading.get_ident(), {})
            busiest = max(per_worker.values(), default=0.0)
            with self._lock:
                self.wait_s += max(0.0, seconds - busiest)

        def totals(self) -> dict:
            with self._lock:
                return {
                    "map_calls": self.map_calls,
                    "chunks": self.chunks,
                    "items": dict(self.items),
                    "chunk_compute_s": self.chunk_compute_s,
                    "wait_s": self.wait_s,
                }

    return ParallelObserver()


@dataclass
class Trace:
    """The merged trace of the benchmark process and its subprocesses."""

    stats: dict
    counters: dict
    parallel: dict

    @classmethod
    def merge(cls, documents: list[dict]) -> "Trace":
        stats: dict[str, list] = {}
        counters: dict[str, int] = {}
        parallel: dict = {"items": {}}
        for document in documents:
            for name, values in document["stats"].items():
                into = stats.setdefault(name, [0, 0.0, 0.0, 0])
                for position, value in enumerate(values):
                    into[position] += value
            for name, value in document["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in document["parallel"].items():
                if name == "items":
                    for task, n in value.items():
                        parallel["items"][task] = parallel["items"].get(task, 0) + n
                else:
                    parallel[name] = parallel.get(name, 0) + value
        return cls(stats, counters, parallel)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def work(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0, 0])[3]

    def ratio(self, hits: str, *others: str) -> float:
        """``hits / (hits + others)`` over kernel counters (0 if none)."""
        numerator = self.counters.get(hits, 0)
        denominator = numerator + sum(self.counters.get(o, 0) for o in others)
        return numerator / denominator if denominator else 0.0


#: Per-layer metric name -> unit.  :func:`layer_values` fills in what the
#: merged trace determines; the workloads add ``pipeline.stage_*``,
#: ``newdetect.detections_loaded_ratio`` and the client-side ``serve.*``
#: values (from run documents and client timings) and ``trace.*``.
LAYER_UNITS = {
    "synthesis.build_world_s": "s",
    "corpus.ingest_calls": "count",
    "corpus.ingest_s": "s",
    "corpus.get_calls": "count",
    "corpus.get_s": "s",
    "matching.calls": "count",
    "matching.busy_s": "s",
    "matching.tables_computed": "count",
    "clustering.busy_s": "s",
    "clustering.records": "count",
    "clustering.block_cache_hit_ratio": "ratio",
    "fusion.busy_s": "s",
    "fusion.entities": "count",
    "newdetect.busy_s": "s",
    "newdetect.entities": "count",
    "newdetect.detections_loaded_ratio": "ratio",
    "text.label_similarity_calls": "count",
    "text.label_similarity_s": "s",
    "text.monge_elkan_memo_calls": "count",
    "text.monge_elkan_memo_s": "s",
    "text.pair_memo_hit_ratio": "ratio",
    "index.search_calls": "count",
    "index.search_s": "s",
    "index.similar_tokens_calls": "count",
    "index.similar_tokens_s": "s",
    "index.norm_memo_hit_ratio": "ratio",
    "parallel.map_calls": "count",
    "parallel.chunks": "count",
    "parallel.chunk_compute_s": "s",
    "parallel.wait_s": "s",
    "pipeline.orchestration_s": "s",
    "pipeline.artifact_get_calls": "count",
    "pipeline.artifact_get_s": "s",
    "pipeline.artifact_put_calls": "count",
    "pipeline.artifact_put_s": "s",
    "pipeline.artifact_hit_ratio": "ratio",
    "pipeline.fingerprint_s": "s",
    "pipeline.stage_hits": "count",
    "pipeline.stage_misses": "count",
    "serve.handler_s.list_entities": "s",
    "serve.handler_s.get_entity": "s",
    "serve.handler_s.list_facts": "s",
    "serve.http_ms": "ms",
    "serve.read_p50_ms": "ms",
    "serve.read_p99_ms": "ms",
    "serve.writer_wait_s": "s",
    "serve.run_s": "s",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_pct": "%",
}


def layer_values(trace: Trace) -> dict[str, float]:
    """Every per-layer value that the merged trace alone determines."""
    return {
        "synthesis.build_world_s": trace.self_s("synthesis.build_world"),
        "corpus.ingest_calls": trace.calls("corpus.ingest"),
        "corpus.ingest_s": trace.self_s("corpus.ingest"),
        "corpus.get_calls": trace.calls("corpus.get"),
        "corpus.get_s": trace.self_s("corpus.get"),
        "matching.calls": trace.calls("matching.match_corpus"),
        "matching.busy_s": trace.self_s("matching.match_corpus"),
        "matching.tables_computed": trace.parallel["items"].get(
            "schema_match/analyze", 0
        ),
        "clustering.busy_s": trace.self_s("clustering.cluster"),
        "clustering.records": trace.work("clustering.cluster"),
        "clustering.block_cache_hit_ratio": trace.ratio(
            "blocking.label_cache_hits", "blocking.label_searches"
        ),
        "fusion.busy_s": trace.self_s("fusion.create"),
        "fusion.entities": trace.work("fusion.create"),
        "newdetect.busy_s": trace.self_s("newdetect.detect"),
        "newdetect.entities": trace.work("newdetect.detect"),
        "text.label_similarity_calls": trace.calls("text.label_similarity"),
        "text.label_similarity_s": trace.self_s("text.label_similarity"),
        "text.monge_elkan_memo_calls": trace.calls("text.monge_elkan_memo"),
        "text.monge_elkan_memo_s": trace.self_s("text.monge_elkan_memo"),
        "text.pair_memo_hit_ratio": trace.ratio(
            "monge_elkan.pair_memo_hits", "monge_elkan.pair_memo_misses"
        ),
        "index.search_calls": trace.calls("index.search"),
        "index.search_s": trace.self_s("index.search"),
        "index.similar_tokens_calls": trace.calls("index.similar_tokens"),
        "index.similar_tokens_s": trace.self_s("index.similar_tokens"),
        "index.norm_memo_hit_ratio": trace.ratio(
            "label_index.norm_memo_hits", "label_index.norm_computed"
        ),
        "parallel.map_calls": trace.parallel.get("map_calls", 0),
        "parallel.chunks": trace.parallel.get("chunks", 0),
        "parallel.chunk_compute_s": trace.parallel.get("chunk_compute_s", 0.0),
        "parallel.wait_s": trace.parallel.get("wait_s", 0.0),
        "pipeline.orchestration_s": (
            trace.self_s("pipeline.run") + trace.self_s("pipeline.stage")
        ),
        "pipeline.artifact_get_calls": trace.calls("pipeline.artifact_get"),
        "pipeline.artifact_get_s": trace.self_s("pipeline.artifact_get"),
        "pipeline.artifact_put_calls": trace.calls("pipeline.artifact_put"),
        "pipeline.artifact_put_s": trace.self_s("pipeline.artifact_put"),
        "pipeline.artifact_hit_ratio": (
            trace.work("pipeline.artifact_get")
            / trace.calls("pipeline.artifact_get")
            if trace.calls("pipeline.artifact_get")
            else 0.0
        ),
        "pipeline.fingerprint_s": trace.self_s("pipeline.fingerprint"),
        "serve.handler_s.list_entities": trace.self_s("serve.list_entities"),
        "serve.handler_s.get_entity": trace.self_s("serve.get_entity"),
        "serve.handler_s.list_facts": trace.self_s("serve.list_facts"),
    }
