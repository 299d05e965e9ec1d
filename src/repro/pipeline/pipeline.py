"""The two-iteration long-tail extraction pipeline (Figure 1).

:class:`LongTailPipeline` is a generic stage driver: each iteration runs
a sequence of :class:`~repro.pipeline.stages.PipelineStage` objects over
a shared :class:`~repro.pipeline.stages.PipelineState`, and the duplicate
feedback of Figure 1 (clusters + correspondences back into the schema
matchers) flows through that state between iterations.  The default
sequence is the paper's four components; pass ``stages=`` to substitute
or skip any of them, and ``observers=`` to instrument per-stage timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.clustering.metrics import ROW_METRIC_NAMES
from repro.fusion.scoring import SCORER_NAMES
from repro.kb.knowledge_base import KnowledgeBase
from repro.matching.matchers import DuplicateEvidence
from repro.matching.schema_matcher import SchemaMatcherModels
from repro.ml.aggregation import ScoreAggregator, StaticWeightedAggregator
from repro.newdetect.detector import DetectionResult
from repro.newdetect.metrics import ENTITY_METRIC_NAMES
from repro.parallel import (
    EXECUTOR_NAMES,
    ExecutorObserver,
    default_executor_name,
    default_worker_count,
    make_executor,
)
from repro.pipeline.result import IterationArtifacts, PipelineResult
from repro.pipeline.stages import (
    STAGES,
    PipelineObserver,
    PipelineStage,
    PipelineState,
)
from repro.text.monge_elkan import token_memo_scope
from repro.webtables.corpus import TableCorpus
from repro.webtables.table import RowId

#: Fallback metric weights when the pipeline runs untrained.
_DEFAULT_ROW_WEIGHTS = {
    "LABEL": 0.40, "BOW": 0.18, "PHI": 0.05, "ATTRIBUTE": 0.20,
    "IMPLICIT_ATT": 0.12, "SAME_TABLE": 0.05,
}
_DEFAULT_ENTITY_WEIGHTS = {
    "LABEL": 0.35, "TYPE": 0.15, "BOW": 0.15, "ATTRIBUTE": 0.20,
    "IMPLICIT_ATT": 0.10, "POPULARITY": 0.05,
}


@dataclass
class PipelineConfig:
    """Knobs of the pipeline (defaults follow the paper's best setup).

    Invalid knob combinations fail fast at construction time with a
    :class:`ValueError` instead of deep inside a stage.
    """

    iterations: int = 2
    row_metric_names: tuple[str, ...] = ROW_METRIC_NAMES
    entity_metric_names: tuple[str, ...] = ENTITY_METRIC_NAMES
    fusion_scoring: str = "voting"
    batch_size: int = 32
    use_klj: bool = True
    use_blocking: bool = True
    candidate_limit: int = 10
    seed: int = 0
    #: Post-clustering deduplication of new entities — the extension the
    #: paper suggests in Section 5 against over-segmentation (off by
    #: default, matching the published system).
    dedup_new_entities: bool = False
    #: Execution backend for the parallel hot paths: ``serial`` (the
    #: default — legacy results byte for byte), ``thread`` or
    #: ``process``.  Defaults honour ``REPRO_EXECUTOR``/``REPRO_WORKERS``
    #: so a test matrix can flip every run onto a pool via environment.
    executor: str = field(default_factory=default_executor_name)
    workers: int = field(default_factory=default_worker_count)
    #: Spool directory for the ``queue`` executor (``None`` defers to
    #: the session's corpus-store convention ``<store>/queue``, then to
    #: ``REPRO_QUEUE_DIR``).  Ignored by the in-process executors and —
    #: like ``executor``/``workers`` — excluded from the semantic config
    #: hash: where chunks run never changes what they compute.
    queue_dir: str | None = None
    #: Candidate-generation mode for label retrieval (blocking and
    #: table-to-class matching): ``exact`` scans every token-sharing
    #: label (the default — results byte for byte), ``fast`` routes
    #: through the char-ngram top-k recall layer (``repro.retrieval``)
    #: and reranks survivors with the exact kernels.  ``fast`` is
    #: refused unless the committed ``BENCH_retrieval.json`` proves the
    #: measured recall floor (see ``repro.retrieval.gate``).
    candidate_mode: str = "exact"
    #: Fault-injection spec armed for the duration of a run (see
    #: :mod:`repro.faults` for the grammar, e.g.
    #: ``"artifacts.put:raise@2"``).  ``None`` (the default) injects
    #: nothing.  Like ``executor``/``workers``/``queue_dir`` this is
    #: excluded from the semantic config hash: faults change whether a
    #: run *survives*, never what a surviving run computes.
    faults: str | None = None

    def __post_init__(self) -> None:
        # Defensive copies: callers may hand in lists, and shared mutable
        # metric-name sequences must not leak between config instances.
        self.row_metric_names = tuple(self.row_metric_names)
        self.entity_metric_names = tuple(self.entity_metric_names)
        if self.iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.fusion_scoring.lower() not in SCORER_NAMES:
            known = ", ".join(SCORER_NAMES)
            raise ValueError(
                f"unknown fusion_scoring {self.fusion_scoring!r}; "
                f"expected one of: {known}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.candidate_limit < 1:
            raise ValueError(
                f"candidate_limit must be >= 1, got {self.candidate_limit}"
            )
        self.executor = self.executor.strip().lower()
        if self.executor not in EXECUTOR_NAMES:
            known = ", ".join(EXECUTOR_NAMES)
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of: {known}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_dir is not None:
            self.queue_dir = str(self.queue_dir)
        self.candidate_mode = self.candidate_mode.strip().lower()
        from repro.index.label_index import CANDIDATE_MODES

        if self.candidate_mode not in CANDIDATE_MODES:
            known = ", ".join(CANDIDATE_MODES)
            raise ValueError(
                f"unknown candidate_mode {self.candidate_mode!r}; "
                f"expected one of: {known}"
            )
        if self.candidate_mode == "fast":
            from repro.retrieval.gate import ensure_fast_mode_allowed

            ensure_fast_mode_allowed()
        if self.faults is not None:
            self.faults = str(self.faults).strip() or None
        if self.faults is not None:
            from repro import faults as _faults

            # Validate eagerly: a typo'd injection point or action must
            # fail at construction, not silently never fire mid-run.
            _faults.parse_spec(self.faults)


@dataclass
class PipelineModels:
    """Fitted models the pipeline runs with (see pipeline.training)."""

    schema_models: SchemaMatcherModels = field(default_factory=SchemaMatcherModels)
    row_aggregator: ScoreAggregator | None = None
    entity_aggregator: ScoreAggregator | None = None
    new_threshold: float = 0.0
    existing_threshold: float = 0.0


class LongTailPipeline:
    """Schema matching → row clustering → entity creation → new detection,
    iterated twice with feedback into the schema mapping."""

    def __init__(
        self,
        kb: KnowledgeBase,
        config: PipelineConfig | None = None,
        models: PipelineModels | None = None,
    ) -> None:
        self.kb = kb
        self.config = config or PipelineConfig()
        self.models = models or PipelineModels()

    @classmethod
    def default(
        cls, kb: KnowledgeBase, config: PipelineConfig | None = None
    ) -> "LongTailPipeline":
        """An untrained pipeline with sensible static metric weights."""
        config = config or PipelineConfig()
        models = PipelineModels(
            row_aggregator=StaticWeightedAggregator(
                {
                    name: _DEFAULT_ROW_WEIGHTS[name]
                    for name in config.row_metric_names
                },
                threshold=0.60,
            ),
            entity_aggregator=StaticWeightedAggregator(
                {
                    name: _DEFAULT_ENTITY_WEIGHTS[name]
                    for name in config.entity_metric_names
                },
                threshold=0.60,
            ),
        )
        return cls(kb, config, models)

    # ------------------------------------------------------------------
    def run(
        self,
        corpus: TableCorpus,
        class_name: str,
        table_ids: list[str] | None = None,
        row_ids: set[RowId] | None = None,
        known_classes: dict[str, str] | None = None,
        *,
        stages: list[PipelineStage | str] | None = None,
        observers: list[PipelineObserver] | tuple[PipelineObserver, ...] = (),
        incremental=None,
        kernels=None,
    ) -> PipelineResult:
        """Run the full pipeline for one class.

        ``table_ids`` restricts schema matching to a table subset;
        ``row_ids`` restricts clustering to specific rows (gold standard
        experiments); ``known_classes`` bypasses table-to-class matching.
        ``stages`` substitutes the stage sequence (names resolved against
        :data:`~repro.pipeline.stages.STAGES`, instances used as-is);
        ``observers`` receive per-stage progress and timing events.
        ``incremental`` (an
        :class:`~repro.pipeline.artifacts.IncrementalBackend`) makes the
        default stages serve per-table and per-entity artifacts from a
        persistent store — the results are byte-identical either way.
        ``kernels`` (a :class:`repro.perf.KernelCache`) shares the
        caller's kernel memos with the run: its ``token_sim`` serves
        every label similarity computed while the run executes.  By
        default each run gets a fresh cache so its two iterations at
        least share token-pair similarities.  Kernel memos never change
        results, only speed.

        Failures in work dispatched through the executor surface as
        :class:`~repro.parallel.ExecutorError` naming the task, chunk
        and originating items — for every backend, including the default
        serial one.  Work that never routes through the executor keeps
        its original exception types: direct component calls outside the
        pipeline, and the clustering stage's lazily scored pairs (its
        block-local precompute only runs under a pooled executor).
        """
        if self.models.row_aggregator is None or self.models.entity_aggregator is None:
            raise RuntimeError(
                "pipeline has no fitted aggregators; use LongTailPipeline.default "
                "or train models via repro.pipeline.training.train_models"
            )
        if kernels is None:
            from repro.perf.kernels import KernelCache

            kernels = KernelCache()
        stage_list = STAGES.resolve(stages)
        executor = make_executor(
            self.config.executor,
            self.config.workers,
            observers=[
                observer
                for observer in observers
                if isinstance(observer, ExecutorObserver)
            ],
            queue_dir=self.config.queue_dir,
        )
        state = PipelineState(
            kb=self.kb,
            corpus=corpus,
            class_name=class_name,
            config=self.config,
            models=self.models,
            table_ids=table_ids,
            row_ids=row_ids,
            known_classes=known_classes,
            executor=executor,
            incremental=incremental,
            kernels=kernels,
        )
        result = PipelineResult(class_name=class_name)
        for observer in observers:
            observer.on_run_started(class_name, self.config)
        # Every label similarity of this run, in its stages and in the
        # final dedup, goes through the caller's token-pair memo.
        with token_memo_scope(kernels.token_sim):
            try:
                for iteration in range(1, self.config.iterations + 1):
                    state.iteration = iteration
                    for observer in observers:
                        observer.on_iteration_started(class_name, iteration)
                    for stage in stage_list:
                        for observer in observers:
                            observer.on_stage_started(
                                class_name, iteration, stage.name
                            )
                        started = time.perf_counter()
                        state = stage.run(state)
                        elapsed = time.perf_counter() - started
                        for observer in observers:
                            observer.on_stage_finished(
                                class_name, iteration, stage.name, elapsed
                            )
                    artifacts = state.artifacts()
                    result.iterations.append(artifacts)
                    state.evidence = self._build_evidence(artifacts)
                    for observer in observers:
                        observer.on_iteration_finished(class_name, iteration)
            finally:
                executor.close()
            if self.config.dedup_new_entities:
                self._dedup_final(result)
        for observer in observers:
            observer.on_run_finished(result)
        return result

    def _dedup_final(self, result: PipelineResult) -> None:
        """Merge near-duplicate new entities in the final iteration."""
        from repro.newdetect.detector import Classification
        from repro.pipeline.dedup import deduplicate_entities

        final = result.final
        detection = final.detection
        new_ids = {
            entity_id
            for entity_id, classification in detection.classifications.items()
            if classification is Classification.NEW
        }
        new_entities = [
            entity for entity in final.entities if entity.entity_id in new_ids
        ]
        others = [
            entity for entity in final.entities if entity.entity_id not in new_ids
        ]
        merged = deduplicate_entities(new_entities, self.kb, result.class_name)
        final.entities = others + merged.entities
        kept = {entity.entity_id for entity in merged.entities}
        for entity_id in new_ids - kept:
            detection.classifications.pop(entity_id, None)
            detection.best_scores.pop(entity_id, None)

    @staticmethod
    def _build_evidence(artifacts: IterationArtifacts) -> DuplicateEvidence:
        """Feedback for the next iteration's duplicate-based matchers."""
        return build_duplicate_evidence(artifacts.entities, artifacts.detection)


def build_duplicate_evidence(entities, detection: DetectionResult) -> DuplicateEvidence:
    """Duplicate-matcher evidence from entity-creation + detection output."""
    evidence = DuplicateEvidence()
    for entity in entities:
        uri = detection.correspondences.get(entity.entity_id)
        for record in entity.rows:
            evidence.cluster_of_row[record.row_id] = entity.entity_id
            if uri is not None:
                evidence.row_instance[record.row_id] = uri
            for property_name, value in record.values.items():
                evidence.cluster_values.setdefault(
                    (entity.entity_id, property_name), []
                ).append((value, record.table_id))
    return evidence
