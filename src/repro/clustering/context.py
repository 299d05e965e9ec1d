"""Shared per-run context for the row similarity metrics.

PHI vectors and implicit attributes are corpus-level artifacts computed
once per clustering run; this module builds them and wires up the metric
instances requested by name.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.clustering.implicit import ImplicitAttribute, derive_implicit_attributes
from repro.clustering.metrics import (
    ROW_METRIC_NAMES,
    AttributeMetric,
    BowMetric,
    ImplicitAttMetric,
    LabelMetric,
    PhiMetric,
    RowMetric,
    SameTableMetric,
)
from repro.clustering.phi import PhiVectorizer
from repro.datatypes.similarity import TypedSimilarity
from repro.kb.knowledge_base import KnowledgeBase
from repro.matching.records import RowRecord


@dataclass
class RowMetricContext:
    """Precomputed corpus-level inputs for the row metrics."""

    class_name: str
    similarities: dict[str, TypedSimilarity]
    phi: PhiVectorizer
    implicit_by_table: dict[str, dict[str, ImplicitAttribute]]

    @classmethod
    def build(
        cls,
        kb: KnowledgeBase,
        class_name: str,
        records: Sequence[RowRecord],
        candidate_limit: int = 3,
        implicit_threshold: float = 0.5,
    ) -> "RowMetricContext":
        """Build PHI vectors and implicit attributes for a record set."""
        similarities = {
            name: TypedSimilarity(prop.data_type, prop.tolerance)
            for name, prop in kb.schema.properties_of(class_name).items()
        }
        labels_by_table: dict[str, set[str]] = defaultdict(set)
        for record in records:
            labels_by_table[record.table_id].add(record.norm_label)
        phi = PhiVectorizer().fit(labels_by_table)
        implicit = derive_implicit_attributes(
            kb, class_name, records, candidate_limit, implicit_threshold
        )
        return cls(
            class_name=class_name,
            similarities=similarities,
            phi=phi,
            implicit_by_table=implicit,
        )


def make_row_metrics(
    names: Sequence[str], context: RowMetricContext
) -> list[RowMetric]:
    """Instantiate metrics by canonical name, in the given order."""
    factory = {
        "LABEL": lambda: LabelMetric(),
        "BOW": lambda: BowMetric(),
        "PHI": lambda: PhiMetric(context.phi),
        "ATTRIBUTE": lambda: AttributeMetric(context.similarities),
        "IMPLICIT_ATT": lambda: ImplicitAttMetric(context.implicit_by_table),
        "SAME_TABLE": lambda: SameTableMetric(),
    }
    metrics: list[RowMetric] = []
    for name in names:
        if name not in factory:
            raise KeyError(
                f"unknown row metric {name!r}; expected one of {ROW_METRIC_NAMES}"
            )
        metrics.append(factory[name]())
    return metrics
