"""Session-scoped kernel caches shared across pipeline runs.

The string kernels are pure functions of their *content* arguments, so
their memos may outlive a single pipeline run: a token-pair similarity
computed while clustering ``Song`` is equally valid for ``Settlement``,
for the next iteration, and even after the corpus changed.  What must
NOT outlive a corpus epoch are caches keyed by *identity* (row-id pairs:
a replaced table keeps its row ids but changes their content) — the
:class:`KernelCache` therefore tracks every row-pair cache it hands out
and clears them together with one call, which
:meth:`repro.api.RunSession._make_backend` invokes at the corpus-epoch
guard alongside its own stale-artifact drop.
"""

from __future__ import annotations

import weakref
from typing import TypeVar

#: Same shape as :data:`repro.text.monge_elkan.TokenPairMemo` — not
#: imported, because the kernels in :mod:`repro.text` bump the counters
#: of this package and the alias would close an import cycle.
TokenPairMemo = dict[tuple[str, str], float]

SimilarityT = TypeVar("SimilarityT")


class KernelCache:
    """The bundle of kernel memos one :class:`~repro.api.RunSession` owns.

    * ``token_sim`` — the canonical-pair Monge-Elkan inner memo every
      label similarity of the session's runs goes through
      (content-keyed, safe across runs and corpus epochs; cleared at the
      epoch guard anyway to bound memory).
    * a weak registry of the :class:`~repro.clustering.similarity.RowSimilarity`
      instances created through :meth:`register`, whose row-id-keyed pair
      caches are *identity*-keyed and must be dropped when the corpus
      mutates.
    """

    def __init__(self) -> None:
        self.token_sim: TokenPairMemo = {}
        self._similarities: "weakref.WeakSet" = weakref.WeakSet()

    def register(self, similarity: SimilarityT) -> SimilarityT:
        """Track a pair-scoring cache for the next :meth:`clear`."""
        self._similarities.add(similarity)
        return similarity

    def cache_info(self) -> dict[str, int]:
        """Sizes of everything this cache currently holds."""
        return {
            "token_pairs": len(self.token_sim),
            "similarities": len(self._similarities),
            "pair_scores": sum(
                similarity.cache_info()["entries"]
                for similarity in self._similarities
            ),
        }

    def clear(self) -> None:
        """Drop the token memo and every registered pair cache."""
        self.token_sim.clear()
        for similarity in self._similarities:
            similarity.clear()
