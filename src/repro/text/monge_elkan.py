"""Monge-Elkan hybrid string similarity.

The paper uses Monge-Elkan with Levenshtein as the inner similarity for both
the row-level LABEL metric (Section 3.2) and the entity-to-instance LABEL
metric (Section 3.4).  Monge-Elkan aligns each token of one string with its
best-matching token of the other and averages those best scores, which makes
it robust to token reordering ("John Smith" vs "Smith, John") and to extra
qualifier tokens.

Every production caller goes through :func:`label_similarity` (or
:func:`label_tokens_similarity` for pre-tokenized labels), which computes
the score with :func:`monge_elkan_symmetric_memo` over a token-pair memo.
:func:`monge_elkan` and :func:`monge_elkan_symmetric` are the plain
reference the tests and the kernel benchmark compare against.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

from repro.perf.counters import bump
from repro.text.levenshtein import levenshtein_similarity
from repro.text.tokenize import tokenize

InnerSimilarity = Callable[[str, str], float]

#: A shared token-pair similarity memo: canonical ``(min, max)`` token
#: pair → inner similarity.  Levenshtein similarity is symmetric and
#: pure, so one entry serves both directions, every row pair of a run,
#: and every metric that compares the same two tokens.
TokenPairMemo = dict[tuple[str, str], float]

#: Most token pairs the process-default memo holds.  A call that would
#: overflow it empties it first; the memo only saves work, so a cold
#: restart changes no score.  The check is per call and unlocked, so
#: threads scoring concurrently outside a run may overshoot it by the
#: pairs they have in flight.
DEFAULT_MEMO_CAP = 50_000

#: The memo label similarities use outside any pipeline run (world
#: synthesis, a standalone :class:`~repro.datatypes.TypedSimilarity`).
_DEFAULT_MEMO: TokenPairMemo = {}

#: The memo of the run executing in this context, if any — the owning
#: session's :attr:`repro.perf.KernelCache.token_sim`, set through
#: :func:`token_memo_scope`.
_RUN_MEMO: ContextVar[TokenPairMemo | None] = ContextVar(
    "repro_token_memo", default=None
)


def monge_elkan(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    inner: InnerSimilarity = levenshtein_similarity,
) -> float:
    """One-directional Monge-Elkan score from ``tokens_a`` to ``tokens_b``.

    For every token in ``tokens_a`` the best inner similarity against any
    token of ``tokens_b`` is taken; the result is the mean of those maxima.
    Empty token lists yield 0.0 (nothing to align).
    """
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(inner(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)


def monge_elkan_symmetric(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    inner: InnerSimilarity = levenshtein_similarity,
) -> float:
    """Symmetrized Monge-Elkan: mean of both directions.

    The raw measure is asymmetric (a subset of tokens scores 1.0 against a
    superset); averaging both directions restores symmetry, which the
    clustering fitness function requires.
    """
    forward = monge_elkan(tokens_a, tokens_b, inner)
    backward = monge_elkan(tokens_b, tokens_a, inner)
    return (forward + backward) / 2.0


def monge_elkan_symmetric_memo(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    memo: TokenPairMemo,
    inner: InnerSimilarity = levenshtein_similarity,
) -> float:
    """:func:`monge_elkan_symmetric` through a shared token-pair memo.

    ``inner`` must be **symmetric** (``inner(a, b) == inner(b, a)``): the
    memo keys on the canonical sorted token pair and serves one value for
    both directions.  For any symmetric inner — in particular the default
    Levenshtein similarity — the result is bit-identical to the plain
    version (the hypothesis property in ``tests/test_text.py`` proves
    it), while computing each inner similarity at most once: the ``n×m`` pair matrix is filled a single
    time (the plain version evaluates it once per direction) and every
    entry is first looked up in ``memo`` — labels within a block share
    most of their tokens, so across the pairs of a clustering run the
    memo absorbs the overwhelming majority of inner calls.
    """
    if not tokens_a or not tokens_b:
        return 0.0
    hits = 0
    misses = 0
    best_b = [0.0] * len(tokens_b)
    first_row = True
    forward_total = 0.0
    for token_a in tokens_a:
        best_a = float("-inf")
        for position, token_b in enumerate(tokens_b):
            key = (
                (token_a, token_b)
                if token_a <= token_b
                else (token_b, token_a)
            )
            score = memo.get(key)
            if score is None:
                score = inner(token_a, token_b)
                memo[key] = score
                misses += 1
            else:
                hits += 1
            if score > best_a:
                best_a = score
            if first_row or score > best_b[position]:
                best_b[position] = score
        first_row = False
        forward_total += best_a
    forward = forward_total / len(tokens_a)
    backward = sum(best_b) / len(tokens_b)
    bump("monge_elkan.pair_memo_hits", hits)
    bump("monge_elkan.pair_memo_misses", misses)
    return (forward + backward) / 2.0


@contextmanager
def token_memo_scope(memo: TokenPairMemo) -> Iterator[None]:
    """Route every label similarity in this context through ``memo``.

    A pipeline run holds its session's token memo for its duration, so
    the memo's owner decides when it is cleared.  Threads started for
    the run see it only when their work is submitted through
    :func:`contextvars.copy_context`.
    """
    token = _RUN_MEMO.set(memo)
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def label_tokens_similarity(
    tokens_a: Sequence[str], tokens_b: Sequence[str]
) -> float:
    """:func:`label_similarity` of two already tokenized labels.

    Uses the memo of the enclosing :func:`token_memo_scope`, else the
    process-default memo, which is kept within :data:`DEFAULT_MEMO_CAP`.
    """
    memo = _RUN_MEMO.get()
    if memo is None:
        memo = _DEFAULT_MEMO
        needed = len(tokens_a) * len(tokens_b)
        if len(memo) + needed > DEFAULT_MEMO_CAP:
            memo.clear()
            if needed > DEFAULT_MEMO_CAP:
                memo = {}
    return monge_elkan_symmetric_memo(tokens_a, tokens_b, memo)


def label_similarity(label_a: str, label_b: str) -> float:
    """Similarity of two natural-language labels in [0, 1].

    Tokenizes both labels and applies symmetric Monge-Elkan with Levenshtein
    inner similarity — the exact configuration named in the paper — through
    the active token-pair memo (see :func:`label_tokens_similarity`).
    """
    return label_tokens_similarity(tokenize(label_a), tokenize(label_b))
