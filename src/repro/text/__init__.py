"""String processing substrate.

The paper's matchers and similarity metrics rely on a small set of string
primitives: cell cleaning and tokenization, Levenshtein distance, the
Monge-Elkan hybrid similarity (with Levenshtein as inner function, used for
both row labels and entity labels), and binary bag-of-words term vectors
compared by cosine similarity.
"""

from repro.text.tokenize import clean_cell, normalize_label, tokenize
from repro.text.levenshtein import (
    levenshtein,
    levenshtein_similarity,
    levenshtein_within,
)
from repro.text.monge_elkan import (
    label_similarity,
    label_tokens_similarity,
    monge_elkan,
    monge_elkan_symmetric,
    monge_elkan_symmetric_memo,
    token_memo_scope,
)
from repro.text.vectors import binary_cosine, jaccard, term_vector

__all__ = [
    "clean_cell",
    "normalize_label",
    "tokenize",
    "levenshtein",
    "levenshtein_similarity",
    "levenshtein_within",
    "monge_elkan",
    "monge_elkan_symmetric",
    "monge_elkan_symmetric_memo",
    "label_similarity",
    "label_tokens_similarity",
    "token_memo_scope",
    "binary_cosine",
    "jaccard",
    "term_vector",
]
