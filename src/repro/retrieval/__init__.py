"""Columnar corpus retrieval: the open-context front door of the system.

The paper's pipeline assumes the supporting paragraph is *given*; every
real serving scenario starts one step earlier.  This package finds the
context: a columnar inverted index (:mod:`~repro.retrieval.index`) built
in parallel on the engine executors, vectorized BM25/TF-IDF ranking
(:mod:`~repro.retrieval.bm25`) sharing its term-weighting formulas
(:mod:`~repro.retrieval.weighting`) with the QA layer's TF-IDF scorer,
versioned JSON persistence (:mod:`~repro.retrieval.store`) so indexes
build once and load warm, durable live ingestion
(:mod:`~repro.retrieval.wal`, :mod:`~repro.retrieval.mutable`,
:mod:`~repro.retrieval.ingest`), and the :class:`CorpusRetriever` facade
the pipeline stage, service, and CLI consume.  Every search runs inline
over the one (possibly mutable) index; when the retrieval breaker is
open or a search fails, :class:`RetrievalUnavailableError` is raised —
there is no reduced-recall fallback path.
"""

from repro.retrieval.bm25 import (
    BM25Scorer,
    RankingScorer,
    TfidfScorer,
    make_scorer,
)
from repro.retrieval.index import InvertedIndex
from repro.retrieval.ingest import IngestManager
from repro.retrieval.mutable import MutableInvertedIndex
from repro.retrieval.retriever import (
    CorpusRetriever,
    RetrievalUnavailableError,
    RetrievedParagraph,
)
from repro.retrieval.store import (
    INDEX_FORMAT,
    INDEX_VERSION,
    SEGMENT_VERSION,
    Segment,
    index_to_json,
    load_index,
    load_segment,
    save_index,
    save_segment,
    segment_to_json,
)
from repro.retrieval.wal import WalRecord, WriteAheadLog
from repro.retrieval.weighting import (
    bm25_idf,
    bm25_tf,
    idf_table,
    log_tf,
    smoothed_idf,
    unseen_idf,
)

__all__ = [
    "BM25Scorer",
    "CorpusRetriever",
    "INDEX_FORMAT",
    "INDEX_VERSION",
    "IngestManager",
    "InvertedIndex",
    "MutableInvertedIndex",
    "RankingScorer",
    "RetrievalUnavailableError",
    "RetrievedParagraph",
    "SEGMENT_VERSION",
    "Segment",
    "TfidfScorer",
    "WalRecord",
    "WriteAheadLog",
    "bm25_idf",
    "bm25_tf",
    "idf_table",
    "index_to_json",
    "load_index",
    "log_tf",
    "load_segment",
    "make_scorer",
    "save_index",
    "save_segment",
    "segment_to_json",
    "smoothed_idf",
    "unseen_idf",
]
