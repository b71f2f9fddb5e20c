"""Versioned on-disk persistence for the inverted index.

``repro index`` builds once and writes here; ``repro ask`` and the
service load warm.  Two envelope versions of the same format coexist:

* **version 1** — a plain immutable index (the original format)::

      {"format": "gced-index", "version": 1, "index": {<canonical index>}}

* **version 2** — an ingestion *segment*: the compacted index plus the
  tombstoned doc ids (dead slots whose ids must never be reused) and
  segment metadata — the WAL sequence number folded into the segment
  (``applied_seq``, which makes post-crash replay idempotent) and the
  compaction ``generation`` (how many compactions the segment has seen)::

      {"format": "gced-index", "version": 2, "index": {...},
       "tombstones": [...], "segment": {"applied_seq": N, "generation": G}}

Both payloads are serialized with sorted keys, so saving the same state
twice produces byte-identical files and save → load → save round trips
are identities on bytes (the property the tests pin down).  The loaders
accept *both* versions — a version-1 file loads as a segment with no
tombstones and no WAL history — and reject unknown versions loudly
rather than guessing.

:func:`save_segment` is the compaction swap primitive: write to a
temporary file in the same directory, fsync it, ``rename`` over the
target, fsync the directory.  A crash at any byte leaves either the old
segment or the new one — never a torn file.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

from repro.retrieval.index import InvertedIndex

__all__ = [
    "INDEX_FORMAT",
    "INDEX_VERSION",
    "SEGMENT_VERSION",
    "Segment",
    "index_to_json",
    "load_index",
    "load_segment",
    "save_index",
    "save_segment",
    "segment_to_json",
]

INDEX_FORMAT = "gced-index"
INDEX_VERSION = 1
SEGMENT_VERSION = 2
_SUPPORTED_VERSIONS = (INDEX_VERSION, SEGMENT_VERSION)


@dataclass(frozen=True)
class Segment:
    """One durable checkpoint of the ingestion state.

    Attributes:
        index: the compacted immutable index (tombstoned slots hold
            ``""`` and contribute no postings).
        tombstones: dead doc ids, kept so the id space stays append-only.
        applied_seq: every WAL record with ``seq <= applied_seq`` is
            already folded into ``index`` — replay skips them.
        generation: bumped by each compaction.
    """

    index: InvertedIndex
    tombstones: tuple[int, ...] = ()
    applied_seq: int = 0
    generation: int = 0
    meta: dict = field(default_factory=dict)


def index_to_json(index: InvertedIndex) -> str:
    """The canonical version-1 envelope (sorted keys, trailing newline)."""
    envelope = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "index": index.to_dict(),
    }
    return json.dumps(envelope, sort_keys=True) + "\n"


def segment_to_json(segment: Segment) -> str:
    """The canonical version-2 envelope (sorted keys, trailing newline)."""
    envelope = {
        "format": INDEX_FORMAT,
        "version": SEGMENT_VERSION,
        "index": segment.index.to_dict(),
        "tombstones": sorted(int(i) for i in segment.tombstones),
        "segment": {
            "applied_seq": int(segment.applied_seq),
            "generation": int(segment.generation),
            "meta": dict(sorted(segment.meta.items())),
        },
    }
    return json.dumps(envelope, sort_keys=True) + "\n"


def save_index(index: InvertedIndex, path: str | pathlib.Path) -> pathlib.Path:
    """Persist ``index`` as a version-1 file at ``path``."""
    path = pathlib.Path(path)
    path.write_text(index_to_json(index))
    return path


def save_segment(segment: Segment, path: str | pathlib.Path) -> pathlib.Path:
    """Atomically persist a version-2 segment at ``path``.

    Write-temp → fsync → rename → fsync-dir: readers (and a post-crash
    restart) see either the previous segment or this one, complete.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    data = segment_to_json(segment).encode("utf-8")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(tmp, path)
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: pathlib.Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_envelope(path: pathlib.Path) -> dict:
    envelope = json.loads(path.read_text())
    if not isinstance(envelope, dict) or envelope.get("format") != INDEX_FORMAT:
        raise ValueError(f"{path} is not a {INDEX_FORMAT} file")
    version = envelope.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"{path} has unsupported {INDEX_FORMAT} version {version!r}; "
            f"this build reads versions {list(_SUPPORTED_VERSIONS)}"
        )
    return envelope


def load_index(path: str | pathlib.Path) -> InvertedIndex:
    """Load the index from a version-1 *or* version-2 file.

    Version-2 segment state (tombstones, WAL position) is dropped — use
    :func:`load_segment` when it matters.
    """
    envelope = _read_envelope(pathlib.Path(path))
    return InvertedIndex.from_dict(envelope["index"])


def load_segment(path: str | pathlib.Path) -> Segment:
    """Load a segment from either envelope version.

    A version-1 file is a segment with no tombstones, no applied WAL
    history, and generation 0 — the seed state of an ingest directory
    bootstrapped from a plain index file.
    """
    envelope = _read_envelope(pathlib.Path(path))
    index = InvertedIndex.from_dict(envelope["index"])
    if envelope["version"] == INDEX_VERSION:
        return Segment(index=index)
    state = envelope.get("segment", {})
    return Segment(
        index=index,
        tombstones=tuple(int(i) for i in envelope.get("tombstones", ())),
        applied_seq=int(state.get("applied_seq", 0)),
        generation=int(state.get("generation", 0)),
        meta=dict(state.get("meta", {})),
    )
