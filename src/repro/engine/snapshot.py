"""Read-only pipeline snapshot plane for multi-process scaling.

Process-pool workers need the parent's bulky read-only tables — the
trigram LM counts and the retrieval postings — and pickling a copy of
them into every worker's initializer payload duplicates both the
transfer and the memory N ways.  A :class:`PipelineSnapshot` serializes
those tables *once* in the parent as named byte sections, places them
in a single :mod:`multiprocessing.shared_memory` segment (N workers map
one copy; pickled inline as a fallback when shared memory is
unavailable), and hands workers a small picklable
:class:`SnapshotHandle` through the pool initializer.  Worker caches
start empty: distillation is a pure function of the triple, so a cold
cache recomputes exactly what a warm one would have held.

Two cooperating pieces live here:

* **Externalized pickling** — :func:`dump_for_workers` pickles an object
  graph under a thread-local flag that snapshot-aware classes
  (:class:`~repro.lm.ngram.NGramLanguageModel`,
  :class:`~repro.retrieval.index.InvertedIndex`,
  :class:`~repro.utils.cache.LRUCache`) consult in ``__getstate__`` to
  drop their bulky tables from the payload; the LM and index state
  rides the shared segment instead and re-attaches on first use, and
  caches pickle empty.
* **The active-snapshot registry** — one process-global snapshot,
  installed by the worker initializer via :func:`activate`, that hollow
  objects read their sections back from
  (:func:`load_active_section`).

Everything here is stdlib-only and import-cycle safe: lower layers
(``utils``, ``lm``, ``retrieval``) import this module lazily inside
``__getstate__``/rehydration paths only.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import secrets
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.faults import fault_point

__all__ = [
    "PipelineSnapshot",
    "SnapshotHandle",
    "activate",
    "active",
    "deactivate",
    "dump_for_workers",
    "externalize_warm_state",
    "externalizing",
    "load_active_section",
]

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

# ------------------------------------------------------- externalized pickling

_EXTERNALIZE = threading.local()


@contextlib.contextmanager
def externalize_warm_state() -> Iterator[None]:
    """While active (per thread), snapshot-aware ``__getstate__`` methods
    drop their bulky tables from pickles: the LM and index leave hollow
    shells that rehydrate from the active snapshot, caches pickle empty.
    Re-entrant."""
    _EXTERNALIZE.depth = getattr(_EXTERNALIZE, "depth", 0) + 1
    try:
        yield
    finally:
        _EXTERNALIZE.depth -= 1


def externalizing() -> bool:
    """True while the calling thread is inside :func:`externalize_warm_state`."""
    return getattr(_EXTERNALIZE, "depth", 0) > 0


def dump_for_workers(obj: Any) -> bytes:
    """Pickle ``obj`` with warm state externalized (the worker payload).

    The result is deliberately compact — caches pickle empty, LM counts
    and index postings pickle hollow — because the bulky state travels
    once through the snapshot's shared segment instead of N times through
    initializer pickles.
    """
    with externalize_warm_state():
        return pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)


# ------------------------------------------------------------ snapshot plane


@dataclass(frozen=True)
class SnapshotHandle:
    """The picklable description workers need to attach a snapshot.

    Exactly one of ``shm_name`` (shared-memory segment holding the packed
    sections) or ``inline`` (the packed bytes themselves, the fallback
    transport) is set.
    """

    layout: tuple[tuple[str, int, int], ...]
    fingerprint: str
    nbytes: int
    shm_name: str | None = None
    inline: bytes | None = None
    meta: dict = field(default_factory=dict)
    generation: int = 0


class PipelineSnapshot:
    """Named read-only byte sections, packed once, mapped by N workers.

    Built parent-side from ``sections`` (name → packed bytes); workers
    re-open it from a :class:`SnapshotHandle` via :meth:`attach`.  The
    parent owns the shared-memory segment and must :meth:`close` with
    ``unlink=True`` when done (the batch distiller does this for the
    snapshots it builds); workers just :meth:`close`.
    """

    def __init__(
        self,
        sections: Mapping[str, bytes],
        fingerprint: str = "",
        meta: dict | None = None,
        use_shared_memory: bool = True,
        generation: int = 0,
    ) -> None:
        layout: list[tuple[str, int, int]] = []
        offset = 0
        for name, blob in sections.items():
            layout.append((name, offset, len(blob)))
            offset += len(blob)
        self.layout: tuple[tuple[str, int, int], ...] = tuple(layout)
        self.fingerprint = fingerprint
        self.meta = dict(meta or {})
        self.nbytes = offset
        # Monotonic refresh counter: a snapshot rebuilt over a changed
        # data plane (e.g. post-compaction) carries a higher generation,
        # letting live pools adopt it idempotently without a respawn.
        self.generation = int(generation)
        self._owner = True
        self._closed = False
        self._shm = None
        self._inline: bytes | None = None
        packed = b"".join(sections.values())
        if use_shared_memory and packed:
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(
                    create=True,
                    size=len(packed),
                    name=f"repro_snap_{secrets.token_hex(6)}",
                )
                shm.buf[: len(packed)] = packed
                self._shm = shm
                # The close() path unlinks on the happy path; this
                # registry catches coordinator death by signal, which
                # otherwise leaks the segment in /dev/shm.
                _register_owned(shm)
            except (OSError, ValueError):
                # No usable /dev/shm (restricted containers): ship the
                # packed bytes inline through the initializer pickle.
                self._inline = packed
        else:
            self._inline = packed

    # -------------------------------------------------------------- transport
    @property
    def shm_name(self) -> str | None:
        return self._shm.name if self._shm is not None else None

    @property
    def handle(self) -> SnapshotHandle:
        """A fresh picklable handle describing this snapshot."""
        return SnapshotHandle(
            layout=self.layout,
            fingerprint=self.fingerprint,
            nbytes=self.nbytes,
            shm_name=self.shm_name,
            inline=self._inline,
            meta=dict(self.meta),
            generation=self.generation,
        )

    @classmethod
    def attach(cls, handle: SnapshotHandle) -> "PipelineSnapshot":
        """Open a worker-side view of the snapshot a handle describes."""
        fault_point("snapshot.attach", detail=handle.shm_name or "inline")
        snapshot = cls.__new__(cls)
        snapshot.layout = handle.layout
        snapshot.fingerprint = handle.fingerprint
        snapshot.meta = dict(handle.meta)
        snapshot.nbytes = handle.nbytes
        snapshot.generation = handle.generation
        snapshot._owner = False
        snapshot._closed = False
        snapshot._shm = None
        snapshot._inline = handle.inline
        if handle.shm_name is not None:
            from multiprocessing import shared_memory

            snapshot._shm = shared_memory.SharedMemory(name=handle.shm_name)
        return snapshot

    # --------------------------------------------------------------- sections
    def section_names(self) -> tuple[str, ...]:
        return tuple(name for name, _offset, _length in self.layout)

    def section(self, name: str) -> bytes:
        """The packed bytes of one section (copied out of the segment)."""
        if self._closed:
            raise RuntimeError("snapshot is closed")
        for section_name, offset, length in self.layout:
            if section_name == name:
                if self._shm is not None:
                    return bytes(self._shm.buf[offset : offset + length])
                assert self._inline is not None
                return self._inline[offset : offset + length]
        raise KeyError(name)

    # --------------------------------------------------------------- lifetime
    def close(self, unlink: bool = False) -> None:
        """Release the segment mapping; owners pass ``unlink=True`` to
        remove the segment from the system.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        deactivate(self)
        shm, self._shm = self._shm, None
        if shm is not None:
            shm.close()
            if unlink and self._owner:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
                _discard_owned(shm.name)

    def __enter__(self) -> "PipelineSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(unlink=self._owner)


# ---------------------------------------------- owned-segment leak guard
#
# The normal lifecycle unlinks owned segments in close(); this registry
# covers the coordinator dying *by signal* (SIGTERM from an operator or
# supervisor, SIGHUP from a lost terminal), which skips finally blocks
# and would leave repro_snap_* segments pinned in /dev/shm.  The first
# owned segment installs an atexit hook plus chaining signal handlers
# that unlink everything still registered before re-delivering the
# signal.  SIGKILL is uncatchable by design — nothing in-process can
# cover it.
#
# Ownership is per-PID: fork-spawned pool workers inherit this module
# state (registry, handlers, atexit hooks), and a worker terminated
# with SIGTERM — exactly what ProcessPoolExecutor does when tearing
# down a broken pool — must NOT unlink the segment the coordinator is
# still serving from.  Cleanup runs only in the process that created
# the segment.

_OWNED: dict[str, Any] = {}
_OWNED_PID: int | None = None
_CLEANUP_LOCK = threading.Lock()
_CLEANUP_INSTALLED = False
_PREVIOUS_HANDLERS: dict[int, Any] = {}


def _unlink_owned_segments() -> None:
    """Unlink every still-registered owned segment (idempotent).

    A no-op in forked children: only the creating process owns the
    segments, even though children inherit a copy of the registry.
    """
    with _CLEANUP_LOCK:
        if _OWNED_PID != os.getpid():
            return
        owned = list(_OWNED.values())
        _OWNED.clear()
    for shm in owned:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def _handle_fatal_signal(signum, frame) -> None:
    _unlink_owned_segments()
    previous = _PREVIOUS_HANDLERS.get(signum)
    if callable(previous):
        previous(signum, frame)
    else:
        # Restore the default disposition and re-deliver, so the exit
        # status still says "killed by signal" to the supervisor.
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)


def _register_owned(shm) -> None:
    global _CLEANUP_INSTALLED, _OWNED_PID
    with _CLEANUP_LOCK:
        if _OWNED_PID != os.getpid():
            # First registration in this process — drop entries (and the
            # installed-flag) inherited across a fork: they belong to
            # the parent, which is still alive and serving from them.
            _OWNED.clear()
            _OWNED_PID = os.getpid()
            _CLEANUP_INSTALLED = False
        _OWNED[shm.name] = shm
        if _CLEANUP_INSTALLED:
            return
        _CLEANUP_INSTALLED = True
        atexit.register(_unlink_owned_segments)
        for signum in (signal.SIGTERM, signal.SIGHUP):
            try:
                _PREVIOUS_HANDLERS[signum] = signal.signal(
                    signum, _handle_fatal_signal
                )
            except (ValueError, OSError):
                # Not the main thread (or an exotic platform): atexit
                # still covers ordinary interpreter exits.
                pass


def _discard_owned(name: str) -> None:
    with _CLEANUP_LOCK:
        _OWNED.pop(name, None)


# ------------------------------------------------- active-snapshot registry

_ACTIVE: PipelineSnapshot | None = None


def activate(snapshot: PipelineSnapshot) -> None:
    """Install ``snapshot`` as this process's source for hollow objects."""
    global _ACTIVE
    _ACTIVE = snapshot


def active() -> PipelineSnapshot | None:
    return _ACTIVE


def deactivate(snapshot: PipelineSnapshot | None = None) -> None:
    """Remove the active snapshot (or only ``snapshot``, if it is active)."""
    global _ACTIVE
    if snapshot is None or snapshot is _ACTIVE:
        _ACTIVE = None


def load_active_section(name: str) -> bytes | None:
    """The named section of the active snapshot, or None if unavailable."""
    snapshot = _ACTIVE
    if snapshot is None:
        return None
    try:
        return snapshot.section(name)
    except (KeyError, RuntimeError):
        return None
