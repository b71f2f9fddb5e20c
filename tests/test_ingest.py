"""Durable live-corpus ingestion: WAL, mutable index, compaction, serving.

The load-bearing contracts, each pinned here:

* WAL replay is an identity over synced appends, and a torn tail (the
  crash landed mid-frame) truncates cleanly back to the last good record;
* the mutable delta-over-base index scores *byte-identically* to a clean
  from-scratch replay of the same operation log — live ingest never
  perturbs BM25 floats;
* segment persistence round-trips both envelope versions, and v1 files
  load byte-compatibly;
* SIGKILL at every ingestion fault site (``wal.append``,
  ``ingest.apply``, each ``compaction.run`` phase) leaves the directory
  recoverable: no acknowledged write is lost, tombstoned documents are
  never returned, and post-recovery results equal an independent offline
  rebuild (chaos-marked);
* a post-compaction snapshot refresh re-hydrates the existing process
  pool (same worker pids, bumped generation) without a respawn.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap

import pytest

from repro.faults import ENV_VAR
from repro.retrieval import (
    BM25Scorer,
    CorpusRetriever,
    IngestManager,
    InvertedIndex,
    MutableInvertedIndex,
    Segment,
    TfidfScorer,
    WalRecord,
    WriteAheadLog,
    load_index,
    load_segment,
    replay_directory,
    save_index,
    save_segment,
)

wal_replay = WriteAheadLog.replay

SEED = [
    "the battle of hastings was fought in 1066",
    "denver broncos won the super bowl title",
    "beyonce was born and raised in houston texas",
    "the norman conquest followed the battle of hastings",
]

QUERIES = [
    "battle of hastings",
    "super bowl title",
    "houston texas",
    "payload record",
    "token2",
    "token7",
]


def _assert_equivalent(index, reference) -> None:
    """Recovered and reference indexes must agree to the byte."""
    assert index.docs == reference.docs
    assert index.tombstones == reference.tombstones
    assert index.n_docs == reference.n_docs
    assert index.avg_doc_len == reference.avg_doc_len
    scorer = BM25Scorer()
    for query in QUERIES:
        assert scorer.score_all(index, query) == scorer.score_all(
            reference, query
        )
        assert scorer.top_k(index, query, 5) == scorer.top_k(
            reference, query, 5
        )


def _offline_rebuild(directory: pathlib.Path) -> MutableInvertedIndex:
    """Independent rebuild: segment base + WAL replay, no manager code."""
    segment = load_segment(directory / "segment.json")
    reference = MutableInvertedIndex(segment.index, segment.tombstones)
    records, _torn = replay_directory(directory / "wal")
    for record in records:
        if record.seq <= segment.applied_seq:
            continue
        if record.op == "add":
            reference.apply_add(record.doc_id, record.text)
        else:
            try:
                reference.apply_delete(record.doc_id)
            except KeyError:
                pass
    return reference


# ------------------------------------------------------------------- WAL
class TestWriteAheadLog:
    def test_append_sync_replay_roundtrip(self, tmp_path):
        path = tmp_path / "shard-0000.log"
        records = [
            WalRecord(seq=1, op="add", doc_id=4, text="alpha beta"),
            WalRecord(seq=2, op="delete", doc_id=4),
            WalRecord(seq=3, op="add", doc_id=5, text="gamma"),
        ]
        with WriteAheadLog(path) as wal:
            for record in records:
                wal.append(record)
            wal.sync()
        replayed, torn = wal_replay(path)
        assert replayed == records
        assert torn == 0

    def test_torn_tail_truncated_and_appendable(self, tmp_path):
        path = tmp_path / "shard-0000.log"
        with WriteAheadLog(path) as wal:
            wal.append(WalRecord(seq=1, op="add", doc_id=0, text="alpha"))
            wal.sync()
        good_size = path.stat().st_size
        # A crash mid-write leaves a partial frame: header promising more
        # payload than exists, plus garbage.
        with path.open("ab") as handle:
            handle.write(b"\x00\x00\xff\xff\x12\x34\x56\x78partial")
        replayed, torn = wal_replay(path)
        assert [record.seq for record in replayed] == [1]
        assert torn > 0
        assert path.stat().st_size == good_size
        # The truncated log accepts new appends and replays the union.
        with WriteAheadLog(path) as wal:
            wal.append(WalRecord(seq=2, op="add", doc_id=1, text="beta"))
            wal.sync()
        replayed, torn = wal_replay(path)
        assert [record.seq for record in replayed] == [1, 2]
        assert torn == 0

    def test_corrupt_crc_stops_replay_at_tear(self, tmp_path):
        path = tmp_path / "shard-0000.log"
        with WriteAheadLog(path) as wal:
            wal.append(WalRecord(seq=1, op="add", doc_id=0, text="alpha"))
            offset = wal.append(
                WalRecord(seq=2, op="add", doc_id=1, text="beta")
            )
            wal.sync()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        replayed, torn = wal_replay(path)
        assert [record.seq for record in replayed] == [1]
        assert torn > 0
        assert path.stat().st_size == offset

    def test_replay_directory_merges_by_seq(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        with WriteAheadLog(wal_dir / "shard-0001.log") as wal:
            wal.append(WalRecord(seq=2, op="add", doc_id=1, text="b"))
            wal.sync()
        with WriteAheadLog(wal_dir / "shard-0000.log") as wal:
            wal.append(WalRecord(seq=1, op="add", doc_id=0, text="a"))
            wal.append(WalRecord(seq=3, op="add", doc_id=2, text="c"))
            wal.sync()
        records, torn = replay_directory(wal_dir)
        assert [record.seq for record in records] == [1, 2, 3]
        assert torn == 0


# --------------------------------------------------------- mutable index
class TestMutableInvertedIndex:
    def test_matches_clean_replay_byte_identical(self):
        base = InvertedIndex.build(SEED, n_shards=2)
        live = MutableInvertedIndex(base)
        live.add("payload record zero token0")
        live.add("payload record one token1")
        live.apply_delete(1)
        live.add("payload record two token2")
        live.apply_delete(4)

        reference = MutableInvertedIndex(InvertedIndex.build(SEED, n_shards=2))
        reference.apply_add(4, "payload record zero token0")
        reference.apply_add(5, "payload record one token1")
        reference.apply_delete(1)
        reference.apply_add(6, "payload record two token2")
        reference.apply_delete(4)
        _assert_equivalent(live, reference)

    def test_tombstoned_doc_invisible_and_blank(self):
        live = MutableInvertedIndex(InvertedIndex.build(SEED, n_shards=2))
        live.apply_delete(0)
        assert live.doc_text(0) == ""
        assert 0 in live.tombstones
        scorer = BM25Scorer()
        hits = scorer.top_k(live, "battle of hastings", 4)
        assert 0 not in {doc_id for doc_id, _score in hits}
        assert live.n_docs == len(SEED) - 1

    def test_doc_ids_append_only(self):
        live = MutableInvertedIndex(InvertedIndex.build(SEED, n_shards=2))
        doc_id = live.add("payload")
        assert doc_id == len(SEED)
        with pytest.raises(ValueError):
            live.apply_add(doc_id, "reused id")
        live.apply_delete(doc_id)
        with pytest.raises(KeyError):
            live.apply_delete(doc_id)
        # Ids are never reused, even after a delete.
        assert live.add("another") == doc_id + 1

    def test_compacted_equals_folded_state(self):
        live = MutableInvertedIndex(InvertedIndex.build(SEED, n_shards=2))
        live.add("payload record zero token0")
        live.apply_delete(1)
        folded = live.compacted()
        rewrapped = MutableInvertedIndex(folded, live.tombstones)
        _assert_equivalent(live, rewrapped)


# ------------------------------------------------------------ store v1/v2
class TestSegmentStore:
    def test_segment_roundtrip_preserves_everything(self, tmp_path):
        base = InvertedIndex.build(SEED, n_shards=2)
        live = MutableInvertedIndex(base)
        live.add("payload record zero token0")
        live.apply_delete(1)
        segment = Segment(
            index=live.compacted(),
            tombstones=tuple(sorted(live.tombstones)),
            applied_seq=7,
            generation=3,
        )
        path = save_segment(segment, tmp_path / "segment.json")
        loaded = load_segment(path)
        assert loaded.applied_seq == 7
        assert loaded.generation == 3
        assert loaded.tombstones == segment.tombstones
        assert loaded.index.to_dict() == segment.index.to_dict()

    def test_v1_file_loads_as_defaulted_segment(self, tmp_path):
        index = InvertedIndex.build(SEED, n_shards=2)
        path = save_index(index, tmp_path / "index.json")
        raw = json.loads(path.read_text())
        assert raw["version"] == 1
        segment = load_segment(path)
        assert segment.tombstones == ()
        assert segment.applied_seq == 0
        assert segment.generation == 0
        assert segment.index.to_dict() == index.to_dict()
        # And the v1 loader still reads v2 envelopes (index only).
        v2_path = save_segment(Segment(index=index), tmp_path / "seg.json")
        assert load_index(v2_path).to_dict() == index.to_dict()

    def test_reloaded_segment_ranks_like_the_live_index(self, tmp_path):
        corpus = SEED + ["the houston battle payload was fought in texas"]
        with IngestManager.open(tmp_path, base_corpus=corpus) as manager:
            manager.add_documents(["payload record of the battle of texas"])
            manager.delete_document(0)
            manager.delete_document(2)
            manager.compact()
            live = manager.index
            reloaded = CorpusRetriever.load(tmp_path / "segment.json")
            assert reloaded.index.n_docs == live.n_docs == 4
            assert reloaded.index.avg_doc_len == live.avg_doc_len
            for scorer in (BM25Scorer(), TfidfScorer()):
                for query in QUERIES:
                    assert scorer.top_k(reloaded.index, query, 3) == (
                        scorer.top_k(live, query, 3)
                    )
            # The QA training corpus holds the live paragraphs only.
            assert reloaded.corpus == tuple(
                text for doc_id, text in enumerate(live.docs) if live.is_live(doc_id)
            )
            assert "" not in reloaded.corpus

    def test_v2_bytes_stable_across_save_load_save(self, tmp_path):
        index = InvertedIndex.build(SEED, n_shards=2)
        segment = Segment(index=index, tombstones=(1,), applied_seq=5)
        first = save_segment(segment, tmp_path / "a.json").read_bytes()
        second = save_segment(
            load_segment(tmp_path / "a.json"), tmp_path / "b.json"
        ).read_bytes()
        assert first == second


# --------------------------------------------------------- ingest manager
class TestIngestManager:
    def test_reopen_replays_to_identical_state(self, tmp_path):
        with IngestManager.open(tmp_path, base_corpus=SEED) as manager:
            ids = manager.add_documents(
                ["payload record zero token0", "payload record one token1"]
            )
            manager.delete_document(ids[0])
            live_docs = manager.index.docs
            live_scores = BM25Scorer().score_all(manager.index, "payload")
        with IngestManager.open(tmp_path) as reopened:
            assert reopened.index.docs == live_docs
            assert (
                BM25Scorer().score_all(reopened.index, "payload")
                == live_scores
            )
            assert reopened.stats()["replayed_records"] == 3
            _assert_equivalent(reopened.index, _offline_rebuild(tmp_path))

    def test_compaction_folds_wal_and_survives_reopen(self, tmp_path):
        with IngestManager.open(tmp_path, base_corpus=SEED) as manager:
            ids = manager.add_documents(["payload record zero token0"])
            manager.delete_document(ids[0])
            assert manager.wal_bytes() > 0
            report = manager.compact()
            assert report["generation"] == 1
            assert manager.wal_bytes() == 0
            docs = manager.index.docs
        with IngestManager.open(tmp_path) as reopened:
            assert reopened.generation == 1
            assert reopened.stats()["replayed_records"] == 0
            assert reopened.index.docs == docs

    def test_compact_every_triggers_automatically(self, tmp_path):
        with IngestManager.open(
            tmp_path, base_corpus=SEED, compact_every=2
        ) as manager:
            manager.add_documents(["payload record zero token0"])
            assert manager.generation == 0
            manager.add_documents(["payload record one token1"])
            assert manager.generation == 1
            assert manager.wal_bytes() == 0

    def test_on_compact_hook_fires_with_generation(self, tmp_path):
        generations: list[int] = []
        with IngestManager.open(
            tmp_path, base_corpus=SEED, on_compact=generations.append
        ) as manager:
            manager.add_documents(["payload record zero token0"])
            manager.compact()
            manager.compact()
        assert generations == [1, 2]

    def test_acked_writes_are_on_disk_before_return(self, tmp_path):
        with IngestManager.open(tmp_path, base_corpus=SEED) as manager:
            manager.add_documents(["payload record zero token0"])
            # Read the WAL directly, bypassing the manager: the record
            # must already be durable (fsynced) by the time add returned.
            records, torn = replay_directory(tmp_path / "wal")
        assert torn == 0
        assert [record.op for record in records] == ["add"]
        assert records[0].text == "payload record zero token0"

    def test_validates_inputs(self, tmp_path):
        with IngestManager.open(tmp_path, base_corpus=SEED) as manager:
            assert manager.add_documents([]) == []
            with pytest.raises(ValueError):
                manager.add_documents(["ok", "   "])
            with pytest.raises(KeyError):
                manager.delete_document(999)

    def test_replay_skips_records_behind_segment(self, tmp_path):
        """Crash between segment rename and WAL reset must be idempotent."""
        with IngestManager.open(tmp_path, base_corpus=SEED) as manager:
            manager.add_documents(["payload record zero token0"])
            docs = manager.index.docs
            segment = Segment(
                index=manager.index.compacted(),
                tombstones=tuple(sorted(manager.index.tombstones)),
                applied_seq=manager.applied_seq + 1,
                generation=manager.generation + 1,
            )
        # Simulate the torn compaction: new segment on disk, stale WAL.
        save_segment(segment, tmp_path / "segment.json")
        with IngestManager.open(tmp_path) as reopened:
            assert reopened.index.docs == docs
            assert reopened.stats()["replay_skipped"] == 1
            assert reopened.stats()["replayed_records"] == 0


# ------------------------------------------------- SIGKILL crash recovery
_CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.faults import install_from_env
    from repro.retrieval import IngestManager

    install_from_env()
    SEED = {seed!r}
    directory, mode = sys.argv[1], sys.argv[2]
    manager = IngestManager.open(directory, base_corpus=SEED)
    if mode == "ingest":
        for i in range(12):
            text = f"payload record {{i}} token{{i}}"
            ids = manager.add_documents([text])
            print(f"ACK add {{ids[0]}} {{text}}", flush=True)
    else:
        for i in range(4):
            text = f"payload record {{i}} token{{i}}"
            ids = manager.add_documents([text])
            print(f"ACK add {{ids[0]}} {{text}}", flush=True)
        manager.delete_document(len(SEED))
        print(f"ACK del {{len(SEED)}}", flush=True)
        manager.compact()
        print("ACK compact", flush=True)
    print("DONE", flush=True)
    """
).format(seed=SEED)


def _run_killed_child(tmp_path, mode: str, plan: str):
    """Run the ingest child under a die plan; return its ACK lines."""
    with tempfile.NamedTemporaryFile(delete=False) as handle:
        token = handle.name
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path), mode],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": "src", ENV_VAR: f"{plan},token={token}"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    lines = result.stdout.splitlines()
    assert "DONE" not in lines, (
        f"fault plan {plan!r} never fired: {result.stdout!r} "
        f"{result.stderr!r}"
    )
    assert result.returncode != 0
    acked_adds = {}
    acked_deletes = set()
    for line in lines:
        parts = line.split(" ", 3)
        if parts[:2] == ["ACK", "add"]:
            acked_adds[int(parts[2])] = parts[3]
        elif parts[:2] == ["ACK", "del"]:
            acked_deletes.add(int(parts[2]))
    return acked_adds, acked_deletes


def _verify_recovery(tmp_path, acked_adds, acked_deletes) -> None:
    with IngestManager.open(tmp_path) as manager:
        index = manager.index
        for doc_id, text in acked_adds.items():
            if doc_id in acked_deletes:
                continue
            assert index.doc_text(doc_id) == text, (
                f"acknowledged write {doc_id} lost"
            )
        scorer = BM25Scorer()
        for doc_id in acked_deletes:
            assert index.doc_text(doc_id) == ""
            assert doc_id in index.tombstones
        for query in QUERIES:
            hits = scorer.top_k(index, query, 50)
            assert not any(
                doc_id in index.tombstones for doc_id, _score in hits
            ), "tombstoned document returned from search"
        _assert_equivalent(index, _offline_rebuild(tmp_path))
        # Recovery is idempotent: a second rebuild from the same disk
        # state (post-truncation) lands on the same index.
        _assert_equivalent(index, _offline_rebuild(tmp_path))


@pytest.mark.chaos
class TestSigkillRecovery:
    @pytest.mark.parametrize(
        "plan",
        [
            "wal.append:die:times=1,skip=5",
            "ingest.apply:die:times=1,skip=3",
        ],
    )
    def test_kill_during_ingest(self, tmp_path, plan):
        acked_adds, acked_deletes = _run_killed_child(tmp_path, "ingest", plan)
        assert acked_adds, "child died before acknowledging any write"
        _verify_recovery(tmp_path, acked_adds, acked_deletes)

    @pytest.mark.parametrize("phase", ["begin", "swap", "reset"])
    def test_kill_during_compaction(self, tmp_path, phase):
        plan = f"compaction.run:die:times=1,match={phase}"
        acked_adds, acked_deletes = _run_killed_child(
            tmp_path, "compact", plan
        )
        assert len(acked_adds) == 4
        assert acked_deletes == {len(SEED)}
        _verify_recovery(tmp_path, acked_adds, acked_deletes)

    def test_torn_tail_after_kill_is_recoverable(self, tmp_path):
        """A kill plus a physically torn frame still recovers cleanly."""
        plan = "ingest.apply:die:times=1,skip=6"
        acked_adds, acked_deletes = _run_killed_child(tmp_path, "ingest", plan)
        # Physically tear the tail of one WAL shard on top of the crash.
        wal_files = sorted((tmp_path / "wal").glob("shard-*.log"))
        assert wal_files
        with wal_files[0].open("ab") as handle:
            handle.write(b"\x00\x00\x01\x00garbage-without-full-frame")
        with IngestManager.open(tmp_path) as manager:
            assert manager.stats()["torn_bytes"] > 0
        _verify_recovery(tmp_path, acked_adds, acked_deletes)


# --------------------------------------------------- service + HTTP plane
@pytest.fixture(scope="module")
def ingest_served(artifacts, tmp_path_factory):
    from repro import GCED
    from repro.service import (
        DistillService,
        ServiceClient,
        ServiceConfig,
        start_server,
    )

    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    directory = tmp_path_factory.mktemp("ingest-served")
    service = DistillService(
        gced,
        config=ServiceConfig(
            max_batch_size=4,
            max_wait_ms=10,
            ingest_dir=str(directory),
        ),
        retriever=CorpusRetriever.build(SEED, n_shards=2),
    )
    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield service, client
    server.shutdown()
    server.server_close()
    service.close()


class TestIngestHTTP:
    def test_ingest_and_delete_round_trip(self, ingest_served):
        service, client = ingest_served
        before = service.ingest.stats()["live_docs"]
        added = client.ingest(
            ["payload record alpha tokenalpha", "payload record beta tokenbeta"]
        )
        assert len(added["doc_ids"]) == 2
        assert added["live_docs"] == before + 2
        deleted = client.delete_doc(added["doc_ids"][0])
        assert deleted["deleted"] == added["doc_ids"][0]
        assert deleted["live_docs"] == before + 1
        # Retrieval serves the freshly ingested doc (never tombstoned).
        hits = service.retriever.retrieve("payload record tokenbeta", k=2)
        assert added["doc_ids"][1] in [hit.doc_id for hit in hits]

    def test_delete_unknown_doc_is_404(self, ingest_served):
        from repro.service import ServiceError

        _service, client = ingest_served
        with pytest.raises(ServiceError) as excinfo:
            client.delete_doc(999_999)
        assert excinfo.value.status == 404

    def test_ingest_rejects_bad_payloads_400(self, ingest_served):
        from repro.service import ServiceError

        _service, client = ingest_served
        for bad in ([], ["ok", 7], "not-a-list"):
            with pytest.raises(ServiceError) as excinfo:
                client.ingest(bad)
            assert excinfo.value.status == 400

    def test_stats_report_ingest_and_fleet_blocks(self, ingest_served):
        service, client = ingest_served
        stats = client.stats()
        assert stats["ingest"]["live_docs"] == (
            service.ingest.stats()["live_docs"]
        )
        assert stats["ingest"]["wal_bytes"] > 0
        # The shard fleet is retired: no block, searches run inline.
        assert "fleet" not in stats

    def test_metrics_expose_ingest_fleet_and_route_latency(
        self, ingest_served
    ):
        _service, client = ingest_served
        client.healthz()  # guarantee at least one observed GET route
        text = client.metrics_text()
        assert 'gced_ingest_docs_total{op="add"}' in text
        assert "gced_ingest_live_docs" in text
        assert "gced_ingest_wal_bytes" in text
        assert 'gced_http_request_seconds_bucket{route="/healthz",le="' in text
        # Retired with the fleet: per-shard families.
        assert "gced_shard" not in text

    def test_ingest_without_plane_is_503(self, artifacts, tmp_path):
        from repro import GCED
        from repro.service import (
            DistillService,
            ServiceClient,
            ServiceError,
            start_server,
        )

        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        service = DistillService(
            gced, retriever=CorpusRetriever.build(SEED, n_shards=2)
        )
        server, _thread = start_server(service, quiet=True)
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            with pytest.raises(ServiceError) as excinfo:
                client.ingest(["some document"])
            assert excinfo.value.status == 503
            with pytest.raises(ServiceError) as excinfo:
                client.delete_doc(0)
            assert excinfo.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_compact_every_bumps_generation_and_refreshes(
        self, artifacts, tmp_path
    ):
        from repro import GCED
        from repro.service import DistillService, ServiceConfig

        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with DistillService(
            gced,
            config=ServiceConfig(ingest_dir=str(tmp_path), compact_every=2),
            retriever=CorpusRetriever.build(SEED, n_shards=2),
        ) as service:
            service.ingest_dicts(["payload record zero token0"])
            assert service.stats()["ingest"]["generation"] == 0
            service.ingest_dicts(["payload record one token1"])
            stats = service.stats()
            assert stats["ingest"]["generation"] == 1
            assert stats["ingest"]["wal_bytes"] == 0
            # The retriever kept its (rebased-in-place) mutable index.
            hits = service.retriever.retrieve("payload token1", k=2)
            assert hits

    def test_reopened_service_replays_acked_writes(self, artifacts, tmp_path):
        from repro import GCED
        from repro.service import DistillService, ServiceConfig

        def make_service():
            gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
            return DistillService(
                gced,
                config=ServiceConfig(ingest_dir=str(tmp_path)),
                retriever=CorpusRetriever.build(SEED, n_shards=2),
            )

        with make_service() as service:
            added = service.ingest_dicts(["payload record zero token0"])
            doc_id = added["doc_ids"][0]
        with make_service() as reopened:
            assert reopened.ingest.index.doc_text(doc_id) == (
                "payload record zero token0"
            )
