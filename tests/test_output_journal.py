"""The output journal: a cut costs what the round added.

A checkpoint holds the window-bounded operator state and *counts* what
each retaining sink holds; the items themselves are appended once to the
lane's output journal (``repro.asp.runtime.fault.{store,checkpoint}``).
This suite pins the cost (every match written once, whatever the number
of cuts), the equivalence (a lane restored from payload + journal is the
lane that never stopped — every engine, backend and round split), the
crash windows (append without save, torn tail, gap) and what the service
publishes and logs about it.
"""

import logging
import pickle
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.runtime import (
    DirectoryCheckpointStore,
    ExecutionSettings,
    InMemoryCheckpointStore,
    SerialBackend,
    open_lanes,
)
from repro.asp.runtime.backends.base import DEFAULT_BATCH_SIZE
from repro.asp.runtime.fault.chaos import canonical_match_bytes
from repro.asp.runtime.fault.checkpoint import capture_job_state, sink_outputs
from repro.asp.runtime.fault.store import pickle_payload, unpickle_payload
from repro.errors import ExecutionError
from repro.runtime.service import JobManager, ServiceConfig

from tests.test_round_protocol import (
    BACKENDS,
    ENGINES,
    KEY,
    build,
    full_log,
    no_retry,
    write_checkpoint,
)

CASE = "traffic-congestion"
EVENTS = full_log(CASE)

STORES = {
    "memory": lambda tmp_path: InMemoryCheckpointStore(),
    "directory": lambda tmp_path: DirectoryCheckpointStore(tmp_path / "lane"),
}
both_stores = pytest.mark.parametrize("store_kind", sorted(STORES))


def clean_bytes():
    query = build(CASE, EVENTS)
    query.execute()
    return canonical_match_bytes(query.matches())


class Rounds:
    """A query over a growing log, run round by round on lanes over one
    store; :meth:`reopen` is what a new process does — fresh lanes and
    coordinators over the same store, nothing live."""

    def __init__(self, store, backend=None, batch_size=1, interval=None):
        self.store = store
        self.backend = backend or SerialBackend()
        self.interval = interval
        self.log = []
        self.query = build(CASE, self.log)
        self.settings = ExecutionSettings(
            watermark_interval=self.query.plan.window_slide,
            checkpoint_interval=interval,
            batch_size=batch_size,
        )
        self.reopen()

    def reopen(self):
        if isinstance(self.store, DirectoryCheckpointStore):
            # A new store object too: a new writer, nothing remembered.
            self.store = DirectoryCheckpointStore(self.store.path)
        self.lanes = open_lanes(self.store, self.interval, None, self.backend.shards)

    def run(self, upto, terminal=False, backend=None):
        self.log.extend(EVENTS[len(self.log):upto])
        return (backend or self.backend).run_round(
            self.query.env.flow, self.settings, self.lanes, no_retry,
            terminal=terminal, cut=True,
        )

    def observed(self, result):
        """What a round leaves for the outside to see."""
        return (
            canonical_match_bytes(self.query.matches()),
            {n: list(kept) for n, kept in sink_outputs(self.query.env.flow).items()},
            [node.operator.count for node in self.query.env.flow.sink_nodes()],
            result.events_in,
            result.items_out,
            [lane.store.latest().offset for lane in self.lanes],
        )

    def bytes_written(self):
        return sum(lane.coordinator.bytes_total for lane in self.lanes)

    def cuts(self):
        return sum(lane.coordinator.count for lane in self.lanes)


def boundaries(k):
    return [len(EVENTS) * (index + 1) // k for index in range(k)]


def window_state_bytes(job):
    """Pickled size of what a cut must hold whatever the stream's length:
    operator state and watermark progress, without the sinks."""
    sinks = {node.node_id for node in job.flow.sink_nodes()}
    state = capture_job_state(job)
    del state["journalled"]
    state["operators"] = {
        node_id: snapshot
        for node_id, snapshot in state["operators"].items()
        if node_id not in sinks
    }
    return len(pickle_payload(state))


class TestAMatchIsWrittenOnce:
    @both_stores
    @pytest.mark.parametrize("batch_size", ENGINES)
    def test_k_cuts_cost_the_output_once_plus_k_bounded_states(
        self, tmp_path, store_kind, batch_size
    ):
        k = 16
        rounds = Rounds(STORES[store_kind](tmp_path), batch_size=batch_size)
        state_bound = 0
        for index, upto in enumerate(boundaries(k)):
            rounds.run(upto, terminal=index == k - 1)
            state_bound = max(state_bound, window_state_bytes(rounds.lanes[0].job))
        matches = rounds.query.matches()
        assert len(matches) > 50 and rounds.cuts() == k + 1
        # Each match at its stand-alone pickled size: an upper bound on
        # what writing it once can cost (records share no pickle memo).
        once = sum(len(pickle.dumps([match], pickle.HIGHEST_PROTOCOL)) for match in matches)
        # Per cut: the state, the sinks' counts, one record's framing.
        per_cut = state_bound + 256
        # (A whole-sink snapshot per cut wrote about k/2 times the output.)
        assert rounds.bytes_written() <= once + rounds.cuts() * per_cut
        assert rounds.store.output_bytes() <= once + k * 64
        for checkpoint in rounds.store.checkpoints():
            assert checkpoint.size_bytes <= per_cut

    def test_cadence_checkpoints_journal_their_suffix_too(self):
        store = InMemoryCheckpointStore()
        query = build(CASE, EVENTS)
        result = query.execute(checkpoint_interval=50, checkpoint_store=store)
        assert result.metrics["checkpoints"]["count"] == 1 + len(EVENTS) // 50
        starts = [start for _node, start, _items in store.read_output()]
        assert starts == sorted(set(starts)) and len(starts) > 3
        counted = unpickle_payload(store.latest().payload)["journalled"]
        assert list(counted.values()) == [
            sum(len(items) for _n, _s, items in store.read_output())
        ]


def engine_cases():
    for batch_size in ENGINES:
        for name in ("serial", "sharded-inline", "sharded-four-lanes"):
            yield pytest.param(name, batch_size, id=f"{name}-{batch_size}")


class TestRestoredFromTheJournalIsTheLaneThatNeverStopped:
    @pytest.mark.parametrize("backend_name, batch_size", engine_cases())
    @settings(max_examples=6, deadline=None)
    @given(
        splits=st.lists(
            st.integers(min_value=1, max_value=len(EVENTS) - 1),
            min_size=1, max_size=5, unique=True,
        ).map(sorted),
        reopen_before=st.sets(st.integers(min_value=1, max_value=5)),
    )
    def test_sinks_counters_and_the_next_round_agree(
        self, backend_name, batch_size, splits, reopen_before
    ):
        uninterrupted = Rounds(
            InMemoryCheckpointStore(), BACKENDS[backend_name](), batch_size
        )
        # A directory: an in-memory store's shard scopes are not reopenable.
        with tempfile.TemporaryDirectory() as scratch:
            restored = Rounds(
                DirectoryCheckpointStore(scratch), BACKENDS[backend_name](), batch_size
            )
            for index, upto in enumerate(splits + [len(EVENTS)]):
                if index in reopen_before:
                    restored.reopen()
                terminal = upto == len(EVENTS)
                want = uninterrupted.observed(uninterrupted.run(upto, terminal))
                got = restored.observed(restored.run(upto, terminal))
                assert got == want, (index, upto)
        assert want[0] == clean_bytes()


def stale_record(rounds):
    """What an attempt that died between its journal append and its
    checkpoint save leaves behind: a record past every saved count."""
    lane = rounds.lanes[0]
    (node_id, kept), = sink_outputs(rounds.query.env.flow).items()
    lane.store.append_output([(node_id, len(kept), ["left by a dead attempt"] * 3)])


def torn_tail(rounds):
    """An append a kill −9 cut short."""
    path = rounds.store.path / "output.journal"
    whole = path.read_bytes()
    path.write_bytes(whole + whole[: len(whole) // 3])


class TestCrashWindows:
    @both_stores
    def test_a_record_past_the_newest_checkpoint_is_replaced_by_the_replay(
        self, tmp_path, store_kind
    ):
        rounds = Rounds(STORES[store_kind](tmp_path))
        ends = boundaries(4)
        rounds.run(ends[0])
        rounds.run(ends[1])
        stale_record(rounds)
        for upto in ends[2:]:
            rounds.reopen()
            rounds.run(upto, terminal=upto == ends[-1])
        assert canonical_match_bytes(rounds.query.matches()) == clean_bytes()
        assert "left by a dead attempt" not in rounds.query.env.flow.sink_nodes()[0].operator.items

    def test_a_torn_tail_is_dropped_and_then_overwritten(self, tmp_path, caplog):
        rounds = Rounds(STORES["directory"](tmp_path))
        ends = boundaries(4)
        rounds.run(ends[0])
        rounds.run(ends[1])
        torn_tail(rounds)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            for upto in ends[2:]:
                rounds.reopen()
                rounds.run(upto, terminal=upto == ends[-1])
        assert canonical_match_bytes(rounds.query.matches()) == clean_bytes()
        assert sum("torn journal tail" in r.getMessage() for r in caplog.records) == 2
        # Dropped when read, cut off by the append that followed: the
        # journal is whole records again.
        records = rounds.store.read_output()
        assert sum(len(items) for _n, _s, items in records) == len(rounds.query.matches())

    def test_dying_between_the_append_and_the_save(self, tmp_path):
        rounds = Rounds(STORES["directory"](tmp_path))
        ends = boundaries(4)
        rounds.run(ends[0])

        class Killed(BaseException):
            pass

        def die(_checkpoint):
            raise Killed

        store = rounds.lanes[0].store
        journal_before = store.output_bytes()
        store.save = die
        with pytest.raises(Killed):
            rounds.run(ends[1])
        del store.save
        assert store.output_bytes() > journal_before
        assert store.latest().offset == ends[0]
        for upto in ends[1:]:
            rounds.reopen()
            rounds.run(upto, terminal=upto == ends[-1])
        assert canonical_match_bytes(rounds.query.matches()) == clean_bytes()

    @both_stores
    def test_a_journal_short_of_its_checkpoint_is_a_structured_error(
        self, tmp_path, store_kind
    ):
        rounds = Rounds(STORES[store_kind](tmp_path))
        rounds.run(boundaries(4)[1])
        rounds.run(boundaries(4)[2])
        (node_id, kept), = sink_outputs(rounds.query.env.flow).items()
        assert kept
        records = rounds.store.read_output()
        checkpoints = rounds.store.checkpoints()
        rounds.store.clear()
        for checkpoint in checkpoints:
            rounds.store.save(checkpoint)
        rounds.reopen()
        with pytest.raises(ExecutionError) as short:
            rounds.run(len(EVENTS))
        message = str(short.value)
        assert repr(rounds.store) in message and f"node {node_id}" in message
        assert "holds 0 items" in message and f"needs {len(kept)}" in message

        # A gap: the first record is missing, a later one is there.
        _first, *rest = records
        rounds.store.append_output(rest)
        rounds.reopen()
        with pytest.raises(ExecutionError) as gap:
            rounds.run(len(EVENTS))
        assert f"holds 0 items of sink node {node_id}" in str(gap.value)
        assert f"needs {len(kept)}" in str(gap.value)

    def test_the_service_fails_the_job_and_keeps_its_worker(self, tmp_path):
        config = ServiceConfig(state_dir=str(tmp_path))
        first = JobManager(config)
        job_id = first.submit({"name": "q", "query": {"catalog": CASE, "name": "q"}})["id"]
        for seq, event in enumerate(EVENTS[: len(EVENTS) // 2], start=1):
            first.ingest_event(event, source="t", seq=seq)
        first.run_round(first.jobs[job_id])
        assert first.job_matches(job_id)["queries"]["q"]["count"] > 0
        first.state.close()
        (tmp_path / job_id / "output.journal").write_bytes(b"")

        second = JobManager(config)
        second.resume()
        job = second.jobs[job_id]
        for seq, event in enumerate(EVENTS, start=1):
            second.ingest_event(event, source="t", seq=seq)
        assert second.run_round(job) is None
        assert job.state == "failed" and "output journal holds 0 items" in job.failure
        second.stop()


class TestServeRunsBothEnginesAlike:
    """The same stream through the service at ``batch_size`` 1 (the
    oracle) and at the default, with a kill −9 in the middle: identical
    match bytes, ``events_processed`` and checkpoint offsets."""

    def serve(self, state_dir, batch_size):
        config = ServiceConfig(
            state_dir=str(state_dir), batch_size=batch_size
        )
        seen = []
        manager = JobManager(config)
        job_id = manager.submit({"name": "q", "query": {"catalog": CASE, "name": "q"}})["id"]
        cut = len(EVENTS) * 3 // 5
        for stage, upto in enumerate((cut, len(EVENTS))):
            job = manager.jobs[job_id]
            for seq, event in enumerate(EVENTS[:upto], start=1):
                manager.ingest_event(event, source="t", seq=seq)
                if job.pending >= 150:
                    manager.run_round(job)
                    seen.append((
                        job.events_processed,
                        [lane.store.latest().offset for lane in job.lanes],
                        "\n".join(manager.job_matches(job_id)["queries"]["q"]["keys"]),
                    ))
            if stage == 0:
                manager.state.close()  # the process dies here
                manager = JobManager(config)
                manager.resume()
        manager.drain()
        manager.stop()
        keys = manager.job_matches(job_id)["queries"]["q"]["keys"]
        return "\n".join(keys).encode("utf-8"), job.events_processed, seen

    def test_identical_through_a_kill_and_resume(self, tmp_path):
        assert ServiceConfig().batch_size == DEFAULT_BATCH_SIZE > 1
        oracle = self.serve(tmp_path / "oracle", 1)
        default = self.serve(tmp_path / "default", DEFAULT_BATCH_SIZE)
        assert default == oracle
        assert oracle[0] == clean_bytes() and oracle[1] == len(EVENTS)


class TestWhatTheServiceSaysAboutIt:
    def test_checkpoints_endpoint_reports_the_journal_per_lane(self, tmp_path):
        manager = JobManager(ServiceConfig(state_dir=str(tmp_path)))
        serial = manager.submit({"name": "q", "query": {"catalog": CASE, "name": "q"}})["id"]
        keyed = manager.submit({
            "name": "k",
            "query": {"catalog": CASE, "name": "k", "options": {"o3": KEY}},
            "backend": "sharded", "shards": 2,
        })["id"]
        assert manager.job_checkpoints(serial)["lanes"] == [
            {"journal_items": 0, "journal_bytes": 0}
        ]
        for event in EVENTS:
            manager.ingest_event(event)
        manager.drain()
        manager.stop()
        doc = manager.job_checkpoints(serial)
        matches = manager.job_matches(serial)["queries"]["q"]["count"]
        assert matches > 0
        assert doc["lanes"] == [{
            "journal_items": matches,
            "journal_bytes": (tmp_path / serial / "output.journal").stat().st_size,
        }]
        assert all(entry["size_bytes"] < doc["lanes"][0]["journal_bytes"]
                   for entry in doc["entries"])
        lanes = manager.job_checkpoints(keyed)["lanes"]
        assert [lane["shard"] for lane in lanes] == [0, 1]
        assert sum(lane["journal_items"] for lane in lanes) == \
            manager.job_matches(keyed)["queries"]["k"]["count"]

    def test_the_logger_tells_live_from_restored_and_a_whole_sink_payload(
        self, tmp_path, caplog
    ):
        assert not logging.getLogger("repro").handlers
        rounds = Rounds(DirectoryCheckpointStore(tmp_path / "lane"))
        ends = boundaries(3)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            rounds.run(ends[0])
            rounds.run(ends[1])
            rounds.reopen()
            rounds.run(ends[2], terminal=True)
        messages = [r.getMessage() for r in caplog.records]
        live = [m for m in messages if "continued live" in m]
        restored = [m for m in messages if "restored Checkpoint(" in m]
        assert len(live) == 1 and f"offset {ends[0]}" in live[0]
        assert len(restored) == 1 and f"offset={ends[1]}" in restored[0]
        assert "items read back in" in restored[0]

        # A payload as the commit before the journal wrote it.
        scope = tmp_path / "old"
        write_checkpoint(scope, rounds.lanes[0].job)
        old = Rounds(DirectoryCheckpointStore(scope))
        old.log.extend(EVENTS)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repro"):
            old.run(len(EVENTS), terminal=True)
        adopted = [r.getMessage() for r in caplog.records if "whole-sink" in r.getMessage()]
        assert len(adopted) == 1 and f"offset={ends[2]}" in adopted[0]
        # ... journalled whole at the next cut.
        (record,) = old.store.read_output()
        assert record[1] == 0 and len(record[2]) == len(old.query.matches())
