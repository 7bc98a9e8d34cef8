"""Checkpoint/recovery and fault injection (repro.asp.runtime.fault).

Covers the stores, the coordinator's overhead metrics, the injector's
determinism, and the exactness guarantee: a crashed-and-recovered run —
serial or sharded — emits exactly what the clean run emits.
"""

import time

import pytest

from repro.asp.datamodel import Event
from repro.asp.operators.dedup import DedupOperator
from repro.asp.operators.sink import CollectSink
from repro.asp.runtime import (
    DirectoryCheckpointStore,
    FaultPlan,
    FaultSpec,
    InMemoryCheckpointStore,
    ShardedBackend,
    parse_fault_plan,
)
from repro.asp.runtime.fault.injection import FaultInjector
from repro.asp.runtime.fault.store import (
    Checkpoint,
    CheckpointStore,
    pickle_payload,
    unpickle_payload,
)
from repro.asp.stream import StreamEnvironment
from repro.asp.time import minutes
from repro.errors import ExecutionError, InjectedFaultError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern

MIN = minutes(1)


def make_events(n, ids=3, event_type="Q"):
    return [
        Event(event_type, ts=i * MIN, id=(i % ids) + 1, value=float(i % 50))
        for i in range(n)
    ]


def dedup_env(events):
    """src -> dedup -> collect; stateful, single-operator pipeline."""
    env = StreamEnvironment("ft")
    sink = (
        env.from_events(events, name="src", event_type="Q")
        .transform(DedupOperator(window_size=10 * MIN, name="dedup"))
        .sink(CollectSink())
    )
    return env, sink


def keyed_query(events_q, events_v, partition=None):
    pattern = parse_pattern(
        "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 5 MINUTES",
        name="ft-keyed",
    )
    sources = {"Q": events_q, "V": events_v}
    from repro.asp.operators.source import ListSource

    typed = {
        t: ListSource(list(evs), name=f"src[{t}]", event_type=t)
        for t, evs in sources.items()
    }
    options = TranslationOptions(partition_attribute=partition)
    return translate(pattern, typed, options, analyze=False)


class TestStores:
    def test_in_memory_retention(self):
        store = InMemoryCheckpointStore(retain=3)
        for i in range(5):
            store.save(Checkpoint(i, offset=i * 10, payload=b"x" * i))
        kept = store.checkpoints()
        assert [c.checkpoint_id for c in kept] == [2, 3, 4]
        assert store.latest().offset == 40
        store.clear()
        assert store.latest() is None

    def test_in_memory_scoped_is_independent(self):
        store = InMemoryCheckpointStore()
        scoped = store.scoped("shard-0")
        scoped.save(Checkpoint(1, offset=5, payload=b"s"))
        assert store.latest() is None
        assert scoped.latest().checkpoint_id == 1

    def test_directory_store_survives_reopen(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "chk", retain=2)
        for i in range(4):
            store.save(Checkpoint(i, offset=i * 7, payload=f"p{i}".encode()))
        reopened = DirectoryCheckpointStore(tmp_path / "chk", retain=2)
        assert [c.checkpoint_id for c in reopened.checkpoints()] == [2, 3]
        assert reopened.latest().payload == b"p3"
        # Stale blobs were actually deleted, not just delisted. Names are
        # chk-<writer>-<id>.pickle so concurrent stores never collide.
        files = sorted(p.name for p in (tmp_path / "chk").glob("chk-*.pickle"))
        assert [name.rsplit("-", 1)[-1] for name in files] == [
            "2.pickle",
            "3.pickle",
        ]
        assert isinstance(store, CheckpointStore)

    def test_directory_store_scoped_subdir(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        shard = store.scoped("shard-1")
        shard.save(Checkpoint(9, offset=3, payload=b"z"))
        assert store.latest() is None
        assert list((tmp_path / "shard-1").glob("chk-*-9.pickle"))

    def test_payload_round_trip_and_corruption(self):
        import pickle

        data = {"operators": {1: {"work_units": 3}}, "offset": 12}
        assert unpickle_payload(pickle_payload(data)) == data
        with pytest.raises(TypeError):
            unpickle_payload(pickle.dumps([1, 2]))

    def test_directory_store_concurrent_writers_same_dir(self, tmp_path):
        """Two stores over one directory (the `repro serve` shape when
        jobs share a checkpoint root) must not lose or corrupt
        checkpoints: writer-tagged filenames plus manifest locking."""
        import threading

        stores = [
            DirectoryCheckpointStore(tmp_path / "chk", retain=50)
            for _ in range(4)
        ]
        errors = []

        def writer(store, base):
            try:
                for i in range(25):
                    store.save(
                        Checkpoint(base + i, offset=i, payload=b"x" * 64)
                    )
                    store.latest()
                    store.checkpoints()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(store, 1000 * n))
            for n, store in enumerate(stores)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        merged = DirectoryCheckpointStore(tmp_path / "chk", retain=200)
        kept = merged.checkpoints()
        # No lost updates: 100 saves through a retain-50 manifest must
        # leave exactly 50 entries (unlocked read-modify-write races drop
        # entries), and every referenced payload file must still exist
        # and be intact (races delete files another writer still lists).
        assert len(kept) == 50
        for checkpoint in kept:
            assert checkpoint.payload == b"x" * 64
        # each writer's surviving ids appear in its own save order
        ids = [c.checkpoint_id for c in kept]
        for n in range(4):
            per_writer = [i for i in ids if 1000 * n <= i < 1000 * n + 25]
            assert per_writer == sorted(per_writer)

    def test_directory_store_scoped_jobs_never_interfere(self, tmp_path):
        import threading

        base = DirectoryCheckpointStore(tmp_path)
        results = {}

        def job(label):
            scoped = base.scoped(label)
            for i in range(20):
                scoped.save(Checkpoint(i, offset=i, payload=label.encode()))
            results[label] = scoped.latest()

        threads = [
            threading.Thread(target=job, args=(f"job-{n}",)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for label, latest in results.items():
            assert latest.checkpoint_id == 19
            assert latest.payload == label.encode()


class TestFaultPlans:
    def test_parse_full_plan(self):
        plan = parse_fault_plan(
            "crash:at=250,shard=1; slow:op=dedup,delay=0.001; drop:from=a,to=b"
        )
        crash, slow, drop = plan.faults
        assert (crash.kind, crash.at_event, crash.shard) == ("crash", 250, 1)
        assert (slow.operator, slow.delay_s) == ("dedup", 0.001)
        assert drop.edge == ("a", "b")

    @pytest.mark.parametrize(
        "text",
        ["", "explode:now", "crash:at", "crash:at=zero", "slow:op=x"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ExecutionError):
            parse_fault_plan(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("crash")
        with pytest.raises(ValueError):
            FaultSpec("slow", operator="x", delay_s=0.0)
        with pytest.raises(ValueError):
            FaultSpec("warp", at_event=1)

    def test_for_shard_filters(self):
        plan = FaultPlan(
            (
                FaultSpec("crash", at_event=10, shard=0),
                FaultSpec("crash", at_event=20, shard=1),
                FaultSpec("slow", operator="x", delay_s=0.1),
            )
        )
        shard0 = plan.for_shard(0)
        assert [f.at_event for f in shard0.faults if f.kind == "crash"] == [10]
        assert any(f.kind == "slow" for f in shard0.faults)
        assert plan.for_shard(7).faults == (FaultSpec("slow", operator="x", delay_s=0.1),)

    def test_crash_each_shard_once_is_seeded(self):
        a = FaultPlan.crash_each_shard_once(4, 10, 500, seed=3)
        b = FaultPlan.crash_each_shard_once(4, 10, 500, seed=3)
        assert a == b
        assert sorted(f.shard for f in a.faults) == [0, 1, 2, 3]
        assert all(10 <= f.at_event <= 500 for f in a.faults)

    def test_crash_fires_exactly_once(self):
        injector = FaultInjector(FaultPlan((FaultSpec("crash", at_event=5),)))
        with pytest.raises(InjectedFaultError) as exc_info:
            injector.before_batch(5, 5)
        assert exc_info.value.at_event == 5
        injector.before_batch(5, 5)  # replay past the same offset: no re-fire
        assert injector.crashes_fired == 1


class TestSerialRecovery:
    def test_recovered_run_is_identical_to_clean(self):
        events = make_events(400)
        clean_env, clean_sink = dedup_env(events)
        clean_env.execute()

        env, sink = dedup_env(events)
        plan = FaultPlan((FaultSpec("crash", at_event=123),))
        result = env.execute(checkpoint_interval=50, fault_plan=plan)

        assert not result.failed
        assert sink.items == clean_sink.items
        recovery = result.metrics["recovery"]
        assert recovery["attempts"] == 2
        assert recovery["recovered"] is True
        (restart,) = recovery["restarts"]
        assert restart["failed_at_event"] == 123
        assert restart["resumed_from_offset"] == 100
        assert restart["replayed_events"] == 22
        checkpoints = result.metrics["checkpoints"]
        assert checkpoints["count"] >= 8
        assert checkpoints["bytes_total"] > 0
        assert checkpoints["duration_p95_s"] >= 0.0

    def test_crash_before_first_cadence_checkpoint(self):
        # Checkpoint 0 (pre-stream) makes a crash at event 3 recoverable
        # even though the first cadence checkpoint would be at 100.
        events = make_events(150)
        clean_env, clean_sink = dedup_env(events)
        clean_env.execute()
        env, sink = dedup_env(events)
        plan = FaultPlan((FaultSpec("crash", at_event=3),))
        result = env.execute(checkpoint_interval=100, fault_plan=plan)
        assert not result.failed
        assert result.metrics["recovery"]["restarts"][0]["resumed_from_offset"] == 0
        assert sink.items == clean_sink.items

    def test_two_crashes_three_attempts(self):
        events = make_events(300)
        env, sink = dedup_env(events)
        plan = FaultPlan(
            (FaultSpec("crash", at_event=80), FaultSpec("crash", at_event=160))
        )
        result = env.execute(checkpoint_interval=25, fault_plan=plan)
        assert not result.failed
        assert result.metrics["recovery"]["attempts"] == 3
        clean_env, clean_sink = dedup_env(events)
        clean_env.execute()
        assert sink.items == clean_sink.items

    def test_restart_budget_exhaustion_fails_the_run(self):
        events = make_events(100)
        env, _sink = dedup_env(events)
        plan = FaultPlan((FaultSpec("crash", at_event=10),))
        result = env.execute(checkpoint_interval=20, fault_plan=plan, max_restarts=0)
        assert result.failed
        assert "injected crash" in result.failure
        recovery = result.metrics["recovery"]
        assert recovery["recovered"] is False
        assert recovery["attempts"] == 1

    def test_directory_store_backs_recovery(self, tmp_path):
        events = make_events(200)
        clean_env, clean_sink = dedup_env(events)
        clean_env.execute()
        store = DirectoryCheckpointStore(tmp_path / "job")
        env, sink = dedup_env(events)
        plan = FaultPlan((FaultSpec("crash", at_event=77),))
        result = env.execute(
            checkpoint_interval=30, checkpoint_store=store, fault_plan=plan
        )
        assert not result.failed
        assert sink.items == clean_sink.items
        assert store.latest() is not None
        assert (tmp_path / "job" / "manifest.json").exists()


class TestSlowAndDropFaults:
    def test_slow_fault_advances_virtual_not_wall_time(self):
        events = make_events(200)
        env, _sink = dedup_env(events)
        plan = FaultPlan((FaultSpec("slow", operator="dedup", delay_s=0.05),))
        started = time.perf_counter()
        result = env.execute(fault_plan=plan)
        real_elapsed = time.perf_counter() - started
        # 200 items x 50ms of virtual delay = 10s of virtual wall time,
        # while no real sleeping happened.
        assert result.wall_seconds >= 10.0
        assert real_elapsed < 5.0

    def test_slow_fault_unknown_operator_is_an_error(self):
        events = make_events(20)
        env, _sink = dedup_env(events)
        plan = FaultPlan((FaultSpec("slow", operator="nonesuch", delay_s=0.1),))
        with pytest.raises(ExecutionError, match="nonesuch"):
            env.execute(fault_plan=plan)

    def test_drop_fault_severs_the_channel(self):
        events = make_events(50)
        clean_env, clean_sink = dedup_env(events)
        clean_env.execute()
        assert clean_sink.items  # the clean pipeline does emit

        env, sink = dedup_env(events)
        plan = FaultPlan((FaultSpec("drop", edge=("src", "dedup")),))
        result = env.execute(fault_plan=plan)
        assert not result.failed
        assert sink.items == []


class TestShardedRecovery:
    def _streams(self, n=240, ids=4):
        qs = make_events(n, ids=ids, event_type="Q")
        vs = [
            Event("V", ts=e.ts + MIN // 2, id=e.id, value=e.value)
            for e in qs
        ]
        return qs, vs

    def test_crashed_shards_recover_to_serial_output(self):
        qs, vs = self._streams()
        clean = keyed_query(qs, vs, partition="id")
        clean.execute()
        want = sorted(repr(m.dedup_key()) for m in clean.matches())
        assert want  # the reference run finds matches

        crashed = keyed_query(qs, vs, partition="id")
        backend = ShardedBackend(shards=2, key_attribute="id")
        plan = FaultPlan.crash_each_shard_once(2, 20, 90, seed=5)
        result = crashed.execute(
            backend=backend, checkpoint_interval=25, fault_plan=plan
        )
        got = sorted(repr(m.dedup_key()) for m in crashed.matches())
        assert not result.failed
        assert got == want
        recovery = result.metrics["recovery"]
        assert recovery["restarts"] == 2  # every shard died once
        assert recovery["recovered"] is True
        assert len(recovery["shards"]) == 2
        assert result.metrics["checkpoints"]["count"] > 0

    def test_shard_scoped_fault_leaves_other_shards_alone(self):
        qs, vs = self._streams()
        query = keyed_query(qs, vs, partition="id")
        backend = ShardedBackend(shards=2, key_attribute="id")
        plan = FaultPlan((FaultSpec("crash", at_event=30, shard=1),))
        result = query.execute(
            backend=backend, checkpoint_interval=20, fault_plan=plan
        )
        assert not result.failed
        shard_reports = result.metrics["recovery"]["shards"]
        restart_counts = [len(s["restarts"]) for s in shard_reports]
        assert sorted(restart_counts) == [0, 1]
