"""The chaos harness: seeded crashes over the pattern catalog.

For every catalog query this module runs three executions:

1. a clean serial run — the correctness reference;
2. a serial run with seeded injected crashes + checkpoint recovery;
3. a sharded run (when the plan proves O3-shardable) where every shard
   is crashed once at a seeded offset and must restart from its own
   checkpoint.

The exactness criterion is byte-identity: the recovered runs must emit
exactly the matches of the clean run — compared via the canonical byte
rendering of the sorted match multiset, so shard interleaving cannot
mask a lost or duplicated match. CI runs this as the ``chaos`` job and
uploads the structured report as an artifact.
"""

from __future__ import annotations

import random
from typing import Any, Mapping

from repro.asp.operators.source import ListSource
from repro.asp.runtime.backends.sharded import ShardedBackend
from repro.asp.runtime.fault.injection import FaultPlan, FaultSpec
from repro.errors import ReproError, ShardabilityError

#: Reduced-scale defaults: large enough that every shard crosses several
#: checkpoint intervals, small enough for a CI job.
DEFAULT_EVENTS = 4_000
DEFAULT_CHECKPOINT_INTERVAL = 100


def canonical_match_bytes(matches) -> bytes:
    """Order-independent byte rendering of a match multiset.

    Serial and sharded runs interleave equal-timestamp matches
    differently; sorting the per-match canonical keys makes byte
    comparison meaningful while still catching every lost, extra or
    altered match (duplicates included).
    """
    keys = sorted(repr(m.dedup_key()) for m in matches)
    return "\n".join(keys).encode("utf-8")


def _streams_for(pattern, events: int, sensors: int, seed: int) -> dict[str, list]:
    from repro.experiments.common import Scale, qnv_aq_workload

    streams = qnv_aq_workload(Scale(events=events, sensors=sensors, seed=seed))
    needed = set(pattern.distinct_event_types())
    missing = needed - set(streams)
    if missing:
        raise ValueError(f"no generator for event types {sorted(missing)}")
    return {t: streams[t] for t in sorted(needed)}


def _fresh_query(pattern, streams: Mapping[str, list], options):
    from repro.mapping.translator import translate

    sources = {
        t: ListSource(list(evs), name=f"src[{t}]", event_type=t)
        for t, evs in streams.items()
    }
    return translate(pattern, sources, options, analyze=False)


def _total_events(streams: Mapping[str, list]) -> int:
    return sum(len(events) for events in streams.values())


def run_chaos_suite(
    *,
    events: int = DEFAULT_EVENTS,
    sensors: int = 4,
    seed: int = 7,
    shards: int = 2,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    patterns: list[str] | None = None,
    batch_size: int = 1,
) -> dict[str, Any]:
    """Run the full chaos suite; returns the structured report.

    ``report["ok"]`` is True only when every query passed serial-crash
    exactness and (where shardable) sharded-crash exactness.

    ``batch_size`` sets the batch size of the *crashed* executions while
    the clean reference runs batches of one, so with ``batch_size > 1``
    the byte-identity check covers recovery *and* batch-size invariance
    in one gate (batch cuts must land on the same consistent cuts as the
    reference's checkpoints between single events).
    """
    from repro.mapping.advisor import recommend_options
    from repro.patterns import CATALOG

    names = patterns or sorted(CATALOG)
    rng = random.Random(seed)
    queries: list[dict[str, Any]] = []
    for name in names:
        pattern = CATALOG[name]()
        options = recommend_options(pattern).options
        streams = _streams_for(pattern, events, sensors, seed)
        total = _total_events(streams)

        clean_query = _fresh_query(pattern, streams, options)
        clean_query.execute()
        clean_bytes = canonical_match_bytes(clean_query.matches())

        entry: dict[str, Any] = {
            "pattern": name,
            "events": total,
            "clean_matches": len(clean_query.matches()),
        }
        entry["serial"] = _serial_chaos(
            pattern, streams, options, clean_bytes, total, checkpoint_interval,
            rng, batch_size,
        )
        entry["sharded"] = _sharded_chaos(
            pattern, streams, total, shards, checkpoint_interval,
            rng, batch_size,
        )
        queries.append(entry)

    def _passed(outcome: dict[str, Any]) -> bool:
        return bool(outcome.get("skipped")) or bool(outcome.get("match"))

    report = {
        "suite": "chaos",
        "seed": seed,
        "events": events,
        "sensors": sensors,
        "shards": shards,
        "checkpoint_interval": checkpoint_interval,
        "batch_size": batch_size,
        "queries": queries,
        "ok": all(_passed(q["serial"]) and _passed(q["sharded"]) for q in queries),
    }
    return report


def _seeded_offsets(rng: random.Random, total: int, interval: int, count: int) -> list[int]:
    lo = interval + 1
    hi = max(lo, total - 1)
    return sorted(rng.randint(lo, hi) for _ in range(count))


def _serial_chaos(
    pattern, streams, options, clean_bytes, total, interval, rng,
    batch_size,
) -> dict[str, Any]:
    offsets = _seeded_offsets(rng, total, interval, count=2)
    plan = FaultPlan(tuple(FaultSpec("crash", at_event=o) for o in offsets))
    query = _fresh_query(pattern, streams, options)
    result = query.execute(
        checkpoint_interval=interval, fault_plan=plan, batch_size=batch_size,
    )
    recovered_bytes = canonical_match_bytes(query.matches())
    recovery = result.metrics.get("recovery", {})
    return {
        "mode": "serial",
        "crash_offsets": offsets,
        "failed": result.failed,
        "restarts": len(recovery.get("restarts", [])),
        "recovered": recovery.get("recovered", False),
        "checkpoints": result.metrics.get("checkpoints"),
        "matches": len(query.matches()),
        "match": recovered_bytes == clean_bytes and not result.failed,
    }


def _sharded_chaos(
    pattern, streams, total, shards, interval, rng, batch_size,
) -> dict[str, Any]:
    """Crash every shard once; compare against a clean keyed serial run.

    The O3-keyed plan differs from the advisor's default serial plan, so
    the reference here is a clean *serial* execution of the same keyed
    plan — the comparison then isolates sharding + recovery.
    """
    from repro.mapping.advisor import recommend_options

    key = "id"
    keyed = recommend_options(pattern, partition_attribute=key).options
    backend = ShardedBackend(shards=shards, key_attribute=key)
    try:
        probe = _fresh_query(pattern, streams, keyed)
        backend.check_shardable(probe.env.flow)
    except (ShardabilityError, ReproError) as exc:
        return {"mode": "sharded", "skipped": f"not shardable: {exc}"}

    clean = _fresh_query(pattern, streams, keyed)
    clean.execute()
    clean_bytes = canonical_match_bytes(clean.matches())

    # Crash each shard once somewhere past its first few checkpoints.
    per_shard = max(1, total // shards)
    lo = min(interval + 1, max(2, per_shard // 2))
    hi = max(lo, per_shard // 2)
    plan = FaultPlan.crash_each_shard_once(shards, lo, hi, seed=rng.randint(0, 2**31))
    query = _fresh_query(pattern, streams, keyed)
    result = query.execute(
        backend=backend, checkpoint_interval=interval, fault_plan=plan,
        batch_size=batch_size,
    )
    recovered_bytes = canonical_match_bytes(query.matches())
    recovery = result.metrics.get("recovery", {})
    return {
        "mode": "sharded",
        "shards": shards,
        "failed": result.failed,
        "restarts": recovery.get("restarts", 0),
        "recovered": recovery.get("recovered", False),
        "checkpoints": result.metrics.get("checkpoints"),
        "matches": len(query.matches()),
        "match": recovered_bytes == clean_bytes and not result.failed,
    }
