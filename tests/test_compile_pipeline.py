"""The one compile pipeline: both spellings, and a submit that compiles once.

``translate`` and ``translate_many`` are two spellings of
``compile_patterns``; these tests pin what the spellings may and may not
differ in (scan sharing), and that ``JobManager.submit`` reaches the
pipeline exactly once with the verifier on.
"""

import json

import pytest

from repro.asp.operators.sink import CollectSink
from repro.asp.operators.source import ListSource
from repro.asp.runtime.fault.chaos import canonical_match_bytes
from repro.asp.stream import StreamEnvironment
from repro.cli import main
from repro.errors import ServiceError
from repro.experiments.common import (
    Scale,
    iter_consecutive_pattern,
    nseq_pattern,
    qnv_aq_workload,
    seq2_pattern,
)
from repro.mapping.advisor import recommend_options
from repro.mapping.multiquery import translate_many
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.patterns import CATALOG
from repro.runtime.service import JobManager

STREAMS = qnv_aq_workload(Scale(events=3000, sensors=4, seed=11))

UNSAFE = "PATTERN SEQ(Q a, V b) WHERE a.bogus = b.id WITHIN 15 MINUTES"
KEYED = "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES"
UNKEYED = "PATTERN SEQ(Q a, V b) WHERE a.value > 100 WITHIN 10 MINUTES"


def _cells():
    for name in sorted(CATALOG):
        pattern = CATALOG[name]()
        yield pytest.param(pattern, recommend_options(pattern).options, id=name)
    seq = seq2_pattern(0.3, 15, keyed=True)
    yield pytest.param(seq, TranslationOptions(), id="seq-sliding")
    yield pytest.param(seq, TranslationOptions.o1(), id="seq-interval")
    yield pytest.param(nseq_pattern(15, 0.1, 0.2), TranslationOptions(), id="nseq")
    yield pytest.param(
        iter_consecutive_pattern(3, 15, 0.1),
        TranslationOptions(iteration_strategy="exact"),
        id="iter-exact",
    )


def _sources(pattern):
    return {
        t: ListSource(STREAMS[t], name=f"src[{t}]", event_type=t)
        for t in pattern.distinct_event_types()
    }


def _node_names(flow):
    return [node.name for node in flow.nodes.values()]


@pytest.mark.parametrize("pattern, options", _cells())
def test_both_spellings_agree(pattern, options):
    for batch_size in (1, 256):
        single = translate(pattern, _sources(pattern), options)
        single.attach_sink(CollectSink(name=f"sink[{pattern.name}]"))
        single.execute(batch_size=batch_size)
        batch = translate_many([pattern], _sources(pattern), options)
        batch.execute(batch_size=batch_size)
        assert canonical_match_bytes(single.matches()) == canonical_match_bytes(
            batch.matches_of(0)
        )
    # The scan cache is the only difference between the spellings: when
    # no scan of the pattern repeats, the dataflows are the same.
    if batch.num_shared_scans == len(single.plan.scans()):
        assert _node_names(single.env.flow) == _node_names(batch.env.flow)
    else:
        assert len(batch.env.flow.nodes) < len(single.env.flow.nodes)


def test_iter_chain_shares_scans_only_under_translate_many():
    # Pinned node counts: intra-pattern scan sharing in `translate` would
    # flip the paper's FASP-O1 < FASP-O2 claim on ITER3_1 (bench_fig3a).
    pattern = iter_consecutive_pattern(3, 15, 0.1)
    single = translate(pattern, _sources(pattern))
    single.attach_sink()
    assert len(single.env.flow.nodes) == 7
    assert len(translate_many([pattern], _sources(pattern)).env.flow.nodes) == 5


def test_translate_many_verifies_like_translate():
    from repro.asp.datamodel import TypeRegistry
    from repro.errors import StaticAnalysisError
    from repro.sea.parser import parse_pattern

    patterns = [parse_pattern(KEYED, name="ok"), parse_pattern(UNSAFE, name="bad")]
    sources = _sources(patterns[0])
    registry = TypeRegistry.paper_default()
    with pytest.raises(StaticAnalysisError) as err:
        translate_many(patterns, sources, registry=registry)
    assert err.value.pattern_index == 1
    multi = translate_many(patterns, sources, registry=registry, analyze=False)
    assert all(query.analysis is None for query in multi.queries)


def test_submit_compiles_once(monkeypatch):
    built = []
    original = StreamEnvironment.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(StreamEnvironment, "__init__", counting)
    JobManager().submit(
        {"name": "three", "queries": sorted(CATALOG)[:3]}
    )
    assert len(built) == 1


def test_mixed_group_is_accepted_on_the_serial_backend():
    queries = [
        {"pattern": KEYED, "name": "keyed", "options": {"o3": "id"}},
        {"pattern": UNKEYED, "name": "unkeyed"},
    ]
    info = JobManager().submit({"name": "mixed", "queries": queries})
    assert info["backend"] == "serial"
    with pytest.raises(ServiceError) as err:
        JobManager().submit(
            {"name": "mixed", "queries": queries, "backend": "sharded"}
        )
    assert err.value.code == "not-shardable" and err.value.status == 400


def test_unsafe_query_in_a_group_is_named(capsys):
    with pytest.raises(ServiceError) as err:
        JobManager().submit(
            {"queries": [
                "traffic-congestion",
                {"pattern": UNSAFE, "name": "bad-one"},
            ]}
        )
    assert err.value.code == "static-analysis" and err.value.status == 400
    assert "query 'bad-one'" in str(err.value)
    main(["lint", "--json", "-p", UNSAFE])
    alone = json.loads(capsys.readouterr().out)
    assert {d["code"] for d in err.value.details} == {
        d["code"] for report in alone for d in report["diagnostics"]
    }


@pytest.mark.parametrize(
    "body",
    [
        {"query": {"catalog": "traffic-congestion", "options": "o1"}},
        {"query": {"catalog": "traffic-congestion", "options": ["o1"]}},
        {"query": {"catalog": "traffic-congestion", "options": {"iter": "magic"}}},
        {"query": {"catalog": "traffic-congestion", "options": {"o3": 5}}},
        {"query": "traffic-congestion", "batch_size": "x"},
        {"query": "traffic-congestion", "batch_size": 0},
        {"query": "traffic-congestion", "shards": "two"},
        {"query": "traffic-congestion", "checkpoint_interval": -5},
        {"query": "traffic-congestion", "queue_limit": 0},
        {"query": "traffic-congestion", "max_restarts": -1},
        {"query": "traffic-congestion", "retry_after_ms": -1},
        {"query": "traffic-congestion", "max_out_of_orderness": -1},
        {"query": "traffic-congestion", "backend": "threads"},
    ],
)
def test_malformed_overrides_are_the_clients_error(body):
    with pytest.raises(ServiceError) as err:
        JobManager().submit(body)
    assert err.value.status == 400
    assert err.value.code in ("bad-request", "bad-query")


def test_job_metrics_report_what_the_verifier_said():
    manager = JobManager()
    single = manager.submit({"query": "stalled-traffic"})
    analysis = manager.job_metrics(single["id"])["analysis"]
    assert analysis["ok"] and analysis["codes"].get("RA304") == 1
    group = manager.submit(
        {"name": "pair", "queries": ["stalled-traffic", "traffic-congestion"]}
    )
    per_query = manager.job_metrics(group["id"])["analysis"]["queries"]
    assert per_query["stalled-traffic"]["warnings"] == 1
    assert per_query["traffic-congestion"]["warnings"] == 0
