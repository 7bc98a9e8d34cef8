"""Figure 4 — impact of data characteristics (number of keys).

The paper (Section 5.2.3) enables key partitioning (O3) and runs

* SEQ7(3): a three-type keyed sequence, sigma_o ~= 1 %, W = 15, and
* ITER4_4(1): a keyed four-fold iteration, sigma_o ~= 1 %, W = 90,

for key cardinalities {16, 32, 128} on one worker with 16 task slots.
Both patterns carry ``id`` equality constraints, so FCEP partitions by
key and FASP runs Equi Joins (FASP-O3, FASP-O1+O3, FASP-O2+O3). The
16 slots are 16 shards of the sharded execution backend, the same
measured scale-out Figure 6 uses.

A second probe reproduces the paper's fifth observation: with a bounded
per-worker memory budget, FCEP fails by memory exhaustion while the
mapped queries complete (the 1.3M tpl/s ingestion ceiling).
"""

from __future__ import annotations

from typing import Sequence

from repro.asp.runtime import ShardedBackend
from repro.asp.time import MS_PER_MINUTE
from repro.experiments.common import ExperimentRow, Scale
from repro.mapping.optimizations import TranslationOptions
from repro.runtime.harness import run_fasp, run_fcep
from repro.sea.ast import Pattern
from repro.sea.parser import parse_pattern
from repro.workloads.airquality import AirQualityConfig, aq_streams
from repro.workloads.qnv import QnVConfig, qnv_streams
from repro.workloads.qnv import (
    quantity_threshold_for_selectivity,
    velocity_threshold_for_selectivity,
)


def seq7_pattern(
    window_minutes: int = 15, target_sigma_o: float = 0.01
) -> Pattern:
    """SEQ7(3): keyed Q -> V -> PM10 sequence, sigma_o ~ 1 % per key.

    Per key and window: lam_Q = lam_V = ``15 p`` filtered events and
    ``3.75`` (unfiltered) PM10 events; ordered same-key triples number
    about ``lam_Q * lam_V * lam_PM / 3!``. Solving for the target output
    selectivity (matches per event, events per key/window = 33.75) gives
    the per-filter selectivity p.
    """
    w = float(window_minutes)
    lam_pm = w / 4.0
    events_per_key_window = 2 * w + lam_pm
    target_matches = target_sigma_o * events_per_key_window
    # target = (w p)^2 * lam_pm / 6  =>  p = sqrt(6 target / lam_pm) / w
    p = min(1.0, (6.0 * target_matches / lam_pm) ** 0.5 / w)
    q_th = quantity_threshold_for_selectivity(p)
    v_th = velocity_threshold_for_selectivity(p)
    return parse_pattern(
        f"""
        PATTERN SEQ(Q q1, V v1, PM10 p1)
        WHERE q1.value > {q_th:.6f} AND v1.value < {v_th:.6f}
          AND q1.id = v1.id AND v1.id = p1.id
        WITHIN {window_minutes} MINUTES SLIDE 1 MINUTE
        """,
        name="SEQ7",
    )


def iter4_pattern(
    window_minutes: int = 90, target_sigma_o: float = 0.01
) -> Pattern:
    """ITER4_4(1): keyed four-fold iteration over V.

    The indexed ``id`` equalities make every repetition come from the same
    sensor — the key-match constraint that enables O3. The threshold is
    calibrated so matches per key/window ~= target_sigma_o * events per
    key/window (the paper's sigma_o ~ 1 %).
    """
    from repro.workloads.selectivity import calibrate_iter_filter
    from repro.workloads.qnv import velocity_threshold_for_selectivity as v_thresh

    target_matches = target_sigma_o * window_minutes  # events/key/window = W
    p = calibrate_iter_filter(target_matches, 4, window_minutes * MS_PER_MINUTE)
    threshold = v_thresh(p)
    key_chain = " AND ".join(f"v[{i}].id = v[{i + 1}].id" for i in range(1, 4))
    return parse_pattern(
        f"""
        PATTERN ITER4(V v)
        WHERE v.value < {threshold:.6f} AND {key_chain}
        WITHIN {window_minutes} MINUTES SLIDE 1 MINUTE
        """,
        name="ITER4",
    )


def keyed_workload(num_keys: int, events: int, seed: int = 42) -> dict[str, list]:
    """QnV + PM10 streams over ``num_keys`` sensors totalling ~events.

    As in the paper, each additional sensor adds both data volume and a
    key (Section 5.2.3: "each sensor increases the data volume and the
    number of keys").
    """
    events_per_minute = 2 * num_keys + num_keys / 4
    duration = max(60, int(events / events_per_minute)) * MS_PER_MINUTE
    qnv = qnv_streams(QnVConfig(num_segments=num_keys, duration_ms=duration, seed=seed))
    aq = aq_streams(
        AirQualityConfig(num_sensors=num_keys, duration_ms=duration, seed=seed),
        types=("PM10",),
    )
    return {**qnv, **aq}


_APPROACHES: tuple[tuple[str, TranslationOptions | None], ...] = (
    ("FCEP", None),
    ("FASP-O3", TranslationOptions.o3()),
    ("FASP-O1+O3", TranslationOptions.o1_o3()),
)

_ITER_APPROACHES = _APPROACHES + (("FASP-O2+O3", TranslationOptions.o2_o3()),)

#: The partition attribute of the keyed workload (sensor/segment id).
_KEY_ATTRIBUTE = "id"


def fig4_keys(
    scale: Scale | None = None,
    key_counts: Sequence[int] = (16, 32, 128),
    slots: int = 16,
) -> list[ExperimentRow]:
    """Keys-sweep rows for Figure 4 (``parameter="keys=N"``).

    Every cell runs on the sharded backend with ``slots`` shards keyed on
    ``id`` — the paper's one worker with 16 keyed task slots — and
    carries its measured throughput (makespan = slowest shard).
    """
    scale = scale or Scale.default()
    backend = ShardedBackend(shards=slots, key_attribute=_KEY_ATTRIBUTE)
    rows: list[ExperimentRow] = []
    # Warm-up run: the first execution in a process pays one-off costs
    # (allocator warmup, code object caching) that would otherwise skew
    # the first measured cell.
    warm_streams = keyed_workload(key_counts[0], min(scale.events, 4_000), seed=scale.seed)
    run_fcep(seq7_pattern(), warm_streams, key_attribute=_KEY_ATTRIBUTE, backend=backend)
    run_fasp(seq7_pattern(), warm_streams, TranslationOptions.o1_o3(), backend=backend)
    for keys in key_counts:
        # Volume grows with keys, as in the paper. The x2 floor keeps
        # per-shard workloads large enough for stable timing.
        events = scale.events * max(2, keys // key_counts[0])
        streams = keyed_workload(keys, events, seed=scale.seed)
        cells = (
            (seq7_pattern(), streams, _APPROACHES),
            (iter4_pattern(), {"V": streams["V"]}, _ITER_APPROACHES),
        )
        for pattern, pattern_streams, approaches in cells:
            for _label, options in approaches:
                if options is None:
                    measurement, _sink, _result = run_fcep(
                        pattern, pattern_streams,
                        key_attribute=_KEY_ATTRIBUTE, backend=backend,
                    )
                else:
                    measurement, _sink, _result = run_fasp(
                        pattern, pattern_streams, options, backend=backend
                    )
                rows.append(
                    ExperimentRow.from_measurement("fig4", f"keys={keys}", measurement)
                )
    return rows


def fig4_memory_failure(
    scale: Scale | None = None,
    budget_bytes: int = 60_000,
    window_minutes: int = 60,
    qualifying_per_window: float = 16.0,
) -> list[ExperimentRow]:
    """FCEP memory-exhaustion probe (single node, no partitioning).

    The structural contrast behind the paper's Section 5.2.3/5.2.4
    observations: under skip-till-any-match an iteration's NFA keeps every
    partial combination alive (quadratic-and-worse state in the number of
    qualifying events per window), while the O2 aggregation keeps one
    bounded window buffer (linear). With a per-worker memory budget the
    FCEP run fails by memory exhaustion while FASP-O2 completes — the
    analog of FlinkCEP's failures beyond 1.3M tpl/s ingestion.
    """
    scale = scale or Scale.default()
    sensors = 4
    streams = keyed_workload(sensors, scale.events, seed=scale.seed)
    v_only = {"V": streams["V"]}
    p = qualifying_per_window / (window_minutes * sensors)
    threshold = velocity_threshold_for_selectivity(min(1.0, p))
    pattern = parse_pattern(
        f"""
        PATTERN ITER3(V v)
        WHERE v.value < {threshold:.6f}
        WITHIN {window_minutes} MINUTES SLIDE 1 MINUTE
        """,
        name="ITER3-mem",
    )
    rows: list[ExperimentRow] = []
    fcep, _sink, _res = run_fcep(pattern, v_only, memory_budget_bytes=budget_bytes)
    rows.append(
        ExperimentRow.from_measurement("fig4-mem", f"budget={budget_bytes}", fcep)
    )
    fasp, _sink, _res = run_fasp(
        pattern, v_only, TranslationOptions.o2(), memory_budget_bytes=budget_bytes
    )
    rows.append(
        ExperimentRow.from_measurement("fig4-mem", f"budget={budget_bytes}", fasp)
    )
    return rows
