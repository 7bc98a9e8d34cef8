"""Figure 6 — scalability over parallel workers.

The paper scales SEQ7 and ITER4 (128 keys) from one to four workers with
16 slots each. The reproduction is measured: the sharded execution
backend splits each keyed plan into per-shard subgraphs (O3 made
physical) and actually runs them; throughput comes from the measured
makespan (slowest shard). The FCEP side runs its NFA keyed on the same
attribute — the only parallelization dimension FCEP has.

Expected shape: both approaches scale, FCEP gains the most relative to
its one-shard baseline (it is the most resource-starved) but never
reaches the mapped queries' absolute throughput (~60 % gap on average).
"""

from __future__ import annotations

from typing import Sequence

from repro.asp.runtime import ShardedBackend
from repro.experiments.common import ExperimentRow, Scale
from repro.experiments.fig4 import iter4_pattern, keyed_workload, seq7_pattern
from repro.mapping.optimizations import TranslationOptions
from repro.runtime.harness import run_fasp, run_fcep

_APPROACHES: tuple[tuple[str, TranslationOptions | None], ...] = (
    ("FCEP", None),
    ("FASP-O3", TranslationOptions.o3()),
    ("FASP-O1+O3", TranslationOptions.o1_o3()),
)

#: The partition attribute of the keyed workload (sensor/segment id).
_KEY_ATTRIBUTE = "id"


def fig6_scalability(
    scale: Scale | None = None,
    num_keys: int = 128,
    shard_counts: Sequence[int] = (1, 2, 4),
) -> list[ExperimentRow]:
    """Scale-out rows for Figure 6 (``parameter="shards=N"``).

    Shards are *executed* on the sharded backend; the rows carry
    measured throughput.
    """
    scale = scale or Scale.default()
    # x8 volume so even quarter-key shards carry enough work for stable
    # per-stage timing.
    streams = keyed_workload(num_keys, scale.events * 8, seed=scale.seed)
    rows: list[ExperimentRow] = []
    seq7 = seq7_pattern()
    iter4 = iter4_pattern()
    v_only = {"V": streams["V"]}
    for shards in shard_counts:
        backend = ShardedBackend(shards=shards, key_attribute=_KEY_ATTRIBUTE)
        parameter = f"shards={shards}"
        for _label, options in _APPROACHES:
            if options is None:
                measurement, _sink, _result = run_fcep(
                    seq7, streams, key_attribute=_KEY_ATTRIBUTE, backend=backend
                )
            else:
                measurement, _sink, _result = run_fasp(
                    seq7, streams, options, backend=backend
                )
            rows.append(
                ExperimentRow.from_measurement(
                    "fig6", parameter, measurement, shards=shards
                )
            )
        for _label, options in _APPROACHES + (
            ("FASP-O2+O3", TranslationOptions.o2_o3()),
        ):
            if options is None:
                measurement, _sink, _result = run_fcep(
                    iter4, v_only, key_attribute=_KEY_ATTRIBUTE, backend=backend
                )
            else:
                measurement, _sink, _result = run_fasp(
                    iter4, v_only, options, backend=backend
                )
            rows.append(
                ExperimentRow.from_measurement(
                    "fig6", parameter, measurement, shards=shards
                )
            )
    return rows
