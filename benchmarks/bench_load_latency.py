"""Load-dependent detection latency (paper Section 5.2.2's latency story).

The paper measures FCEP's latency growing from 414 ms to 18 s across the
selectivity sweep while FASP stays at ~240 ms: a queueing effect — the
monolithic operator saturates and its queue diverges. This bench feeds
*measured* per-stage service times into the tandem-queue model
(`repro.runtime.ratesim`) and reports expected latency at increasing
fractions of the FCEP saturation rate.
"""

from benchmarks.common import bench_scale, record
from repro.experiments.common import qnv_workload, seq2_pattern
from repro.mapping.optimizations import TranslationOptions
from repro.runtime.harness import run_fasp, run_fcep
from repro.runtime.ratesim import PipelineModel
from repro.workloads.selectivity import calibrate_filter_selectivity

import math

#: Runs per side; the one with the smallest wall is kept. The assertions
#: below order FCEP against FASP, and a single shot per side lets a host
#: slow phase landing on one of them decide that order.
_REPS = 3


def _best_run(run):
    return min((run()[2] for _ in range(_REPS)), key=lambda r: r.wall_seconds)


def test_latency_under_load(benchmark):
    scale = bench_scale(sensors=8)
    streams = qnv_workload(scale)

    def measure():
        out = []
        for sigma_pct in (0.1, 3.0, 30.0):
            p = calibrate_filter_selectivity(
                sigma_pct / 100.0, 15 * 60_000, sensors=scale.sensors
            )
            pattern = seq2_pattern(p, window_minutes=15)
            fcep_run = _best_run(lambda: run_fcep(pattern, streams))
            fasp_run = _best_run(
                lambda: run_fasp(pattern, streams, TranslationOptions.o1())
            )
            out.append((sigma_pct, PipelineModel.from_run(fcep_run),
                        PipelineModel.from_run(fasp_run)))
        return out

    models = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["Load-dependent latency (tandem-queue model from measured runs)",
             "  offered rate = 90% of each selectivity's FCEP saturation"]
    for sigma_pct, fcep, fasp in models:
        rate = 0.9 * fcep.max_sustainable_tps()
        fcep_ms = fcep.expected_latency_s(rate) * 1000
        fasp_ms = fasp.expected_latency_s(rate) * 1000
        lines.append(
            f"  sigma={sigma_pct:5.3g}%: FCEP saturates at "
            f"{fcep.max_sustainable_tps():>11,.0f} tpl/s | latency @90%: "
            f"FCEP {fcep_ms:8.3f} ms vs FASP-O1 {fasp_ms:8.3f} ms"
        )
        # FASP sustains far more than 90% of FCEP's saturation; its queues
        # stay nearly empty at that rate while FCEP's are near-critical.
        assert math.isfinite(fasp_ms)
        assert fasp_ms <= fcep_ms
    record("load_latency", "\n".join(lines))
    # FCEP's saturation rate degrades with selectivity (the paper's 3b).
    saturations = [fcep.max_sustainable_tps() for _s, fcep, _f in models]
    assert saturations[0] > saturations[-1]
