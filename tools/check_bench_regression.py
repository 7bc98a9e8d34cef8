#!/usr/bin/env python
"""Benchmark regression gate for CI.

Compares a fresh ``benchmarks/results/summary.json`` (written by any
benchmark run via ``benchmarks.common.record_rows``) against the
committed ``benchmarks/baseline.json``.

Absolute throughput does not transfer between machines (or even between
runs on a loaded CI box), so the gate checks the *mix*: every cell's
current/baseline throughput ratio is normalized by the run's median
ratio, which cancels uniform machine-speed shifts. A cell whose
normalized ratio falls outside the tolerance (default ±30%) regressed
relative to the rest of the suite — the signature of a code change
slowing one operator or optimization — and fails the job. Mismatched
*match counts* on identical input sizes fail immediately: those are
correctness, not noise. The trade-off: a perfectly uniform slowdown of
every cell is indistinguishable from a slower machine and only produces
a warning; ``--absolute`` restores raw-ratio checking for same-machine
comparisons.

Usage::

    python tools/check_bench_regression.py benchmarks/results/summary.json
    python tools/check_bench_regression.py summary.json --tolerance 0.5
    python tools/check_bench_regression.py summary.json --absolute
    python tools/check_bench_regression.py summary.json --update   # rebless
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def iter_cells(summary: dict):
    for experiment, payload in sorted(summary.get("experiments", {}).items()):
        for key, cell in sorted(payload.get("cells", {}).items()):
            yield experiment, key, cell


#: Floor when no table entry applies (smoke scales, unlisted cells):
#: the variant must never lose to its sibling by more than noise.
PARITY_FLOOR = 0.7

#: The sibling-pair families: ``(suffix, full-scale events, {(pattern,
#: parameter): floor}, what the pair measures)``. A cell whose approach
#: ends in ``suffix`` is compared with the same-run cell without it; at
#: or above ``full-scale events`` the listed floors apply, parity
#: everywhere else.
#:
#: * ``+batched`` — batch size 256 vs batches of one, same drive loop.
#:   The headline cells are filter-dominated: nearly every event is
#:   dropped by the generated row filter, so the run is the fixed cost
#:   per batch (measured 16-20x); the fig3a and metro-rush cells
#:   measured 3-8x. NSEQ1 is unlisted: its
#:   order-sensitive UDF pins the scheduler to strict arrival-order runs
#:   where batching cannot help.
#: * ``+opt`` — optimized vs default plan: the metrics-fed join reorder
#:   (measured ~2x; the o1-only control is unlisted and must merely hold
#:   parity) and the static W/slide interval switch (~12x).
#: * ``+shared`` — shared tenant group vs unshared capacity (measured
#:   ~2x for 8 congestion variants); the scan-sharing ratio is
#:   scale-stable, so the floor already applies at the CI smoke scale.
SIBLING_FLOORS = (
    (
        "+batched",
        20_000,
        {
            ("SEQ1", "headline"): 8.0,
            ("ITER3_1", "headline"): 8.0,
            ("SEQ1", "baseline"): 2.0,
            ("ITER3_1", "baseline"): 2.0,
            ("traffic-congestion", "metro-rush"): 2.0,
            ("stalled-traffic", "metro-rush"): 2.0,
        },
        "batch size 256 vs batches of one",
    ),
    (
        "+opt",
        20_000,
        {("AND-skew", "reorder+o1"): 1.25, ("SEQ-wide", "static"): 2.0},
        "optimized vs default plan",
    ),
    (
        "+shared",
        4_000,
        {("tenant-group", "tenants=8"): 1.5},
        "shared vs unshared tenant group",
    ),
)


def check_sibling_cells(summary: dict) -> list[str]:
    """Intra-summary rule: every suffixed cell vs its same-run sibling.

    Unlike the baseline comparison this is machine-independent — both
    cells of a pair come from the same run on the same box, so the ratio
    is a pure measurement of what the suffix names and gets a hard
    floor. Equal match counts are a hard requirement: a variant that
    changes the output is a correctness bug, not a perf regression.
    """
    breaches: list[str] = []
    for experiment, payload in sorted(summary.get("experiments", {}).items()):
        cells = payload.get("cells", {})
        events = payload.get("events", 0)
        for key, cell in sorted(cells.items()):
            pattern, approach, parameter = key.split("|")
            family = next(
                (row for row in SIBLING_FLOORS if approach.endswith(row[0])), None
            )
            if family is None:
                continue
            suffix, full_scale_events, floors, what = family
            sibling_key = f"{pattern}|{approach.removesuffix(suffix)}|{parameter}"
            sibling = cells.get(sibling_key)
            if sibling is None:
                breaches.append(f"{experiment}/{key}: no sibling cell {sibling_key}")
                continue
            if cell.get("matches") != sibling.get("matches"):
                breaches.append(
                    f"{experiment}/{key}: matches {cell.get('matches')} != "
                    f"sibling {sibling.get('matches')} ({what}) -- the variant "
                    "changed the output (correctness regression)"
                )
                continue
            sibling_tps = sibling.get("throughput_tps") or 0.0
            variant_tps = cell.get("throughput_tps") or 0.0
            if sibling_tps <= 0 or variant_tps <= 0:
                continue
            floor = PARITY_FLOOR
            if events >= full_scale_events:
                floor = floors.get((pattern, parameter), PARITY_FLOOR)
            ratio = variant_tps / sibling_tps
            if ratio < floor:
                breaches.append(
                    f"{experiment}/{key}: {ratio:.2f}x its sibling "
                    f"(floor {floor:.2f}x, {what}) -- the variant lost its "
                    "advantage"
                )
    return breaches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("summary", type=Path, help="summary.json produced by the benchmark run")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative deviation of a cell's normalized throughput ratio (default 0.30)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw throughput ratios without median normalization (same-machine runs)",
    )
    parser.add_argument(
        "--only-slower", action="store_true", help="fail only on slowdowns, not on speedups"
    )
    parser.add_argument(
        "--update", action="store_true", help="overwrite the baseline with the current summary"
    )
    args = parser.parse_args(argv)

    summary = load(args.summary)
    if args.update:
        args.baseline.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = load(args.baseline)
    baseline_cells = {(exp, key): cell for exp, key, cell in iter_cells(baseline)}

    skipped = 0
    breaches = check_sibling_cells(summary)
    ratios: dict[tuple[str, str], float] = {}
    for experiment, key, cell in iter_cells(summary):
        reference = baseline_cells.get((experiment, key))
        if reference is None:
            skipped += 1
            continue
        if cell.get("failed") != reference.get("failed"):
            breaches.append(
                f"{experiment}/{key}: failed={cell.get('failed')} "
                f"(baseline failed={reference.get('failed')})"
            )
            continue
        same_input = cell.get("events_in") == reference.get("events_in")
        if cell.get("matches") != reference.get("matches") and same_input:
            breaches.append(
                f"{experiment}/{key}: matches {cell.get('matches')} != "
                f"baseline {reference.get('matches')} (same input size -- "
                "correctness regression, not noise)"
            )
            continue
        base_tps = reference.get("throughput_tps") or 0.0
        cur_tps = cell.get("throughput_tps") or 0.0
        if base_tps > 0 and cur_tps > 0:
            ratios[(experiment, key)] = cur_tps / base_tps

    median = statistics.median(ratios.values()) if ratios else 1.0
    scale = 1.0 if args.absolute else median
    lower, upper = 1.0 - args.tolerance, 1.0 + args.tolerance
    for (experiment, key), ratio in sorted(ratios.items()):
        normalized = ratio / scale
        if normalized < lower:
            breaches.append(
                f"{experiment}/{key}: {normalized:.2f}x the suite trend "
                f"(raw {ratio:.2f}x baseline; < {lower:.2f}x) -- this cell "
                "regressed relative to the rest of the run"
            )
        elif normalized > upper and not args.only_slower:
            breaches.append(
                f"{experiment}/{key}: {normalized:.2f}x the suite trend "
                f"(raw {ratio:.2f}x baseline; > {upper:.2f}x; rebless with "
                "--update if this speedup is real)"
            )

    mode = "absolute" if args.absolute else f"normalized by median {median:.2f}x"
    print(
        f"bench regression gate: {len(ratios)} cells checked ({mode}), "
        f"{skipped} not in baseline, tolerance ±{args.tolerance:.0%}"
    )
    if not args.absolute and not (lower <= median <= upper):
        print(
            f"warning: uniform throughput shift vs baseline ({median:.2f}x) "
            "-- machine speed difference, or a global regression the "
            "normalized gate cannot distinguish"
        )
    if breaches:
        print(f"\n{len(breaches)} breach(es):")
        for line in breaches:
            print(f"  - {line}")
        return 1
    if not ratios:
        print("warning: no overlapping cells between summary and baseline")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
