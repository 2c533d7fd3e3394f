"""Evaluations-to-knee: exhaustive grid vs adaptive optimizers.

The adaptive-search promise is budget, not wall-clock: on the reference
216-design space the exhaustive sweep spends ``216 x entries`` fresh
per-entry evaluations to locate the trade-off knee, while seeded
``SuccessiveHalving`` races entry-subsampled rungs to the same knee for
a fraction of that, and seeded ``RandomSearch`` gives the
budget-baseline in between.  ``pytest benchmarks/test_optimize.py -q``
checks the claims through pytest-benchmark; ``make bench-json`` (``python
benchmarks/test_optimize.py --json BENCH_optimize.json``) records the
evaluations-to-knee trajectory so future PRs can track it alongside
``BENCH_search.json``.

The selection layer under successive halving is timed on its own too:
``test_promotion_layers_beat_the_peel`` ranks the 3-objective records of
the 2280-design space (the ``model-optimize`` workload of
``perfbench/``) with the one-pass layering kernel and with the frozen
frontier peel it replaced, and gates on their ratio; 10^4 jittered
records are timed for the kernel only.
"""

import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import (
    DesignGrid,
    DesignSpaceSearch,
    EvaluationCache,
    OptimizationLoop,
    RandomSearch,
    SearchSpace,
    SuccessiveHalving,
)
from repro.search.optimize import _promotion_order
from repro.workloads.queries import q3_join
from repro.workloads.suite import WorkloadSuite

#: the acceptance-criteria space: 216 designs
FULL_GRID = DesignGrid(
    node_pairs=((CLUSTER_V_NODE, WIMPY_LAPTOP_B),),
    cluster_sizes=(6, 8, 10, 12, 14, 16),
    frequency_factors=(1.0, 0.8, 0.6),
)

SEED = 0


def nightly_suite(members: int = 4) -> WorkloadSuite:
    return WorkloadSuite.of(
        "nightly", *[q3_join(100, 0.01 * (i + 1), 0.05) for i in range(members)]
    )


def grid_baseline(grid=FULL_GRID, suite=None):
    suite = suite if suite is not None else nightly_suite()
    result = DesignSpaceSearch(cache=EvaluationCache()).search(grid, suite)
    return result


def optimize(optimizer, grid=FULL_GRID, suite=None, **loop_options):
    suite = suite if suite is not None else nightly_suite()
    loop = OptimizationLoop(
        DesignSpaceSearch(cache=EvaluationCache()),
        SearchSpace.from_grid(grid),
        suite,
        optimizer,
        seed=SEED,
        **loop_options,
    )
    return loop.run()


def evaluations_to_knee(result, knee_key) -> int | None:
    """Fresh evaluations spent when the archive knee first matched."""
    by_label = {}
    for point in result.points:
        by_label[point.label] = point.candidate.key()
    for point in result.trajectory:
        if point.knee_label is None:
            continue
        if by_label.get(point.knee_label) == knee_key:
            return point.fresh_query_evaluations
    return None


# ------------------------------------------------- promotion-layer timing
def jittered(records, count, seed=SEED) -> list:
    """``count`` records: copies of ``records`` with every objective
    scaled by a seeded factor within ±5%, under fresh labels."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        for record in records[: count - len(out)]:
            if record.feasible:
                record = replace(
                    record,
                    time_s=record.time_s * rng.uniform(0.95, 1.05),
                    energy_j=record.energy_j * rng.uniform(0.95, 1.05),
                    price_usd=record.price_usd * rng.uniform(0.95, 1.05),
                )
            out.append(
                replace(record, candidate=replace(
                    record.candidate, label=f"{record.label}#{len(out)}"
                ))
            )
    return out


def best_of(function, *args, repeats=3) -> float:
    """The fastest of ``repeats`` timed calls, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def promotion_layer_timings() -> dict:
    """Promotion ranking at 2280 records, kernel vs frozen peel, and at
    10^4 records, kernel only (the kernel's best of three calls; the
    peel runs once)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.search.peel_oracle import (
        THREE_OBJECTIVES,
        frozen_peel,
        model_space_study,
    )

    records = list(model_space_study().run().points)
    large = jittered(records, 10_000)
    assert _promotion_order(records, THREE_OBJECTIVES) == frozen_peel(
        records, THREE_OBJECTIVES
    )
    kernel_s = best_of(_promotion_order, records, THREE_OBJECTIVES)
    peel_s = best_of(frozen_peel, records, THREE_OBJECTIVES, repeats=1)
    return {
        "records": len(records),
        "objectives": list(THREE_OBJECTIVES),
        "kernel_s": round(kernel_s, 4),
        "peel_s": round(peel_s, 4),
        "peel_over_kernel": round(peel_s / kernel_s, 1),
        "large_records": len(large),
        "large_kernel_s": round(best_of(_promotion_order, large, THREE_OBJECTIVES), 4),
    }


# ------------------------------------------------------------- pytest gate
def test_promotion_layers_beat_the_peel():
    timings = promotion_layer_timings()
    assert timings["records"] == 2280
    assert timings["peel_over_kernel"] >= 5.0, timings


def test_successive_halving_recovers_the_knee_cheaply():
    exhaustive = grid_baseline()
    sha = optimize(SuccessiveHalving())
    assert sha.knee().candidate.key() == exhaustive.knee().candidate.key()
    assert sha.fresh_query_evaluations <= 0.4 * exhaustive.query_evaluations


def test_grid_campaign(benchmark):
    result = benchmark(grid_baseline)
    assert len(result.points) == 216


def test_successive_halving_campaign(benchmark):
    result = benchmark(optimize, SuccessiveHalving())
    assert result.stop_reason == "optimizer-finished"


def test_random_campaign(benchmark):
    result = benchmark(optimize, RandomSearch(), budget=400)
    assert result.stop_reason in ("budget-exhausted", "optimizer-finished")


# --------------------------------------------------------------- JSON entry
def run_comparison(grid=FULL_GRID) -> dict:
    """Evaluations-to-knee (and wall time) for grid vs random vs SHA."""
    suite = nightly_suite()

    start = time.perf_counter()
    exhaustive = grid_baseline(grid, suite)
    grid_wall_s = time.perf_counter() - start
    knee_key = exhaustive.knee().candidate.key()

    start = time.perf_counter()
    sha = optimize(SuccessiveHalving(), grid, suite)
    sha_wall_s = time.perf_counter() - start

    start = time.perf_counter()
    rand = optimize(
        RandomSearch(), grid, suite, budget=exhaustive.query_evaluations
    )
    random_wall_s = time.perf_counter() - start

    sha_to_knee = evaluations_to_knee(sha, knee_key)
    random_to_knee = evaluations_to_knee(rand, knee_key)
    return {
        "benchmark": "evaluations-to-knee, adaptive vs exhaustive",
        "designs": len(grid.candidate_list()),
        "workload_entries": len(suite.weighted_queries()),
        "seed": SEED,
        "grid_fresh_evaluations": exhaustive.query_evaluations,
        "grid_knee": exhaustive.knee().label,
        "grid_wall_s": round(grid_wall_s, 4),
        "sha_fresh_evaluations": sha.fresh_query_evaluations,
        "sha_evaluations_to_knee": sha_to_knee,
        "sha_knee_matches_grid": sha.knee().candidate.key() == knee_key,
        "sha_fraction_of_grid": round(
            sha.fresh_query_evaluations / exhaustive.query_evaluations, 4
        ),
        "sha_wall_s": round(sha_wall_s, 4),
        "random_fresh_evaluations": rand.fresh_query_evaluations,
        "random_evaluations_to_knee": random_to_knee,
        "random_knee_matches_grid": rand.knee().candidate.key() == knee_key,
        "random_wall_s": round(random_wall_s, 4),
        "promotion_layers": promotion_layer_timings(),
    }


if __name__ == "__main__":
    out = sys.argv[sys.argv.index("--json") + 1] if "--json" in sys.argv else None
    payload = run_comparison()
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
