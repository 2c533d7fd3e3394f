"""The successive-halving promotion order as repeated frontier peeling.

Before the one-pass layering kernel, ``_promotion_order`` peeled one
Pareto frontier at a time off the remaining records.  That code is
frozen here, on top of the frontier code of the same time (the classic
2-D sweep, and the N-D dominance loop ``frontier_nd`` ran), as the
oracle the kernel is tested and timed against.  Do not change it to
follow the program.

:func:`model_space_study` builds the 2280-design space of the
repository benchmark's ``model-optimize`` workload, whose halving rungs
both the oracle test and the layer benchmark rank.
"""

from repro.costmodel import CostModel
from repro.hardware.presets import (
    BEEFY_L5630,
    CLUSTER_V_NODE,
    DESKTOP_ATOM,
    LAPTOP_A,
    WIMPY_LAPTOP_B,
    WORKSTATION_B,
)
from repro.search.evaluators import ModelEvaluator
from repro.search.grid import DesignGrid
from repro.search.objectives import dominates, objective_vector, resolve_objectives
from repro.search.pareto import pareto_frontier
from repro.study import Study
from repro.workloads.queries import q3_join
from repro.workloads.suite import WorkloadSuite

THREE_OBJECTIVES = ("time_s", "energy_j", "price_usd")


def frozen_frontier(points, objectives=None):
    """The frontier as computed before the layering kernel: the classic
    sweep for the default pair, else the N-D dominance loop."""
    if objectives is None:
        return pareto_frontier(points)
    objs = resolve_objectives(objectives)
    decorated = sorted(
        ((objective_vector(p, objs), p.label, p) for p in points if p.feasible),
        key=lambda item: (item[0], item[1]),
    )
    frontier, kept_vectors, previous = [], [], None
    for vector, _, point in decorated:
        if vector == previous:
            continue  # exact duplicate: the min-label representative won
        previous = vector
        if not any(dominates(kept, vector) for kept in kept_vectors):
            frontier.append(point)
            kept_vectors.append(vector)
    return frontier


def frozen_peel(records, objectives=None):
    """``_promotion_order`` as it was: peel frontiers until none remain."""
    feasible = [i for i, record in enumerate(records) if record.feasible]
    infeasible = [i for i, record in enumerate(records) if not record.feasible]
    order = []
    remaining = feasible
    while remaining:
        layer_points = frozen_frontier([records[i] for i in remaining], objectives)
        layer_ids = {id(point) for point in layer_points}
        layer = [i for i in remaining if id(records[i]) in layer_ids]
        layer.sort(
            key=lambda i: (records[i].edp, records[i].time_s, records[i].label)
        )
        order.extend(layer)
        layer_set = set(layer)
        remaining = [i for i in remaining if i not in layer_set]
    infeasible.sort(key=lambda i: records[i].label)
    return order + infeasible


def model_space_study() -> Study:
    """2280 designs, the analytic model, a flat cost model and 4 joins."""
    return Study(
        DesignGrid(
            node_pairs=(
                (CLUSTER_V_NODE, WIMPY_LAPTOP_B),
                (BEEFY_L5630, LAPTOP_A),
                (WORKSTATION_B, DESKTOP_ATOM),
            ),
            cluster_sizes=tuple(range(4, 33, 4)),
            frequency_factors=(1.0, 0.9, 0.8, 0.7, 0.6),
        ),
        workload=WorkloadSuite.of(
            "mix-0", *(q3_join(100, 0.01 * (i + 1), 0.05) for i in range(4))
        ),
        evaluator=ModelEvaluator(),
        cost_model=CostModel(
            tariff_usd_per_kwh=0.12,
            carbon_g_per_kwh=400.0,
            default_capex_usd_per_node_hour=0.05,
        ),
    )
