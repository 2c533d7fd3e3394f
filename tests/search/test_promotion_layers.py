"""Successive-halving promotion order vs the frontier peel it replaces.

``_promotion_order`` used to peel one Pareto frontier at a time off the
remaining records.  It now takes every layer from one pass of
:func:`~repro.search.objectives.pareto_layers`.  The peel is frozen in
:mod:`tests.search.peel_oracle` as the oracle: the new order must equal
it exactly, duplicate and identity rules included.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.presets import CLUSTER_V_NODE, WIMPY_LAPTOP_B
from repro.search import optimize
from repro.search.evaluators import EvaluatedDesign
from repro.search.grid import DesignCandidate
from repro.search.objectives import frontier_nd, pareto_layers
from repro.search.optimize import _promotion_order
from repro.search.pareto import pareto_frontier
from tests.search.peel_oracle import (
    THREE_OBJECTIVES,
    frozen_frontier,
    frozen_peel,
    model_space_study,
)


# ------------------------------------------------------------- generators
def record(label, time_s, energy_j, price_usd, carbon_g, feasible=True):
    candidate = DesignCandidate(
        label=label, beefy=CLUSTER_V_NODE, wimpy=WIMPY_LAPTOP_B,
        num_beefy=1, num_wimpy=1,
    )
    if not feasible:
        return EvaluatedDesign(
            candidate=candidate, time_s=float("inf"), energy_j=float("inf"),
            feasible=False, infeasible_reason="does not fit",
        )
    return EvaluatedDesign(
        candidate=candidate, time_s=time_s, energy_j=energy_j,
        price_usd=price_usd, carbon_g=carbon_g,
    )


#: few distinct values, so ties and exact duplicate vectors are common
VALUES = st.sampled_from([1.0, 2.0, 3.0, 5.0]) | st.floats(0.5, 10.0)
#: few labels, so duplicate labels are common too
LABELS = st.sampled_from(["a", "b", "c", "d"])

OBJECTIVE_SETS = st.sampled_from([
    None,
    ("time_s", "energy_j"),
    ("energy_j", "time_s"),
    ("time_s", "energy_j", "price_usd"),
    ("carbon_g", "time_s", "price_usd"),
    ("time_s", "energy_j", "price_usd", "carbon_g"),
])


@st.composite
def record_lists(draw):
    records = [
        record(
            draw(LABELS), draw(VALUES), draw(VALUES), draw(VALUES), draw(VALUES),
            feasible=draw(st.integers(0, 4)) > 0,
        )
        for _ in range(draw(st.integers(0, 30)))
    ]
    if records:
        # exact duplicate vectors under other labels
        for source in draw(st.lists(st.integers(0, len(records) - 1), max_size=6)):
            twin = records[source]
            records.append(
                replace(twin, candidate=replace(twin.candidate, label=draw(LABELS)))
            )
        # the same record object at a second index
        positions = st.tuples(
            st.integers(0, len(records) - 1), st.integers(0, len(records))
        )
        for source, at in draw(st.lists(positions, max_size=4)):
            records.insert(at, records[source])
    return records


# ---------------------------------------------------------------- properties
class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(records=record_lists(), objectives=OBJECTIVE_SETS)
    def test_order_equals_the_frozen_peel(self, records, objectives):
        assert _promotion_order(records, objectives) == frozen_peel(records, objectives)

    @settings(max_examples=150, deadline=None)
    @given(records=record_lists(), objectives=OBJECTIVE_SETS)
    def test_layers_partition_and_the_first_is_the_frontier(self, records, objectives):
        layers = pareto_layers(records, objectives)
        assert all(layers)
        assert sorted(id(p) for layer in layers for p in layer) == sorted(
            id(p) for p in records if p.feasible
        )
        first = [id(p) for p in (layers[0] if layers else [])]
        assert first == [id(p) for p in frontier_nd(records, objectives)]
        assert first == [id(p) for p in frozen_frontier(records, objectives)]
        if objectives is None:
            assert first == [id(p) for p in pareto_frontier(records)]


class TestRules:
    def test_exact_duplicate_falls_one_layer_behind(self):
        first = record("a", 1.0, 1.0, 1.0, 1.0)
        twin = replace(first, candidate=replace(first.candidate, label="b"))
        assert pareto_layers([twin, first]) == [[first], [twin]]

    def test_same_object_at_two_indices_shares_one_layer(self):
        shared = record("a", 2.0, 2.0, 1.0, 1.0)
        better = record("b", 1.0, 1.0, 1.0, 1.0)
        records = [shared, better, shared]
        assert _promotion_order(records) == [1, 0, 2] == frozen_peel(records)

    def test_infeasible_records_rank_last_by_label(self):
        records = [
            record("z", 0.0, 0.0, 0.0, 0.0, feasible=False),
            record("b", 3.0, 3.0, 1.0, 1.0),
            record("a", 0.0, 0.0, 0.0, 0.0, feasible=False),
        ]
        assert _promotion_order(records) == [1, 2, 0]

    def test_empty_and_all_infeasible(self):
        dead = [record("a", 1.0, 1.0, 1.0, 1.0, feasible=False)]
        assert pareto_layers([]) == [] == pareto_layers(dead)
        assert _promotion_order(dead) == [0]


# ------------------------------------------------------- real halving rungs
@pytest.fixture(scope="module")
def halving_rungs():
    """The records each promotion ranked in a seeded 3-objective race."""
    captured = []

    def spy(records, objectives=None):
        captured.append(list(records))
        return _promotion_order(records, objectives)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_promotion_order", spy)
        model_space_study().optimize(seed=0, objectives=THREE_OBJECTIVES)
    return captured


@pytest.mark.parametrize("objectives", [THREE_OBJECTIVES, None])
def test_real_rungs_match_the_frozen_peel(halving_rungs, objectives):
    assert [len(records) for records in halving_rungs] == [2280, 760]
    for records in halving_rungs:
        assert _promotion_order(records, objectives) == frozen_peel(records, objectives)
