"""Declared objectives and N-dimensional Pareto selection.

The paper's selection rules read a two-dimensional (time, energy) point
cloud; real TCO decisions add dollars and grams of CO₂.  This module is
the generalization layer: an :class:`Objective` names one axis (where on
an :class:`~repro.search.evaluators.EvaluatedDesign` the value lives and
which direction is better), a registry maps the well-known names —
``time_s``, ``energy_j``, ``price_usd``, ``carbon_g``, ``edp`` — and the
selection functions work on any objective vector:

* :func:`dominates` — componentwise N-dimensional dominance;
* :func:`frontier_nd` — the non-dominated set under any objective list,
  with the same explicit exact-duplicate rule as the classic
  2-objective sweep (duplicates keep their first representative by
  label order), which the default configuration reproduces
  bit-identically (property-tested);
* :func:`pareto_layers` — the frontier and every deeper Pareto layer
  from one pass of the same kernel (successive halving ranks its rungs
  with it);
* :func:`knee_nd` — the knee generalized from max-chord-distance to
  max-distance-from-the-endpoint-simplex: each axis is normalized to
  [0, 1] over the frontier's span, the per-axis minimizers span a
  hyperplane, and the frontier point farthest from it is the knee (in
  two dimensions the simplex *is* the endpoint chord, so the classic
  knee falls out as the special case);
* :func:`best_under_budget` / :func:`best_under_carbon` — the TCO
  counterparts of the SLA selectors: the fastest feasible design whose
  price (resp. carbon) fits under a cap.

Cost-axis values come from a
:class:`~repro.costmodel.model.CostModel`-configured evaluator; selecting
on a cost objective without one is a :class:`~repro.errors.ModelError`
naming the missing configuration, never a silent empty result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError, ModelError
from repro.search.evaluators import EvaluatedDesign

__all__ = [
    "DEFAULT_OBJECTIVES",
    "Objective",
    "best_under_budget",
    "best_under_carbon",
    "dominates",
    "frontier_nd",
    "knee_nd",
    "objective_vector",
    "pareto_layers",
    "register_objective",
    "resolve_objectives",
]


@dataclass(frozen=True)
class Objective:
    """One selection axis: a name, an accessor, and a direction.

    ``accessor`` maps an :class:`EvaluatedDesign` to the raw value (by
    default ``getattr(point, name)``); ``direction`` is ``"min"`` or
    ``"max"`` — maximized axes are negated internally so dominance and
    distances always work in minimized coordinates.  ``missing_hint``
    completes the error message raised when a feasible point lacks the
    value (``None``), pointing at the configuration that produces it.
    """

    name: str
    accessor: Callable[[EvaluatedDesign], float | None] | None = None
    direction: str = "min"
    missing_hint: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ConfigurationError(
                f"objective {self.name!r} direction must be 'min' or 'max', "
                f"got {self.direction!r}"
            )

    def raw_value(self, point: EvaluatedDesign) -> float | None:
        if self.accessor is not None:
            return self.accessor(point)
        return getattr(point, self.name, None)

    def value(self, point: EvaluatedDesign) -> float:
        """The minimized-coordinate value; ``None`` is a named error."""
        raw = self.raw_value(point)
        if raw is None:
            hint = f" ({self.missing_hint})" if self.missing_hint else ""
            raise ModelError(
                f"design point {point.label!r} carries no {self.name!r} "
                f"value{hint}"
            )
        return -raw if self.direction == "max" else raw


#: the registered well-known axes, by name
_REGISTRY: dict[str, Objective] = {}


def register_objective(objective: Objective, overwrite: bool = False) -> Objective:
    """Add an objective to the by-name registry (used by string specs)."""
    if not overwrite and objective.name in _REGISTRY:
        raise ConfigurationError(
            f"objective {objective.name!r} is already registered; pass "
            "overwrite=True to replace it"
        )
    _REGISTRY[objective.name] = objective
    return objective


_COST_HINT = (
    "attach a CostModel — Study.with_cost_model(...) or an evaluator's "
    "cost_model= — so evaluations are priced"
)

register_objective(Objective("time_s"))
register_objective(Objective("energy_j"))
register_objective(Objective("edp"))
register_objective(Objective("price_usd", missing_hint=_COST_HINT))
register_objective(Objective("carbon_g", missing_hint=_COST_HINT))

#: the classic paper configuration every default code path uses
DEFAULT_OBJECTIVES: tuple[str, str] = ("time_s", "energy_j")


def resolve_objectives(
    spec: Sequence[str | Objective] | None,
) -> tuple[Objective, ...]:
    """Normalize an objective spec to concrete :class:`Objective` axes.

    ``None`` means the classic (time, energy) pair; strings resolve
    through the registry; :class:`Objective` instances pass through.  At
    least two distinct axes are required — a one-axis "frontier" is just
    a minimum and should be taken directly.
    """
    if spec is None:
        spec = DEFAULT_OBJECTIVES
    resolved: list[Objective] = []
    for item in spec:
        if isinstance(item, Objective):
            resolved.append(item)
            continue
        objective = _REGISTRY.get(item)
        if objective is None:
            known = ", ".join(sorted(_REGISTRY))
            raise ConfigurationError(
                f"unknown objective {item!r} (registered: {known}; or pass "
                "an Objective instance)"
            )
        resolved.append(objective)
    names = [objective.name for objective in resolved]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate objectives in {names}")
    if len(resolved) < 2:
        raise ConfigurationError(
            "need at least two objectives to trade off; got "
            f"{names or 'none'}"
        )
    return tuple(resolved)


def objective_vector(
    point: EvaluatedDesign, objectives: Sequence[Objective]
) -> tuple[float, ...]:
    """One point's minimized-coordinate objective vector."""
    return tuple(objective.value(point) for objective in objectives)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether vector ``a`` dominates ``b`` (minimized coordinates):
    no worse on every axis, strictly better on at least one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def _feasible(points: Sequence[EvaluatedDesign]) -> list[EvaluatedDesign]:
    return [p for p in points if p.feasible]


def frontier_nd(
    points: Sequence[EvaluatedDesign],
    objectives: Sequence[str | Objective] | None = None,
) -> list[EvaluatedDesign]:
    """Non-dominated points under any objective list, first axis ascending.

    The generalization of the classic 2-objective sweep, preserving its
    two contracts exactly (property-tested equivalence):

    * exact duplicate vectors keep only their **first representative by
      label order** — the frontier stays a function of the design space,
      not of enumeration order;
    * the result is sorted lexicographically by objective vector (ties
      by label), which for the default axes is ascending response time.

    This is the first layer of :func:`pareto_layers`, computed by the
    same kernel without ranking the rest: a point is on the frontier
    exactly when no point sorted before it is no worse on every axis —
    which covers both a dominator and an earlier exact duplicate.
    """
    layers = _layers(_feasible(points), resolve_objectives(objectives), True)
    return layers[0] if layers else []


def pareto_layers(
    points: Sequence[EvaluatedDesign],
    objectives: Sequence[str | Objective] | None = None,
) -> list[list[EvaluatedDesign]]:
    """The feasible points peeled into successive Pareto layers.

    Layer 0 is :func:`frontier_nd`; layer ``k`` is the frontier of what
    is left once layers ``0..k-1`` are removed, with the same duplicate
    rule (a later exact duplicate falls one layer behind its
    representative) and the same in-layer order (objective vector, then
    label).  The layers come from one pass instead of ``k`` frontier
    sweeps — see :func:`_layer_ranks`.
    """
    return _layers(_feasible(points), resolve_objectives(objectives), False)


def _layers(
    feasible: Sequence[EvaluatedDesign],
    objs: Sequence[Objective],
    first_only: bool,
) -> list[list[EvaluatedDesign]]:
    decorated = sorted(
        ((objective_vector(p, objs), p.label, p) for p in feasible),
        key=lambda item: (item[0], item[1]),
    )
    ranks = _layer_ranks([vector for vector, _, _ in decorated], first_only)
    layers: list[list[EvaluatedDesign]] = [[] for _ in range(max(ranks, default=-1) + 1)]
    for rank, (_, _, point) in zip(ranks, decorated):
        layers[rank].append(point)
    return layers[:1] if first_only else layers


def _layer_ranks(
    vectors: Sequence[tuple[float, ...]], first_only: bool
) -> list[int]:
    """The Pareto layer of each vector, given in ``(vector, label)`` order.

    Call row ``j`` *below* row ``i`` when ``j`` sorts earlier and is no
    worse on every axis.  That is exactly "``j`` dominates ``i``, or is
    an exact duplicate the frontier keeps first" — a dominator is
    lexicographically smaller, so it always sorts earlier.  The relation
    is a strict partial order, and peeling its minimal elements layer by
    layer puts each row at the length of the longest chain below it::

        rank(i) = 1 + max(rank(j) for j below i), or 0 if there is none

    so one pass in sort order yields every peel layer at once.  Rows are
    compared one objective column at a time against the earlier rows
    only (the first column needs no test: it is sorted), so no n×n
    matrix is ever built.  With ``first_only`` only layer-0 rows are
    kept as comparators — a row below any earlier row is below a layer-0
    row too — and every other row reports rank 1.
    """
    count = len(vectors)
    ranks = [0] * count
    if count < 2:
        return ranks
    rows = np.array(vectors, dtype=float)[:, 1:]
    kept = np.empty((rows.shape[1], count))
    kept_ranks = np.empty(count, dtype=np.intp)
    below = np.empty(count, dtype=bool)
    scratch = np.empty(count, dtype=bool)
    size = 0
    for i, row in enumerate(rows):
        mask = below[:size]
        np.less_equal(kept[0, :size], row[0], out=mask)
        for axis in range(1, len(row)):
            np.less_equal(kept[axis, :size], row[axis], out=scratch[:size])
            mask &= scratch[:size]
        rank = int(kept_ranks[:size].max(where=mask, initial=-1)) + 1
        ranks[i] = rank
        if rank == 0 or not first_only:
            kept[:, size] = row
            kept_ranks[size] = rank
            size += 1
    return ranks


def _edp_rule(frontier: Sequence[EvaluatedDesign]) -> EvaluatedDesign:
    # The degenerate-knee fallback, identical to pareto.edp_optimal on an
    # all-feasible frontier (inlined here: pareto imports this module).
    return min(frontier, key=lambda p: (p.edp, p.time_s, p.label))


def knee_nd(
    points: Sequence[EvaluatedDesign],
    objectives: Sequence[str | Objective] | None = None,
) -> EvaluatedDesign:
    """The frontier point farthest from the endpoint simplex.

    Every axis is normalized to [0, 1] over the frontier's span; the N
    per-axis minimizers are the frontier's endpoints, and the knee is
    the frontier point of maximum distance from the hyperplane they
    span.  With two objectives that hyperplane is the endpoint chord —
    the classic knee.  Degenerate frontiers (fewer than N+1 points, a
    zero-span axis, or a singular endpoint simplex) fall back to the
    EDP optimum, mirroring the 2-objective rule.
    """
    objs = resolve_objectives(objectives)
    frontier = frontier_nd(points, objs)
    if not frontier:
        raise ModelError("no feasible design to locate a knee on")
    if len(frontier) <= len(objs):
        return _edp_rule(frontier)
    vectors = [objective_vector(p, objs) for p in frontier]
    lows = [min(v[i] for v in vectors) for i in range(len(objs))]
    highs = [max(v[i] for v in vectors) for i in range(len(objs))]
    spans = [high - low for low, high in zip(lows, highs)]
    if any(span <= 0 for span in spans):
        return _edp_rule(frontier)
    normalized = [
        tuple((v[i] - lows[i]) / spans[i] for i in range(len(objs)))
        for v in vectors
    ]
    if len(objs) == 2:
        return _knee_2d(frontier, normalized)
    return _knee_simplex(frontier, normalized)


def _knee_2d(
    frontier: Sequence[EvaluatedDesign],
    normalized: Sequence[tuple[float, ...]],
) -> EvaluatedDesign:
    """Max perpendicular distance from the chord between the sort ends.

    The frontier is monotone under two objectives (first axis ascending,
    second descending), so the lexicographic ends are exactly the
    per-axis minimizers — the same chord, arithmetic and tie-breaks, as
    the classic knee.
    """
    x0, y0 = normalized[0]
    x1, y1 = normalized[-1]
    dx, dy = x1 - x0, y1 - y0
    length = (dx * dx + dy * dy) ** 0.5
    best, best_distance = frontier[0], -1.0
    for point, (x, y) in zip(frontier, normalized):
        distance = abs(dx * (y0 - y) - (x0 - x) * dy) / length
        if distance > best_distance:
            best, best_distance = point, distance
    return best


def _knee_simplex(
    frontier: Sequence[EvaluatedDesign],
    normalized: Sequence[tuple[float, ...]],
) -> EvaluatedDesign:
    """Max distance from the hyperplane through the per-axis minimizers."""
    dims = len(normalized[0])
    endpoints = []
    for axis in range(dims):
        index = min(
            range(len(frontier)),
            key=lambda i: (normalized[i][axis], normalized[i], frontier[i].label),
        )
        endpoints.append(normalized[index])
    matrix = np.array(endpoints, dtype=float)
    try:
        # the hyperplane a·x = 1 through the N endpoints
        coeffs = np.linalg.solve(matrix, np.ones(dims))
    except np.linalg.LinAlgError:
        return _edp_rule(frontier)  # coincident/degenerate endpoints
    norm = float(np.linalg.norm(coeffs))
    if norm <= 0 or not np.isfinite(norm):
        return _edp_rule(frontier)
    best, best_distance = frontier[0], -1.0
    for point, vector in zip(frontier, normalized):
        distance = abs(float(np.dot(coeffs, vector)) - 1.0) / norm
        if distance > best_distance:
            best, best_distance = point, distance
    return best


def best_under_budget(
    points: Sequence[EvaluatedDesign], max_usd: float
) -> EvaluatedDesign:
    """The fastest feasible design whose price fits the budget.

    The TCO counterpart of the SLA selectors: cap dollars, optimize
    performance.  Ties on time resolve to lower energy, then label.
    Raises :class:`ModelError` when the budget is invalid, no point
    carries a price (no :class:`~repro.costmodel.model.CostModel` was
    configured), or nothing fits.
    """
    if max_usd <= 0:
        raise ModelError(f"budget must be > 0 USD, got {max_usd}")
    priced = [p for p in _feasible(points) if p.price_usd is not None]
    if not priced:
        raise ModelError(f"no design point carries a price; {_COST_HINT}")
    eligible = [p for p in priced if p.price_usd <= max_usd]
    if not eligible:
        raise ModelError(
            f"no feasible design fits the ${max_usd:g} budget"
        )
    return min(eligible, key=lambda p: (p.time_s, p.energy_j, p.label))


def best_under_carbon(
    points: Sequence[EvaluatedDesign], max_g: float
) -> EvaluatedDesign:
    """The fastest feasible design within a carbon cap (gCO₂).

    Ties on time resolve to lower energy, then label; raises
    :class:`ModelError` when the cap is invalid, no point carries a
    carbon value, or nothing fits.
    """
    if max_g <= 0:
        raise ModelError(f"carbon cap must be > 0 gCO₂, got {max_g}")
    priced = [p for p in _feasible(points) if p.carbon_g is not None]
    if not priced:
        raise ModelError(f"no design point carries a carbon value; {_COST_HINT}")
    eligible = [p for p in priced if p.carbon_g <= max_g]
    if not eligible:
        raise ModelError(
            f"no feasible design fits the {max_g:g} gCO₂ carbon cap"
        )
    return min(eligible, key=lambda p: (p.time_s, p.energy_j, p.label))
