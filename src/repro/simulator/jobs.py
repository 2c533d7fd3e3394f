"""Workload description consumed by the simulator: flows, phases, jobs.

* :class:`FlowSpec` — one pipeline on one node (e.g. "scan my ORDERS
  partition, filter, hash-partition, send"), with a total volume in
  reference MB and per-resource demand coefficients.
* :class:`Phase` — a set of flows that run together; the phase ends when
  *all* of its flows complete (a barrier — P-store's build phase must
  finish on every node before any node may start probing).
* :class:`Job` — an ordered list of phases (e.g. build then probe), with a
  start time.  Multiple jobs model the paper's concurrent-query
  experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = ["FlowSpec", "Phase", "Job"]


@dataclass(frozen=True)
class FlowSpec:
    """A constant-proportions pipeline with a fixed amount of work.

    ``volume_mb`` is measured in *reference units*: the pre-filter size of
    the data the pipeline consumes.  ``demands`` maps resource names (see
    :mod:`repro.simulator.resources`) to usage per reference MB/s.
    """

    name: str
    volume_mb: float
    demands: Mapping[str, float]

    def __post_init__(self) -> None:
        if not math.isfinite(self.volume_mb):
            raise ConfigurationError(
                f"flow {self.name!r}: volume must be finite, got {self.volume_mb}"
            )
        if self.volume_mb < 0:
            raise ConfigurationError(f"flow {self.name!r}: negative volume {self.volume_mb}")
        if self.volume_mb > 0 and not self.demands:
            raise ConfigurationError(f"flow {self.name!r} has volume but no demands")
        for resource, coef in self.demands.items():
            if not (0 < coef < math.inf):
                raise ConfigurationError(
                    f"flow {self.name!r}: coefficient on {resource!r} must be "
                    f"finite and > 0, got {coef}"
                )


@dataclass(frozen=True)
class Phase:
    """Flows that execute concurrently and barrier-complete together."""

    name: str
    flows: tuple[FlowSpec, ...]

    def __post_init__(self) -> None:
        if not self.flows:
            raise ConfigurationError(f"phase {self.name!r} has no flows")

    @property
    def total_volume_mb(self) -> float:
        return sum(flow.volume_mb for flow in self.flows)


@dataclass(frozen=True)
class Job:
    """An ordered sequence of phases (one query execution)."""

    name: str
    phases: tuple[Phase, ...]
    start_time_s: float = 0.0
    metadata: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError(f"job {self.name!r} has no phases")
        if self.start_time_s < 0:
            raise ConfigurationError(
                f"job {self.name!r}: negative start time {self.start_time_s}"
            )

    @property
    def total_volume_mb(self) -> float:
        return sum(phase.total_volume_mb for phase in self.phases)
