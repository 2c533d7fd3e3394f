"""Output checks: the committed reference, invariants, serial replay.

* At the reference seeds every record must equal, field for field, the
  record the parent commit produced (``reference/<workload>.json``,
  written by ``make_reference.py``), and every pick must name the same
  design.
* At any seed every candidate must yield a feasible record whose
  statistics are physically sane (see :func:`record_faults`).
* At any seed a fixed sample of ``diurnal-static`` candidates replayed
  one at a time through ``evaluate_timed_design`` must equal the batched
  records.

Every failure names the check and the candidate; the runner counts one
failed output per failing record, pick or replayed sample.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.search.evaluators import evaluate_timed_design

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: every compared record field, in reference-file column order
FIELDS = (
    "label",
    "time_s",
    "energy_j",
    "feasible",
    "latency",
    "degraded_latency",
    "policy",
    "gated_node_seconds",
    "energy_saved_j",
    "recovery_energy_j",
    "retried_jobs",
    "dropped_jobs",
    "faults_survived",
    "carbon_g",
    "price_usd",
)
PROFILE = ("mean_s", "p50_s", "p95_s", "p99_s", "max_s", "count")

#: positions of the diurnal-static candidates replayed one at a time
REPLAY_SAMPLE = (0, 43, 86, 129, 172, 215)


def row(point) -> list:
    """One record as a JSON-ready list of :data:`FIELDS`."""
    values = []
    for name in FIELDS:
        value = getattr(point, name)
        if name in ("latency", "degraded_latency") and value is not None:
            value = [getattr(value, stat) for stat in PROFILE]
        values.append(value)
    return values


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def write_reference(workload: str, outcome) -> Path:
    """Store every record and pick, one record per line so diffs stay
    readable."""
    records = ",\n".join(
        f"{json.dumps(name)}: [\n"
        + ",\n".join(json.dumps(row(point)) for point in points)
        + "\n]"
        for name, points in outcome.records.items()
    )
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        "{\n"
        f'"fields": {json.dumps(list(FIELDS))},\n'
        f'"picks": {json.dumps(outcome.picks, sort_keys=True)},\n'
        f'"records": {{\n{records}\n}}\n}}\n'
    )
    return path


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as handle:
        return json.load(handle)


def record_faults(point, last_arrival_s: float | None) -> list[str]:
    """Invariant violations of one record (empty when it is sane)."""
    if not point.feasible:
        return [f"infeasible: {point.infeasible_reason}"]
    faults = []
    if not (math.isfinite(point.energy_j) and point.energy_j > 0):
        faults.append(f"energy {point.energy_j!r} not finite and > 0")
    if not (math.isfinite(point.time_s) and point.time_s > 0):
        faults.append(f"time {point.time_s!r} not finite and > 0")
    if last_arrival_s is not None and not point.time_s >= last_arrival_s:
        faults.append(f"makespan {point.time_s} before last arrival {last_arrival_s}")
    profiles = [p for p in (point.latency, point.degraded_latency) if p is not None]
    if last_arrival_s is not None and len(profiles) != 1:
        faults.append(f"{len(profiles)} latency profiles on a timed record")
    for profile in profiles:
        chain = (0.0, profile.p50_s, profile.p95_s, profile.p99_s, profile.max_s)
        if any(a > b for a, b in zip(chain, chain[1:])):
            faults.append(f"latency not 0 <= p50 <= p95 <= p99 <= max: {profile}")
        if profile.mean_s < 0 or profile.count < 1:
            faults.append(f"latency mean/count invalid: {profile}")
    for name in ("retried_jobs", "dropped_jobs", "faults_survived", "recovery_energy_j"):
        value = getattr(point, name)
        if value is not None and value < 0:
            faults.append(f"{name} = {value} < 0")
    return faults


def check_outcome(outcome, expected: dict, last_arrival_s, reference) -> list[str]:
    """Every output failure of one campaign, one message per failure."""
    failures = []
    for name, count in expected.items():
        points = outcome.records.get(name, [])
        if len(points) != count:
            failures.append(f"{name}: {len(points)} records for {count} candidates")
    for name, points in outcome.records.items():
        want = reference["records"].get(name) if reference else None
        if want is not None and len(points) < len(want):
            failures.append(f"{name}: {len(points)} records, reference has {len(want)}")
        for index, point in enumerate(points):
            problems = record_faults(point, last_arrival_s)
            got = json.loads(json.dumps(row(point)))
            if want is not None and (index >= len(want) or got != want[index]):
                problems.append(
                    "differs from reference "
                    f"{want[index] if index < len(want) else None}: {got}"
                )
            if problems:
                failures.append(f"{name}/{point.label}: " + "; ".join(problems))
    if reference:
        for name in reference["records"].keys() - outcome.records.keys():
            failures.append(f"{name}: no records, reference has some")
        for pick, label in reference["picks"].items():
            if outcome.picks.get(pick) != label:
                failures.append(
                    f"pick {pick}: {outcome.picks.get(pick)} != reference {label}"
                )
    return failures


def check_replay(outcome, context: dict) -> list[str]:
    """Serial one-at-a-time replay of the sample equals the batch."""
    failures = []
    points = outcome.records["static"]
    for index in REPLAY_SAMPLE:
        batched = points[index]
        alone = evaluate_timed_design(
            context["evaluator"], batched.candidate, context["trace"]
        )
        if row(alone) != row(batched):
            failures.append(
                f"replay {batched.label}: serial {row(alone)} != batched {row(batched)}"
            )
    return failures
