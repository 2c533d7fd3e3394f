"""One benchmark run of one workload (see ``run.py`` for the CLI)."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import check
import speed
import tracer as layers
import workloads
from repro.telemetry import capture

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR.parent / ".perfbench"

#: fresh interpreters whose median import time is part of ``setup_s``
IMPORT_SAMPLES = 7


# ------------------------------------------------------------------ host
def host_facts() -> dict:
    """What a result needs to be normalized across hosts later."""
    loadavg = os.getloadavg()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": loadavg,
        "calibration_s": statistics.median(speed.calibration_kernel() for _ in range(5)),
    }


def hwm_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of one process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ------------------------------------------------------------------ runs
class Run:
    """One campaign after another until the time is spent."""

    def __init__(self, args, workload, seeds):
        self.args = args
        self.workload = workload
        self.seeds = seeds
        self.reference = check.load_reference(workload.name) if seeds.reference else None
        # one entry per campaign, untraced (False) and traced (True): host
        # seconds of set-up, host-second rate, and the host's slowness
        # while the rate was measured
        self.campaigns: dict[bool, list[dict]] = {False: [], True: []}
        self.imports: list[float] = []
        self.workers_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.layers: list[dict] = []
        self.spans: list[dict] = []

    def campaign(self, tracer=None):
        """Set up and run one cold campaign; check it; keep its numbers."""
        # the last campaign's garbage is collected here, not in this one
        gc.collect()
        if tracer is not None:
            tracer.install()
        meter = speed.meter(self.workload.workers)
        try:
            start = time.perf_counter()
            prepared = self.workload.prepare(self.seeds)
            ready = time.perf_counter()
            try:
                with capture(enabled=tracer is not None) as registry, meter:
                    outcome = prepared.campaign()
                done = time.perf_counter()
                workers = multiprocessing.active_children()
                self.workers_mb = max(
                    self.workers_mb, sum(hwm_mb(child.pid) for child in workers)
                )
            finally:
                prepared.close()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.campaigns[tracer is not None].append(
            {
                "setup_s": ready - start,
                "rate": outcome.candidates / (done - ready - meter.spent_s),
                "slowness": meter.slowness,
            }
        )
        # every record and, at the reference seeds, every pick is one output
        self.attempted += outcome.candidates
        if self.reference:
            self.attempted += len(self.reference["picks"])
        self.failures += check.check_outcome(
            outcome,
            prepared.context["expected"],
            prepared.context.get("last_arrival_s"),
            self.reference,
        )
        if tracer is not None:
            chunk_s = registry.span_stats("worker.chunk")[1]
            self.layers.append(
                layers.per_layer(registry.counters, chunk_s, outcome, self.workload.workers)
            )
            self.spans.append(
                {
                    "counters": registry.counters,
                    "spans": [
                        {"path": list(path), "calls": calls, "seconds": seconds}
                        for path, (calls, seconds) in registry.spans.items()
                    ],
                }
            )
        # the one-at-a-time replay check runs once per run, after the first campaign
        if self.workload.name == "diurnal-static" and len(self.campaigns[False]) == 1:
            self.attempted += len(check.REPLAY_SAMPLE)
            self.failures += check.check_replay(outcome, prepared.context)

    def execute(self) -> None:
        """Campaigns (untraced, then traced when tracing) until the next
        round would overrun ``--seconds``; at least one round.  Untraced
        runs also time ``IMPORT_SAMPLES`` imports, spread over the run so
        that they see the host as the campaigns do."""
        tracer = layers.LayerTracer() if self.args.trace else None
        imports = 0 if self.args.trace else IMPORT_SAMPLES
        start = time.perf_counter()
        longest = 0.0
        while True:
            begun = time.perf_counter()
            self.campaign()
            if tracer is not None:
                self.campaign(tracer)
            if len(self.imports) < imports * (begun - start) / self.args.seconds:
                self.imports.append(import_seconds())
            now = time.perf_counter()
            longest = max(longest, now - begun)
            if now - start + longest > self.args.seconds:
                break
        while len(self.imports) < imports:
            self.imports.append(import_seconds())


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC_DIR)!r}, {str(BENCH_DIR)!r}]\n"
        "import bench\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def reference_rate(run: Run, traced: bool) -> float:
    """Median over campaigns of the rate in reference-host seconds: each
    campaign's host-second rate times the host's slowness during it."""
    return statistics.median(c["rate"] * c["slowness"] for c in run.campaigns[traced])


def setup_seconds(run: Run) -> float:
    """Host seconds of set-up: the median import time of the program in
    ``IMPORT_SAMPLES`` fresh interpreters plus the median per-campaign
    set-up."""
    return statistics.median(run.imports) + statistics.median(
        c["setup_s"] for c in run.campaigns[False]
    )


def end_to_end(run: Run) -> dict:
    """The campaign rate in reference-host seconds, set-up in host
    seconds, and peak memory."""
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "candidates_per_s": (reference_rate(run, False), "1/s"),
        "setup_s": (setup_seconds(run), "s"),
        "peak_rss_mb": (parent_mb + run.workers_mb, "MB"),
    }


def host_figures(run: Run) -> dict:
    """The campaign rate in this host's own seconds, and its slowness."""
    campaigns = run.campaigns[False]
    return {
        "host candidates_per_s": (statistics.median(c["rate"] for c in campaigns), "1/s"),
        "host slowness": (statistics.median(c["slowness"] for c in campaigns), "ratio"),
    }


def per_layer(run: Run) -> tuple[dict, list[str]]:
    """Median of every per-layer metric over the traced campaigns, the
    tracing overhead, and the exact counts that did not repeat."""
    names = list(run.layers[0])
    metrics = {
        name: (
            statistics.median(layer[name][0] for layer in run.layers),
            run.layers[0][name][1],
        )
        for name in names
    }
    metrics["telemetry.trace_overhead"] = (
        reference_rate(run, False) / reference_rate(run, True) - 1.0,
        "ratio",
    )
    unsteady = [
        name
        for name in layers.COUNTS
        if len({layer[name][0] for layer in run.layers}) > 1
    ]
    return metrics, unsteady


def main(args) -> int:
    """One workload's run."""
    host = host_facts()
    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.Seeds.derive(
        args.seed, args.trace_seed, args.fault_seed, args.optimizer_seed
    )
    print(f"perfbench {workload.name}: {workload.why}")
    print(f"seeds: {seeds}")
    print(f"host: {json.dumps(host)}")

    run = Run(args, workload, seeds)
    try:
        run.execute()
    except Exception:
        # a campaign that raised returned no records to count: the run fails
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    failed = len(run.failures)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")

    if args.trace:
        metrics, unsteady = per_layer(run)
        print(f"traced campaigns: {len(run.layers)}, untraced: {len(run.campaigns[False])}")
        print("layers not visible: none (worker-process layers ship back with each chunk)")
        if unsteady:
            print(f"counts that did not repeat across traced campaigns: {unsteady}")
        host_only = {}
    else:
        metrics = end_to_end(run)
        host_only = host_figures(run)
        print(f"campaigns: {len(run.campaigns[False])}")
    for name, (value, unit) in {**metrics, **host_only}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / run.attempted:.6g} fraction ({failed}/{run.attempted})")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seeds": vars(seeds),
                "host": host,
                "metrics": reported,
                "attempted": run.attempted,
                "failures": run.failures,
                "host_figures": {k: v for k, (v, _) in host_only.items()},
                "campaigns": run.campaigns[False],
                "import_samples": run.imports,
                "traced_campaigns": run.spans,
            },
            handle,
            indent=1,
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0 if failed == 0 else 1
