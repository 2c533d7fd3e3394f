"""Run the repository's benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload diurnal-static --seed 11 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, one after another

One run is a closed loop: a single client runs one cold campaign at a
time (set-up, then the campaign) and starts the next only after the last
has finished, until ``--seconds`` are spent; at most ``nproc`` (2) worker
processes exist at any time.  Outputs are checked after each campaign,
outside the timed window.

``--trace 0`` prints the end-to-end metrics over the run's campaigns
(see ``README.md``); ``--trace 1`` alternates untraced and traced
campaigns and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed``
over ``attempted`` is the error rate.  The process exits 1 when an output
check fails and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("diurnal-static", "serial-replay", "model-optimize")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=int,
        default=11,
        help="input seed: 11 replays the reference inputs, any other value "
        "jitters them (default 11)",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=11,
        help="seed of the diurnal arrival draw (default 11)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="fault-schedule and failure-policy jitter seed "
        "(default: none at seed 11, else --seed)",
    )
    parser.add_argument(
        "--optimizer-seed",
        type=int,
        default=None,
        help="optimizer seed (default: 0 at seed 11, else --seed)",
    )
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        for flag, value in (
            ("--trace-seed", args.trace_seed),
            ("--fault-seed", args.fault_seed),
            ("--optimizer-seed", args.optimizer_seed),
        ):
            if value is not None:
                command += [flag, str(value)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        status = max(status, done.returncode)
        if lines and done.returncode in (0, 1):
            summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return main_all(args)
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
