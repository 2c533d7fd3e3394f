"""Write the committed output reference from the current program.

    python3 perfbench/make_reference.py [workload ...]

Runs one cold campaign per workload at the reference seeds and stores
every record and pick under ``perfbench/reference/``.  Run it only on a
commit whose outputs are known good (the reference is what later commits
are held to), and commit the files it writes.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import workloads  # noqa: E402


def main(names) -> None:
    for name in names or workloads.WORKLOADS:
        prepared = workloads.WORKLOADS[name].prepare(workloads.Seeds())
        try:
            outcome = prepared.campaign()
        finally:
            prepared.close()
        path = check.write_reference(name, outcome)
        print(f"{name}: {outcome.candidates} records, {len(outcome.picks)} picks -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
