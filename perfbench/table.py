"""Print the stage table of ROADMAP's open items from traced results.

    python3 perfbench/run.py --workload analyze-files --seed 1 --seconds 18 --trace 1
    python3 perfbench/run.py --workload nogo-sweep --seed 1 --seconds 18 --trace 1
    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 18 --trace 1
    python3 perfbench/run.py --workload dynamics-dual --seed 1 --seconds 18 --trace 1
    python3 perfbench/table.py

Reads the newest traced result of each workload under perfbench/out/results.
Times are per call, inclusive, with tracing on; peaks are tracemalloc peaks
of the named span.
"""

from __future__ import annotations

import glob
import json
import os

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "results")

# row title, workload, step label, span timed, span whose peak is shown
ROWS = [
    ("`analyze` on a product lifting, (8, 8)", "analyze-files", "analyze product (8,8)", "liftings.analyze", None),
    ("`analyze` on a product lifting, (8, 4)", "analyze-files", "analyze product (8,4)", "liftings.analyze", None),
    ("`adjoint_lifting`, (8, 8)", "dynamics-dual", "adjoint (8,8)", "observables.adjoint_lifting", "observables.adjoint_lifting"),
    ("`random_perturbation`, (8, 8)", "nogo-sweep", "nogo (8,8) eps=0.01", "liftings.random_perturbation", "liftings.random_perturbation"),
    ("`estimate_expectation`, n = 5e4, dim 64", "montecarlo", "estimate d64", "measures.estimate_expectation", "measures.draw"),
]


def newest(workload: str) -> dict:
    paths = glob.glob(os.path.join(RESULTS, f"{workload}-seed*-trace1-*.json"))
    if not paths:
        raise SystemExit(f"no traced result for {workload}; run it with --trace 1 first")
    with open(max(paths, key=os.path.getmtime)) as handle:
        return json.load(handle)


def main() -> None:
    print("| stage, at composite (ds, de) | time | peak memory |")
    print("|---|---|---|")
    for title, workload, label, timed, peaked in ROWS:
        stages = newest(workload)["stages"][label]
        row = stages[timed]
        seconds = row["seconds"] / row["calls"]
        peak = f"{stages[peaked]['peak_mb']:.0f} MB" if peaked else ""
        if peaked == "measures.draw":
            peak += " (draw)"
        print(f"| {title} | {seconds:.3g} s | {peak} |")


if __name__ == "__main__":
    main()
