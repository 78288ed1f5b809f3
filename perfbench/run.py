"""statelift benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload analyze-files --seed 1 --seconds 18 --trace 0

The workloads drive ``statelift.cli.main`` in-process (see workloads.py).
The run sets up ``SETUP_REPEATS`` times (input generation, file writes and
one warm-up call), then repeats whole rounds of the workload's operations
until ``--seconds`` have passed, timing ``IMPORT_REPEATS`` imports in a
fresh interpreter between rounds.  Step, import and set-up times are scaled
by reference computations timed in the run (see reference.py).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it spends half of ``--seconds`` untraced and half traced, and
reports per-layer figures from spans (see spans.py).
The last line of standard output is the result as one JSON object; the line
before it, and a file under perfbench/out/results/, record the environment.
The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# One closed-loop caller, single-threaded BLAS: steadier figures on a small
# shared machine than letting OpenBLAS spread each call over every core.
# The thread count is fixed here, before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import reference  # noqa: E402  (imports numpy)

# setup_s is the median of IMPORT_REPEATS fresh-interpreter imports plus the
# median of SETUP_REPEATS in-process set-ups.  Import times jump by up to 60 %
# for seconds at a time, so the imports are spread over the timed phase.
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
WORKLOADS = ("analyze-files", "nogo-sweep", "montecarlo", "dynamics-dual")

# end-to-end metric -> unit; what the op rates count per workload is in README
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op1_per_s": "1/s",
    "op2_per_s": "1/s",
    "op3_per_s": "1/s",
}


def _import_package() -> bool:
    """Put this checkout's ``src/`` first on the path; False if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "statelift", "cli.py")):
        return False
    sys.path.insert(0, src)
    return True


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": _git_commit(),
    }


def run_round(plan, ref, tracer=None) -> dict:
    """One pass over the plan's steps, each preceded by a reference timing."""
    r = {"times": [], "starts": [], "refs": [], "ref_starts": [],
         "attempted": 0, "failed": 0, "problems": []}
    for step in plan.steps:
        r["ref_starts"].append(time.perf_counter())
        r["refs"].append(ref.seconds())
        if tracer is not None:
            tracer.label = step.label
        r["starts"].append(time.perf_counter())
        outcome = step.run()
        r["times"].append(outcome.seconds)
        r["attempted"] += outcome.attempted
        r["failed"] += outcome.failed
        r["problems"] += outcome.problems
    return r


def timed_rounds(plan, ref, seconds, tracer=None, imports=None) -> list:
    """Whole rounds until ``seconds`` have passed.  ``imports`` (an
    ImportTimer) are timed between rounds, spread evenly over the phase and
    outside its clock."""
    rounds, paused = [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start - paused < seconds:
        rounds.append(run_round(plan, ref, tracer))
        if imports is not None:
            pause = time.perf_counter()
            share = min(1.0, (pause - start - paused) / seconds) if seconds > 0 else 1.0
            while len(imports.raw) < IMPORT_REPEATS * share:
                imports.time_one()
            paused += time.perf_counter() - pause
    while imports is not None and len(imports.raw) < IMPORT_REPEATS:
        imports.time_one()
    return rounds


def step_medians(plan, rounds) -> list:
    """Median scaled time of each step label over every run of it, in step order."""
    kinds = [step.reference for step in plan.steps] * len(rounds)
    scaled = reference.scale_steps(*([x for r in rounds for x in r[key]]
                                      for key in ("starts", "times", "ref_starts", "refs")), kinds)
    samples = {}
    for j, seconds in enumerate(scaled):
        samples.setdefault(plan.steps[j % len(plan.steps)].label, []).append(seconds)
    return [statistics.median(samples[step.label]) for step in plan.steps]


def end_to_end(plan, rounds, setup_s) -> dict:
    """Round time and rates from per-step medians: a rate is the work of its
    steps over their median times, so one slow sample moves it little."""
    medians = step_medians(plan, rounds)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for metric in ("op1", "op2", "op3"):
        steps = [(s, m) for s, m in zip(plan.steps, medians) if metric in s.metrics]
        values[f"{metric}_per_s"] = sum(s.work for s, _ in steps) / sum(m for _, m in steps)
    return values


class ImportTimer:
    """Times imports of numpy, scipy.linalg and statelift, each in a fresh
    interpreter (the benchmark's own imports are done by then).  An import
    is scaled by the memory reference timed twice just before and twice
    just after it."""

    PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import numpy, scipy.linalg, statelift.cli; print(time.perf_counter() - t)")

    def __init__(self, ref):
        self.ref = ref
        self.raw, self.scaled = [], []

    def time_one(self) -> None:
        before = [self.ref.seconds() for _ in range(2)]
        proc = subprocess.run([sys.executable, "-c", self.PROBE, os.path.join(ROOT, "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        after = [self.ref.seconds() for _ in range(2)]
        self.raw.append(float(proc.stdout))
        self.scaled.append(reference.scale(self.raw[-1], before + after, "memory"))


def measure(name, seed, seconds, trace, sizes, workdir) -> tuple:
    """Set up, run the timed phase, and return (result, details)."""
    import spans
    import workloads

    runner = workloads.CliRunner(workdir)
    build = workloads.BUILDERS[name]
    ref = reference.Reference()
    tracer = spans.Tracer() if trace else None
    raw_setups, setups, problems = [], [], []
    imports = ImportTimer(ref)
    for _ in range(SETUP_REPEATS if not trace else 1):
        if tracer is not None:
            tracer.phase = "setup"
            tracer.install()
        before = [ref.seconds() for _ in range(2)]
        start = time.perf_counter()
        plan = build(seed, workdir, sizes[name], runner)
        problems += plan.warmup.run().problems
        raw_setups.append(time.perf_counter() - start)
        after = [ref.seconds() for _ in range(2)]
        setups.append(reference.scale(raw_setups[-1], before + after, "compute"))
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        rounds = timed_rounds(plan, ref, seconds, imports=imports)
    else:
        # half the time untraced, half traced: the difference is the overhead
        untraced = timed_rounds(plan, ref, seconds / 2)
        tracer.phase = "round"
        tracer.install()
        try:
            traced = timed_rounds(plan, ref, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        rounds = untraced + traced

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems += [p for r in rounds for p in r["problems"]]
    if tracer is None:
        values = end_to_end(plan, rounds, statistics.median(imports.scaled) + statistics.median(setups))
        units = END_TO_END
    else:
        values = spans.layer_metrics(tracer.spans, len(traced), "setup", "round")
        values["trace.overhead_s"] = (
            sum(step_medians(plan, traced)) - sum(step_medians(plan, untraced))
        )
        units = spans.LAYER_METRICS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    details = {
        "steps": [step.label for step in plan.steps],
        "rounds": [{k: r[k] for k in ("starts", "times", "ref_starts", "refs")} for r in rounds],
        "setup_raw_s": raw_setups,
        "setup_scaled_s": setups,
        "import_raw_s": imports.raw,
        "import_scaled_s": imports.scaled,
        "problems": problems[:20],
    }
    if tracer is not None:
        details["stages"] = stage_table(tracer.spans, len(traced))
    return result, details


def stage_table(spans_, rounds) -> dict:
    """Per step label and span name: calls, inclusive seconds and allocation
    peak over the traced rounds, per round (read by table.py)."""
    table = {}
    for s in spans_:
        if s.phase != "round":
            continue
        row = table.setdefault(s.label, {}).setdefault(s.name, {"calls": 0, "seconds": 0.0})
        row["calls"] += 1 / rounds
        row["seconds"] += s.seconds / rounds
        if "peak_mb" in s.info:
            row["peak_mb"] = max(row.get("peak_mb", 0.0), s.info["peak_mb"])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_package():
        print(f"error: no statelift sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, args.trace,
                                  workloads.FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "result": result, **details}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for problem in details["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print("environment = " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
