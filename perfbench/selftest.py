"""Fast self-test of the benchmark.

Runs every workload at its smallest sizes (``workloads.SMOKE``) with all of
its correctness checks, untraced and traced, shows that the checks reject
wrong outputs, and that the benchmark refuses to run without ``src/``.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

assert run._import_package(), "statelift sources not found"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from statelift import liftings  # noqa: E402

os.makedirs(run.OUT, exist_ok=True)
run.IMPORT_REPEATS = 1  # keeps the self-test fast; the import is still timed


def _measure(name, trace):
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        return run.measure(name, 3, 0, trace, workloads.SMOKE, workdir)


def test_every_workload_runs_and_passes_its_checks():
    for name in run.WORKLOADS:
        result, details = _measure(name, trace=0)
        assert result["correct"], (name, details["problems"])
        # correct admits only the known no-go falsifier, at most once a round
        allowed = len(details["rounds"]) if name == "nogo-sweep" else 0
        assert result["failed"] <= allowed, (name, result)
        assert set(result["metrics"]) == set(run.END_TO_END)
        for metric, entry in result["metrics"].items():
            assert entry["value"] > 0, (name, metric)


def test_traced_runs_report_every_layer_metric():
    for name in run.WORKLOADS:
        result, details = _measure(name, trace=1)
        assert result["correct"], (name, details["problems"])
        assert list(result["metrics"]) == list(spans.LAYER_METRICS)
        assert all(math.isfinite(e["value"]) for e in result["metrics"].values())
        assert result["metrics"]["cli.runs"]["value"] > 0


def test_tracer_restores_the_package():
    from statelift import cli, dynamics

    before = (cli.main, dynamics.apply_lifting, liftings.apply_lifting)
    tracer = spans.Tracer()
    tracer.install()
    assert dynamics.apply_lifting is liftings.apply_lifting is not before[2]
    tracer.uninstall()
    assert (cli.main, dynamics.apply_lifting, liftings.apply_lifting) == before


def test_perturbation_direction_respects_the_constraints():
    rng = np.random.default_rng(5)
    for ds, de in ((2, 3), (3, 2)):
        delta = checks.trace_kernel_direction(rng, ds, de)
        base = liftings.product_lifting(checks.random_density(rng, de), ds)
        f = liftings.Lifting(ds, de, base.matrix + 0.1 * delta)
        assert liftings.check_hermiticity_preserving(f) < 1e-12
        assert liftings.check_trace_constraint(f) < 1e-12
        assert abs(np.linalg.norm(delta) - 1.0) < 1e-12


def test_checks_reject_wrong_outputs():
    d = np.diag([0.75, 0.25]).astype(complex)
    product = {"verdict": "product", "tol": "1e-08", "residual": "0",
               "structure.max_deviation": "0"}
    for r in range(2):
        for c in range(2):
            product[f"reference[{r},{c}]"] = f"{d[r, c].real} 0"
    assert checks.check_analyze_product(product, 2, d) == []
    assert checks.check_analyze_product(product, 2, d[::-1, ::-1])
    assert checks.check_analyze_product(dict(product, verdict="inconclusive"), 2, d)

    report = {"tol": "1e-08", "trial[0]": "product 1e-12", "trial[1]": "inconclusive 2e-08",
              "count[product]": "1", "count[inconclusive]": "1"}
    assert checks.check_nogo(report, 6, 2, frozenset({1})) == (1, [])
    failed, problems = checks.check_nogo(report, 6, 2, frozenset())
    assert failed == 1 and problems
    assert checks.check_nogo(report, 0, 2, frozenset({1}))[1]

    b = np.eye(4) / 4
    a = np.diag([1.0, -1.0, 2.0, 0.0]).astype(complex)
    exact = float(np.trace(a @ b).real)
    assert checks.check_estimate({"estimate": str(exact), "n": "1000"}, b, a, 1000) == []
    assert checks.check_estimate({"estimate": str(exact + 0.5), "n": "1000"}, b, a, 1000)


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "nogo-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and proc.stdout == "", proc


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
