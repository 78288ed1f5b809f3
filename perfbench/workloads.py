"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, writes them with
statelift's own writers, and returns a round: a fixed list of steps that the
timed phase repeats.  A step is one operation (one CLI run, or one adjoint
check) or, for ``nogo``, one CLI run of several trials, each trial an
operation.  Only the call into statelift is timed; each output is then
checked against ``checks``.  Import this module only after the BLAS thread
count is fixed, because it imports numpy.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from statelift import cli, fileio, liftings, observables

# Sizes of the full benchmark and of the self-test.  A rate metric
# ("op1", "op2", "op3") names the end-to-end rate a step counts toward.
# Some steps run several times a round ("repeat"), so that every rate gathers
# a fair share of the run's time and its median has enough samples to settle.
FULL = {
    "analyze-files": {"splits": [((4, 4), "op3", 4), ((8, 4), "op2", 1), ((4, 8), "op2", 1),
                                 ((8, 8), "op1", 1)]},
    "nogo-sweep": {"sweeps": [((4, 4), 20, "op3", 3), ((8, 4), 2, "op2", 5), ((8, 8), 1, "op1", 2)]},
    "montecarlo": {"large": 64, "small": 16, "repeat": 2, "n": 50_000},
    "dynamics-dual": {"evolve": [((8, 8), 4), ((16, 4), 2)], "adjoint": ((8, 8), 3)},
}
SMOKE = {
    "analyze-files": {"splits": [((2, 2), "op3", 2), ((3, 2), "op2", 1), ((2, 3), "op2", 1),
                                 ((3, 3), "op1", 1)]},
    "nogo-sweep": {"sweeps": [((2, 2), 3, "op3", 1), ((3, 2), 2, "op2", 1), ((3, 3), 1, "op1", 2)]},
    "montecarlo": {"large": 8, "small": 4, "repeat": 2, "n": 20_000},
    "dynamics-dual": {"evolve": [((2, 2), 2), ((3, 2), 1)], "adjoint": ((2, 2), 1)},
}

KINDS = ("product", "kraus_local", "perturbed", "entangling")
PERTURBATION_EPS = 1e-2
EVOLVE_TIME = 0.9
# The no-go falsifier: a fixed sweep whose trial 54 comes back inconclusive
# (residual 1.039e-8 against the 1e-8 threshold).  Its inputs do not depend
# on the benchmark seed, so it fails once in every round.
KNOWN_SWEEP = {"ds": 2, "de": 2, "trials": 100, "eps": 1e-8, "seed": 7}
KNOWN_FAULTS = frozenset({54})
# A step whose largest array holds this many bytes or more is scaled by the
# memory reference (see reference.py); the others by the compute one.  The
# lifting matrices of analyze and evolve stay below it (4 MB at (8,8)).
MEMORY_BOUND_BYTES = 10 * 2**20


@dataclass
class Outcome:
    seconds: float
    attempted: int
    failed: int
    problems: list  # failures other than the known fault


@dataclass
class Step:
    label: str
    metrics: tuple  # rate metrics this step counts toward
    work: int  # units those rates count: analyses, trials, samples or checks
    run: Callable[[], Outcome]
    reference: str = "compute"  # the reference.py timing that scales it


@dataclass
class Plan:
    steps: list
    warmup: Step


class CliRunner:
    """Runs ``statelift.cli.main`` in-process with captured output."""

    def __init__(self, workdir: str):
        self.log = os.path.join(workdir, "statelift-runs.jsonl")

    def step(self, label, metrics, work, argv, check, attempted=1, reference="compute") -> Step:
        """A step whose ``check(code, report)`` returns (failed, problems)."""
        argv = ["--run-log", self.log] + [str(a) for a in argv]

        def run() -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                seconds = time.perf_counter() - start
                return Outcome(seconds, attempted, attempted, [traceback.format_exc(limit=3)])
            seconds = time.perf_counter() - start
            try:
                failed, problems = check(code, checks.parse_report(out.getvalue()))
            except (KeyError, ValueError, IndexError) as exc:
                failed, problems = attempted, [f"unreadable output: {exc!r}"]
            problems = [f"{label}: {p}" for p in problems]
            if problems and err.getvalue():
                problems.append(f"{label}: stderr: {err.getvalue()[-300:]}")
            return Outcome(seconds, attempted, failed, problems)

        return Step(label, metrics, work, run, reference)


def _reference_kind(array_bytes: int) -> str:
    return "memory" if array_bytes >= MEMORY_BOUND_BYTES else "compute"


def _single(check):
    """Adapt a problem-list check of a one-operation run with exit code 0."""

    def run(code, report):
        problems = [f"exit code {code}"] if code != 0 else check(report)
        return (1 if problems else 0), problems

    return run


# ---------------------------------------------------------------------------
# analyze-files
# ---------------------------------------------------------------------------


def _lifting(kind, ds, de, rng):
    """A lifting of the given kind and the reference a product verdict must show."""
    d = checks.random_density(rng, de)
    if kind == "product":
        return liftings.product_lifting(d, ds), d
    if kind == "kraus_local":
        v = checks.random_unitary(rng, de)
        return liftings.kraus_lifting([np.kron(np.eye(ds), v)], d, ds), v @ d @ v.conj().T
    if kind == "perturbed":
        base = liftings.product_lifting(d, ds)
        delta = checks.trace_kernel_direction(rng, ds, de)
        return liftings.Lifting(ds, de, base.matrix + PERTURBATION_EPS * delta), None
    u = checks.random_unitary(rng, ds * de)
    return liftings.kraus_lifting([u], d, ds), None


def analyze_files(seed, workdir, sizes, runner) -> Plan:
    rng = np.random.default_rng([seed, 1])
    steps = []
    for (ds, de), metric, repeat in sizes["splits"]:
        for kind in KINDS:
            f, reference = _lifting(kind, ds, de, rng)
            path = os.path.join(workdir, f"{kind}-{ds}x{de}.lift")
            fileio.write_lifting(path, f)
            if reference is not None:
                check = _single(lambda rep, de=de, ref=reference: checks.check_analyze_product(rep, de, ref))
            elif kind == "perturbed":
                check = _single(lambda rep, m=f.matrix, ds=ds, de=de: checks.check_analyze_positivity(rep, m, ds, de))
            else:
                check = _single(lambda rep, m=f.matrix, ds=ds, de=de: checks.check_analyze_trace(rep, m, ds, de))
            argv = ["analyze", "--lifting", path, "--dims", f"{ds},{de}"]
            steps += [runner.step(f"analyze {kind} ({ds},{de})", (metric,), 1, argv, check)] * repeat
    return Plan(steps, warmup=steps[0])


# ---------------------------------------------------------------------------
# nogo-sweep
# ---------------------------------------------------------------------------


def _sweep(runner, label, metrics, ds, de, trials, eps, seed, faults=frozenset()):
    argv = ["nogo", "--ds", ds, "--de", de, "--trials", trials, "--eps", eps, "--seed", seed]

    def check(code, report):
        return checks.check_nogo(report, code, trials, faults)

    # random_perturbation holds the (ds de)^2 Hermitian basis of the composite space
    kind = _reference_kind(16 * (ds * de) ** 4)
    return runner.step(label, metrics, trials, argv, check, attempted=trials, reference=kind)


def nogo_sweep(seed, workdir, sizes, runner) -> Plan:
    rng = np.random.default_rng([seed, 2])
    steps = []
    for (ds, de), trials, metric, repeat in sizes["sweeps"]:
        sweep_seed = int(rng.integers(1, 2**31))
        label = f"nogo ({ds},{de}) eps={PERTURBATION_EPS:g}"
        steps += [_sweep(runner, label, (metric,), ds, de, trials, PERTURBATION_EPS, sweep_seed)] * repeat
    k = KNOWN_SWEEP
    steps.append(
        _sweep(runner, f"nogo ({k['ds']},{k['de']}) eps={k['eps']:g} seed={k['seed']}", (),
               k["ds"], k["de"], k["trials"], k["eps"], k["seed"], KNOWN_FAULTS)
    )
    warmup = _sweep(runner, "nogo warm-up", (), 2, 2, 1, PERTURBATION_EPS, int(rng.integers(1, 2**31)))
    return Plan(steps, warmup)


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def montecarlo(seed, workdir, sizes, runner) -> Plan:
    rng = np.random.default_rng([seed, 3])
    n = sizes["n"]
    steps = []
    for d, est_metrics, emp_metrics in ((sizes["large"], ("op1",), ("op2",)),
                                        (sizes["small"], ("op3",), ("op3",))):
        b, a = checks.random_density(rng, d), checks.random_hermitian(rng, d)
        b_path = os.path.join(workdir, f"state-d{d}.mat")
        a_path = os.path.join(workdir, f"obs-d{d}.mat")
        out_path = os.path.join(workdir, f"empirical-d{d}.mat")
        fileio.write_matrix(b_path, b)
        fileio.write_matrix(a_path, a)
        est_seed, emp_seed = (int(s) for s in rng.integers(1, 2**31, size=2))
        kind = _reference_kind(16 * n * d)  # the n complex Gaussian draws
        steps += sizes["repeat"] * [runner.step(
            f"estimate d{d}", est_metrics, n,
            ["estimate", "--state", b_path, "--obs", a_path, "--n", n, "--seed", est_seed],
            _single(lambda rep, b=b, a=a: checks.check_estimate(rep, b, a, n)), reference=kind,
        ), runner.step(
            f"empirical d{d}", emp_metrics, n,
            ["empirical", "--state", b_path, "--n", n, "--seed", emp_seed, "--out", out_path],
            _single(lambda rep, b=b, out=out_path: checks.check_empirical(rep, out, b, n)),
            reference=kind,
        )]
    return Plan(steps, warmup=steps[-2])


# ---------------------------------------------------------------------------
# dynamics-dual
# ---------------------------------------------------------------------------


def _adjoint_step(label, metrics, ds, de, rng) -> Step:
    d = checks.random_density(rng, de)
    f = liftings.product_lifting(d, ds)
    a = checks.random_hermitian(rng, ds * de)
    rho = checks.random_density(rng, ds)

    def run() -> Outcome:
        start = time.perf_counter()
        r = observables.adjoint_lifting(f)
        unit = observables.check_unit_reduction(r)
        reduced = observables.reduce_observable(a, d)
        seconds = time.perf_counter() - start
        problems = checks.check_adjoint(f.matrix, r.matrix, unit, reduced, a, rho, d)
        return Outcome(seconds, 1, 1 if problems else 0, [f"{label}: {p}" for p in problems])

    # the dense adjoint is a (ds de)^2 x (ds de)^2 matrix
    return Step(label, metrics, 1, run, _reference_kind(16 * (ds * de) ** 4))


def dynamics_dual(seed, workdir, sizes, runner) -> Plan:
    rng = np.random.default_rng([seed, 4])
    steps = []
    for i, ((ds, de), repeat) in enumerate(sizes["evolve"]):
        h = checks.random_hermitian(rng, ds * de)
        d, rho = checks.random_density(rng, de), checks.random_density(rng, ds)
        paths = [os.path.join(workdir, f"{name}-{ds}x{de}.mat") for name in ("ham", "ref", "state", "out")]
        for path, m in zip(paths, (h, d, rho)):
            fileio.write_matrix(path, m)
        argv = ["evolve", "--ham", paths[0], "--ref", paths[1], "--state", paths[2],
                "--t", EVOLVE_TIME, "--out", paths[3]]
        check = _single(lambda rep, h=h, d=d, rho=rho, out=paths[3]:
                        checks.check_evolve(rep, out, h, d, rho, EVOLVE_TIME))
        metrics = ("op1", "op3") if i == 0 else ("op1",)
        steps += [runner.step(f"evolve ({ds},{de})", metrics, 1, argv, check)] * repeat
    (ds, de), repeat = sizes["adjoint"]
    steps += [_adjoint_step(f"adjoint ({ds},{de})", ("op2",), ds, de, rng)] * repeat
    return Plan(steps, warmup=steps[0])


BUILDERS = {
    "analyze-files": analyze_files,
    "nogo-sweep": nogo_sweep,
    "montecarlo": montecarlo,
    "dynamics-dual": dynamics_dual,
}
