"""Command-line front end.

One verb per process; reports are line-oriented ``key = value`` text on
stdout, primary outputs are written atomically through the shared text
formats, and every run appends a JSON record (command, input digests,
parameters, outputs, timing) to the run log.

Exit codes: 0 success, 2 usage, 3 format error or unreadable/unwritable file,
4 dimension mismatch, 5 constraint violation, 6 no-go falsifier, 7 numerical
failure (a linear-algebra routine that did not converge or met a singular
matrix).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from functools import cache

import numpy as np

from . import dynamics, fileio, liftings, measures, states
from .config import tolerances
from .errors import ConstraintViolation, DimensionMismatch, FormatError
from .linalg import partial_trace_env, partial_trace_sys, trace_norm

EXIT_OK = 0
EXIT_FORMAT = 3
EXIT_DIMENSION = 4
EXIT_CONSTRAINT = 5
EXIT_FALSIFIER = 6
EXIT_NUMERICAL = 7

_FLOAT = "{:.17g}"


def _f(x) -> str:
    return _FLOAT.format(float(x))


def _c(z) -> str:
    return f"{_FLOAT.format(z.real)} {_FLOAT.format(z.imag)}"


def _digest(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(2**20), b""):  # 1 MiB at a time
                h.update(block)
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return h.hexdigest()


def _print_matrix(name: str, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            print(f"{name}[{r},{c}] = {_c(m[r, c])}")


class _Run:
    """Collects the run record for the log."""

    def __init__(self, command: str, params: dict):
        self.record = {"command": command, "inputs": {}, "params": params, "outputs": []}

    def input(self, path: str) -> str:
        self.record["inputs"][path] = _digest(path)
        return path

    def output(self, path: str) -> str:
        self.record["outputs"].append(path)
        return path


def _parse_dims(text: str) -> tuple:
    try:
        ds, de = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise DimensionMismatch(f"--dims expects 'dS,dE', got {text!r}") from exc
    if ds < 1 or de < 1:
        raise DimensionMismatch(f"--dims must be positive, got {text!r}")
    return ds, de


def _nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ConstraintViolation(f"--{name} must be nonnegative, got {value}")


def _finite_nonnegative(name: str, value: float) -> float:
    if not 0 <= value < math.inf:
        raise ConstraintViolation(f"--{name} must be finite and nonnegative, got {value}")
    return value


def _print_measure(prefix: str, mu) -> None:
    for i, (weight, v) in enumerate(zip(mu.weights, mu.vectors)):
        print(f"{prefix}weight[{i}] = {_f(weight)}")
        for j, z in enumerate(v):
            print(f"{prefix}vector[{i}][{j}] = {_c(z)}")


def _cmd_lift(args, run: _Run) -> int:
    rho = states.validate_density(fileio.read_matrix(run.input(args.state)))
    d = fileio.read_matrix(run.input(args.ref))
    f = liftings.product_lifting(d, rho.shape[0])
    fileio.write_matrix(run.output(args.out), liftings.apply_lifting(f, rho))
    print(f"out = {args.out}")
    return EXIT_OK


def _cmd_reduce(args, run: _Run) -> int:
    w = fileio.read_matrix(run.input(args.state))
    ds, de = _parse_dims(args.dims)
    if args.side == "env":
        out = partial_trace_env(w, ds, de)
    else:
        out = partial_trace_sys(w, ds, de)
    fileio.write_matrix(run.output(args.out), out)
    print(f"out = {args.out}")
    return EXIT_OK


def _cmd_analyze(args, run: _Run) -> int:
    tol = tolerances.residual if args.tol is None else _finite_nonnegative("tol", args.tol)
    f = fileio.read_lifting(run.input(args.lifting))
    if args.dims is not None:
        ds, de = _parse_dims(args.dims)
        if (ds, de) != (f.ds, f.de):
            raise DimensionMismatch(
                f"--dims {ds},{de} does not match the stored lifting ({f.ds},{f.de})"
            )
    report = liftings.analysis_report(f, tol)
    verdict = report.verdict
    print(f"verdict = {liftings.verdict_name(verdict)}")
    print(f"tol = {_f(tol)}")
    print(f"hermiticity_deviation = {_f(report.hermiticity_deviation)}")
    print(f"trace_deviation = {_f(report.trace_deviation)}")
    if isinstance(verdict, (liftings.Product, liftings.Inconclusive)):
        print(f"residual = {_f(verdict.residual)}")
    elif isinstance(verdict, liftings.ViolatesPositivity):
        print(f"witness_min_eigenvalue = {_f(verdict.min_eigenvalue)}")
        _print_matrix("witness", verdict.witness)
    structure = report.structure
    print(f"structure.max_deviation = {_f(structure.max_deviation)}")
    for k, v in sorted(structure.diag_off_support.items()):
        print(f"structure.diag_off_support[{k}] = {_f(v)}")
    for k, v in sorted(structure.diag_reference_mismatch.items()):
        print(f"structure.diag_reference_mismatch[{k}] = {_f(v)}")
    for (k, l), pair in sorted(structure.pairs.items()):
        for name, v in vars(pair).items():  # in field order
            print(f"structure.pair[{k},{l}].{name} = {_f(v)}")
    _print_matrix("reference", report.reference)
    return EXIT_OK


def _cmd_purify(args, run: _Run) -> int:
    s = fileio.read_matrix(run.input(args.state))
    a = states.purify(s, args.denv)
    fileio.write_vector(run.output(args.out), a)
    print(f"out = {args.out}")
    return EXIT_OK


def _cmd_evolve(args, run: _Run) -> int:
    if not math.isfinite(args.t):
        raise ConstraintViolation(f"--t must be finite, got {args.t}")
    h = fileio.read_matrix(run.input(args.ham))
    d = fileio.read_matrix(run.input(args.ref))  # reduced_dynamics_map validates it
    rho = states.validate_density(fileio.read_matrix(run.input(args.state)))
    de = d.shape[0]
    if h.shape[0] % de != 0 or h.shape[0] // de != rho.shape[0]:
        raise DimensionMismatch(
            f"Hamiltonian dim {h.shape[0]} does not match state {rho.shape[0]} "
            f"and environment {de}"
        )
    channel = dynamics.reduced_dynamics_map(h, d, args.t)
    fileio.write_matrix(run.output(args.out), dynamics.apply_channel(channel, rho))
    print(f"out = {args.out}")
    cptp = dynamics.is_cptp(channel)
    print(f"cptp = {str(cptp.ok).lower()}")
    print(f"choi_min_eigenvalue = {_f(cptp.choi_min_eigenvalue)}")
    if args.emit_channel:
        fileio.write_matrix(run.output(args.emit_channel), channel.matrix)
        print(f"channel = {args.emit_channel}")
    return EXIT_OK


def _cmd_choquet(args, run: _Run) -> int:
    if args.witness:
        w, mu1, mu2 = measures.nonaffine_witness()
        back1 = measures.choquet_reconstruct(mu1)
        back2 = measures.choquet_reconstruct(mu2)
        print(f"reconstruction_distance = {_f(trace_norm(back1 - back2))}")
        cross = max(abs(np.vdot(u, v)) ** 2 for u in mu1.vectors for v in mu2.vectors)
        print(f"max_cross_fidelity = {_f(cross)}")
        _print_matrix("state", w)
        _print_measure("mu1.", mu1)
        _print_measure("mu2.", mu2)
        return EXIT_OK
    if args.state is None:
        raise FormatError("choquet needs --state or --witness")
    w = fileio.read_matrix(run.input(args.state))
    mu = measures.choquet_spectral(w)
    print(f"entries = {len(mu)}")
    back = measures.choquet_reconstruct(mu)
    print(f"reconstruction_error = {_f(trace_norm(back - w))}")
    _print_measure("", mu)
    return EXIT_OK


def _cmd_estimate(args, run: _Run) -> int:
    _nonnegative("seed", args.seed)
    b = fileio.read_matrix(run.input(args.state))
    a = fileio.read_matrix(run.input(args.obs))
    result = measures.estimate_expectation(b, a, args.n, args.seed)
    print(f"estimate = {_f(result.estimate)}")
    print(f"stderr = {_f(result.stderr)}")
    print(f"self_normalized = {_f(result.self_normalized)}")
    print(f"n = {result.n}")
    print(f"seed = {result.seed}")
    print(f"wall_time = {result.wall_time:.6f}")
    return EXIT_OK


def _cmd_empirical(args, run: _Run) -> int:
    _nonnegative("seed", args.seed)
    b = fileio.read_matrix(run.input(args.state))
    w = measures.empirical_state(b, args.n, args.seed)
    error = trace_norm(w - b)  # rejects a non-finite w before it is written
    fileio.write_matrix(run.output(args.out), w)
    print(f"out = {args.out}")
    print(f"trace_norm_error = {_f(error)}")
    print(f"n = {args.n}")
    print(f"seed = {args.seed}")
    return EXIT_OK


def _cmd_classical_lift(args, run: _Run) -> int:
    if args.split is not None:
        if args.q is None:
            raise DimensionMismatch("--split requires --q (size of Q)")
        try:
            members = sorted({int(p) for p in args.split.split(",")})
        except ValueError as exc:
            raise FormatError(f"--split expects comma-separated indices, got {args.split!r}") from exc
        if any(not 0 <= m < args.q for m in members):
            raise DimensionMismatch(f"--split indices out of range for Q of size {args.q}")
        mask = np.zeros(args.q, dtype=bool)
        mask[members] = True
        table = measures.split_lift(mask, args.p1, args.p2, max(args.p1, args.p2) + 1)
    else:
        if args.table is None:
            raise FormatError("provide either --table or --split")
        table = fileio.read_lift_table(run.input(args.table))
    if args.upsilon is not None:
        upsilon = fileio.read_measure(run.input(args.upsilon))
    else:
        nq = table.shape[0]
        upsilon = np.full(nq, 1.0 / nq)
    lifted = measures.classical_lift(table, upsilon)
    fileio.write_product_measure(run.output(args.out), lifted)
    print(f"out = {args.out}")
    rank = measures.product_rank(lifted)
    print(f"product_rank = {rank}")
    print(f"is_product = {str(rank <= 1).lower()}")
    marg = measures.marginal(lifted)
    print(f"marginal_error = {_f(float(np.max(np.abs(marg - upsilon))))}")
    return EXIT_OK


def _cmd_nogo(args, run: _Run) -> int:
    if args.ds < 1 or args.de < 1:
        raise DimensionMismatch(f"--ds and --de must be positive, got {args.ds} and {args.de}")
    _nonnegative("trials", args.trials)
    _nonnegative("seed", args.seed)
    _finite_nonnegative("eps", args.eps)
    tol = tolerances.residual if args.tol is None else _finite_nonnegative("tol", args.tol)
    outcome = liftings.no_go_sweep(args.ds, args.de, args.trials, args.eps, args.seed, tol)
    print(f"trials = {args.trials}")
    print(f"ds = {args.ds}")
    print(f"de = {args.de}")
    print(f"eps = {_f(args.eps)}")
    print(f"seed = {args.seed}")
    print(f"tol = {_f(tol)}")
    for i, verdict in enumerate(outcome.verdicts):
        line = f"trial[{i}] = {liftings.verdict_name(verdict)}"
        if isinstance(verdict, liftings.ViolatesPositivity):
            line += f" {_f(verdict.min_eigenvalue)}"
        elif isinstance(verdict, (liftings.Product, liftings.Inconclusive)):
            line += f" {_f(verdict.residual)}"
        print(line)
    for name in sorted(outcome.counts):
        print(f"count[{name}] = {outcome.counts[name]}")
    print(f"falsifiers = {len(outcome.falsifiers)}")
    return EXIT_FALSIFIER if outcome.falsifiers else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser."""
    parser = argparse.ArgumentParser(
        prog="statelift",
        description="Partial traces, state liftings, and measure representations "
        "of finite-dimensional quantum states.",
    )
    parser.add_argument("--run-log", default="statelift-runs.jsonl",
                        help="path of the JSON-lines run log")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = verb("lift", _cmd_lift, "tensor a state with a reference state")
    p.add_argument("--state", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)

    p = verb("reduce", _cmd_reduce, "partial trace of a composite state")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", required=True, help="dS,dE")
    p.add_argument("--side", choices=("env", "sys"), default="env")
    p.add_argument("--out", required=True)

    p = verb("analyze", _cmd_analyze, "classify a lifting (product or violation)")
    p.add_argument("--lifting", required=True)
    p.add_argument("--dims", help="dS,dE cross-check against the stored dims")
    p.add_argument("--tol", type=float)

    p = verb("purify", _cmd_purify, "pure composite vector reducing to a state")
    p.add_argument("--state", required=True)
    p.add_argument("--denv", type=int, required=True)
    p.add_argument("--out", required=True)

    p = verb("evolve", _cmd_evolve, "reduced dynamics of a lifted state")
    p.add_argument("--ham", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--emit-channel")
    p.add_argument("--out", required=True)

    p = verb("choquet", _cmd_choquet, "spectral projector decomposition of a state")
    p.add_argument("--state")
    p.add_argument("--witness", action="store_true",
                   help="emit the two-measures-one-state witness instead")

    p = verb("estimate", _cmd_estimate, "Monte-Carlo estimate of tr(AB)")
    p.add_argument("--state", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = verb("empirical", _cmd_empirical, "Monte-Carlo reconstruction of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = verb("classical-lift", _cmd_classical_lift, "lift a finite measure to a product space")
    p.add_argument("--upsilon", help="measure file over Q (default: uniform)")
    p.add_argument("--table", help="lift table file")
    p.add_argument("--split", help="comma-separated indices of the Q1 half")
    p.add_argument("--q", type=int, help="size of Q (with --split)")
    p.add_argument("--p1", type=int, default=0)
    p.add_argument("--p2", type=int, default=1)
    p.add_argument("--out", required=True)

    p = verb("nogo", _cmd_nogo, "randomized factorization sweep")
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--de", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float)

    return parser


# one parser per process, built by the first main call rather than at import:
# building it costs 20 times what parsing with it does
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    params = {
        k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in vars(args).items()
        if k not in ("func", "run_log") and not callable(v)
    }
    run = _Run(args.verb, params)
    start = time.perf_counter()
    code = None  # stays None in the record of a run that ends in an unmapped exception
    try:
        code = args.func(args, run)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError as exc:
        print(f"error: format: stdout: {exc}", file=sys.stderr)
        with open(os.devnull, "w") as devnull:  # what is left to flush at exit goes nowhere
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        code = EXIT_FORMAT
    except FormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        code = EXIT_FORMAT
    except DimensionMismatch as exc:
        print(f"error: dimension: {exc}", file=sys.stderr)
        code = EXIT_DIMENSION
    except ConstraintViolation as exc:
        print(f"error: constraint: {exc}", file=sys.stderr)
        code = EXIT_CONSTRAINT
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    finally:
        run.record["exit_code"] = code
        run.record["elapsed_s"] = round(time.perf_counter() - start, 6)
        try:
            with open(args.run_log, "a") as handle:
                handle.write(json.dumps(run.record, sort_keys=True, allow_nan=False) + "\n")
        except OSError as exc:
            print(f"warning: could not append run log: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
