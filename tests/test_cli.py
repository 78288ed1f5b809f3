import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import statelift
from statelift import (
    Lifting,
    analysis_report,
    analyze,
    partial_trace_env,
    perturbed_product_lifting,
    product_lifting,
    random_density,
    random_hermitian,
    reduced_dynamics_from_lifting,
    trace_norm,
)
from statelift import cli, liftings
from statelift.cli import EXIT_CONSTRAINT, EXIT_DIMENSION, EXIT_FORMAT, build_parser, main
from statelift.config import tolerances
from statelift.fileio import read_lifting, read_matrix, write_lifting, write_matrix
from statelift.linalg import vec

from oracles import (
    bell_projector,
    choi_min_eigenvalue_full,
    file_text_per_entry,
    kron,
    ptrace_env_loops,
    read_file_per_line,
)


def run(tmp_path, *argv):
    return main(["--run-log", str(tmp_path / "runs.jsonl"), *map(str, argv)])


def _fresh_env(threads=None):
    """The environment of a fresh statelift process that imports this package, with its BLAS and
    OpenMP thread counts set to threads when given."""
    env = dict(os.environ)
    package = str(Path(statelift.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package, env.get("PYTHONPATH")]))
    if threads is not None:
        env.update(dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"],
                                 str(threads)))
    return env


def run_fresh(tmp_path, *argv, threads=None):
    """(exit code, stdout, stderr) of statelift argv in a fresh process, which, unlike the tests,
    prints a RuntimeWarning instead of raising it."""
    proc = subprocess.run(
        [sys.executable, "-m", "statelift.cli", "--run-log", str(tmp_path / "runs.jsonl"),
         *map(str, argv)], capture_output=True, text=True, env=_fresh_env(threads), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _not_json(constant):
    raise ValueError(f"run record holds {constant}, which is not JSON")


def records(tmp_path):
    """The run log, parsed as strict JSON: NaN and Infinity are rejected."""
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    return [json.loads(line, parse_constant=_not_json) for line in lines]


def last_record(tmp_path):
    return records(tmp_path)[-1]


def report_lines(capsys):
    return dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line
    )


@pytest.fixture
def fixtures(tmp_path):
    rho = random_density(2, seed=1)
    d = random_density(2, seed=2)
    write_matrix(tmp_path / "rho.mat", rho)
    write_matrix(tmp_path / "D.mat", d)
    return tmp_path, rho, d


def test_lift_then_reduce_roundtrip(fixtures, capsys):
    tmp_path, rho, d = fixtures
    assert run(tmp_path, "lift", "--state", tmp_path / "rho.mat", "--ref", tmp_path / "D.mat",
               "--out", tmp_path / "W.mat") == 0
    w = read_matrix(tmp_path / "W.mat")
    assert np.max(np.abs(w - kron(rho, d))) < 1e-15
    assert run(tmp_path, "reduce", "--state", tmp_path / "W.mat", "--dims", "2,2",
               "--out", tmp_path / "back.mat") == 0
    assert trace_norm(read_matrix(tmp_path / "back.mat") - rho) < 1e-12


def test_lift_output_bytes_deterministic(fixtures):
    tmp_path, _, _ = fixtures
    for name in ("W1.mat", "W2.mat"):
        assert run(tmp_path, "lift", "--state", tmp_path / "rho.mat",
                   "--ref", tmp_path / "D.mat", "--out", tmp_path / name) == 0
    assert (tmp_path / "W1.mat").read_bytes() == (tmp_path / "W2.mat").read_bytes()


def test_reduce_bell_projector(tmp_path, capsys):
    write_matrix(tmp_path / "bell.mat", bell_projector())
    assert run(tmp_path, "reduce", "--state", tmp_path / "bell.mat", "--dims", "2,2",
               "--side", "env", "--out", tmp_path / "out.mat") == 0
    assert np.max(np.abs(read_matrix(tmp_path / "out.mat") - np.eye(2) / 2)) < 1e-15


def test_reduce_sys_side(tmp_path):
    rho = random_density(2, seed=3)
    d = random_density(3, seed=4)
    write_matrix(tmp_path / "W.mat", kron(rho, d))
    assert run(tmp_path, "reduce", "--state", tmp_path / "W.mat", "--dims", "2,3",
               "--side", "sys", "--out", tmp_path / "env.mat") == 0
    assert np.max(np.abs(read_matrix(tmp_path / "env.mat") - d)) < 1e-12


def test_analyze_stored_product(fixtures, capsys):
    tmp_path, _, d = fixtures
    write_lifting(tmp_path / "F.lift", product_lifting(d, 3))
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == 0
    report = report_lines(capsys)
    assert report["verdict"] == "product"
    assert float(report["residual"]) <= 1e-10
    assert float(report["structure.max_deviation"]) <= 1e-10
    # extracted reference printed entrywise and equal to D
    re00, im00 = map(float, report["reference[0,0]"].split())
    assert abs(complex(re00, im00) - d[0, 0]) < 1e-10


def test_analyze_dims_crosscheck(fixtures, capsys):
    tmp_path, _, d = fixtures
    write_lifting(tmp_path / "F.lift", product_lifting(d, 3))
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift", "--dims", "3,2") == 0
    capsys.readouterr()
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift",
               "--dims", "2,3") == EXIT_DIMENSION
    assert capsys.readouterr().err.startswith("error: dimension:")


def test_analyze_stretched_column_prints_violates_hermiticity(fixtures, capsys):
    tmp_path, _, d = fixtures
    m = product_lifting(d, 2).matrix.copy()
    m[:, 1] *= 1 + 1e-6
    f = Lifting(2, 2, m)
    write_lifting(tmp_path / "F.lift", f)
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == 0
    report = report_lines(capsys)
    assert report["verdict"] == "violates_hermiticity"
    assert float(report["hermiticity_deviation"]) == analysis_report(f).hermiticity_deviation


def test_analyze_perturbed_prints_its_witness(fixtures, capsys):
    tmp_path, _, d = fixtures
    f = perturbed_product_lifting(d, 3, 1e-2, seed=64)
    write_lifting(tmp_path / "F.lift", f)
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == 0
    report = report_lines(capsys)
    assert report["verdict"] == "violates_positivity"
    verdict = analyze(f)
    assert float(report["witness_min_eigenvalue"]) == verdict.min_eigenvalue
    witness = np.empty((3, 3), dtype=complex)
    for r in range(3):
        for c in range(3):
            re, im = map(float, report[f"witness[{r},{c}]"].split())
            witness[r, c] = complex(re, im)
    assert np.array_equal(witness.view(np.uint64), verdict.witness.view(np.uint64))


def test_analyze_entangling_takes_one_svd_for_the_trace_deviation_it_prints(tmp_path, capsys,
                                                                           monkeypatch):
    u = statelift.unitary_from_hamiltonian(random_hermitian(8, seed=66), 1.0)
    write_lifting(tmp_path / "F.lift", statelift.kraus_lifting([u], random_density(2, seed=67), 4))
    f = read_lifting(tmp_path / "F.lift")
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == 0
    assert len(calls) == 1  # the trace screen's bound cannot settle it; the report keeps the SVD
    report = report_lines(capsys)
    assert report["verdict"] == "violates_trace"
    assert report["trace_deviation"] == cli._f(statelift.check_trace_constraint(f))


def test_purify_verb(tmp_path):
    s = random_density(3, rank=2, seed=5)
    write_matrix(tmp_path / "S.mat", s)
    assert run(tmp_path, "purify", "--state", tmp_path / "S.mat", "--denv", "2",
               "--out", tmp_path / "a.vec") == 0
    a = read_file_per_line(tmp_path / "a.vec", "vector")[1].view(np.complex128).reshape(-1)
    red = partial_trace_env(np.outer(a, a.conj()), 3, 2)
    assert trace_norm(red - s) < 1e-10


def test_evolve_verb(tmp_path, capsys):
    h = random_hermitian(4, seed=6)
    d = random_density(2, seed=7)
    rho = random_density(2, seed=8)
    write_matrix(tmp_path / "H.mat", h)
    write_matrix(tmp_path / "D.mat", d)
    write_matrix(tmp_path / "rho.mat", rho)
    assert run(tmp_path, "evolve", "--ham", tmp_path / "H.mat", "--ref", tmp_path / "D.mat",
               "--state", tmp_path / "rho.mat", "--t", "0.9",
               "--emit-channel", tmp_path / "C.mat", "--out", tmp_path / "rho_t.mat") == 0
    report = report_lines(capsys)
    assert report["cptp"] == "true"
    rho_t = read_matrix(tmp_path / "rho_t.mat")
    assert abs(np.trace(rho_t) - 1.0) < 1e-10
    # the emitted channel matrix reproduces the emitted evolved state
    channel = read_matrix(tmp_path / "C.mat")
    assert channel.shape == (4, 4)
    assert np.max(np.abs((channel @ rho.flatten(order="F")).reshape((2, 2), order="F")
                         - rho_t)) < 1e-12


@pytest.mark.parametrize("ham, state, code, message", [
    ("H", "rho", EXIT_CONSTRAINT, "constraint: state is not positive (lambda_min -5.000e-01)"),
    ("H", "bad_rho", EXIT_CONSTRAINT, "constraint: state is not Hermitian (defect 1.000e-03)"),
    ("H8", "rho", EXIT_DIMENSION,
     "dimension: Hamiltonian dim 8 does not match state 2 and environment 2"),
    ("bad_H", "rho", EXIT_CONSTRAINT, "constraint: Hamiltonian is not Hermitian (defect 1.000e-03)"),
], ids=["alone", "bad-rho", "bad-dims", "bad-H"])
def test_evolve_checks_a_bad_reference_once_and_last(tmp_path, capsys, ham, state, code, message):
    # the CLI validated D before rho and the dimensions, and reduced_dynamics_map validated it
    # again; D's error came first whatever else was wrong
    h = random_hermitian(4, seed=6)
    bad_h = h.copy()
    bad_h[0, 1] += 1e-3
    bad_rho = np.eye(2, dtype=complex) / 2
    bad_rho[0, 1] = 1e-3
    inputs = {"H": h, "H8": random_hermitian(8, seed=9), "bad_H": bad_h, "bad_rho": bad_rho,
              "rho": random_density(2, seed=8), "D": np.diag([1.5, -0.5])}
    for name, m in inputs.items():
        write_matrix(tmp_path / f"{name}.mat", m)
    assert run(tmp_path, "evolve", "--ham", tmp_path / f"{ham}.mat", "--ref", tmp_path / "D.mat",
               "--state", tmp_path / f"{state}.mat", "--t", "0.9", "--out", tmp_path / "o.mat") == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.mat").exists()


@pytest.mark.parametrize("ds, de", [(2, 3), (8, 8), (16, 4)])
def test_evolve_matches_expm_and_the_lifting_route(tmp_path, capsys, ds, de):
    h = random_hermitian(ds * de, seed=40 + ds)
    d = random_density(de, seed=41 + ds)
    rho = random_density(ds, seed=42 + ds)
    for name, m in (("H", h), ("D", d), ("rho", rho)):
        write_matrix(tmp_path / f"{name}.mat", m)
    assert run(tmp_path, "evolve", "--ham", tmp_path / "H.mat", "--ref", tmp_path / "D.mat",
               "--state", tmp_path / "rho.mat", "--t", "0.7",
               "--emit-channel", tmp_path / "C.mat", "--out", tmp_path / "rho_t.mat") == 0
    report = report_lines(capsys)
    assert report["cptp"] == "true"
    # de < ds reads the Kraus Gram, whose minimum is 0 where the full Choi
    # eigvalsh gives rounding noise; de >= ds prints the full Choi minimum
    margin = float(report["choi_min_eigenvalue"])
    oracle = choi_min_eigenvalue_full(read_matrix(tmp_path / "C.mat"), ds)
    assert margin >= -tolerances.psd
    assert abs(margin - oracle) <= 1e-12
    if de >= ds:
        assert report["choi_min_eigenvalue"] == f"{oracle:.17g}"
    u = scipy.linalg.expm(-0.7j * h)
    want = ptrace_env_loops(u @ kron(rho, d) @ u.conj().T, ds, de)
    assert np.max(np.abs(read_matrix(tmp_path / "rho_t.mat") - want)) < 1e-12
    # the general route, which assembles the channel from the product-lifting matrix
    lam = reduced_dynamics_from_lifting(h, product_lifting(d, ds), 0.7)
    assert np.max(np.abs(read_matrix(tmp_path / "C.mat") - lam.matrix)) < 1e-14


def test_choquet_verb(tmp_path, capsys):
    w = random_density(3, rank=2, seed=9)
    write_matrix(tmp_path / "W.mat", w)
    assert run(tmp_path, "choquet", "--state", tmp_path / "W.mat") == 0
    report = report_lines(capsys)
    assert report["entries"] == "2"
    assert float(report["reconstruction_error"]) < 1e-10


def test_choquet_witness_verb(tmp_path, capsys):
    assert run(tmp_path, "choquet", "--witness") == 0
    report = report_lines(capsys)
    assert float(report["reconstruction_distance"]) <= 1e-12
    assert float(report["max_cross_fidelity"]) == pytest.approx(0.5, abs=1e-12)


def test_estimate_verb(tmp_path, capsys):
    b = random_density(4, seed=10)
    a = random_hermitian(4, seed=11)
    write_matrix(tmp_path / "B.mat", b)
    write_matrix(tmp_path / "A.mat", a)
    assert run(tmp_path, "estimate", "--state", tmp_path / "B.mat", "--obs", tmp_path / "A.mat",
               "--n", 20000, "--seed", 12) == 0
    report = report_lines(capsys)
    exact = np.trace(a @ b).real
    assert abs(float(report["estimate"]) - exact) <= 5 * float(report["stderr"])
    assert report["n"] == "20000"
    assert report["seed"] == "12"
    assert "wall_time" in report


def test_empirical_verb(tmp_path, capsys):
    b = np.diag([0.7, 0.3]).astype(complex)
    write_matrix(tmp_path / "B.mat", b)
    assert run(tmp_path, "empirical", "--state", tmp_path / "B.mat", "--n", 100000,
               "--seed", 13, "--out", tmp_path / "emp.mat") == 0
    report = report_lines(capsys)
    assert float(report["trace_norm_error"]) <= 0.02
    emp = read_matrix(tmp_path / "emp.mat")
    assert abs(np.trace(emp) - 1.0) < 1e-12


def test_classical_lift_split_verb(tmp_path, capsys):
    assert run(tmp_path, "classical-lift", "--split", "0", "--q", 2,
               "--p1", 0, "--p2", 1, "--out", tmp_path / "mu.m2") == 0
    report = report_lines(capsys)
    assert report["product_rank"] == "2"
    assert report["is_product"] == "false"
    shape, mu = read_file_per_line(tmp_path / "mu.m2", "measure2")
    assert shape == [2, 2]
    assert np.allclose(mu.reshape(shape), [[0.5, 0.0], [0.0, 0.5]], atol=0)


def test_classical_lift_table_verb(tmp_path, capsys):
    from statelift.measures import split_lift

    table = split_lift(np.array([True, False, False]), 0, 1, 2)
    (tmp_path / "f.tbl").write_text(
        file_text_per_entry(["statelift/table v1", "shape 3 2"], table.ravel()))
    (tmp_path / "u.measure").write_text(
        file_text_per_entry(["statelift/measure v1", "support 3"], [0.2, 0.3, 0.5]))
    assert run(tmp_path, "classical-lift", "--table", tmp_path / "f.tbl",
               "--upsilon", tmp_path / "u.measure", "--out", tmp_path / "mu.m2") == 0
    report = report_lines(capsys)
    assert float(report["marginal_error"]) < 1e-14
    shape, mu = read_file_per_line(tmp_path / "mu.m2", "measure2")
    assert shape == [3, 2]
    assert np.allclose(mu.reshape(shape), [[0.2, 0.0], [0.0, 0.3], [0.0, 0.5]], atol=0)


@pytest.mark.parametrize("source", ["table", "upsilon"])
def test_classical_lift_rejects_non_finite_inputs(tmp_path, capsys, source):
    # a NaN used to pass the marginal check, get written and fail later in the SVD
    from statelift.measures import split_lift

    if source == "table":
        table = split_lift(np.array([True, False, False]), 0, 1, 2)
        table[1, 1, 0] = np.nan
        (tmp_path / "f.tbl").write_text(
            file_text_per_entry(["statelift/table v1", "shape 3 2"], table.ravel()))
        argv = ("--table", tmp_path / "f.tbl")
        message = "lift table has non-finite entries"
    else:
        (tmp_path / "u.measure").write_text(
            file_text_per_entry(["statelift/measure v1", "support 3"], [0.5, np.nan, 0.5]))
        argv = ("--split", "0,2", "--q", 3, "--upsilon", tmp_path / "u.measure")
        message = "measure has non-finite weights"
    assert run(tmp_path, "classical-lift", *argv, "--out", tmp_path / "mu.m2") == EXIT_CONSTRAINT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: constraint: {message}\n"
    assert not (tmp_path / "mu.m2").exists()
    assert last_record(tmp_path)["command"] == "classical-lift"
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT


def test_nogo_verb(tmp_path, capsys):
    assert run(tmp_path, "nogo", "--ds", 2, "--de", 2, "--trials", 20,
               "--eps", 1e-2, "--seed", 5) == 0
    report = report_lines(capsys)
    assert report["falsifiers"] == "0"
    assert int(report["count[violates_positivity]"]) + int(report["count[product]"]) == 20


def test_nogo_without_environment_exits_constraint(tmp_path, capsys):
    # with de = 1 the partial-trace completion is the whole draw, so every draw is degenerate
    assert run(tmp_path, "nogo", "--ds", 2, "--de", 1, "--trials", 3,
               "--eps", 1e-2, "--seed", 5) == EXIT_CONSTRAINT
    captured = capsys.readouterr()
    assert captured.err == "error: constraint: could not draw a non-degenerate perturbation\n"
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT


def test_nogo_falsifier_exit_code(tmp_path, capsys, monkeypatch):
    # a falsifier cannot be produced honestly, so fake the sweep outcome
    from statelift.cli import EXIT_FALSIFIER

    fake = liftings.SweepOutcome(
        verdicts=[liftings.Inconclusive(1.0)],
        counts={name: (1 if name == "inconclusive" else 0)
                for name in ("product", "violates_trace", "violates_hermiticity",
                             "violates_positivity", "inconclusive")},
        falsifiers=[0],
    )
    monkeypatch.setattr(liftings, "no_go_sweep", lambda *a, **k: fake)
    assert run(tmp_path, "nogo", "--ds", 2, "--de", 2, "--trials", 1,
               "--eps", 1e-2, "--seed", 1) == EXIT_FALSIFIER
    report = report_lines(capsys)
    assert report["falsifiers"] == "1"


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.28 TiB for an array with shape (10000, 10000, 10000) and data type "
     "complex128", "error: constraint: out of memory: Unable to allocate 7.28 TiB for an array "
     "with shape (10000, 10000, 10000) and data type complex128"),
    ("", "error: constraint: out of memory"),
], ids=["numpy", "bare"])
def test_an_allocation_failure_exits_5_and_is_logged(tmp_path, capsys, monkeypatch, message, line):
    # a sweep that asks for more memory than there is, faked so that the test allocates nothing
    def sweep(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(liftings, "no_go_sweep", sweep)
    assert run(tmp_path, "nogo", "--ds", 100, "--de", 100, "--trials", 1,
               "--eps", 1e-2, "--seed", 1) == EXIT_CONSTRAINT
    assert capsys.readouterr().err.splitlines() == [line]
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT


def test_fixed_nogo_sweep_has_no_falsifier(tmp_path, capsys):
    assert run(tmp_path, "nogo", "--ds", 2, "--de", 2, "--trials", 100,
               "--eps", 1e-8, "--seed", 7) == 0
    assert report_lines(capsys)["falsifiers"] == "0"


def test_exit_code_format_error(tmp_path, capsys):
    assert run(tmp_path, "reduce", "--state", tmp_path / "missing.mat", "--dims", "2,2",
               "--out", tmp_path / "o.mat") == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error: format:")
    assert last_record(tmp_path)["command"] == "reduce"
    assert last_record(tmp_path)["exit_code"] == EXIT_FORMAT
    (tmp_path / "f.lift").write_text("statelift/lifting v1\ndims -2 -2\n")
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "f.lift") == EXIT_FORMAT
    assert "dims must be positive" in capsys.readouterr().err
    assert last_record(tmp_path)["command"] == "analyze"
    assert last_record(tmp_path)["exit_code"] == EXIT_FORMAT


def test_exit_code_oversized_size_field(tmp_path, capsys):
    # the size fields ask for far more entries than the files hold
    (tmp_path / "f.lift").write_text("statelift/lifting v1\ndims 1000 1000\n1 0\n")
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "f.lift") == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("error: format:")
    assert "unexpected end of file, expected entry 2/1000000000000000000" in err
    assert last_record(tmp_path)["command"] == "analyze"
    assert last_record(tmp_path)["exit_code"] == EXIT_FORMAT
    (tmp_path / "W.mat").write_text("statelift/matrix v1\ndim 3000000\n1 0\n")
    assert run(tmp_path, "reduce", "--state", tmp_path / "W.mat", "--dims", "2,2",
               "--out", tmp_path / "o.mat") == EXIT_FORMAT
    assert "expected entry 2/9000000000000" in capsys.readouterr().err
    assert last_record(tmp_path)["command"] == "reduce"
    assert last_record(tmp_path)["exit_code"] == EXIT_FORMAT


def test_exit_code_undecodable_input(tmp_path, capsys):
    (tmp_path / "W.mat").write_bytes(b"statelift/matrix v1\ndim 1\n1 \xff\n")
    assert run(tmp_path, "reduce", "--state", tmp_path / "W.mat", "--dims", "1,1",
               "--out", tmp_path / "o.mat") == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err == f"error: format: {tmp_path / 'W.mat'}: not UTF-8 text (invalid start byte)\n"
    record = last_record(tmp_path)
    assert record["command"] == "reduce"
    assert record["exit_code"] == EXIT_FORMAT
    assert record["outputs"] == []
    assert not (tmp_path / "o.mat").exists()


# Every input named here is missing, so a run that read one would exit 3.
NOGO = ["nogo", "--ds", 2, "--de", 2, "--trials", 1, "--seed", 1]
OUT_OF_RANGE = [
    (["nogo", "--ds", 2, "--de", 2, "--trials", -1, "--eps", 1e-2, "--seed", 1],
     EXIT_CONSTRAINT, "--trials must be nonnegative, got -1"),
    (["nogo", "--ds", 0, "--de", 2, "--trials", 1, "--eps", 1e-2, "--seed", 1],
     EXIT_DIMENSION, "--ds and --de must be positive, got 0 and 2"),
    (["nogo", "--ds", 2, "--de", -3, "--trials", 1, "--eps", 1e-2, "--seed", 1],
     EXIT_DIMENSION, "--ds and --de must be positive, got 2 and -3"),
    (["nogo", "--ds", 2, "--de", 2, "--trials", 1, "--eps", 1e-2, "--seed", -1],
     EXIT_CONSTRAINT, "--seed must be nonnegative, got -1"),
    (["estimate", "--state", "B.mat", "--obs", "A.mat", "--n", 10, "--seed", -2],
     EXIT_CONSTRAINT, "--seed must be nonnegative, got -2"),
    (["empirical", "--state", "B.mat", "--n", 10, "--seed", -3, "--out", "e.mat"],
     EXIT_CONSTRAINT, "--seed must be nonnegative, got -3"),
    (["evolve", "--ham", "H.mat", "--ref", "D.mat", "--state", "rho.mat", "--t", "nan",
      "--out", "out.mat"], EXIT_CONSTRAINT, "--t must be finite, got nan"),
    (["evolve", "--ham", "H.mat", "--ref", "D.mat", "--state", "rho.mat", "--t", "inf",
      "--out", "out.mat"], EXIT_CONSTRAINT, "--t must be finite, got inf"),
    (["analyze", "--lifting", "F.lift", "--tol", "nan"],
     EXIT_CONSTRAINT, "--tol must be finite and nonnegative, got nan"),
    (["analyze", "--lifting", "F.lift", "--tol", "inf"],
     EXIT_CONSTRAINT, "--tol must be finite and nonnegative, got inf"),
    (["analyze", "--lifting", "F.lift", "--tol=-1e-8"],
     EXIT_CONSTRAINT, "--tol must be finite and nonnegative, got -1e-08"),
    (NOGO + ["--eps", 1e-2, "--tol", "nan"],
     EXIT_CONSTRAINT, "--tol must be finite and nonnegative, got nan"),
    (NOGO + ["--eps", 1e-2, "--tol", "-1"],
     EXIT_CONSTRAINT, "--tol must be finite and nonnegative, got -1.0"),
    (NOGO + ["--eps", "nan"], EXIT_CONSTRAINT, "--eps must be finite and nonnegative, got nan"),
    (NOGO + ["--eps", "inf"], EXIT_CONSTRAINT, "--eps must be finite and nonnegative, got inf"),
    (NOGO + ["--eps=-1e-2"], EXIT_CONSTRAINT, "--eps must be finite and nonnegative, got -0.01"),
]


@pytest.mark.parametrize("argv, code, message", OUT_OF_RANGE)
def test_exit_code_out_of_range_number(tmp_path, capsys, argv, code, message):
    argv = [tmp_path / a if str(a).endswith((".mat", ".lift")) else a for a in argv]
    assert run(tmp_path, *argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {'dimension' if code == EXIT_DIMENSION else 'constraint'}: {message}\n"
    record = last_record(tmp_path)
    assert record["command"] == argv[0]
    assert record["exit_code"] == code
    assert record["inputs"] == {} and record["outputs"] == []
    assert not any(tmp_path.glob("*.mat"))


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-8", "tiny"])
@pytest.mark.parametrize("argv", [["analyze", "--lifting", "F.lift"], NOGO + ["--eps", 1e-2]])
def test_exit_code_out_of_range_tolerance_env(tmp_path, capsys, monkeypatch, argv, value):
    # STATELIFT_TOL is not read, so even a value that is no valid threshold changes nothing
    monkeypatch.setenv("STATELIFT_TOL", value)
    write_lifting(tmp_path / "F.lift", _near_product_lifting())
    argv = [tmp_path / a if str(a).endswith(".lift") else a for a in argv]
    assert run(tmp_path, *argv) == 0
    captured = capsys.readouterr()
    assert "\ntol = 1e-08\n" in captured.out and captured.err == ""
    record = last_record(tmp_path)
    assert record["command"] == argv[0]
    assert record["exit_code"] == 0 and record["params"]["tol"] is None


def test_non_finite_params_are_recorded_as_strings(tmp_path, capsys):
    run(tmp_path, "evolve", "--ham", tmp_path / "H.mat", "--ref", tmp_path / "D.mat",
        "--state", tmp_path / "rho.mat", "--t", "nan", "--out", tmp_path / "out.mat")
    run(tmp_path, *NOGO, "--eps=-inf", "--tol", "inf")
    evolve, nogo = records(tmp_path)
    assert evolve["params"]["t"] == "nan"
    assert (nogo["params"]["eps"], nogo["params"]["tol"]) == ("-inf", "inf")
    assert evolve["exit_code"] == nogo["exit_code"] == EXIT_CONSTRAINT


# Branches that fail before any output is written; F.lift, H.mat, D.mat and
# rho.mat exist, and mu.m2 and out.mat must not.
REJECTED = [
    (["analyze", "--lifting", "F.lift", "--dims", "3"],
     EXIT_DIMENSION, "--dims expects 'dS,dE', got '3'"),
    (["analyze", "--lifting", "F.lift", "--dims", "0,2"],
     EXIT_DIMENSION, "--dims must be positive, got '0,2'"),
    (["choquet"], EXIT_FORMAT, "choquet needs --state or --witness"),
    (["classical-lift", "--split", "0", "--out", "mu.m2"],
     EXIT_DIMENSION, "--split requires --q (size of Q)"),
    (["classical-lift", "--split", "a", "--q", 2, "--out", "mu.m2"],
     EXIT_FORMAT, "--split expects comma-separated indices, got 'a'"),
    (["classical-lift", "--split", "5", "--q", 2, "--out", "mu.m2"],
     EXIT_DIMENSION, "--split indices out of range for Q of size 2"),
    (["classical-lift", "--out", "mu.m2"], EXIT_FORMAT, "provide either --table or --split"),
    (["evolve", "--ham", "H.mat", "--ref", "D.mat", "--state", "rho.mat", "--t", 1.0,
      "--out", "out.mat"],
     EXIT_DIMENSION, "Hamiltonian dim 4 does not match state 3 and environment 2"),
]


@pytest.mark.parametrize("argv, code, message", REJECTED)
def test_exit_code_rejected_arguments(tmp_path, capsys, argv, code, message):
    write_lifting(tmp_path / "F.lift", product_lifting(random_density(2, seed=65), 3))
    write_matrix(tmp_path / "H.mat", random_hermitian(4, seed=66))
    write_matrix(tmp_path / "D.mat", random_density(2, seed=67))
    write_matrix(tmp_path / "rho.mat", random_density(3, seed=68))
    argv = [tmp_path / a if str(a).endswith((".mat", ".lift", ".m2")) else a for a in argv]
    assert run(tmp_path, *argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {'format' if code == EXIT_FORMAT else 'dimension'}: {message}\n"
    record = last_record(tmp_path)
    assert record["command"] == argv[0]
    assert record["exit_code"] == code
    assert record["outputs"] == []
    assert not (tmp_path / "mu.m2").exists() and not (tmp_path / "out.mat").exists()


def test_exit_code_dimension_mismatch(tmp_path, capsys):
    write_matrix(tmp_path / "W.mat", np.eye(5, dtype=complex) / 5)
    assert run(tmp_path, "reduce", "--state", tmp_path / "W.mat", "--dims", "2,2",
               "--out", tmp_path / "o.mat") == EXIT_DIMENSION
    assert capsys.readouterr().err.startswith("error: dimension:")
    assert last_record(tmp_path)["command"] == "reduce"
    assert last_record(tmp_path)["exit_code"] == EXIT_DIMENSION


@pytest.mark.parametrize("side", ["env", "sys"])
def test_reduce_rejects_non_finite_input(tmp_path, capsys, side):
    # it wrote nan into the reduced matrix and exited 0
    (tmp_path / "nan.mat").write_text("statelift/matrix v1\ndim 2\nnan 0\n0 0\n0 0\n1 0\n")
    assert run(tmp_path, "reduce", "--state", tmp_path / "nan.mat", "--dims", "2,1",
               "--side", side, "--out", tmp_path / "r.mat") == EXIT_CONSTRAINT
    assert capsys.readouterr() == ("", "error: constraint: matrix has non-finite entries\n")
    assert not (tmp_path / "r.mat").exists()
    assert last_record(tmp_path)["command"] == "reduce"
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT


_OVERFLOW_MESSAGE = ("error: constraint: lifting matrix has a real or imaginary part above "
                     "sqrt(max float) / (16 ds de) = {:.6e}\n")
_BOUND_22 = np.sqrt(np.finfo(float).max) / 64  # that bound at (ds, de) = (2, 2)


def test_nogo_beyond_the_overflow_bound_exits_constraint_without_a_warning(tmp_path):
    # it printed numpy's "overflow encountered in matmul" and exited 0 with two violates_trace
    code, out, err = run_fresh(tmp_path, "nogo", "--ds", 2, "--de", 2, "--trials", 2,
                               "--eps", 1e200, "--seed", 1)
    assert (code, out, err) == (EXIT_CONSTRAINT, "", _OVERFLOW_MESSAGE.format(_BOUND_22))
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT


def test_analyze_of_a_file_beyond_the_overflow_bound_exits_constraint(tmp_path, capsys):
    write_lifting(tmp_path / "F.lift", product_lifting(random_density(2, seed=3), 2))
    lines = (tmp_path / "F.lift").read_text().splitlines()
    lines[7] = "1e200 0"  # the real part of one entry
    (tmp_path / "big.lift").write_text("\n".join(lines) + "\n")
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "big.lift") == EXIT_CONSTRAINT
    assert capsys.readouterr() == ("", _OVERFLOW_MESSAGE.format(_BOUND_22))


def test_analyze_just_under_the_overflow_bound_prints_its_report(tmp_path, capsys):
    # the tests raise any RuntimeWarning, so no norm, block or slack overflowed
    d = random_density(2, seed=3)
    m = perturbed_product_lifting(d, 2, 1.0, seed=4).matrix
    under = _BOUND_22 * (1 - 2.0**-50)
    write_lifting(tmp_path / "F.lift", Lifting(2, 2, m * (under / np.abs(m.view(float)).max())))
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == 0
    out = capsys.readouterr().out
    assert "structure.max_deviation = " in out and "inf" not in out and "nan" not in out


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_nogo_and_ds4_analyze_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # nogo builds its trials as basis images, with no BLAS basis change, so ds 8 prints the same
    # bytes too; analyze's exact-path digits moved with the thread count at (8, 8)
    write_lifting(tmp_path / "F.lift", perturbed_product_lifting(random_density(4, seed=1), 4,
                                                                 1e-2, seed=2))
    for argv in (["nogo", "--ds", 4, "--de", 4, "--trials", 20, "--eps", 1e-2, "--seed", 1],
                 ["nogo", "--ds", 8, "--de", 4, "--trials", 4, "--eps", 1e-2, "--seed", 1],
                 ["analyze", "--lifting", tmp_path / "F.lift"]):
        one, two = (run_fresh(tmp_path, *argv, threads=n) for n in (1, 2))
        assert one[0] == 0 and one == two, argv


def test_exit_code_constraint_violation(tmp_path, capsys):
    write_matrix(tmp_path / "bad.mat", np.diag([2.0, -1.0]).astype(complex))
    write_matrix(tmp_path / "D.mat", random_density(2, seed=14))
    assert run(tmp_path, "lift", "--state", tmp_path / "bad.mat", "--ref", tmp_path / "D.mat",
               "--out", tmp_path / "o.mat") == EXIT_CONSTRAINT
    assert capsys.readouterr().err.startswith("error: constraint:")
    assert last_record(tmp_path)["command"] == "lift"
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT


@pytest.mark.parametrize("verb", ["estimate", "empirical"])
@pytest.mark.parametrize("n", [0, -3])
def test_exit_code_non_positive_sample_count(tmp_path, capsys, verb, n):
    write_matrix(tmp_path / "B.mat", random_density(2, seed=16))
    write_matrix(tmp_path / "A.mat", random_hermitian(2, seed=17))
    extra = ("--obs", tmp_path / "A.mat") if verb == "estimate" else ("--out", tmp_path / "e.mat")
    assert run(tmp_path, verb, "--state", tmp_path / "B.mat", *extra,
               "--n", n, "--seed", 18) == EXIT_CONSTRAINT
    assert "sample count must be positive" in capsys.readouterr().err
    assert last_record(tmp_path)["command"] == verb
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT
    assert not (tmp_path / "e.mat").exists()


def test_estimate_with_an_observable_of_another_shape_exits_dimension(tmp_path, capsys):
    write_matrix(tmp_path / "B.mat", random_density(4, seed=16))
    write_matrix(tmp_path / "A.mat", random_hermitian(2, seed=17))
    assert run(tmp_path, "estimate", "--state", tmp_path / "B.mat", "--obs", tmp_path / "A.mat",
               "--n", 10, "--seed", 1) == EXIT_DIMENSION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dimension: observable shape (2, 2), state shape (4, 4)\n"
    assert last_record(tmp_path)["exit_code"] == EXIT_DIMENSION


def test_estimate_with_a_non_finite_observable_exits_constraint(tmp_path, capsys):
    # it printed estimate = nan and exited 0
    write_matrix(tmp_path / "B.mat", random_density(2, seed=16))
    write_matrix(tmp_path / "A.mat", np.array([[np.nan, 0], [0, 1]]))
    assert run(tmp_path, "estimate", "--state", tmp_path / "B.mat", "--obs", tmp_path / "A.mat",
               "--n", 10, "--seed", 1) == EXIT_CONSTRAINT
    assert capsys.readouterr() == ("", "error: constraint: matrix has non-finite entries\n")
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT


@pytest.mark.parametrize("verb", ["estimate", "empirical"])
def test_zero_correlation_operator_exits_constraint_before_writing(tmp_path, capsys, verb):
    write_matrix(tmp_path / "zero.mat", np.zeros((2, 2), dtype=complex))
    extra = ("--obs", tmp_path / "zero.mat") if verb == "estimate" else ("--out", tmp_path / "e.mat")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, verb, "--state", tmp_path / "zero.mat", *extra,
                   "--n", 5, "--seed", 1) == EXIT_CONSTRAINT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: constraint: correlation operator is zero\n"
    assert last_record(tmp_path)["exit_code"] == EXIT_CONSTRAINT
    assert last_record(tmp_path)["outputs"] == []
    assert not (tmp_path / "e.mat").exists()


def test_empirical_checks_its_state_before_writing_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("statelift.measures.empirical_state",
                        lambda *args: np.full((2, 2), np.nan, dtype=complex))
    write_matrix(tmp_path / "B.mat", random_density(2, seed=16))
    assert run(tmp_path, "empirical", "--state", tmp_path / "B.mat", "--n", 5, "--seed", 1,
               "--out", tmp_path / "e.mat") == EXIT_CONSTRAINT
    assert capsys.readouterr() == ("", "error: constraint: matrix has non-finite entries\n")
    assert not (tmp_path / "e.mat").exists()


def test_exit_code_unwritable_output(tmp_path, capsys):
    write_matrix(tmp_path / "B.mat", random_density(2, seed=19))
    assert run(tmp_path, "empirical", "--state", tmp_path / "B.mat", "--n", 100, "--seed", 20,
               "--out", tmp_path / "missing" / "e.mat") == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error: format:")
    assert last_record(tmp_path)["command"] == "empirical"
    assert last_record(tmp_path)["exit_code"] == EXIT_FORMAT


def test_exit_code_closed_stdout(tmp_path):
    env = _fresh_env()
    read, write = os.pipe()
    os.close(read)  # so every write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "statelift.cli", "--run-log", str(tmp_path / "runs.jsonl"),
             "classical-lift", "--split", "0", "--q", "2", "--out", str(tmp_path / "mu.m2")],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_FORMAT
    assert proc.stderr == "error: format: stdout: [Errno 32] Broken pipe\n"  # no traceback
    assert last_record(tmp_path)["exit_code"] == EXIT_FORMAT


def test_unmapped_exception_leaves_a_run_record(tmp_path, monkeypatch):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("statelift.measures.empirical_state", fail)
    write_matrix(tmp_path / "B.mat", random_density(2, seed=21))
    with pytest.raises(RuntimeError, match="boom"):
        run(tmp_path, "empirical", "--state", tmp_path / "B.mat", "--n", 100, "--seed", 22,
            "--out", tmp_path / "e.mat")
    assert last_record(tmp_path)["command"] == "empirical"
    assert last_record(tmp_path)["exit_code"] is None


def test_exit_code_numerical_failure(tmp_path, capsys, monkeypatch):
    from statelift.cli import EXIT_NUMERICAL

    def fail(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("statelift.liftings.analysis_report", fail)
    write_lifting(tmp_path / "F.lift", product_lifting(random_density(2, seed=23), 2))
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == EXIT_NUMERICAL == 7
    assert capsys.readouterr().err == "error: numerical: SVD did not converge\n"
    assert last_record(tmp_path)["command"] == "analyze"
    assert last_record(tmp_path)["exit_code"] == EXIT_NUMERICAL


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def _near_product_lifting():
    """Residual sqrt(12) 1e-6 and no witness: product at tol 1e-5, inconclusive at the default."""
    m = product_lifting(np.diag([0.6, 0.4]), 2).matrix.copy()
    m[:, 0] += 1e-6 * vec(np.diag([1.0, -1.0, 0.0, 0.0]))
    m[:, 3] -= 1e-6 * vec(np.diag([0.0, 0.0, 1.0, -1.0]))
    return Lifting(2, 2, m)


def test_the_environment_sets_no_tolerance(tmp_path, capsys, monkeypatch):
    # the residual threshold is the --tol of a run or tolerances.residual, never process state
    f = _near_product_lifting()
    write_lifting(tmp_path / "F.lift", f)
    monkeypatch.delenv("STATELIFT_TOL", raising=False)
    unset = analyze(f)
    for value in ("nan", "1e-5"):
        monkeypatch.setenv("STATELIFT_TOL", value)
        assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == 0
        report = report_lines(capsys)
        assert report["tol"] == "1e-08" and report["verdict"] == "inconclusive"
        assert last_record(tmp_path)["params"]["tol"] is None
        verdict = analyze(f)
        assert type(verdict) is type(unset) is liftings.Inconclusive
        assert verdict.residual == unset.residual


def test_run_log_records_seed(tmp_path, capsys):
    b = random_density(2, seed=15)
    write_matrix(tmp_path / "B.mat", b)
    assert run(tmp_path, "empirical", "--state", tmp_path / "B.mat", "--n", 100,
               "--seed", 42, "--out", tmp_path / "emp.mat") == 0
    record = last_record(tmp_path)
    assert record["command"] == "empirical"
    assert record["params"]["seed"] == 42
    assert str(tmp_path / "B.mat") in record["inputs"]
    assert record["outputs"] == [str(tmp_path / "emp.mat")]


def test_run_record_digest_reads_its_input_in_blocks(tmp_path):
    # 6 MiB and a partial block: hashed whole, the file would be held at once
    path = tmp_path / "big.bin"
    data = np.random.default_rng(16).bytes(6 * 2**20 + 12345)
    path.write_bytes(data)
    want = hashlib.sha256(data).hexdigest()
    del data
    tracemalloc.start()
    try:
        got = cli._digest(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2.5 * 2**20
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert cli._digest(str(empty)) == hashlib.sha256(b"").hexdigest()


# --- several calls in one process, and the one parser they share ---------------


def _sequence(lifting):
    nogo = ["nogo", "--ds", 2, "--de", 2, "--trials", 3, "--eps", 1e-2, "--seed", 1]
    return [
        ["analyze", "--lifting", lifting, "--tol", 1e-5],
        ["analyze", "--lifting", lifting],  # the default again
        [*nogo, "--tol", 1e-5],
        nogo,
        ["nogo", "--ds", 2],  # usage error: required options missing
        ["analyze", "--lifting", lifting, "--dims", "2,2"],
        ["choquet", "--witness"],  # a different verb straight after analyze
    ]


def _record(log):
    """The run record a call appended, without its timing, or None."""
    if not log.exists():
        return None
    (record,) = [json.loads(line) for line in log.read_text().splitlines()]
    del record["elapsed_s"]
    return record


def test_calls_in_one_process_match_a_fresh_process(tmp_path, capsys):
    # product at --tol 1e-5 and inconclusive at the default, so a --tol that outlived its
    # call would change the verdict of the next one
    write_lifting(tmp_path / "F.lift", _near_product_lifting())
    calls = [[str(a) for a in argv] for argv in _sequence(tmp_path / "F.lift")]
    env = _fresh_env()
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "statelift.cli", "--run-log", str(tmp_path / f"fresh{i}.jsonl"),
             *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        for i, argv in enumerate(calls)
    ]
    codes, outs = [], []
    try:
        for i, (argv, proc) in enumerate(zip(calls, fresh)):
            log = tmp_path / f"inprocess{i}.jsonl"
            try:
                codes.append(main(["--run-log", str(log), *argv]))
            except SystemExit as exc:
                codes.append(exc.code)
            outs.append(capsys.readouterr().out)
            fresh_out = proc.communicate(timeout=120)[0]
            assert (codes[-1], outs[-1]) == (proc.returncode, fresh_out), argv
            assert _record(log) == _record(tmp_path / f"fresh{i}.jsonl"), argv
    finally:
        for proc in fresh:
            proc.kill()
            proc.wait()
    assert "verdict = product" in outs[0] and "verdict = inconclusive" in outs[1]
    assert codes == [0, 0, 0, 0, 2, 0, 0] and _record(tmp_path / "inprocess4.jsonl") is None


VERBS = ["lift", "reduce", "analyze", "purify", "evolve", "choquet", "estimate", "empirical",
         "classical-lift", "nogo"]


def _help(parse, argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    out = capsys.readouterr()
    return exit_.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [[v, "--help"] for v in VERBS] + [
    ["--help"], ["nogo"], ["analyze", "--lifting"], ["analyse"], ["--run-log", "nogo"], [],
])
def test_parser_of_the_verbs_in_argv_matches_the_full_parser(argv, capsys):
    # main parses with the parser its first call built; help, usage and errors match a new one
    code, out, err = _help(main, argv, capsys)
    assert (code, out, err) == _help(build_parser().parse_args, argv, capsys)
    if "--help" in argv:
        assert code == 0 and "-h, --help" in out and not err
    else:
        assert code == 2 and err.startswith("usage: statelift") and not out


def test_back_to_back_runs_of_two_verbs_parse_their_own_options(tmp_path, capsys):
    # main builds one parser for every verb and keeps it for the process: runs of two verbs
    # share it, and an option of the other verb stays a usage error
    subparsers = next(a for a in build_parser()._actions if a.dest == "verb")
    assert set(subparsers.choices) == set(VERBS)
    cli._parser.cache_clear()
    for _ in range(2):
        assert run(tmp_path, "choquet", "--witness") == 0
        assert last_record(tmp_path)["params"]["witness"] is True
        mu = tmp_path / "mu.m2"
        assert run(tmp_path, "classical-lift", "--split", "0", "--q", "2", "--out", mu) == 0
        assert last_record(tmp_path)["params"]["split"] == "0"
        capsys.readouterr()
        for argv in (["choquet", "--split", "0"], ["classical-lift", "--witness"]):
            code, out, err = _help(lambda a: run(tmp_path, *a), argv, capsys)
            assert code == 2 and err.startswith("usage: statelift") and not out
    assert cli._parser.cache_info().misses == 1


def test_the_benchmark_tracer_names_resolve():
    # perfbench/spans.py wraps the functions TRACED names, and perfbench/selftest.py pins
    # the dynamics.apply_lifting alias; the package keeps both until the benchmark changes
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    assert len(traced) == 7
    for module, names in traced.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"statelift.{module}"), name)), name
    assert statelift.dynamics.apply_lifting is statelift.liftings.apply_lifting
