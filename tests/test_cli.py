import json

import numpy as np
import pytest

from statelift import kron, partial_trace_env, product_lifting, random_density, random_hermitian, trace_norm
from statelift.cli import EXIT_CONSTRAINT, EXIT_DIMENSION, EXIT_FORMAT, main
from statelift.fileio import read_matrix, read_product_measure, read_vector, write_lifting, write_matrix

from oracles import bell_projector


def run(tmp_path, *argv):
    return main(["--run-log", str(tmp_path / "runs.jsonl"), *map(str, argv)])


def last_record(tmp_path):
    return json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[-1])


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


def test_purify_verb(tmp_path):
    s = random_density(3, rank=2, seed=5)
    write_matrix(tmp_path / "S.mat", s)
    assert run(tmp_path, "purify", "--state", tmp_path / "S.mat", "--denv", "2",
               "--out", tmp_path / "a.vec") == 0
    a = read_vector(tmp_path / "a.vec")
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
    mu = read_product_measure(tmp_path / "mu.m2")
    assert np.allclose(mu, [[0.5, 0.0], [0.0, 0.5]], atol=0)


def test_classical_lift_table_verb(tmp_path, capsys):
    from statelift.fileio import write_lift_table, write_measure
    from statelift.measures import split_lift

    table = split_lift(np.array([True, False, False]), 0, 1, 2)
    write_lift_table(tmp_path / "f.tbl", table)
    write_measure(tmp_path / "u.measure", np.array([0.2, 0.3, 0.5]))
    assert run(tmp_path, "classical-lift", "--table", tmp_path / "f.tbl",
               "--upsilon", tmp_path / "u.measure", "--out", tmp_path / "mu.m2") == 0
    report = report_lines(capsys)
    assert float(report["marginal_error"]) < 1e-14
    mu = read_product_measure(tmp_path / "mu.m2")
    assert np.allclose(mu, [[0.2, 0.0], [0.0, 0.3], [0.0, 0.5]], atol=0)


def test_nogo_verb(tmp_path, capsys):
    assert run(tmp_path, "nogo", "--ds", 2, "--de", 2, "--trials", 20,
               "--eps", 1e-2, "--seed", 5) == 0
    report = report_lines(capsys)
    assert report["falsifiers"] == "0"
    assert int(report["count[violates_positivity]"]) + int(report["count[product]"]) == 20


def test_nogo_falsifier_exit_code(tmp_path, capsys, monkeypatch):
    # a falsifier cannot be produced honestly, so fake the sweep outcome
    from statelift import liftings
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


def test_exit_code_dimension_mismatch(tmp_path, capsys):
    write_matrix(tmp_path / "W.mat", np.eye(5, dtype=complex) / 5)
    assert run(tmp_path, "reduce", "--state", tmp_path / "W.mat", "--dims", "2,2",
               "--out", tmp_path / "o.mat") == EXIT_DIMENSION
    assert capsys.readouterr().err.startswith("error: dimension:")
    assert last_record(tmp_path)["command"] == "reduce"
    assert last_record(tmp_path)["exit_code"] == EXIT_DIMENSION


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


def test_exit_code_unwritable_output(tmp_path, capsys):
    write_matrix(tmp_path / "B.mat", random_density(2, seed=19))
    assert run(tmp_path, "empirical", "--state", tmp_path / "B.mat", "--n", 100, "--seed", 20,
               "--out", tmp_path / "missing" / "e.mat") == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error: format:")
    assert last_record(tmp_path)["command"] == "empirical"
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


def test_tolerance_env_override(fixtures, capsys, monkeypatch):
    tmp_path, _, d = fixtures
    write_lifting(tmp_path / "F.lift", product_lifting(d, 2))
    monkeypatch.setenv("STATELIFT_TOL", "1e-5")
    assert run(tmp_path, "analyze", "--lifting", tmp_path / "F.lift") == 0
    report = report_lines(capsys)
    assert float(report["tol"]) == 1e-5


def test_run_log_records_seed(tmp_path, capsys):
    b = random_density(2, seed=15)
    write_matrix(tmp_path / "B.mat", b)
    assert run(tmp_path, "empirical", "--state", tmp_path / "B.mat", "--n", 100,
               "--seed", 42, "--out", tmp_path / "emp.mat") == 0
    records = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert records[-1]["command"] == "empirical"
    assert records[-1]["params"]["seed"] == 42
    assert str(tmp_path / "B.mat") in records[-1]["inputs"]
    assert records[-1]["outputs"] == [str(tmp_path / "emp.mat")]
