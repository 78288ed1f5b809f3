"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every randomized criterion is implemented as a helper returning
(ok, detail, record) where ``record`` is a deterministic text rendering of all
computed numbers; the final determinism criterion reruns the helpers and
requires byte-identical records.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import scipy.linalg

from statelift import (
    Product,
    adjoint_lifting,
    analyze,
    apply_channel,
    apply_lifting,
    apply_reduction,
    choi_matrix,
    choquet_reconstruct,
    classical_lift,
    dependent_projectors,
    diag_mixing_positive,
    environment_gram,
    estimate_expectation,
    is_cptp,
    marginal,
    measure_lift_state,
    nonaffine_witness,
    pairing,
    partial_trace_env,
    partial_trace_sys,
    product_lifting,
    product_rank,
    pure_projector,
    purify,
    random_density,
    random_hermitian,
    reduce_observable,
    reduced_dynamics_map,
    split_lift,
    structure_report,
    trace_norm,
)
from statelift.cli import main as cli_main
from statelift.measures import empirical_state, observable_bounds, projective_values
from statelift.rng import philox_rng

from oracles import diag_mixing_positive_scan, kron, matrix_unit

F17 = "{:.17g}".format


def _emit(number, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({detail}) [{elapsed:.2f}s < {limit}s]")


def _run(number, name, helper, limit):
    start = time.perf_counter()
    ok, detail, _record = helper()
    elapsed = time.perf_counter() - start
    _emit(number, name, ok, detail, elapsed, limit)
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


# --- criterion helpers -------------------------------------------------------


def criterion_roundtrip():
    rng = philox_rng(101)
    worst = 0.0
    values = []
    for _ in range(100):
        ds = int(rng.integers(2, 5))
        de = int(rng.integers(2, 5))
        rho = random_density(ds, seed=rng)
        d = random_density(de, seed=rng)
        dev = trace_norm(partial_trace_env(kron(rho, d), ds, de) - rho)
        values.append(dev)
        worst = max(worst, dev)
    record = "\n".join(F17(v) for v in values)
    return worst <= 1e-12, f"max roundtrip deviation {worst:.3e}", record


def criterion_product_analysis():
    rng = philox_rng(102)
    worst_ref, worst_diag, worst_res = 0.0, 0.0, 0.0
    values = []
    count = 0
    dims = [(ds, de) for ds in (2, 3, 4) for de in (2, 3, 4)]
    while count < 50:
        ds, de = dims[count % len(dims)]
        d = random_density(de, seed=rng)
        f = product_lifting(d, ds)
        verdict = analyze(f)
        if not isinstance(verdict, Product):
            return False, f"trial {count} verdict {type(verdict).__name__}", ""
        ref_dev = trace_norm(verdict.reference - d)
        diag_dev = structure_report(f).max_deviation
        worst_ref = max(worst_ref, ref_dev)
        worst_diag = max(worst_diag, diag_dev)
        worst_res = max(worst_res, verdict.residual)
        values += [ref_dev, diag_dev, verdict.residual]
        count += 1
    ok = worst_ref <= 1e-10 and worst_diag <= 1e-10
    record = "\n".join(F17(v) for v in values)
    return ok, f"max reference dev {worst_ref:.3e}, max diagnostic {worst_diag:.3e}", record


def criterion_nogo(tmp_dir):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main([
            "--run-log", f"{tmp_dir}/runs.jsonl",
            "nogo", "--ds", "3", "--de", "2",
            "--trials", "200", "--eps", "1e-2", "--seed", "7",
        ])
    report = out.getvalue()
    lines = dict(
        line.split(" = ", 1) for line in report.splitlines() if " = " in line
    )
    falsifiers = int(lines["falsifiers"])
    rejected = (
        int(lines["count[violates_positivity]"])
        + int(lines["count[violates_trace]"])
        + int(lines["count[violates_hermiticity]"])
        + int(lines["count[product]"])
    )
    ok = code == 0 and falsifiers == 0 and rejected == 200
    return ok, f"exit {code}, falsifiers {falsifiers}, classified {rejected}/200", report


def criterion_mixing_oracle():
    rng = philox_rng(104)
    disagreements = []
    lines = []
    for _ in range(10_000):
        a, b, c = rng.uniform(0.0, 2.0, 3)
        closed = diag_mixing_positive(a, b, c)
        scanned = diag_mixing_positive_scan(a, b, c)
        lines.append(f"{int(closed)}{int(scanned)}")
        if closed != scanned:
            boundary_distance = min(abs(a - c), abs(a - b))
            disagreements.append(boundary_distance)
    ok = all(d <= 1e-6 for d in disagreements)
    detail = f"{len(disagreements)} disagreements, all within 1e-6 of a=c or a=b" if ok else (
        f"disagreement at boundary distance {max(disagreements):.3e}"
    )
    return ok, detail, "\n".join(lines)


def criterion_duality():
    rng = philox_rng(105)
    d = random_density(3, seed=rng)
    f = product_lifting(d, 3)
    r = adjoint_lifting(f)
    values = []
    worst_pairing = 0.0
    for _ in range(100):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        dev = abs(pairing(a, apply_lifting(f, rho)) - pairing(apply_reduction(r, a), rho))
        worst_pairing = max(worst_pairing, dev)
        values.append(dev)
    worst_basis = 0.0
    for i in range(9):
        for j in range(9):
            unit = matrix_unit(i, j, 9)
            dev = float(np.max(np.abs(apply_reduction(r, unit) - reduce_observable(unit, d))))
            worst_basis = max(worst_basis, dev)
            values.append(dev)
    ok = worst_pairing <= 1e-10 and worst_basis <= 1e-8
    record = "\n".join(F17(v) for v in values)
    return ok, f"pairing dev {worst_pairing:.3e}, basis dev {worst_basis:.3e}", record


def criterion_reduced_dynamics():
    rng = philox_rng(106)
    values = []
    worst_trace, worst_choi, worst_id, worst_free = 0.0, 0.0, 0.0, 0.0
    for k in range(20):
        ds, de = (2, 2) if k % 2 else (2, 3)
        h = random_hermitian(ds * de, seed=rng)
        d = random_density(de, seed=rng)
        t = float(rng.uniform(-2.0, 2.0))
        lam = reduced_dynamics_map(h, d, t)
        rho = random_density(ds, seed=rng)
        out = apply_channel(lam, rho)
        trace_dev = abs(np.trace(out).real - 1.0)
        worst_trace = max(worst_trace, trace_dev)
        if not is_cptp(lam):
            return False, f"trial {k} not CPTP", ""
        choi_min = float(np.linalg.eigvalsh(choi_matrix(lam))[0])
        worst_choi = min(worst_choi, choi_min)
        id_dev = float(np.max(np.abs(reduced_dynamics_map(h, d, 0.0).matrix - np.eye(ds * ds))))
        worst_id = max(worst_id, id_dev)
        values += [trace_dev, choi_min, id_dev]
    # non-interacting Hamiltonians reproduce pure conjugation
    for k in range(5):
        hs = random_hermitian(2, seed=rng)
        he = random_hermitian(3, seed=rng)
        d = random_density(3, seed=rng)
        t = float(rng.uniform(-2.0, 2.0))
        lam = reduced_dynamics_map(kron(hs, np.eye(3)) + kron(np.eye(2), he), d, t)
        v = scipy.linalg.expm(-1j * t * hs)
        rho = random_density(2, seed=rng)
        dev = float(np.max(np.abs(apply_channel(lam, rho) - v @ rho @ v.conj().T)))
        worst_free = max(worst_free, dev)
        values.append(dev)
    ok = worst_trace <= 1e-10 and worst_choi >= -1e-9 and worst_id <= 1e-12 and worst_free <= 1e-9
    record = "\n".join(F17(v) for v in values)
    detail = (
        f"trace dev {worst_trace:.3e}, choi min {worst_choi:.3e}, "
        f"id dev {worst_id:.3e}, free dev {worst_free:.3e}"
    )
    return ok, detail, record


def criterion_purification():
    rng = philox_rng(107)
    values = []
    worst_round, worst_gram = 0.0, 0.0
    for de in (1, 2, 3, 4):
        for rank in range(1, de + 1):
            ds = 4
            s = random_density(ds, rank=rank, seed=rng)
            a = purify(s, de)
            round_dev = trace_norm(partial_trace_env(pure_projector(a), ds, de) - s)
            gram_dev = float(np.max(np.abs(environment_gram(a, ds, de) - s)))
            worst_round = max(worst_round, round_dev)
            worst_gram = max(worst_gram, gram_dev)
            values += [round_dev, gram_dev]
    ok = worst_round <= 1e-10 and worst_gram <= 1e-10
    record = "\n".join(F17(v) for v in values)
    return ok, f"roundtrip dev {worst_round:.3e}, gram dev {worst_gram:.3e}", record


def criterion_classical_lift():
    rng = philox_rng(108)
    table = split_lift(np.array([True, False, True, False]), 1, 2, 3)
    worst = 0.0
    for _ in range(50):
        upsilon = rng.standard_normal(4)  # signed measure
        dev = float(np.max(np.abs(marginal(classical_lift(table, upsilon)) - upsilon)))
        worst = max(worst, dev)
    split = classical_lift(split_lift(np.array([True, False]), 0, 1, 2), np.array([0.5, 0.5]))
    exact = np.array_equal(split, np.array([[0.5, 0.0], [0.0, 0.5]]))
    rank = product_rank(split)
    ok = worst <= 1e-14 and exact and rank == 2
    detail = f"marginal dev {worst:.3e}, split weights exact {exact}, rank {rank}"
    return ok, detail, F17(worst)


def criterion_nonaffine_witness():
    vectors, coeff = dependent_projectors()
    residual = float(np.linalg.norm(sum(c * pure_projector(v) for c, v in zip(coeff, vectors))))
    w, mu1, mu2 = nonaffine_witness()
    rec_dev = trace_norm(choquet_reconstruct(mu1) - choquet_reconstruct(mu2))
    fidelities = [abs(np.vdot(u, v)) ** 2 for u in mu1.vectors for v in mu2.vectors]
    atoms_distinct = all(fid < 1.0 - 1e-9 for fid in fidelities)
    basis = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    sigma = classical_lift(split_lift(np.array([True, False]), 0, 1, 2), np.array([0.5, 0.5]))
    lifted = measure_lift_state(sigma, basis, basis)
    non_product_gap = trace_norm(
        lifted - kron(partial_trace_env(lifted, 2, 2), partial_trace_sys(lifted, 2, 2))
    )
    ok = (
        residual <= 1e-12
        and rec_dev <= 1e-12
        and atoms_distinct
        and non_product_gap > 0.1
    )
    detail = (
        f"dependence residual {residual:.3e}, reconstruction dev {rec_dev:.3e}, "
        f"non-product gap {non_product_gap:.3f}"
    )
    return ok, detail, f"{F17(residual)}\n{F17(rec_dev)}\n{F17(non_product_gap)}"


def criterion_monte_carlo():
    values = []
    ok = True
    detail_parts = []
    worst_z = 0.0
    for k in range(20):
        a = random_hermitian(4, seed=2000 + k)
        b = random_density(4, seed=3000 + k)
        res = estimate_expectation(b, a, 100_000, seed=4000 + k)
        exact = float(np.trace(a @ b).real)
        z = abs(res.estimate - exact) / res.stderr
        worst_z = max(worst_z, z)
        values += [res.estimate, res.stderr]
        if z > 5.0:
            ok = False
            detail_parts.append(f"pair {k} off by {z:.1f} stderr")
    emp_err = trace_norm(
        empirical_state(np.diag([0.7, 0.3]).astype(complex), 100_000, seed=5000)
        - np.diag([0.7, 0.3])
    )
    values.append(emp_err)
    if emp_err > 0.02:
        ok = False
        detail_parts.append(f"empirical error {emp_err:.3f}")
    a = random_hermitian(4, seed=6000)
    b = random_density(4, seed=6001)
    samples = projective_values(b, a, 100_000, seed=6002)
    lo, hi = observable_bounds(a)
    bounded = bool(samples.min() >= lo - 1e-12 and samples.max() <= hi + 1e-12)
    values += [float(samples.min()), float(samples.max())]
    if not bounded:
        ok = False
        detail_parts.append("per-sample values escape the spectral range")
    detail = "; ".join(detail_parts) if detail_parts else (
        f"max |error|/stderr {worst_z:.2f}, empirical error {emp_err:.4f}, samples bounded"
    )
    record = "\n".join(F17(v) for v in values)
    return ok, detail, record


# --- the tests ----------------------------------------------------------------


def test_criterion_01_partial_trace_lifting_roundtrip():
    _run(1, "partial-trace/lifting round-trip", criterion_roundtrip, 1.0)


def test_criterion_02_product_analysis():
    _run(2, "factorization analysis of product liftings", criterion_product_analysis, 10.0)


def test_criterion_03_nogo_sweep(tmp_path):
    _run(3, "no-go sweep (200 perturbation trials)", lambda: criterion_nogo(tmp_path), 60.0)


def test_criterion_04_mixing_oracle_agreement():
    _run(4, "mixing criterion vs grid oracle (10^4 triples)", criterion_mixing_oracle, 30.0)


def test_criterion_05_duality():
    _run(5, "adjoint duality and observable reduction", criterion_duality, 5.0)


def test_criterion_06_reduced_dynamics():
    _run(6, "reduced dynamics trace/CPTP/free limits", criterion_reduced_dynamics, 10.0)


def test_criterion_07_purification():
    _run(7, "purification round-trip and Gram blocks", criterion_purification, 2.0)


def test_criterion_08_classical_lift():
    _run(8, "classical lifting marginal identity", criterion_classical_lift, 1.0)


def test_criterion_09_nonaffine_witness():
    _run(9, "projector dependence and measure witness", criterion_nonaffine_witness, 1.0)


def test_criterion_10_monte_carlo():
    _run(10, "Hilbert-space measure Monte-Carlo", criterion_monte_carlo, 30.0)


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    randomized = [
        criterion_roundtrip,
        criterion_product_analysis,
        lambda: criterion_nogo(tmp_path),
        criterion_mixing_oracle,
        criterion_duality,
        criterion_reduced_dynamics,
        criterion_purification,
        criterion_monte_carlo,
    ]
    ok = True
    for helper in randomized:
        first = helper()[2].encode()
        second = helper()[2].encode()
        if first != second:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _emit(11, "seeded reruns byte-identical", ok, f"{len(randomized)} criteria rerun", elapsed, 120.0)
    assert ok, "a seeded rerun produced a different output record"
