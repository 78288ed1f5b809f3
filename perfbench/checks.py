"""Reference computations the benchmark checks statelift's outputs against.

Everything here is written apart from the package: vectorization, partial
traces, lifting images and the text parsers are re-derived from the
documented conventions (column-stacking vec, composite index
``system * d_env + env``), and reduced dynamics uses ``scipy.linalg.expm``.
A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Documented analyzer thresholds (statelift.config.Tolerances defaults).
PSD_TOL = 1e-9
TRACE_TOL = 1e-10
# How close a recomputed quantity must be to the program's.
MATCH_TOL = 1e-9
# Monte-Carlo acceptance: deviations beyond this many standard errors fail.
SIGMAS = 5.0


# ---------------------------------------------------------------------------
# parsing the CLI report and the matrix file format
# ---------------------------------------------------------------------------


def parse_report(text: str) -> dict:
    """``key = value`` lines of a CLI report, in order of appearance."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def report_matrix(report: dict, name: str, dim: int) -> np.ndarray:
    """A matrix printed as ``name[r,c] = re im`` lines."""
    m = np.empty((dim, dim), dtype=np.complex128)
    for r in range(dim):
        for c in range(dim):
            re, im = report[f"{name}[{r},{c}]"].split()
            m[r, c] = complex(float(re), float(im))
    return m


def read_matrix_file(path: str) -> np.ndarray:
    """Parse a ``statelift/matrix v1`` file: header, ``dim n``, n*n row-major pairs."""
    with open(path) as handle:
        lines = handle.read().split("\n")
    if lines[0] != "statelift/matrix v1" or not lines[1].startswith("dim "):
        raise ValueError(f"{path}: not a matrix file")
    dim = int(lines[1].split()[1])
    pairs = np.array([ln.split() for ln in lines[2 : 2 + dim * dim]], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim)


# ---------------------------------------------------------------------------
# linear algebra, re-derived
# ---------------------------------------------------------------------------


def lifting_image(matrix: np.ndarray, x: np.ndarray, dim: int) -> np.ndarray:
    """F(x) for a lifting stored on column-stacked vectorizations."""
    return (matrix @ x.reshape(-1, order="F")).reshape(dim, dim, order="F")


def ptrace_env(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    return np.trace(w.reshape(ds, de, ds, de), axis1=1, axis2=3)


def trace_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False).sum())


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / (2 * np.sqrt(d))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def trace_kernel_direction(rng: np.random.Generator, ds: int, de: int) -> np.ndarray:
    """Random Frobenius-unit lifting matrix that preserves Hermiticity and is
    annihilated by the environment partial trace.

    Images of matrix units are drawn with F(E_cr) = F(E_rc)^dagger, then the
    part tr_env(Y) (x) Id/de is removed from each image.
    """
    dim = ds * de
    images = np.empty((ds, ds, dim, dim), dtype=np.complex128)
    for r in range(ds):
        for c in range(r, ds):
            y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            if r == c:
                y = (y + y.conj().T) / 2
            y -= np.kron(ptrace_env(y, ds, de), np.eye(de) / de)
            images[r, c] = y
            images[c, r] = y.conj().T
    # column c*ds + r holds vec(F(E_rc))
    m = images.transpose(1, 0, 3, 2).reshape(ds * ds, dim * dim).T
    return m / np.linalg.norm(m)


# ---------------------------------------------------------------------------
# per-verb checks
# ---------------------------------------------------------------------------


def check_analyze_product(report: dict, de: int, reference: np.ndarray) -> list:
    """Verdict product, reference equal to the state the file was built from."""
    problems = []
    if report.get("verdict") != "product":
        return [f"verdict {report.get('verdict')!r}, expected 'product'"]
    got = report_matrix(report, "reference", de)
    err = float(np.max(np.abs(got - reference)))
    if err > MATCH_TOL:
        problems.append(f"reference differs from the built state by {err:.3e}")
    if float(report["structure.max_deviation"]) > MATCH_TOL:
        problems.append(f"structure.max_deviation {report['structure.max_deviation']}")
    if float(report["residual"]) > float(report["tol"]):
        problems.append(f"residual {report['residual']} above tol {report['tol']}")
    return problems


def check_analyze_positivity(report: dict, matrix: np.ndarray, ds: int, de: int) -> list:
    """Verdict violates_positivity with a witness whose image, recomputed from
    the lifting matrix, has an eigenvalue below -psd."""
    if report.get("verdict") != "violates_positivity":
        return [f"verdict {report.get('verdict')!r}, expected 'violates_positivity'"]
    problems = []
    witness = report_matrix(report, "witness", ds)
    if abs(np.trace(witness) - 1.0) > MATCH_TOL:
        problems.append(f"witness trace {np.trace(witness)}")
    if float(np.max(np.abs(witness - witness.conj().T))) > MATCH_TOL:
        problems.append("witness is not Hermitian")
    elif float(np.linalg.eigvalsh(witness)[0]) < -MATCH_TOL:
        problems.append("witness is not positive")
    image = lifting_image(matrix, witness, ds * de)
    lam = float(np.linalg.eigvalsh((image + image.conj().T) / 2)[0])
    if lam >= -PSD_TOL:
        problems.append(f"recomputed witness image has min eigenvalue {lam:.3e}")
    reported = float(report["witness_min_eigenvalue"])
    if abs(lam - reported) > MATCH_TOL * max(1.0, abs(lam)):
        problems.append(f"min eigenvalue {reported} vs recomputed {lam}")
    return problems


def check_analyze_trace(report: dict, matrix: np.ndarray, ds: int, de: int) -> list:
    """Verdict violates_trace, confirmed by tr_env(F(E_rc)) != E_rc."""
    if report.get("verdict") != "violates_trace":
        return [f"verdict {report.get('verdict')!r}, expected 'violates_trace'"]
    worst = 0.0
    for r in range(ds):
        for c in range(ds):
            e = np.zeros((ds, ds), dtype=np.complex128)
            e[r, c] = 1.0
            reduced = ptrace_env(lifting_image(matrix, e, ds * de), ds, de)
            worst = max(worst, trace_norm(reduced - e))
    if worst <= TRACE_TOL:
        return [f"own partial trace finds no violation (max deviation {worst:.3e})"]
    return []


def check_nogo(report: dict, code: int, trials: int, known_faults: frozenset) -> tuple:
    """Per-trial verdicts of a sweep: (failed trials, unexpected problems).

    A trial is right when it is a product within tol or a positivity
    violation below -psd. An inconclusive trial fails; it is expected only at
    an index in ``known_faults``.
    """
    problems = []
    tol = float(report["tol"])
    failed = 0
    counted = {}
    for i in range(trials):
        verdict, value = report[f"trial[{i}]"].split()
        counted[verdict] = counted.get(verdict, 0) + 1
        ok = (verdict == "product" and float(value) <= tol) or (
            verdict == "violates_positivity" and float(value) < -PSD_TOL
        )
        if not ok:
            failed += 1
            if not (verdict == "inconclusive" and i in known_faults):
                problems.append(f"trial {i}: {verdict} {value}")
    totals = {k[len("count[") : -1]: int(v) for k, v in report.items() if k.startswith("count[")}
    if sum(totals.values()) != trials or any(totals.get(k, 0) != n for k, n in counted.items()):
        problems.append(f"counts {totals} do not match the trial lines")
    expected_code = 6 if counted.get("inconclusive") else 0
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    return failed, problems


def check_estimate(report: dict, b: np.ndarray, a: np.ndarray, n: int) -> list:
    """Within SIGMAS standard errors of tr(AB); the variance of <z, A z> under
    the complex Gaussian with correlation B is tr((AB)^2)."""
    ab = a @ b
    exact = float(np.trace(ab).real)
    se = float(np.sqrt(np.trace(ab @ ab).real / n))
    got = float(report["estimate"])
    if int(report["n"]) != n:
        return [f"n = {report['n']}, expected {n}"]
    if abs(got - exact) > SIGMAS * se:
        return [f"estimate {got} is {abs(got - exact) / se:.1f} standard errors from {exact}"]
    return []


def check_empirical(report: dict, out_path: str, b: np.ndarray, n: int) -> list:
    """Unit-trace PSD output within SIGMAS (1 + |B|_F)/sqrt(n) of B in
    Frobenius norm: the sample mean of z z^dagger has Frobenius variance
    tr(B)^2/n, and renormalizing the trace adds at most |B|_F times that."""
    w = read_matrix_file(out_path)
    problems = []
    if abs(np.trace(w) - 1.0) > MATCH_TOL:
        problems.append(f"trace {np.trace(w)}")
    if float(np.max(np.abs(w - w.conj().T))) > MATCH_TOL:
        problems.append("output is not Hermitian")
    elif float(np.linalg.eigvalsh(w)[0]) < -MATCH_TOL:
        problems.append("output is not positive")
    err = float(np.linalg.norm(w - b))
    bound = SIGMAS * (1.0 + float(np.linalg.norm(b))) / np.sqrt(n)
    if err > bound:
        problems.append(f"Frobenius error {err:.3e} above {bound:.3e}")
    if abs(float(report["trace_norm_error"]) - trace_norm(w - b)) > MATCH_TOL:
        problems.append("reported trace_norm_error differs from the written output")
    return problems


def check_evolve(report: dict, out_path: str, h, d, rho, t: float) -> list:
    """Output equals tr_env(e^{-iHt} (rho (x) D) e^{iHt}), channel CPTP."""
    ds, de = rho.shape[0], d.shape[0]
    u = scipy.linalg.expm(-1j * t * h)
    expected = ptrace_env(u @ np.kron(rho, d) @ u.conj().T, ds, de)
    got = read_matrix_file(out_path)
    problems = []
    err = float(np.max(np.abs(got - expected)))
    if err > MATCH_TOL:
        problems.append(f"reduced state differs from expm reference by {err:.3e}")
    if report.get("cptp") != "true":
        problems.append(f"cptp = {report.get('cptp')}")
    if float(report["choi_min_eigenvalue"]) < -PSD_TOL:
        problems.append(f"choi_min_eigenvalue {report['choi_min_eigenvalue']}")
    return problems


def check_adjoint(f_matrix, r_matrix, unit_dev, reduced, a, rho, d) -> list:
    """tr(A F(rho)) = tr(F*(A) rho) with both maps contracted here, unit
    reduction ~ 0, and reduce_observable(A, D) = tr_env(A (Id (x) D))."""
    ds, de = rho.shape[0], d.shape[0]
    lifted = lifting_image(f_matrix, rho, ds * de)
    adj_a = (r_matrix @ a.reshape(-1, order="F")).reshape(ds, ds, order="F")
    lhs, rhs = np.trace(a @ lifted), np.trace(adj_a @ rho)
    problems = []
    if abs(lhs - rhs) > MATCH_TOL * max(1.0, abs(lhs)):
        problems.append(f"duality tr(A F(rho)) = {lhs} but tr(F*(A) rho) = {rhs}")
    if unit_dev > MATCH_TOL:
        problems.append(f"unit reduction deviation {unit_dev:.3e}")
    expected = ptrace_env(a @ np.kron(np.eye(ds), d), ds, de)
    err = float(np.max(np.abs(reduced - expected)))
    if err > MATCH_TOL:
        problems.append(f"reduce_observable differs from tr_env(A (Id x D)) by {err:.3e}")
    if float(np.max(np.abs(adj_a - expected))) > MATCH_TOL:
        problems.append("adjoint of the product lifting differs from the reduced observable")
    return problems
