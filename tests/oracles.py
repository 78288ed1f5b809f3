"""Independent brute-force oracles used to cross-check the library.

Everything here is computed by a route different from the implementation
under test: explicit index loops for partial traces and tensor products,
characteristic-polynomial coefficients (principal-minor sums) for positivity,
Gram-root singular values for the trace norm, dense superoperator and
permutation matrices for liftings, perturbations and adjoints, and
per-matrix-unit loops for Choi matrices and reduced dynamics, basis images
formed one member at a time, one ``apply_lifting`` and ``eigvalsh`` per
candidate for the positivity witness search, a dense grid scan for the
diagonal-mixing criterion, the inverse reindexing of ``liftings.components``,
one-shot Gaussian draws with three-index einsum estimators and a single-GEMM
empirical state, file text formatted one entry at a time, and files read one
line at a time with float().
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from statelift.config import tolerances
from statelift.errors import ConstraintViolation, FormatError
from statelift.liftings import Witness, WitnessConfig, apply_lifting
from statelift.measures import gaussian_sampler
from statelift.rng import philox_rng, spawn_seeds
from statelift.states import basis_g, basis_g_star, hermitian_basis, random_density


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = a.shape[0], b.shape[0]
    out = np.zeros((m * n, m * n), dtype=np.complex128)
    for ra in range(m):
        for ca in range(m):
            for rb in range(n):
                for cb in range(n):
                    out[ra * n + rb, ca * n + cb] = a[ra, ca] * b[rb, cb]
    return out


def ptrace_env_loops(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    out = np.zeros((ds, ds), dtype=np.complex128)
    for k in range(ds):
        for l in range(ds):
            for i in range(de):
                out[k, l] += w[k * de + i, l * de + i]
    return out


def ptrace_sys_loops(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    out = np.zeros((de, de), dtype=np.complex128)
    for i in range(de):
        for j in range(de):
            for k in range(ds):
                out[i, j] += w[k * de + i, k * de + j]
    return out


def product_lifting_loops(reference: np.ndarray, ds: int) -> np.ndarray:
    """Lifting matrix of rho -> rho (x) reference: column c*ds + r is the
    column stacking of E_rc (x) reference, one Kronecker product per unit."""
    de = reference.shape[0]
    m = np.zeros(((ds * de) ** 2, ds * ds), dtype=np.complex128)
    for c in range(ds):
        for r in range(ds):
            unit = np.zeros((ds, ds), dtype=np.complex128)
            unit[r, c] = 1.0
            m[:, c * ds + r] = kron_loops(unit, reference).T.ravel()
    return m


def ptrace_env_superop(ds: int, de: int) -> np.ndarray:
    """Dense matrix P with P @ vec(W) = vec(tr_env(W))."""
    dim = ds * de
    p = np.zeros((ds * ds, dim * dim), dtype=np.complex128)
    for k in range(ds):
        for l in range(ds):
            row = l * ds + k
            for i in range(de):
                p[row, (l * de + i) * dim + (k * de + i)] = 1.0
    return p


def random_perturbation_dense(ds: int, de: int, seed) -> np.ndarray:
    """The perturbation direction of ``liftings.random_perturbation`` from the
    same Philox draws, built with dense matrices: the stacked composite
    Hermitian basis, the dense partial-trace superoperator and the dense
    Id/de product lifting.  Memory is O((ds*de)^4); keep ds*de <= 32."""
    rng = philox_rng(seed)
    src = hermitian_basis(ds)
    dst = hermitian_basis(ds * de)
    g_cols = np.column_stack([h.T.ravel() for h in src])
    h_cols = np.column_stack([h.T.ravel() for h in dst])
    ptr = ptrace_env_superop(ds, de)
    embed = product_lifting_loops(np.eye(de, dtype=np.complex128) / de, ds)
    for _ in range(8):
        r = rng.standard_normal((len(dst), len(src)))
        m = h_cols @ r @ np.linalg.inv(g_cols)
        m -= embed @ (ptr @ m)
        norm = float(np.linalg.norm(m))
        if norm > 1e-9:
            return m / norm
    raise AssertionError("could not draw a non-degenerate perturbation")


def transpose_permutation(d: int) -> np.ndarray:
    """Dense permutation T with T @ vec(X) = vec(X^T)."""
    t = np.zeros((d * d, d * d), dtype=np.complex128)
    for r in range(d):
        for c in range(d):
            t[c * d + r, r * d + c] = 1.0
    return t


def choi_matrix_loops(channel: np.ndarray, d: int) -> np.ndarray:
    """sum_ij Lambda(E_ij) (x) E_ij, with Lambda(E_ij) read off column j*d + i
    of the channel matrix: one dense Kronecker product per matrix unit."""
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[i, j] = 1.0
            choi += np.kron(channel[:, j * d + i].reshape(d, d).T, unit)
    return choi


def reduced_dynamics_loops(u: np.ndarray, lift, ds: int, de: int) -> np.ndarray:
    """Channel matrix of rho -> tr_env(U lift(rho) U^dagger), one matrix unit
    per column: lift E_rc (e.g. ``lambda x: np.kron(x, reference)``), conjugate
    by U, trace out the environment and column-stack into column c*ds + r."""
    m = np.zeros((ds * ds, ds * ds), dtype=np.complex128)
    for c in range(ds):
        for r in range(ds):
            unit = np.zeros((ds, ds), dtype=np.complex128)
            unit[r, c] = 1.0
            w = u @ lift(unit) @ u.conj().T
            out = np.trace(w.reshape(ds, de, ds, de), axis1=1, axis2=3)
            m[:, c * ds + r] = out.T.ravel()
    return m


def basis_images_per_member(f) -> np.ndarray:
    """F(g) for each Hermitian basis member on its own, from the images of the
    matrix units (the unvec'd columns): g_kk is E_kk's; g_kl and g*_kl are
    (E_kl + E_lk) + (E_kk + E_ll) and i (E_kl - E_lk) + (E_kk + E_ll), summed
    in this order."""
    ds, dim = f.ds, f.ds * f.de

    def image(r, c):
        return f.matrix[:, c * ds + r].reshape(dim, dim, order="F")

    out = []
    for k in range(ds):
        out.append(image(k, k))
        for l in range(k + 1, ds):
            out.append((image(k, l) + image(l, k)) + (image(k, k) + image(l, l)))
    for k in range(ds):
        for l in range(k + 1, ds):
            out.append((image(k, l) - image(l, k)) * 1j + (image(k, k) + image(l, l)))
    return np.ascontiguousarray(np.stack(out))


def witness_candidates_loops(ds: int, config: WitnessConfig):
    """The canonical witness family, one member at a time: the Hermitian
    basis, the boundary mixtures of each pair k < l, the random densities."""
    for g in hermitian_basis(ds):
        yield g
    us = np.logspace(np.log10(config.u_min), np.log10(1.0 + config.t_max), config.num_t)
    for k in range(ds):
        for l in range(k + 1, ds):
            gkk = basis_g(k, k, ds)
            gll = basis_g(l, l, ds)
            gkl = basis_g(k, l, ds)
            gst = basis_g_star(k, l, ds)
            for u in us:
                t = u - 1.0
                p = 1.0 / u - 1.0
                yield gkl + t * gkk + p * gll
                yield gst + t * gkk + p * gll
    if config.extra > 0:
        for child in spawn_seeds(config.seed, config.extra):
            yield random_density(ds, seed=philox_rng(child))


def positivity_witness_search_loops(f, tol=None, config=None):
    """The witness search with one ``apply_lifting`` and one ``eigvalsh`` per
    candidate, in canonical order."""
    if tol is None:
        tol = tolerances.psd
    if config is None:
        config = WitnessConfig()
    for x in witness_candidates_loops(f.ds, config):
        state = x / np.trace(x).real
        w = apply_lifting(f, state)
        lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
        if lam < -tol:
            return Witness(state, lam)
    return None


def psd_by_char_poly(a: np.ndarray, tol: float = 1e-9) -> bool:
    """PSD test from the characteristic polynomial of a Hermitian matrix.

    det(lambda I - A) = sum_k (-1)^k e_k lambda^(n-k) with e_k the sum of all
    k x k principal minors; the eigenvalues are all >= 0 iff every e_k >= 0.
    Intended for dim <= 4 (minor count grows combinatorially).
    """
    a = np.asarray(a)
    n = a.shape[0]
    scale = max(float(np.max(np.abs(a))), 1.0)
    for k in range(1, n + 1):
        e_k = 0.0
        for rows in combinations(range(n), k):
            sub = a[np.ix_(rows, rows)]
            e_k += np.linalg.det(sub).real
        if e_k < -tol * scale**k * 2**n:
            return False
    return True


def trace_norm_gram(a: np.ndarray) -> float:
    """Trace norm from the eigenvalues of A^dagger A (not via SVD)."""
    gram = a.conj().T @ a
    vals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return float(np.sum(np.sqrt(vals)))


def bell_projector() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2) in the system-major indexing."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def reassemble(c: np.ndarray) -> np.ndarray:
    """Inverse of ``liftings.components``; exact (pure reindexing)."""
    ds, _, de, _ = c.shape
    return c.transpose(0, 2, 1, 3).reshape(ds * de, ds * de)


@lru_cache(maxsize=8)
def _scan_grid(resolution: float, t_max: float):
    # Boundary curve points, parametrized by t.  The uniform grid is
    # supplemented with log-dense refinements around t = 0 and around the
    # region corner 1 + t -> 0, where shallow violations concentrate.
    t_lin = np.arange(-1.0 + resolution, 2.0 + resolution, resolution)
    t_pos = np.logspace(-10, np.log10(t_max), 260)
    t_neg = -np.logspace(-10, 0, 220)[:-1]
    u_small = np.logspace(-10, np.log10(resolution), 150)
    t = np.concatenate([t_lin, t_pos, t_neg, u_small - 1.0])
    u = 1.0 + t
    p = 1.0 / u - 1.0
    # sparse interior offsets; the constraint is monotone in p there
    t_sub = t[::8]
    p_sub = 1.0 / (1.0 + t_sub) - 1.0
    t_all = [t]
    p_all = [p]
    for dp in (resolution, 1.0, 10.0):
        t_all.append(t_sub)
        p_all.append(p_sub + dp)
    return np.concatenate(t_all), np.concatenate(p_all)


def diag_mixing_positive_scan(
    a: float,
    b: float,
    c: float,
    resolution: float = 1e-3,
    t_max: float = 1e3,
) -> bool:
    """Grid oracle for :func:`diag_mixing_positive`.

    Evaluates the defining inequalities on a dense sample of the region
    (boundary curve included) and reports whether they hold everywhere, up to
    a float rounding margin proportional to the evaluated magnitudes.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 0:
            raise ConstraintViolation(f"{name} must be nonnegative, got {v}")
    t, p = _scan_grid(resolution, t_max)
    left = b + a * t
    right = b + c * p
    eps = np.finfo(float).eps
    lin_margin = 64 * eps * (abs(b) + np.abs(a * t))
    if np.any(left < -lin_margin):
        return False
    prod_margin = 64 * eps * (np.abs(left) * np.abs(right) + b * b)
    return not np.any(left * right - b * b < -prod_margin)


def draw_one_shot(sampler, n: int) -> np.ndarray:
    """All n Gaussian rows z = M g from a single standard_normal call."""
    parts = philox_rng(sampler.seed).standard_normal((n, sampler.dim, 2))
    g = np.sqrt(0.5) * (parts[..., 0] + 1j * parts[..., 1])
    return g @ sampler.factor.T


def estimate_expectation_einsum(b: np.ndarray, a: np.ndarray, n: int, seed) -> tuple:
    """(estimate, stderr, self_normalized, per-sample values <z,Az>/|z|^2) from
    the whole draw at once and a three-index einsum."""
    z = draw_one_shot(gaussian_sampler(b, seed), n)
    values = np.einsum("ni,ij,nj->n", z.conj(), np.asarray(a, dtype=np.complex128), z).real
    norms_sq = np.einsum("ni,ni->n", z.conj(), z).real
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return float(values.mean()), stderr, float(values.sum() / norms_sq.sum()), values / norms_sq


def empirical_state_dense(b: np.ndarray, n: int, seed) -> np.ndarray:
    """(1/n) sum_i z_i z_i^dagger over the whole draw in one GEMM, unit trace."""
    z = draw_one_shot(gaussian_sampler(b, seed), n)
    w = (z.T @ z.conj()) / n
    return w / np.trace(w).real


def file_text_per_entry(header, entries) -> str:
    """The text of a statelift file: the header lines, then one line per
    entry, ``re im`` for a complex entry, each number by ``str.format``."""
    lines = list(header)
    for z in entries:
        if np.iscomplexobj(z):
            lines.append(f"{'{:.17g}'.format(z.real)} {'{:.17g}'.format(z.imag)}")
        else:
            lines.append("{:.17g}".format(z))
    return "\n".join(lines) + "\n"


# kind: the size field, its value count, the entry count it gives, numbers per entry
FILE_KINDS = {
    "matrix": ("dim", 1, lambda dim: dim * dim, 2),
    "vector": ("dim", 1, lambda dim: dim, 2),
    "lifting": ("dims", 2, lambda ds, de: (ds * de) ** 2 * ds * ds, 2),
    "reduction": ("dims", 2, lambda ds, de: ds * ds * (ds * de) ** 2, 2),
    "measure": ("support", 1, lambda support: support, 1),
    "measure2": ("shape", 2, lambda nq, np_: nq * np_, 1),
    "table": ("shape", 2, lambda nq, np_: nq * nq * np_, 1),
}


def read_file_per_line(path, kind: str):
    """The size values and the float64 entries, shape (n, numbers per entry),
    of a ``statelift/<kind> v1`` file, read from its list of non-blank
    stripped lines one line at a time with float().  A bad file raises the
    FormatError the library's reader raises, naming the first bad line."""
    name, count, size, per_line = FILE_KINDS[kind]
    with open(path) as handle:
        lines = iter([ln for ln in map(str.strip, handle) if ln])

    def take(what):
        line = next(lines, None)
        if line is None:
            raise FormatError(f"{path}: unexpected end of file, expected {what}")
        return line

    header = take(f"header 'statelift/{kind} v1'")
    if header != f"statelift/{kind} v1":
        raise FormatError(f"{path}: bad header {header!r}, expected statelift/{kind} v1")
    parts = take(f"field '{name}'").split()
    if parts[0] != name or len(parts) != count + 1:
        raise FormatError(f"{path}: expected '{name}' with {count} value(s)")
    try:
        values = [int(p) for p in parts[1:]]
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer in field '{name}'") from exc
    if min(values) < 1:
        raise FormatError(f"{path}: {name} must be positive")
    n = size(*values)
    entries = []
    for i in range(1, n + 1):
        line = take(f"entry {i}/{n}")
        parts = line.split() if per_line == 2 else [line]
        if len(parts) != per_line:
            raise FormatError(f"{path}: entry {i} is not a 're im' pair")
        try:
            entries += [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric entry {i}") from exc
    if next(lines, None) is not None:
        raise FormatError(f"{path}: trailing data after entry list")
    return values, np.array(entries, dtype=np.float64).reshape(n, per_line)
