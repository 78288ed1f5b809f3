"""Linear liftings of system states into a composite system, and their analysis.

A lifting is a linear map from d_S x d_S operators to (d_S d_E) x (d_S d_E)
operators, stored as a dense matrix acting on column-stacked vectorizations.
The analyzer decides whether a candidate lifting is (numerically) of the
product form rho -> rho (x) D: it checks Hermiticity preservation and the
partial-trace constraint, searches a structured family of positive inputs for
an image with a negative eigenvalue, extracts the would-be reference state
from the (0, 0) block of the image of the corner basis element, and measures
the residual against the exact product map.

The witness family consists of the rank-one Hermitian basis (``basis_g``,
``basis_g_star``) plus the one-parameter positive mixtures
``g + t*g_kk + p*g_ll`` and their star variants sampled on the boundary
curve (1+t)(1+p) = 1, where any non-product map that satisfies the other
constraints must lose positivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import KRAUS_TOL, default_residual_tol, tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import frobenius, kron, matrix_unit, partial_trace_env, trace_norm, unvec, vec
from .rng import philox_rng, spawn_seeds
from .states import basis_g, basis_g_star, hermitian_basis, random_density, validate_density


@dataclass(frozen=True, eq=False)
class Lifting:
    """A linear map L1(H_S) -> L1(H_S (x) H_E) on vectorized operators."""

    ds: int
    de: int
    matrix: np.ndarray  # shape ((ds*de)**2, ds**2)

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.ascontiguousarray(self.matrix, dtype=np.complex128))
        expected = ((self.ds * self.de) ** 2, self.ds**2)
        if self.matrix.shape != expected:
            raise DimensionMismatch(
                f"lifting matrix shape {self.matrix.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(self.matrix.view(np.float64))):
            raise ConstraintViolation("lifting matrix has non-finite entries")


def product_lifting(reference: np.ndarray, ds: int) -> Lifting:
    """The lifting rho -> rho (x) reference.

    Column c*ds + r is vec(E_rc (x) D): D^T at index [c, :, r, :] of the
    (ds, de, ds, de) row split, set by one broadcast assignment in
    O((ds*de)^2 * ds^2)."""
    d = validate_density(reference)
    de = d.shape[0]
    m = np.zeros((ds, de, ds, de, ds, ds), dtype=np.complex128)
    c, r = np.ogrid[:ds, :ds]
    m[c, :, r, :, c, r] = d.T
    return Lifting(ds, de, m.reshape((ds * de) ** 2, ds * ds))


def kraus_lifting(ks, reference: np.ndarray, ds: int) -> Lifting:
    """The lifting rho -> sum_n K_n (rho (x) reference) K_n^dagger.

    The family must satisfy sum_n K_n^dagger K_n = Id on the composite space;
    otherwise the construction is rejected with the deviation norm.
    """
    d = validate_density(reference)
    de = d.shape[0]
    dim = ds * de
    ks = [np.asarray(k, dtype=np.complex128) for k in ks]
    for k in ks:
        if k.shape != (dim, dim):
            raise DimensionMismatch(f"Kraus operator shape {k.shape}, expected ({dim}, {dim})")
    total = sum(k.conj().T @ k for k in ks)
    deviation = frobenius(total - np.eye(dim))
    if deviation > KRAUS_TOL:
        raise ConstraintViolation(
            f"Kraus family is not normalized: |sum K^dagger K - Id|_F = {deviation:.3e}"
        )
    m = np.empty((dim * dim, ds * ds), dtype=np.complex128)
    for c in range(ds):
        for r in range(ds):
            y = kron(matrix_unit(r, c, ds), d)
            m[:, c * ds + r] = vec(sum(k @ y @ k.conj().T for k in ks))
    return Lifting(ds, de, m)


def apply_lifting(f: Lifting, x: np.ndarray) -> np.ndarray:
    """Image of a system operator under the lifting."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (f.ds, f.ds):
        raise DimensionMismatch(f"operator shape {x.shape}, lifting expects ({f.ds}, {f.ds})")
    return unvec(f.matrix @ vec(x), f.ds * f.de)


def components(w: np.ndarray, ds: int, de: int) -> np.ndarray:
    """Block decomposition C[k, l, i, j] = W[k*de + i, l*de + j]."""
    w = np.asarray(w)
    if w.shape != (ds * de, ds * de):
        raise DimensionMismatch(f"matrix shape {w.shape} does not factor as {ds}x{de}")
    return w.reshape(ds, de, ds, de).transpose(0, 2, 1, 3)


def reassemble(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`components`; exact (pure reindexing)."""
    ds, _, de, _ = c.shape
    return c.transpose(0, 2, 1, 3).reshape(ds * de, ds * de)


def _trace_deviations(f: Lifting):
    worst, worst_g = -1.0, None
    for g in hermitian_basis(f.ds):
        dev = trace_norm(partial_trace_env(apply_lifting(f, g), f.ds, f.de) - g)
        if dev > worst:
            worst, worst_g = dev, g
    return worst, worst_g


def check_trace_constraint(f: Lifting) -> float:
    """Max trace-norm deviation of tr_env(F(g)) from g over the Hermitian basis.

    Zero (within tolerance) exactly when F is a right inverse of the
    environment partial trace.
    """
    return _trace_deviations(f)[0]


def check_hermiticity_preserving(f: Lifting) -> float:
    """Max Frobenius deviation of F(g) from self-adjointness over the basis."""
    worst = 0.0
    for g in hermitian_basis(f.ds):
        w = apply_lifting(f, g)
        worst = max(worst, frobenius(w - w.conj().T))
    return worst


def extract_reference(f: Lifting) -> np.ndarray:
    """The (0, 0) environment block of the image of the corner basis element.

    For a product lifting this is the reference state itself; it is a purely
    diagnostic read-out and is defined for invalid liftings too.
    """
    w = apply_lifting(f, basis_g(0, 0, f.ds))
    return w[: f.de, : f.de].copy()


# ---------------------------------------------------------------------------
# positivity witness search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessConfig:
    """Grid for the positivity search.

    ``num_t`` boundary points are taken with u = 1 + t log-spaced in
    [u_min, 1 + t_max] and p = 1/u - 1, so every sampled (t, p) lies on the
    boundary curve (1+t)(1+p) = 1; ``extra`` seeded random densities are
    appended as a backstop.
    """

    num_t: int = 40
    u_min: float = 1e-3
    t_max: float = 1e3
    extra: int = 100
    seed: int = 7


@dataclass(frozen=True, eq=False)
class Witness:
    state: np.ndarray  # unit-trace positive input whose image is negative
    min_eigenvalue: float


def _witness_candidates(ds: int, config: WitnessConfig):
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


def positivity_witness_search(
    f: Lifting,
    tol: float | None = None,
    config: WitnessConfig | None = None,
):
    """First trace-normalized input in the canonical family whose image has an
    eigenvalue below -tol, or None if the whole family maps to positive
    operators."""
    if tol is None:
        tol = tolerances.psd
    if config is None:
        config = WitnessConfig()
    for x in _witness_candidates(f.ds, config):
        state = x / np.trace(x).real
        w = apply_lifting(f, state)
        lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
        if lam < -tol:
            return Witness(state, lam)
    return None


# ---------------------------------------------------------------------------
# component structure diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairStructure:
    """Per-pair (k < l) block diagnostics of the lifted basis images."""

    off_support: float        # mass of F(g_kl) outside its four carried blocks
    off_support_star: float   # same for F(g_kl_star)
    component_mismatch: float  # the four carried blocks of F(g_kl) differ
    phase_mismatch: float      # +-i relations among carried blocks of F(g_kl_star)
    reference_mismatch: float  # carried blocks differ from the corner block a


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Block-structure deviations that vanish exactly for product liftings."""

    diag_off_support: dict       # k -> mass of F(g_kk) outside its (k, k) block
    diag_reference_mismatch: dict  # k -> |F(g_kk)^{kk} - a|_F
    pairs: dict                  # (k, l) -> PairStructure

    @property
    def max_deviation(self) -> float:
        worst = 0.0
        for v in self.diag_off_support.values():
            worst = max(worst, v)
        for v in self.diag_reference_mismatch.values():
            worst = max(worst, v)
        for p in self.pairs.values():
            worst = max(
                worst,
                p.off_support,
                p.off_support_star,
                p.component_mismatch,
                p.phase_mismatch,
                p.reference_mismatch,
            )
        return worst


def _off_support_mass(blocks: np.ndarray, support) -> float:
    masked = blocks.copy()
    for k, l in support:
        masked[k, l] = 0.0
    return float(np.linalg.norm(masked))


def structure_report(f: Lifting) -> StructureReport:
    """Block diagnostics of the basis images.

    For a map that preserves Hermiticity, respects the partial-trace
    constraint and maps the witness family to positive operators, every
    reported deviation vanishes: images of diagonal basis elements live in a
    single block, images of pair elements live in four equal blocks (with the
    +-i phases for the star family), and all carried blocks agree with the
    corner block a = F(g_00)^{00}.
    """
    ds, de = f.ds, f.de
    a = extract_reference(f)
    diag_off = {}
    diag_ref = {}
    for k in range(ds):
        blocks = components(apply_lifting(f, basis_g(k, k, ds)), ds, de)
        diag_off[k] = _off_support_mass(blocks, [(k, k)])
        diag_ref[k] = frobenius(blocks[k, k] - a)
    pairs = {}
    for k in range(ds):
        for l in range(k + 1, ds):
            support = [(k, k), (k, l), (l, k), (l, l)]
            blocks = components(apply_lifting(f, basis_g(k, l, ds)), ds, de)
            sblocks = components(apply_lifting(f, basis_g_star(k, l, ds)), ds, de)
            carried = [blocks[k, k], blocks[k, l], blocks[l, k], blocks[l, l]]
            mismatch = max(
                frobenius(x - y) for i, x in enumerate(carried) for y in carried[i + 1 :]
            )
            phase = max(
                frobenius(sblocks[k, k] - (-1j) * sblocks[k, l]),
                frobenius(sblocks[k, k] - 1j * sblocks[l, k]),
                frobenius(sblocks[k, k] - sblocks[l, l]),
            )
            ref = max(
                frobenius(blocks[k, l] - a),
                frobenius((-1j) * sblocks[k, l] - a),
                frobenius(sblocks[k, k] - a),
            )
            pairs[(k, l)] = PairStructure(
                off_support=_off_support_mass(blocks, support),
                off_support_star=_off_support_mass(sblocks, support),
                component_mismatch=mismatch,
                phase_mismatch=phase,
                reference_mismatch=ref,
            )
    return StructureReport(diag_off, diag_ref, pairs)


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Product:
    """The lifting is the product map rho -> rho (x) reference."""

    reference: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class ViolatesTrace:
    max_deviation: float
    witness: np.ndarray  # basis element with the worst partial-trace deviation


@dataclass(frozen=True, eq=False)
class ViolatesHermiticity:
    max_deviation: float


@dataclass(frozen=True, eq=False)
class ViolatesPositivity:
    witness: np.ndarray  # unit-trace positive input mapped to a negative operator
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)
class Inconclusive:
    """All hypothesis checks passed but the product residual exceeds the
    threshold; indicates a tolerance problem, never a genuine counterexample."""

    residual: float


def product_residual(f: Lifting, reference: np.ndarray) -> float:
    """Max Frobenius distance of F(g) from g (x) reference over the basis."""
    worst = 0.0
    for g in hermitian_basis(f.ds):
        worst = max(worst, frobenius(apply_lifting(f, g) - kron(g, reference)))
    return worst


def analyze(
    f: Lifting,
    tol: float | None = None,
    witness_config: WitnessConfig | None = None,
):
    """Classify a lifting: hermiticity -> trace -> positivity -> factorization."""
    if tol is None:
        tol = default_residual_tol()
    herm = check_hermiticity_preserving(f)
    if herm > tolerances.hermitian:
        return ViolatesHermiticity(herm)
    trace_dev, trace_witness = _trace_deviations(f)
    if trace_dev > tolerances.trace:
        return ViolatesTrace(trace_dev, trace_witness)
    witness = positivity_witness_search(f, config=witness_config)
    if witness is not None:
        return ViolatesPositivity(witness.state, witness.min_eigenvalue)
    reference = extract_reference(f)
    residual = product_residual(f, reference)
    if residual <= tol:
        return Product(reference, residual)
    return Inconclusive(residual)


# ---------------------------------------------------------------------------
# the diagonal-mixing positivity criterion and its grid oracle
# ---------------------------------------------------------------------------


def diag_mixing_positive(a: float, b: float, c: float, tol: float = 1e-12) -> bool:
    """Closed form for the inclusion of the region (1+t)(1+p) >= 1, t+1 >= 0
    in the region (b+at)(b+cp) >= b^2, b+at >= 0: holds iff a = c <= b."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 0:
            raise ConstraintViolation(f"{name} must be nonnegative, got {v}")
    return abs(a - c) <= tol and a <= b + tol


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


# ---------------------------------------------------------------------------
# perturbations and the no-go sweep
# ---------------------------------------------------------------------------


def random_perturbation(ds: int, de: int, seed) -> np.ndarray:
    """Random lifting-shaped direction: Hermiticity-preserving, annihilated by
    the partial-trace constraint, Frobenius-normalized.

    Built real in the Hermitian basis pair (so Hermitian inputs map to
    Hermitian outputs), then the canonical completion of its partial-trace
    image (tensoring with Id/de) is subtracted, leaving tr_env(Delta(X)) = 0
    for every X.  The composite basis is never formed: each member has at
    most four nonzero entries, so the draw is scattered straight into a
    (dim, dim, ds^2) stack of transposed images, projected by an einsum over
    its (ds, de, ds, de) blocks: O((ds*de)^2 * ds^2) time and memory.
    """
    rng = philox_rng(seed)
    dim, n = ds * de, ds * ds
    g_inv = np.linalg.inv(np.column_stack([vec(h) for h in hermitian_basis(ds)]))
    rows, cols = np.triu_indices(dim)
    pair_rows, pair_cols = np.triu_indices(dim, 1)
    off = rows != cols
    for _ in range(8):
        g, star = np.split(rng.standard_normal((dim * dim, n)), [len(rows)])
        # transposed images, so that entry [c, r] sits at vec index c*dim + r
        images = np.zeros((dim, dim, n), dtype=np.complex128)
        images[rows, cols] = g
        images[pair_rows, pair_cols] -= 1j * star
        images[pair_cols, pair_rows] = g[off] + 1j * star
        # member (k, l), k < l, and its star also carry ones at (k, k) and (l, l)
        ends = np.zeros((dim, dim, n))
        ends[pair_rows, pair_cols] = g[off] + star
        images[np.diag_indices(dim)] += ends.sum(0) + ends.sum(1)
        blocks = (images.reshape(dim * dim, n) @ g_inv).reshape(ds, de, ds, de, n)
        p = np.einsum("aibic->abc", blocks) / de
        blocks -= np.einsum("abc,ij->aibjc", p, np.eye(de))
        norm = float(np.linalg.norm(blocks))
        if norm > 1e-9:
            return blocks.reshape(dim * dim, n) / norm
    raise ConstraintViolation("could not draw a non-degenerate perturbation")


def perturbed_product_lifting(reference: np.ndarray, ds: int, eps: float, seed) -> Lifting:
    """Product lifting plus eps times a random constraint-respecting direction."""
    base = product_lifting(reference, ds)
    delta = random_perturbation(ds, base.de, seed)
    return Lifting(ds, base.de, base.matrix + eps * delta)


_VERDICT_NAMES = {
    Product: "product",
    ViolatesTrace: "violates_trace",
    ViolatesHermiticity: "violates_hermiticity",
    ViolatesPositivity: "violates_positivity",
    Inconclusive: "inconclusive",
}


def verdict_name(verdict) -> str:
    return _VERDICT_NAMES[type(verdict)]


@dataclass(frozen=True, eq=False)
class SweepOutcome:
    verdicts: list
    counts: dict
    falsifiers: list  # trial indices where the analyzer came back inconclusive


def no_go_sweep(
    ds: int,
    de: int,
    trials: int,
    eps: float,
    seed: int,
    tol: float | None = None,
) -> SweepOutcome:
    """Analyze `trials` random constraint-respecting perturbations of random
    product liftings.  Every trial must come back as a product or as a
    hypothesis violation; an inconclusive verdict is a falsifier."""
    verdicts = []
    counts = {name: 0 for name in _VERDICT_NAMES.values()}
    falsifiers = []
    for i, child in enumerate(spawn_seeds(seed, trials)):
        d_seed, p_seed = child.spawn(2)
        reference = random_density(de, seed=philox_rng(d_seed))
        f = perturbed_product_lifting(reference, ds, eps, philox_rng(p_seed))
        v = analyze(f, tol)
        verdicts.append(v)
        counts[verdict_name(v)] += 1
        if isinstance(v, Inconclusive):
            falsifiers.append(i)
    return SweepOutcome(verdicts, counts, falsifiers)
