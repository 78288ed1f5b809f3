"""Classical measure liftings, Choquet decompositions, and Hilbert-space
measure representations of states with Gaussian Monte-Carlo estimators.

Classical measures over finite index sets are plain nonnegative (or signed)
weight arrays; measures on a product space Q x P are (q, p)-shaped arrays.
A finite Choquet measure is a list of weighted rank-one projectors.  Measures
on Hilbert space itself appear only through their Gaussian samplers and the
empirical aggregates built from the draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import hermiticity_defect, spectral
from .rng import philox_rng
from .states import pure_projector, validate_density


# ---------------------------------------------------------------------------
# classical measures on finite product spaces
# ---------------------------------------------------------------------------


def marginal(mu: np.ndarray) -> np.ndarray:
    """Push a measure on Q x P forward along the projection onto Q."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2:
        raise DimensionMismatch(f"product-space measure must be 2-d, got shape {mu.shape}")
    return mu.sum(axis=1)


def validate_lift_table(table: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """A lift table assigns to each source point q a measure on Q x P whose
    marginal is the Dirac measure at q."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 3 or table.shape[0] != table.shape[1]:
        raise DimensionMismatch(
            f"lift table must have shape (q, q, p), got {table.shape}"
        )
    nq = table.shape[0]
    for q in range(nq):
        delta = np.zeros(nq)
        delta[q] = 1.0
        if np.max(np.abs(marginal(table[q]) - delta)) > tol:
            raise ConstraintViolation(
                f"lift table entry q={q} does not have marginal delta_{q}"
            )
    return table


def classical_lift(table: np.ndarray, upsilon: np.ndarray) -> np.ndarray:
    """Lift a (signed) measure on Q through the table: sum_q upsilon[q] table[q].

    Linear in upsilon; the marginal of the result equals upsilon exactly.
    """
    table = validate_lift_table(table)
    upsilon = np.asarray(upsilon, dtype=float)
    if upsilon.shape != (table.shape[0],):
        raise DimensionMismatch(
            f"measure support {upsilon.shape} does not match table {table.shape[:1]}"
        )
    return np.einsum("q,qab->ab", upsilon, table)


def split_lift(q1_mask, p1: int, p2: int, np_: int) -> np.ndarray:
    """Lift table sending q to delta_(q, p1) on the masked half of Q and to
    delta_(q, p2) on the rest; the lift of any measure charging both halves is
    not a product measure."""
    mask = np.asarray(q1_mask, dtype=bool)
    nq = mask.size
    if p1 == p2:
        raise ConstraintViolation("the two target points must differ")
    if not (0 <= p1 < np_ and 0 <= p2 < np_):
        raise DimensionMismatch(f"points {p1}, {p2} outside P of size {np_}")
    if not mask.any() or mask.all():
        raise ConstraintViolation("the mask must be a nonempty proper subset of Q")
    table = np.zeros((nq, nq, np_))
    for q in range(nq):
        table[q, q, p1 if mask[q] else p2] = 1.0
    return table


def product_rank(mu: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Numerical rank of the weight matrix; a product measure has rank <= 1."""
    mu = np.asarray(mu, dtype=float)
    svals = np.linalg.svd(mu, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * svals[0]))


def is_product_measure(mu: np.ndarray) -> bool:
    return product_rank(mu) <= 1


# ---------------------------------------------------------------------------
# finite Choquet measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightedProjectorList:
    """Finite measure on the pure states: weights[i] on the projector onto
    vectors[i]."""

    weights: np.ndarray  # (n,)
    vectors: np.ndarray  # (n, dim), unit rows

    def __len__(self) -> int:
        return int(self.weights.size)


def choquet_spectral(w: np.ndarray) -> WeightedProjectorList:
    """The spectral choice among the (non-unique) measures whose barycenter is w."""
    w = validate_density(w)
    dec = spectral(w)
    top = float(dec.eigenvalues[0])
    keep = dec.eigenvalues > tolerances.rank * top
    return WeightedProjectorList(
        dec.eigenvalues[keep].copy(), dec.vectors[:, keep].T.copy()
    )


def choquet_reconstruct(mu: WeightedProjectorList) -> np.ndarray:
    """Barycenter sum_i w_i P_i of a finite projector measure."""
    dim = mu.vectors.shape[1]
    out = np.zeros((dim, dim), dtype=np.complex128)
    for weight, v in zip(mu.weights, mu.vectors):
        out += weight * pure_projector(v)
    return out


def dependent_projectors():
    """Four unit vectors in C^2 whose projectors are linearly dependent:
    P_0 + P_1 - P_plus - P_minus = 0 (both pairs sum to the identity)."""
    s = 1.0 / np.sqrt(2.0)
    vectors = [
        np.array([1.0, 0.0], dtype=np.complex128),
        np.array([0.0, 1.0], dtype=np.complex128),
        np.array([s, s], dtype=np.complex128),
        np.array([s, -s], dtype=np.complex128),
    ]
    coefficients = np.array([1.0, 1.0, -1.0, -1.0])
    return vectors, coefficients


def nonaffine_witness():
    """One state with two distinct Choquet measures (disjoint atoms).

    Returns (w, mu1, mu2) with both measures reconstructing w; any affine map
    sending pure states to their Dirac measures would have to send w to both
    images at once, so no such map exists.
    """
    vectors, _ = dependent_projectors()
    w = np.eye(2, dtype=np.complex128) / 2
    mu1 = WeightedProjectorList(np.array([0.5, 0.5]), np.array(vectors[:2]))
    mu2 = WeightedProjectorList(np.array([0.5, 0.5]), np.array(vectors[2:]))
    return w, mu1, mu2


def measure_lift_state(sigma: np.ndarray, sys_vectors, env_vectors) -> np.ndarray:
    """Assemble W = sum_{s,e} sigma[s,e] P_sys(s) (x) P_env(e).

    The environment partial trace of W is the barycenter of the Q-marginal of
    sigma over the system projectors, so a non-product sigma built from a
    split lift yields a non-product W.
    """
    sigma = np.asarray(sigma, dtype=float)
    sys_vectors = [np.asarray(v, dtype=np.complex128) for v in sys_vectors]
    env_vectors = [np.asarray(v, dtype=np.complex128) for v in env_vectors]
    if sigma.shape != (len(sys_vectors), len(env_vectors)):
        raise DimensionMismatch(
            f"sigma shape {sigma.shape} does not match the projector families "
            f"({len(sys_vectors)}, {len(env_vectors)})"
        )
    ds = sys_vectors[0].size
    de = env_vectors[0].size
    w = np.zeros((ds * de, ds * de), dtype=np.complex128)
    for s, vs in enumerate(sys_vectors):
        ps = pure_projector(vs)
        for e, ve in enumerate(env_vectors):
            if sigma[s, e] != 0.0:
                w += sigma[s, e] * np.kron(ps, pure_projector(ve))
    return w


# ---------------------------------------------------------------------------
# Gaussian measures on Hilbert space and Monte-Carlo estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianStateSampler:
    """Sampler for the zero-mean complex Gaussian measure with correlation
    operator B, represented by a factor M with M M^dagger = B."""

    dim: int
    factor: np.ndarray
    seed: int


def gaussian_sampler(b: np.ndarray, seed) -> GaussianStateSampler:
    """Build the sampler for the unique zero-mean Gaussian measure with
    correlation operator b (spectral square root, rank-deficiency safe)."""
    b = np.asarray(b, dtype=np.complex128)
    if hermiticity_defect(b) > tolerances.hermitian:
        raise ConstraintViolation("correlation operator must be Hermitian")
    dec = spectral(b)
    top = float(np.max(np.abs(dec.eigenvalues), initial=0.0))
    if float(dec.eigenvalues[-1]) < -tolerances.psd * max(top, 1.0):
        raise ConstraintViolation(
            f"correlation operator is not positive (lambda_min {dec.eigenvalues[-1]:.3e})"
        )
    roots = np.sqrt(np.where(dec.eigenvalues > tolerances.rank * top, dec.eigenvalues, 0.0))
    factor = (dec.vectors * roots) @ dec.vectors.conj().T
    return GaussianStateSampler(b.shape[0], factor, seed)


_DRAW_BLOCK_BYTES = 2**20


def _draw_blocks(sampler: GaussianStateSampler, n: int):
    """Consecutive row blocks of draw(sampler, n), _DRAW_BLOCK_BYTES of normals
    each, from one restarted Philox stream: together they carry the bits of a
    single draw.  A trailing single row joins the block before it, because
    numpy sends a one-row product to gemv, whose sums can differ from gemm's."""
    if n < 1:
        raise ConstraintViolation("sample count must be positive")
    rng = philox_rng(sampler.seed)
    rows = max(1, _DRAW_BLOCK_BYTES // (16 * sampler.dim))
    edges = [*range(0, max(n - 1, 1), rows), n]

    def block(m: int) -> np.ndarray:
        g = rng.standard_normal((m, sampler.dim, 2)).view(np.complex128)[..., 0]
        g *= np.sqrt(0.5)
        return g @ sampler.factor.T
    return (block(stop - start) for start, stop in zip(edges, edges[1:]))


def draw(sampler: GaussianStateSampler, n: int) -> np.ndarray:
    """n rows z = M g with g standard complex Gaussian (E[g g^dagger] = Id).

    Deterministic in (sampler.seed, n): every call restarts the Philox stream,
    so repeated draws reproduce the same samples bit for bit.
    """
    return np.concatenate(tuple(_draw_blocks(sampler, n)))


def _quadratic_forms(b: np.ndarray, a: np.ndarray, n: int, seed) -> np.ndarray:
    """Rows <z, A z> and |z|^2 over n draws from the correlation measure of b."""
    blocks = _draw_blocks(gaussian_sampler(b, seed), n)
    forms, start = np.empty((2, n)), 0
    for z in blocks:
        stop, zr = start + z.shape[0], z.view(np.float64)
        np.einsum("nk,nk->n", zr, (z @ a.T).view(np.float64), out=forms[0, start:stop])
        np.einsum("nk,nk->n", zr, zr, out=forms[1, start:stop])
        start = stop
    return forms


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Monte-Carlo record for the expectation tr(AB)."""

    estimate: float          # mean of <z, A z> over draws from the correlation measure
    stderr: float            # sample standard deviation / sqrt(n)
    self_normalized: float   # sum <z, A z> / sum |z|^2 (the norm-weighted form)
    n: int
    seed: int
    wall_time: float


def estimate_expectation(b: np.ndarray, a: np.ndarray, n: int, seed) -> EstimateResult:
    """Estimate tr(AB) by averaging <z, A z> over zero-mean Gaussian draws
    with correlation operator B.

    The norm-squared density of the state-representing measure cancels the
    norm-squared denominator of the integrand, so the plain average is
    unbiased; the self-normalized variant (weights |z|^2 on values
    <z, A z>/|z|^2) is reported alongside.
    """
    a = np.asarray(a, dtype=np.complex128)
    if hermiticity_defect(a) > tolerances.hermitian:
        raise ConstraintViolation("observable must be Hermitian")
    start = time.perf_counter()
    values, norms_sq = _quadratic_forms(b, a, n, seed)
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    self_normalized = float(values.sum() / norms_sq.sum())
    return EstimateResult(
        estimate, stderr, self_normalized, n, int(seed), time.perf_counter() - start
    )


def projectivize(z: np.ndarray) -> np.ndarray:
    """Map a nonzero vector to the pure state it spans.

    The returned unit vector carries the same deterministic phase convention
    as the eigensolver (largest-modulus component real positive), so the map
    is scale invariant: projectivize(lambda z) = projectivize(z) for any
    nonzero complex lambda.
    """
    z = np.asarray(z, dtype=np.complex128)
    norm = float(np.linalg.norm(z))
    if norm == 0.0:
        raise ConstraintViolation("cannot projectivize the zero vector")
    v = z / norm
    j = int(np.argmax(np.abs(v)))
    pivot = v[j]
    v = v * (pivot.conjugate() / abs(pivot))
    return v


def empirical_state(b: np.ndarray, n: int, seed) -> np.ndarray:
    """Monte-Carlo reconstruction of B as the norm-weighted pushforward average
    (1/n) sum_i z_i z_i^dagger, renormalized to unit trace; PSD by construction
    and converging to B at the usual 1/sqrt(n) rate."""
    w = sum(z.T @ z.conj() for z in _draw_blocks(gaussian_sampler(b, seed), n)) / n
    return w / np.trace(w).real


def observable_bounds(a: np.ndarray) -> tuple:
    """Eigenvalue range of a Hermitian observable; every single-sample value
    <z, A z>/|z|^2 lies inside it."""
    vals = np.linalg.eigvalsh(np.asarray(a, dtype=np.complex128))
    return float(vals[0]), float(vals[-1])


def projective_values(b: np.ndarray, a: np.ndarray, n: int, seed) -> np.ndarray:
    """The bounded per-sample values <z, A z>/|z|^2 for draws from the
    correlation measure of b."""
    values, norms_sq = _quadratic_forms(b, np.asarray(a, dtype=np.complex128), n, seed)
    return values / norms_sq
