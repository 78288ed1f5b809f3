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

from .config import MARGINAL_TOL, PRODUCT_RANK_TOL, tolerances
from .errors import ConstraintViolation, DimensionMismatch
from .linalg import _checked_hermitian, _spectral, as_matrix, hermitian_part
from .rng import philox_rng
from .states import _density


# ---------------------------------------------------------------------------
# classical measures on finite product spaces
# ---------------------------------------------------------------------------


def _product_measure(mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2:
        raise DimensionMismatch(f"product-space measure must be 2-d, got shape {mu.shape}")
    return mu


def marginal(mu: np.ndarray) -> np.ndarray:
    """Push a measure on Q x P forward along the projection onto Q."""
    return _product_measure(mu).sum(axis=1)


def validate_lift_table(table: np.ndarray) -> np.ndarray:
    """A lift table assigns to each source point q a measure on Q x P whose
    marginal is the Dirac measure at q."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 3 or table.shape[0] != table.shape[1]:
        raise DimensionMismatch(
            f"lift table must have shape (q, q, p), got {table.shape}"
        )
    if not np.all(np.isfinite(table)):
        raise ConstraintViolation("lift table has non-finite entries")
    deviation = np.abs(table.sum(axis=2) - np.eye(table.shape[0]))  # row q: marginal of q
    bad = np.flatnonzero(np.max(deviation, axis=1, initial=0.0) > MARGINAL_TOL)
    if bad.size:
        q = bad[0]
        raise ConstraintViolation(f"lift table entry q={q} does not have marginal delta_{q}")
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
    if not np.all(np.isfinite(upsilon)):
        raise ConstraintViolation("measure has non-finite weights")
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
    table[np.arange(nq), np.arange(nq), np.where(mask, p1, p2)] = 1.0
    return table


def product_rank(mu: np.ndarray) -> int:
    """Numerical rank of the weight matrix; a product measure has rank <= 1."""
    mu = _product_measure(mu)
    if not np.all(np.isfinite(mu)):
        raise ConstraintViolation("product-space measure has non-finite weights")
    svals = np.linalg.svd(mu, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > PRODUCT_RANK_TOL * svals[0]))


# ---------------------------------------------------------------------------
# finite Choquet measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightedProjectorList:
    """Finite measure on the pure states: weights[i] on the projector onto
    vectors[i]."""

    weights: np.ndarray  # (n,)
    vectors: np.ndarray  # (n, dim), unit rows

    def __post_init__(self):
        w, v = np.shape(self.weights), np.shape(self.vectors)
        if v[:1] != w or len(v) != 2:
            raise DimensionMismatch(f"need a vector row per weight, got weights {w}, vectors {v}")

    def __len__(self) -> int:
        return int(self.weights.size)


def choquet_spectral(w: np.ndarray) -> WeightedProjectorList:
    """The spectral choice among the (non-unique) measures whose barycenter is w."""
    dec = _density(w, True)[1]
    keep = dec.eigenvalues > tolerances.rank * float(dec.eigenvalues[0])
    return WeightedProjectorList(dec.eigenvalues[keep], dec.vectors[:, keep].T.copy())


def choquet_reconstruct(mu: WeightedProjectorList) -> np.ndarray:
    """sum_i w_i v_i v_i^dagger, the barycenter, summed in atom order from +0 over the real view."""
    v = np.asarray(mu.vectors, dtype=np.complex128)
    terms = (mu.weights[:, None, None] * (v[:, :, None] * v[:, None, :].conj())).view(np.float64)
    return np.sum(terms, axis=0, initial=0.0).view(np.complex128)


def dependent_projectors():
    """Four unit vectors in C^2 whose projectors are linearly dependent:
    P_0 + P_1 - P_plus - P_minus = 0 (both pairs sum to the identity)."""
    s = 1.0 / np.sqrt(2.0)
    vectors = list(np.array([[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s]], dtype=np.complex128))
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


def _vector_family(vectors) -> np.ndarray | None:
    """A projector family's vectors as the rows of an array, or None when numpy cannot stack them
    (vectors of different lengths)."""
    try:
        return np.array(list(vectors), dtype=np.complex128)
    except ValueError:
        return None


def measure_lift_state(sigma: np.ndarray, sys_vectors, env_vectors) -> np.ndarray:
    """Assemble W = sum_{s,e} sigma[s,e] P_sys(s) (x) P_env(e).

    The environment partial trace of W is the barycenter of the Q-marginal of
    sigma over the system projectors, so a non-product sigma built from a
    split lift yields a non-product W.
    """
    sigma = np.asarray(sigma, dtype=float)
    vs, ve = _vector_family(sys_vectors), _vector_family(env_vectors)
    if vs is None or ve is None or not (
            vs.ndim == ve.ndim == 2 and vs.size and ve.size and sigma.shape == (len(vs), len(ve))):
        shapes = ["ragged" if v is None else v.shape for v in (vs, ve)]
        raise DimensionMismatch(
            f"sigma shape {sigma.shape} needs nonempty vector families of matching lengths, "
            f"got shapes {shapes[0]} and {shapes[1]}"
        )
    if not np.all(np.isfinite(sigma)):
        raise ConstraintViolation("sigma has non-finite weights")
    dim = vs.shape[1] * ve.shape[1]
    w = np.einsum("se,sa,sb,ei,ej->aibj", sigma, vs, vs.conj(), ve, ve.conj(), optimize=True)
    return w.reshape(dim, dim)


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
    dec = _spectral(_checked_hermitian(as_matrix(b), "correlation operator"))
    top = float(np.max(np.abs(dec.eigenvalues), initial=0.0))
    if float(dec.eigenvalues[-1]) < -tolerances.psd * max(top, 1.0):
        raise ConstraintViolation(
            f"correlation operator is not positive (lambda_min {dec.eigenvalues[-1]:.3e})"
        )
    roots = np.sqrt(np.where(dec.eigenvalues > tolerances.rank * top, dec.eigenvalues, 0.0))
    factor = (dec.vectors * roots) @ dec.vectors.conj().T
    if not factor.any():  # every draw would be 0, and every normalized aggregate 0/0
        raise ConstraintViolation("correlation operator is zero")
    return GaussianStateSampler(len(factor), factor, seed)


_DRAW_BLOCK_BYTES = 2**20  # per block of normals; two are live, the one read and the one drawn


def _block_rows(n: int, rows: int):
    """The row counts of n draws' blocks: rows while more than rows + 1 remain, then the rest."""
    while n > rows + 1:
        yield rows
        n -= rows
    yield n


def _draw_blocks(sampler: GaussianStateSampler, n: int):
    """Row blocks of the unscaled complex normals g of draw(sampler, n), _DRAW_BLOCK_BYTES each,
    from one restarted Philox stream.  A trailing single row joins the block before it, because
    numpy sends a one-row product to gemv, whose sums can differ from gemm's.

    One helper thread draws the next block into the other of two reused buffers while the caller
    contracts this one, so a block is valid until the caller asks for the next.  The fills and the
    products both release the GIL; the bits are those of one thread drawing every block in turn.
    """
    if n < 1:
        raise ConstraintViolation("sample count must be positive")
    from concurrent.futures import ThreadPoolExecutor  # not at import: it loads logging

    rng = philox_rng(sampler.seed)
    rows = max(1, _DRAW_BLOCK_BYTES // (16 * sampler.dim))

    def blocks():
        buffers = np.empty((2, min(n, rows + 1), sampler.dim, 2))
        with ThreadPoolExecutor(1) as helper:
            # a fill is submitted when pulled: block i + 1 is drawn while the caller reads block i
            fills = (helper.submit(rng.standard_normal, out=buffers[i % 2, :k])
                     for i, k in enumerate(_block_rows(n, rows)))
            ahead = next(fills)
            for fill in fills:
                block, ahead = ahead.result(), fill
                yield block.view(np.complex128)[..., 0]
            yield ahead.result().view(np.complex128)[..., 0]

    return blocks()


def draw(sampler: GaussianStateSampler, n: int) -> np.ndarray:
    """n rows z = M g with g standard complex Gaussian (E[g g^dagger] = Id).

    Deterministic in (sampler.seed, n): every call restarts the Philox stream,
    so repeated draws reproduce the same samples bit for bit.
    """
    return np.concatenate([(g * np.sqrt(0.5)) @ sampler.factor.T for g in _draw_blocks(sampler, n)])


def _observable_spectrum(a: np.ndarray) -> tuple:
    """eigh of Herm(A) for a finite Hermitian observable A."""
    return np.linalg.eigh(_checked_hermitian(as_matrix(a), "observable"))


def _quadratic_forms(b: np.ndarray, a: np.ndarray, n: int, seed):
    """Per block of n draws from the correlation measure of b, the rows <z, A z> = sum lam_k
    |y_k|^2 and |z|^2 = |y|^2, with y = U^dagger z = g C for Herm(A) = U diag(lam) U^dagger."""
    lam, u = _observable_spectrum(a)
    if np.shape(b) != u.shape:
        raise DimensionMismatch(f"observable shape {u.shape}, state shape {np.shape(b)}")
    sampler = gaussian_sampler(b, seed)
    blocks = _draw_blocks(sampler, n)
    c, weights = np.sqrt(0.5) * (sampler.factor.T @ u.conj()), np.repeat(lam, 2)  # per (re, im) of y
    squares = (np.square(y, out=y) for y in ((g @ c).view(np.float64) for g in blocks))
    return ((y @ weights, y.sum(axis=1)) for y in squares)


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
    <z, A z>/|z|^2) is reported alongside.  Each block's count, mean and sum
    of squared deviations are merged into the running ones by Chan's pairwise
    update, so memory stays O(block dim) whatever n.
    """
    start = time.perf_counter()
    count, mean, m2, value_sum, norm_sum = 0, 0.0, 0.0, 0.0, 0.0
    for values, norms_sq in _quadratic_forms(b, a, n, seed):
        k, block_mean = len(values), float(values.mean())
        delta, count = block_mean - mean, count + k
        mean += delta * k / count
        m2 += float(np.square(values - block_mean).sum()) + delta * delta * (count - k) * k / count
        value_sum += float(values.sum())
        norm_sum += float(norms_sq.sum())
    stderr = float(np.sqrt(m2 / (n - 1)) / np.sqrt(n)) if n > 1 else float("inf")
    return EstimateResult(
        mean, stderr, value_sum / norm_sum, n, int(seed), time.perf_counter() - start
    )


def empirical_state(b: np.ndarray, n: int, seed) -> np.ndarray:
    """Monte-Carlo reconstruction of B as the norm-weighted pushforward average
    (1/n) sum_i z_i z_i^dagger = M G M^dagger / 2n, G the Gram of the normals, at unit
    trace; exactly Hermitian, PSD, and converging to B at the usual 1/sqrt(n) rate."""
    sampler = gaussian_sampler(b, seed)
    gram = sum(g.T @ g.conj() for g in _draw_blocks(sampler, n))
    w = sampler.factor @ gram @ sampler.factor.conj().T
    return hermitian_part(w / np.trace(w).real)


def observable_bounds(a: np.ndarray) -> tuple:
    """Eigenvalue range of a Hermitian observable; every single-sample value
    <z, A z>/|z|^2 lies inside it."""
    vals = _observable_spectrum(a)[0]
    return float(vals[0]), float(vals[-1])


def projective_values(b: np.ndarray, a: np.ndarray, n: int, seed) -> np.ndarray:
    """The bounded per-sample values <z, A z>/|z|^2 for draws from the
    correlation measure of b."""
    return np.concatenate([values / norms for values, norms in _quadratic_forms(b, a, n, seed)])
