import tracemalloc
import warnings

import numpy as np
import pytest

from statelift import (
    ConstraintViolation,
    DimensionMismatch,
    choquet_reconstruct,
    choquet_spectral,
    classical_lift,
    dependent_projectors,
    draw,
    empirical_state,
    estimate_expectation,
    gaussian_sampler,
    marginal,
    measure_lift_state,
    nonaffine_witness,
    partial_trace_env,
    partial_trace_sys,
    product_rank,
    pure_projector,
    random_density,
    random_hermitian,
    split_lift,
    trace_norm,
)
from statelift import measures
from statelift.measures import observable_bounds, projective_values, validate_lift_table
from statelift.rng import philox_rng

from oracles import draw_one_shot, empirical_state_dense, estimate_expectation_einsum, kron


def block_rows(d: int) -> int:
    return measures._DRAW_BLOCK_BYTES // (16 * d)


ROWS_64 = block_rows(64)


# --- classical measures -------------------------------------------------------


def test_marginal_product_measure():
    u = np.array([0.2, 0.8])
    chi = np.array([0.5, 0.25, 0.25])
    assert np.allclose(marginal(np.outer(u, chi)), u * chi.sum(), atol=1e-15)


def test_marginal_dirac_and_uniform():
    mu = np.zeros((3, 2))
    mu[1, 0] = 1.0
    assert np.array_equal(marginal(mu), np.array([0.0, 1.0, 0.0]))
    uniform = np.full((2, 3), 1.0 / 6.0)
    assert np.allclose(marginal(uniform), [0.5, 0.5], atol=1e-15)


def test_classical_lift_product_table():
    # a table of product measures lifts to a product measure
    nq, np_ = 3, 4
    chi = np.array([0.1, 0.2, 0.3, 0.4])
    table = np.zeros((nq, nq, np_))
    for q in range(nq):
        table[q, q] = chi
    upsilon = np.array([0.5, 0.3, 0.2])
    out = classical_lift(table, upsilon)
    assert np.allclose(out, np.outer(upsilon, chi), atol=1e-15)
    assert product_rank(out) <= 1


def test_classical_lift_dirac_recovers_table_entry():
    table = split_lift(np.array([True, False, True]), 0, 2, 3)
    delta = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(classical_lift(table, delta), table[1])


def test_classical_lift_marginal_identity_signed():
    rng = philox_rng(1)
    nq, np_ = 4, 3
    # random lift table: arbitrary measures corrected to have Dirac marginals
    table = np.zeros((nq, nq, np_))
    for q in range(nq):
        table[q, q] = rng.uniform(0, 1, np_)
        table[q, q] /= table[q, q].sum()
    for _ in range(20):
        upsilon = rng.standard_normal(nq)  # signed measure
        out = classical_lift(table, upsilon)
        assert np.max(np.abs(marginal(out) - upsilon)) < 1e-14


def test_classical_lift_linear():
    table = split_lift(np.array([True, False]), 0, 1, 2)
    u1 = np.array([0.3, 0.7])
    u2 = np.array([-0.5, 1.5])
    lhs = classical_lift(table, 0.4 * u1 + 0.6 * u2)
    rhs = 0.4 * classical_lift(table, u1) + 0.6 * classical_lift(table, u2)
    assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_classical_lift_rejects_bad_marginal():
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 1.0
    table[1, 0, 1] = 1.0  # marginal of f(1) is delta_0, not delta_1
    with pytest.raises(ConstraintViolation, match="q=1"):
        classical_lift(table, np.array([0.5, 0.5]))


def test_any_linear_right_inverse_comes_from_its_dirac_images():
    # build an arbitrary linear right inverse of the marginal map, then check
    # it is reproduced by lifting through its images of Dirac measures
    rng = philox_rng(2)
    nq, np_ = 3, 4
    raw = rng.uniform(0, 1, (nq, nq, np_))
    table = np.zeros_like(raw)
    for q in range(nq):
        # correct the raw measure so its marginal is exactly delta_q
        delta = np.zeros(nq)
        delta[q] = 1.0
        correction = (delta - raw[q].sum(axis=1)) / np_
        table[q] = raw[q] + correction[:, None]
        assert np.max(np.abs(marginal(table[q]) - delta)) < 1e-14

    def right_inverse(upsilon):
        return np.einsum("q,qab->ab", upsilon, table)

    dirac_images = np.stack([right_inverse(np.eye(nq)[q]) for q in range(nq)])
    for _ in range(10):
        upsilon = rng.standard_normal(nq)
        lhs = right_inverse(upsilon)
        rhs = classical_lift(dirac_images, upsilon)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


# --- split lifting ----------------------------------------------------------------


def test_split_lift_uniform_two_points():
    table = split_lift(np.array([True, False]), 0, 1, 2)
    out = classical_lift(table, np.array([0.5, 0.5]))
    assert np.allclose(out, [[0.5, 0.0], [0.0, 0.5]], atol=0)
    assert product_rank(out) == 2
    assert product_rank(out) > 1


def test_split_lift_dirac_is_product():
    table = split_lift(np.array([True, False]), 0, 1, 2)
    out = classical_lift(table, np.array([1.0, 0.0]))
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    assert np.array_equal(out, expected)
    assert product_rank(out) == 1


def test_split_lift_preserves_marginal():
    table = split_lift(np.array([True, False, False]), 1, 2, 3)
    upsilon = np.array([0.2, 0.3, 0.5])
    assert np.max(np.abs(marginal(classical_lift(table, upsilon)) - upsilon)) < 1e-15


def test_split_lift_validation():
    with pytest.raises(ConstraintViolation):
        split_lift(np.array([True, True]), 0, 1, 2)  # not a proper subset
    with pytest.raises(ConstraintViolation):
        split_lift(np.array([True, False]), 1, 1, 2)  # equal points


def test_split_lift_table_entries():
    mask = np.array([True, False, False, True, False])
    table = split_lift(mask, 2, 0, 3)
    expected = np.zeros((5, 5, 3))
    for q in range(5):
        expected[q, q, 2 if mask[q] else 0] = 1.0
    assert np.array_equal(table, expected)


def test_lift_table_marginals_are_checked_per_entry():
    table = split_lift(np.array([True, False, True]), 0, 1, 2)
    table[2, 2] *= 1 + 1e-13  # within the 1e-12 tolerance
    assert validate_lift_table(table) is not None
    for first, later in ((0, 2), (1, 2), (2, None)):
        bad = table.copy()
        bad[first, (first + 1) % 3, 1] += 1e-9  # mass off the diagonal of entry `first`
        if later is not None:
            bad[later, later, 0] -= 1e-9
        with pytest.raises(ConstraintViolation, match=f"^lift table entry q={first} does not "
                           f"have marginal delta_{first}$"):
            classical_lift(bad, np.ones(3))


# --- Choquet decomposition -----------------------------------------------------------


def test_choquet_pure_state():
    v = np.array([0.6, 0.8j], dtype=complex)
    w = pure_projector(v)
    mu = choquet_spectral(w)
    assert len(mu) == 1
    assert mu.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert trace_norm(pure_projector(mu.vectors[0]) - w) < 1e-12


def test_choquet_maximally_mixed():
    mu = choquet_spectral(np.eye(2, dtype=complex) / 2)
    assert len(mu) == 2
    assert np.allclose(mu.weights, [0.5, 0.5], atol=1e-12)


def test_choquet_reconstruct_roundtrip():
    for k in range(5):
        w = random_density(4, rank=3, seed=10 + k)
        mu = choquet_spectral(w)
        assert len(mu) == 3
        assert trace_norm(choquet_reconstruct(mu) - w) < 1e-10


def test_choquet_reconstruct_uniform_pair():
    from statelift.measures import WeightedProjectorList

    mu = WeightedProjectorList(
        np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    )
    assert np.max(np.abs(choquet_reconstruct(mu) - np.eye(2) / 2)) < 1e-15


# --- dependent projectors and the non-affineness witness -------------------------------


def test_dependent_projectors_cancel():
    vectors, coeff = dependent_projectors()
    total = sum(c * pure_projector(v) for c, v in zip(coeff, vectors))
    assert np.linalg.norm(total) <= 1e-12
    # both pairs sum to the identity
    assert np.allclose(pure_projector(vectors[0]) + pure_projector(vectors[1]), np.eye(2), atol=1e-12)
    assert np.allclose(pure_projector(vectors[2]) + pure_projector(vectors[3]), np.eye(2), atol=1e-12)


def test_dependent_projectors_perturbation_breaks_dependence():
    vectors, coeff = dependent_projectors()
    bumped = [v.copy() for v in vectors]
    bumped[2] = (bumped[2] + np.array([0.05, 0.0])) / np.linalg.norm(bumped[2] + np.array([0.05, 0.0]))
    total = sum(c * pure_projector(v) for c, v in zip(coeff, bumped))
    assert np.linalg.norm(total) > 1e-3


def test_dependent_projectors_gram_singular():
    from statelift import vec

    vectors, _ = dependent_projectors()
    cols = np.column_stack([vec(pure_projector(v)) for v in vectors])
    gram = (cols.conj().T @ cols).real
    svals = np.linalg.svd(gram, compute_uv=False)
    assert svals[-1] < 1e-12
    assert abs(np.linalg.det(gram)) < 1e-12


def test_nonaffine_witness():
    w, mu1, mu2 = nonaffine_witness()
    back1 = choquet_reconstruct(mu1)
    back2 = choquet_reconstruct(mu2)
    assert trace_norm(back1 - w) <= 1e-12
    assert trace_norm(back2 - w) <= 1e-12
    assert trace_norm(back1 - back2) <= 1e-12
    # the measures differ: atoms pairwise distinct with fidelity 1/2
    for u in mu1.vectors:
        for v in mu2.vectors:
            assert abs(np.vdot(u, v)) ** 2 == pytest.approx(0.5, abs=1e-12)


# --- lifted measures on projector families ------------------------------------------


def test_measure_lift_state_product():
    sys_vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    env_vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    u = np.array([0.3, 0.7])
    chi = np.array([0.6, 0.4])
    w = measure_lift_state(np.outer(u, chi), sys_vecs, env_vecs)
    rho = sum(p * pure_projector(v) for p, v in zip(u, sys_vecs))
    d = sum(p * pure_projector(v) for p, v in zip(chi, env_vecs))
    assert np.max(np.abs(w - kron(rho, d))) < 1e-14


def test_measure_lift_state_matches_kron_sum():
    # more vectors than dimensions, none orthogonal, some weights zero
    rng = philox_rng(4)
    sys_vecs = list(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    env_vecs = list(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    sigma = rng.uniform(0, 1, (4, 5)) * (rng.uniform(0, 1, (4, 5)) > 0.3)
    w = measure_lift_state(sigma, sys_vecs, env_vecs)
    expected = sum(
        sigma[s, e] * kron(pure_projector(vs), pure_projector(ve))
        for s, vs in enumerate(sys_vecs)
        for e, ve in enumerate(env_vecs)
    )
    assert np.max(np.abs(w - expected)) < 1e-13


def test_measure_lift_state_split_is_non_product():
    sys_vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    env_vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    sigma = classical_lift(split_lift(np.array([True, False]), 0, 1, 2), np.array([0.5, 0.5]))
    w = measure_lift_state(sigma, sys_vecs, env_vecs)
    product = kron(partial_trace_env(w, 2, 2), partial_trace_sys(w, 2, 2))
    assert trace_norm(w - product) > 0.1


def test_measure_lift_state_marginal_identity():
    rng = philox_rng(3)
    sys_vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    env_vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    sigma = rng.uniform(0, 1, (2, 2))
    sigma /= sigma.sum()
    w = measure_lift_state(sigma, sys_vecs, env_vecs)
    # both routes to the reduced state assembled independently
    lhs = partial_trace_env(w, 2, 2)
    rhs = sum(
        sigma[s].sum() * pure_projector(v) for s, v in enumerate(sys_vecs)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- Gaussian samplers and estimators -----------------------------------------------


def test_sampler_factor_squares_to_correlation():
    b = random_density(4, seed=20)
    sampler = gaussian_sampler(b, seed=21)
    assert np.linalg.norm(sampler.factor @ sampler.factor.conj().T - b) < 1e-9


def test_sampler_rejects_non_positive():
    with pytest.raises(ConstraintViolation):
        gaussian_sampler(np.diag([1.5, -0.5]).astype(complex), seed=22)


@pytest.mark.parametrize("b", [np.zeros((2, 2)), -1e-20 * np.eye(3)])
def test_sampler_rejects_a_zero_correlation_operator(b):
    # every draw would be 0: empirical_state would divide 0 by 0 and estimate's ratio read nan
    for call in (lambda: gaussian_sampler(b, seed=1), lambda: empirical_state(b, 5, seed=1),
                 lambda: estimate_expectation(b, np.eye(len(b)), 5, seed=1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolation, match="^correlation operator is zero$"):
                call()


@pytest.mark.parametrize("estimator", [estimate_expectation, projective_values])
def test_estimators_reject_an_observable_of_another_shape_before_drawing(estimator, monkeypatch):
    def fail(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(measures, "gaussian_sampler", fail)
    monkeypatch.setattr(measures, "_draw_blocks", fail)
    with pytest.raises(DimensionMismatch) as info:
        estimator(random_density(4, seed=1), np.eye(2), 10, 1)
    assert str(info.value) == "observable shape (2, 2), state shape (4, 4)"


@pytest.mark.parametrize("call", [
    lambda: estimate_expectation(np.eye(2), np.ones((2, 3)), 10, 1),
    lambda: projective_values(np.eye(2), np.ones((2, 3)), 10, 1),
    lambda: estimate_expectation(np.ones((2, 3)), np.ones((2, 3)), 10, 1),
    lambda: gaussian_sampler(np.ones((2, 3)), 1),
    lambda: empirical_state(np.ones((2, 3)), 10, 1),
], ids=["estimate-obs", "projective-obs", "estimate-both", "sampler", "empirical"])
def test_gaussian_estimators_reject_a_non_square_matrix_before_drawing(call, monkeypatch):
    # numpy's broadcast ValueError came out of the Hermiticity check before
    monkeypatch.setattr(measures, "_draw_blocks", lambda *args: pytest.fail("drew samples"))
    with pytest.raises(DimensionMismatch, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        call()


@pytest.mark.parametrize("estimator", [estimate_expectation, projective_values])
@pytest.mark.parametrize("a, message", [
    ([[0, 1], [0, 0]], "observable must be Hermitian"),
    ([[np.nan, 0], [0, 1]], "matrix has non-finite entries"),
], ids=["non-hermitian", "non-finite"])
def test_estimators_reject_an_observable_before_drawing(estimator, a, message, monkeypatch):
    # projective_values returned the real parts of <z, A z>/|z|^2 for the first A, and
    # both estimators returned nan for the second
    monkeypatch.setattr(measures, "_draw_blocks", lambda *args: pytest.fail("drew samples"))
    with pytest.raises(ConstraintViolation, match=f"^{message}$"):
        estimator(np.eye(2) / 2, a, 3, 1)


def test_draw_determinism_and_mean_norm():
    b = np.eye(4, dtype=complex) / 4
    sampler = gaussian_sampler(b, seed=23)
    z1 = draw(sampler, 2000)
    z2 = draw(sampler, 2000)
    assert np.array_equal(z1, z2)
    # E |z|^2 = tr B = 1
    norms = np.einsum("ni,ni->n", z1.conj(), z1).real
    assert norms.mean() == pytest.approx(1.0, abs=0.05)


def test_draw_empirical_correlation():
    b = random_density(4, seed=24)
    z = draw(gaussian_sampler(b, seed=25), 100_000)
    emp = (z.T @ z.conj()) / z.shape[0]
    assert np.linalg.norm(emp - b) < 0.02


def test_draw_rank_one_correlation():
    v = np.array([0.6, 0.8j], dtype=complex)
    b = pure_projector(v)
    z = draw(gaussian_sampler(b, seed=26), 50)
    # all draws proportional to the eigenvector
    proj = np.eye(2) - b
    assert np.max(np.abs(z @ proj.T)) < 1e-12


def test_estimate_isotropic():
    d = 4
    b = np.eye(d, dtype=complex) / d
    a = random_hermitian(d, seed=27)
    res = estimate_expectation(b, a, 50_000, seed=28)
    exact = np.trace(a).real / d
    assert abs(res.estimate - exact) <= 5 * res.stderr


def test_estimate_identity_observable():
    b = random_density(3, seed=29)
    res = estimate_expectation(b, np.eye(3, dtype=complex), 20_000, seed=30)
    assert abs(res.estimate - 1.0) <= 5 * res.stderr
    assert abs(res.self_normalized - 1.0) < 1e-12  # exact cancellation


def test_estimate_random_pairs():
    rng = philox_rng(31)
    for k in range(5):
        a = random_hermitian(4, seed=40 + k)
        b = random_density(4, seed=50 + k)
        res = estimate_expectation(b, a, 100_000, seed=int(rng.integers(1 << 31)))
        exact = np.trace(a @ b).real
        assert abs(res.estimate - exact) <= 5 * res.stderr
        assert abs(res.self_normalized - exact) <= 10 * res.stderr


def test_estimate_deterministic():
    a = random_hermitian(3, seed=32)
    b = random_density(3, seed=33)
    r1 = estimate_expectation(b, a, 5000, seed=34)
    r2 = estimate_expectation(b, a, 5000, seed=34)
    assert r1.estimate == r2.estimate
    assert r1.stderr == r2.stderr
    assert r1.self_normalized == r2.self_normalized


def test_estimate_unbiased_over_seeds():
    a = random_hermitian(4, seed=35)
    b = random_density(4, seed=36)
    exact = np.trace(a @ b).real
    errors, stderrs = [], []
    for seed in range(200):
        res = estimate_expectation(b, a, 10_000, seed=seed)
        errors.append(res.estimate - exact)
        stderrs.append(res.stderr)
    pooled = np.mean(stderrs) / np.sqrt(len(stderrs))
    assert abs(np.mean(errors)) <= 4 * pooled


def test_per_sample_values_bounded():
    a = random_hermitian(4, seed=37)
    b = random_density(4, seed=38)
    values = projective_values(b, a, 20_000, seed=39)
    lo, hi = observable_bounds(a)
    assert values.min() >= lo - 1e-12
    assert values.max() <= hi + 1e-12


@pytest.mark.parametrize("n", [1, 2, ROWS_64 - 1, ROWS_64, ROWS_64 + 1, 3 * ROWS_64 + 7])
def test_blocked_draw_matches_one_shot_draw(n):
    sampler = gaussian_sampler(random_density(64, seed=60), seed=61)
    assert np.array_equal(draw(sampler, n), draw_one_shot(sampler, n))


@pytest.mark.parametrize("d", [2, 16, 64])
def test_streamed_estimators_match_einsum_oracles(d):
    # n = 1 has stderr inf, and at n = rows + 1 the trailing row joins the block before it
    a = random_hermitian(d, seed=62)
    b = random_density(d, seed=63)
    for n in (1, block_rows(d), block_rows(d) + 1, 2 * block_rows(d) + 7):
        estimate, stderr, self_normalized, values = estimate_expectation_einsum(b, a, n, 64)
        res = estimate_expectation(b, a, n, seed=64)
        assert res.estimate == pytest.approx(estimate, abs=1e-12)
        assert res.stderr == pytest.approx(stderr, abs=1e-12)
        assert (res.stderr == float("inf")) == (n == 1)
        assert res.self_normalized == pytest.approx(self_normalized, abs=1e-12)
        assert np.max(np.abs(projective_values(b, a, n, seed=64) - values)) <= 1e-12
        emp = empirical_state(b, n, seed=65)
        assert np.max(np.abs(emp - empirical_state_dense(b, n, 65))) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: estimate_expectation(random_density(3, seed=1), random_hermitian(3, seed=2), 5, 1),
    lambda: projective_values(random_density(3, seed=1), random_hermitian(3, seed=2), 5, 1),
    lambda: empirical_state(random_density(3, seed=1), 5, 1),
], ids=["estimate", "projective", "empirical"])
def test_gaussian_estimators_draw_once_through_draw_blocks(call, monkeypatch):
    # the tests that make _draw_blocks fail guard the estimators only while they draw through it
    calls, blocks = [], measures._draw_blocks

    def counted(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(measures, "_draw_blocks", counted)
    call()
    assert len(calls) == 1


@pytest.mark.parametrize("d", [2, 3, 16, 64])
def test_empirical_state_is_exactly_hermitian(d):
    # at d = 2 and 3, |w - w^dagger| reached 2.8e-17 when the state was not symmetrized
    b = random_density(d, seed=2)
    for n in (1, block_rows(d), block_rows(d) + 1):
        w = empirical_state(b, n, seed=5)
        assert np.array_equal(w, w.conj().T)
        assert np.all(w.diagonal().imag == 0)
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("a, error, message", [
    ([[0, 1], [0, 0]], ConstraintViolation, "observable must be Hermitian"),
    ([[0, 0], [1, 0]], ConstraintViolation, "observable must be Hermitian"),
    ([[np.nan, 0], [0, 1]], ConstraintViolation, "matrix has non-finite entries"),
    (np.ones((2, 3)), DimensionMismatch, r"expected a square matrix, got shape \(2, 3\)"),
], ids=["upper", "lower", "non-finite", "non-square"])
def test_observable_bounds_checks_its_observable(a, error, message):
    # eigvalsh read one triangle: (0, 0) for the upper, (-1, 1) for the lower, (0, -0) for
    # the non-finite one, and numpy's LinAlgError for the non-square one
    with pytest.raises(error, match=f"^{message}$"):
        observable_bounds(a)


@pytest.mark.parametrize("estimator", ["estimate", "empirical"])
def test_streamed_estimator_memory_is_bounded(estimator):
    # the whole draw at d = 64, n = 5e4 is 49 MiB of complex rows
    a = random_hermitian(64, seed=66)
    b = random_density(64, seed=67)
    tracemalloc.start()
    try:
        if estimator == "estimate":
            estimate_expectation(b, a, 50_000, seed=68)
        else:
            empirical_state(b, 50_000, seed=68)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_estimate_expectation_memory_does_not_grow_with_n():
    # the forms of the whole draw, 16 n bytes, took the peak 2.9 MiB higher at n = 2e5 than
    # at n = 2e4; the streamed block statistics hold one block's forms at a time
    a = random_hermitian(16, seed=72)
    b = random_density(16, seed=73)
    peaks = []
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            estimate_expectation(b, a, n, seed=74)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**19


@pytest.mark.parametrize("n", [0, -3])
def test_sample_count_must_be_positive(n):
    a = random_hermitian(2, seed=69)
    b = random_density(2, seed=70)
    for call in (lambda: draw(gaussian_sampler(b, seed=71), n),
                 lambda: estimate_expectation(b, a, n, seed=71),
                 lambda: empirical_state(b, n, seed=71),
                 lambda: projective_values(b, a, n, seed=71)):
        with pytest.raises(ConstraintViolation, match="sample count must be positive"):
            call()


# --- empirical states --------------------------------------------------------------


def test_empirical_state_two_level():
    b = np.diag([0.7, 0.3]).astype(complex)
    w = empirical_state(b, 100_000, seed=40)
    assert trace_norm(w - b) <= 0.02
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(w)[0] >= -1e-12


def test_empirical_state_convergence_rate():
    # trace-norm error should shrink roughly by 2 when n grows by 4
    b = random_density(3, seed=41)
    ratios = []
    for seed in range(50):
        e1 = trace_norm(empirical_state(b, 2000, seed=seed) - b)
        e2 = trace_norm(empirical_state(b, 8000, seed=seed + 1000) - b)
        ratios.append(e1 / e2)
    assert 1.6 <= np.mean(ratios) <= 2.6
