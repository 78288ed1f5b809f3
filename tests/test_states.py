import re

import numpy as np
import pytest

from statelift import (
    ConstraintViolation,
    DimensionMismatch,
    basis_g,
    basis_g_star,
    choquet_spectral,
    empirical_state,
    environment_gram,
    estimate_expectation,
    gaussian_sampler,
    hermitian_basis,
    no_go_sweep,
    partial_trace_env,
    purify,
    pure_projector,
    random_density,
    random_hermitian,
    reduced_dynamics_map,
    trace_norm,
    validate_density,
    vec,
)
from statelift.rng import philox_rng, spawn_seeds

from oracles import numerical_rank, psd_by_char_poly, purify_kron


# --- basis family ---------------------------------------------------------


def test_basis_g_literals():
    assert np.array_equal(basis_g(0, 0, 2), np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(basis_g(0, 1, 2), np.ones((2, 2), dtype=complex))


def test_basis_g_outer_product():
    for d in (2, 3, 5):
        e0 = np.zeros(d)
        e1 = np.zeros(d)
        e0[0], e1[1] = 1.0, 1.0
        v = e0 + e1
        assert np.array_equal(basis_g(0, 1, d), np.outer(v, v).astype(complex))


def test_basis_g_star_literal():
    expected = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    assert np.array_equal(basis_g_star(0, 1, 2), expected)
    vals = np.linalg.eigvalsh(basis_g_star(0, 1, 2))
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


def test_basis_g_star_outer_product():
    d = 4
    v = np.zeros(d, dtype=complex)
    v[1], v[3] = 1.0, -1.0j
    assert np.allclose(basis_g_star(1, 3, d), np.outer(v, v.conj()), atol=0)


def test_basis_family_is_positive_rank_one():
    for d in (2, 3):
        for g in hermitian_basis(d):
            assert psd_by_char_poly(g) and np.linalg.eigvalsh(g)[0] >= 0.0
            assert np.linalg.matrix_rank(g) == 1


def test_basis_traces():
    assert np.trace(basis_g(1, 1, 3)) == 1.0
    assert np.trace(basis_g(0, 2, 3)) == 2.0
    assert np.trace(basis_g_star(0, 2, 3)) == 2.0


def test_basis_index_errors():
    with pytest.raises(DimensionMismatch):
        basis_g(2, 1, 3)
    with pytest.raises(DimensionMismatch):
        basis_g(0, 3, 3)
    with pytest.raises(DimensionMismatch):
        basis_g_star(1, 1, 3)


def test_basis_spans_hermitian_space():
    # any random Hermitian matrix reconstructs from its (real) expansion
    d = 3
    family = hermitian_basis(d)
    assert len(family) == d * d
    cols = np.column_stack([vec(g) for g in family])
    h = random_hermitian(d, seed=21)
    coeff, *_ = np.linalg.lstsq(cols, vec(h), rcond=None)
    assert np.max(np.abs(coeff.imag)) < 1e-10  # real combination
    assert np.max(np.abs(cols @ coeff - vec(h))) < 1e-10
    # linear independence over the reals: the Gram of the family is nonsingular
    gram = (cols.conj().T @ cols).real
    assert np.linalg.matrix_rank(gram) == d * d


# --- random densities -------------------------------------------------------


def test_random_density_rank_one_is_projector():
    w = random_density(4, rank=1, seed=22)
    vals = np.sort(np.linalg.eigvalsh(w))
    assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_random_density_trace_and_determinism():
    w1 = random_density(5, seed=23)
    w2 = random_density(5, seed=23)
    assert abs(np.trace(w1) - 1.0) < 1e-12
    assert np.array_equal(w1, w2)
    assert psd_by_char_poly(w1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_random_density_rank(rank):
    w = random_density(3, rank=rank, seed=24)
    vals = np.linalg.eigvalsh(w)
    assert np.sum(vals > 1e-12) == rank


@pytest.mark.parametrize("call, d", [
    (lambda: random_hermitian(-2, seed=1), -2),
    (lambda: random_hermitian(0, seed=1), 0),
    (lambda: random_density(0, seed=1), 0),
    (lambda: random_density(-3, rank=1, seed=1), -3),
], ids=["hermitian-negative", "hermitian-0", "density-0", "density-negative-with-rank"])
def test_a_dimension_below_1_is_named(call, d):
    # random_hermitian raised numpy's ValueError, and random_density a DimensionMismatch that
    # named the rank; both check the dimension first, before a seed or a rank
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == f"dimension must be positive, got {d}"
    with pytest.raises(DimensionMismatch, match=r"^rank must be in \[1, 2\], got 3$"):
        random_density(2, rank=3, seed=1)


@pytest.mark.parametrize("call", [
    lambda: random_density(2, seed=-1),
    lambda: random_hermitian(2, seed=np.int64(-1)),
    lambda: estimate_expectation(np.eye(2) / 2, np.eye(2), 10, -1),
    lambda: empirical_state(np.eye(2) / 2, 10, -1),
    lambda: no_go_sweep(2, 2, 1, 1e-2, seed=-1),
    lambda: philox_rng(-1),
    lambda: spawn_seeds(-1, 0),
], ids=["random-density", "random-hermitian", "estimate", "empirical", "sweep", "rng", "spawn"])
def test_a_negative_seed_is_a_constraint_violation(call):
    # numpy's own error is a bare ValueError that names no argument
    with pytest.raises(ConstraintViolation) as info:
        call()
    assert str(info.value) == "seed must be nonnegative, got -1"


# --- purification ------------------------------------------------------------


def test_purify_pure_input():
    a = purify(np.diag([1.0, 0.0]).astype(complex), 1)
    assert np.allclose(a, np.array([1.0, 0.0]), atol=1e-15)


def test_purify_maximally_mixed():
    a = purify(np.eye(2, dtype=complex) / 2, 2)
    expected = np.zeros(4)
    expected[0] = expected[3] = 1.0 / np.sqrt(2.0)
    assert np.allclose(a, expected, atol=1e-12)
    red = partial_trace_env(pure_projector(a), 2, 2)
    assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-12


@pytest.mark.parametrize("de", [2, 3, 4])
def test_purify_roundtrip_all_ranks(de):
    for rank in range(1, de + 1):
        s = random_density(4, rank=rank, seed=100 + 10 * de + rank)
        a = purify(s, de)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        red = partial_trace_env(pure_projector(a), 4, de)
        assert trace_norm(red - s) < 1e-10


def test_purify_gram_blocks():
    # the environment-block Gram matrix reproduces the input state
    s = random_density(3, rank=2, seed=25)
    a = purify(s, 2)
    gram = environment_gram(a, 3, 2)
    assert np.max(np.abs(gram - s)) < 1e-10


@pytest.mark.parametrize("ds, de", [(1, 3), (2, 2), (3, 5), (8, 4), (16, 6), (64, 22)])
def test_purify_is_bit_equal_to_kron_loop(ds, de):
    states = [np.diag(np.arange(ds, 0, -1) / (ds * (ds + 1) / 2)).astype(complex)]
    states += [random_density(ds, rank=rank, seed=70 + rank)
               for rank in range(1, min(ds, de) + 1)]
    for s in states:
        if numerical_rank(s) <= de:
            assert np.array_equal(purify(s, de).view(np.uint64), purify_kron(s, de).view(np.uint64))


def test_purify_insufficient_environment():
    s = random_density(3, rank=3, seed=26)
    with pytest.raises(ConstraintViolation):
        purify(s, 2)


def test_purify_deterministic():
    s = random_density(3, rank=2, seed=27)
    assert np.array_equal(purify(s, 3), purify(s, 3))


# --- one Hermiticity test, one density rule, one solve per state ------------


@pytest.fixture
def solves(monkeypatch):
    """(routine, shape) of every np.linalg eigh, eigvalsh and svd call, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("d", [1, 4, 16])
@pytest.mark.parametrize("call", [
    lambda s: purify(s, len(s)),
    choquet_spectral,
    lambda s: gaussian_sampler(s, seed=1),
], ids=["purify", "choquet_spectral", "gaussian_sampler"])
def test_each_state_is_solved_once(call, d, solves):
    # purify and choquet_spectral ran validate_density's eigvalsh and then spectral's eigh
    call(random_density(d, rank=max(1, d // 3), seed=40 + d))
    assert solves == [("eigh", (d, d))]


@pytest.mark.parametrize("ds, de, d_solve", [(4, 2, "eigh"), (3, 1, "eigh"), (2, 4, "eigvalsh")])
def test_reduced_dynamics_solves_the_hamiltonian_and_the_reference_once_each(ds, de, d_solve, solves):
    # at de < ds, D was solved twice: eigvalsh to validate it, then eigh for the Kraus stack
    lam = reduced_dynamics_map(random_hermitian(ds * de, seed=41), random_density(de, seed=42), 0.7)
    assert (lam.kraus is not None) == (de < ds)
    assert sorted(solves) == sorted([("eigh", (ds * de, ds * de)), (d_solve, (de, de))])


def _rotated(values, seed):
    """U diag(values) U^dagger for a seeded random unitary U."""
    g = philox_rng(seed).standard_normal((len(values), len(values), 2)).view(complex)[..., 0]
    u = np.linalg.qr(g)[0]
    return (u * np.asarray(values)) @ u.conj().T


def _outcome(call, w) -> str:
    try:
        call(w)
    except ConstraintViolation as exc:
        return str(exc)
    return "accepted"


@pytest.mark.parametrize("w, expected", [
    (_rotated([0.6 + 2e-9, 0.4, -2e-9], 43), r"state is not positive \(lambda_min -2\.000e-09\)"),
    (_rotated([0.6 + 5e-10, 0.4, -5e-10], 44), "accepted"),
    (_rotated([0.6 + 2e-9, 0.3, 0.1], 45), r"state trace \(1\.00000000\d+[+-]\S+j\) is not 1"),
    (np.array([[0.5, 1e-3], [0.0, 0.5]]), r"state is not Hermitian \(defect 1\.000e-03\)"),
], ids=["lambda-min-2e-9", "lambda-min-5e-10", "trace-2e-9", "non-hermitian"])
def test_validate_density_purify_and_choquet_share_one_density_rule(w, expected):
    calls = [validate_density, lambda s: purify(s, len(s)), choquet_spectral,
             # at de < ds, reduced_dynamics_map checks D through the same rule, from its one eigh
             lambda s: reduced_dynamics_map(random_hermitian((len(s) + 1) * len(s), seed=46), s, 0.5)]
    outcomes = [_outcome(call, w) for call in calls]
    assert outcomes == [outcomes[0]] * len(calls)
    assert re.fullmatch(expected, outcomes[0])
