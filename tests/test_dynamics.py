import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from statelift import (
    ReducedChannel,
    apply_channel,
    choi_matrix,
    is_cptp,
    product_lifting,
    random_density,
    random_hermitian,
    reduced_dynamics_from_lifting,
    reduced_dynamics_map,
    unitary_from_hamiltonian,
)
from statelift import dynamics
from statelift.errors import ConstraintViolation, DimensionMismatch
from statelift.linalg import partial_trace_sys
from statelift.rng import philox_rng

from oracles import (
    choi_matrix_loops,
    choi_min_eigenvalue_full,
    kron,
    reduced_dynamics_loops,
    transpose_permutation,
)


def exchange_hamiltonian():
    """Qubit-qubit exchange coupling (swaps excitations)."""
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2] = h[2, 1] = 1.0
    return h


# --- unitaries ---------------------------------------------------------------


def test_unitary_at_zero_time():
    h = random_hermitian(4, seed=1)
    u = unitary_from_hamiltonian(h, 0.0)
    assert np.max(np.abs(u - np.eye(4))) < 1e-12


def test_unitary_diagonal_hamiltonian():
    omega = np.array([0.3, -1.2, 2.5])
    u = unitary_from_hamiltonian(np.diag(omega).astype(complex), 0.7)
    assert np.max(np.abs(u - np.diag(np.exp(-1j * 0.7 * omega)))) < 1e-12


def test_unitary_group_law():
    h = random_hermitian(5, seed=2)
    rng = philox_rng(3)
    for _ in range(5):
        t, s = rng.uniform(-2, 2, 2)
        u_ts = unitary_from_hamiltonian(h, t + s)
        u_t = unitary_from_hamiltonian(h, t)
        u_s = unitary_from_hamiltonian(h, s)
        assert np.max(np.abs(u_ts - u_t @ u_s)) < 1e-9


def test_unitary_matches_scipy_expm():
    h = random_hermitian(4, seed=4)
    u = unitary_from_hamiltonian(h, 1.3)
    assert np.max(np.abs(u - scipy.linalg.expm(-1.3j * h))) < 1e-10


def test_unitarity():
    h = random_hermitian(6, seed=5)
    u = unitary_from_hamiltonian(h, 2.1)
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-9


# --- reduced dynamics -----------------------------------------------------------


def test_reduced_map_at_zero_time_is_identity():
    h = random_hermitian(6, seed=9)
    d = random_density(2, seed=10)
    lam = reduced_dynamics_map(h, d, 0.0)
    assert np.max(np.abs(lam.matrix - np.eye(9))) < 1e-12


@pytest.mark.parametrize("reference", [0.5, np.zeros((0, 0)), np.ones(2) / 2])
def test_reduced_map_rejects_a_reference_that_is_not_a_matrix(reference):
    # a 0-d or empty reference used to raise IndexError or ZeroDivisionError
    with pytest.raises(DimensionMismatch):
        reduced_dynamics_map(np.eye(4), reference, 0.5)


@pytest.mark.parametrize("h, message", [
    (0.5, r"expected a square matrix, got shape \(\)"),  # used to raise IndexError
    (np.eye(4)[0], r"expected a square matrix, got shape \(4,\)"),
    (np.ones((4, 2)), r"expected a square matrix, got shape \(4, 2\)"),
    (np.eye(3), "Hamiltonian dim 3 does not factor over environment dim 2"),
])
def test_reduced_map_rejects_a_hamiltonian_that_does_not_fit(h, message):
    with pytest.raises(DimensionMismatch, match=message):
        reduced_dynamics_map(h, np.eye(2) / 2, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_is_rejected(t):
    # exp(-i t H) at such t used to give an all-NaN channel, and is_cptp a LinAlgError
    with pytest.raises(ConstraintViolation, match="t must be finite"):
        unitary_from_hamiltonian(np.eye(2), t)
    with pytest.raises(ConstraintViolation, match="t must be finite"):
        reduced_dynamics_map(np.eye(4), np.eye(2) / 2, t)


def test_apply_channel_names_the_shape_it_expects():
    lam = reduced_dynamics_map(np.eye(4), np.eye(2) / 2, 1.0)
    with pytest.raises(DimensionMismatch) as info:
        apply_channel(lam, np.eye(3))
    assert str(info.value) == "state shape (3, 3), channel expects (2, 2)"


def test_reduced_map_non_interacting_factorizes():
    hs = random_hermitian(2, seed=11)
    he = random_hermitian(3, seed=12)
    h = kron(hs, np.eye(3)) + kron(np.eye(2), he)
    d = random_density(3, seed=13)
    t = 0.8
    lam = reduced_dynamics_map(h, d, t)
    v = scipy.linalg.expm(-1j * t * hs)  # independent route
    rho = random_density(2, seed=14)
    lhs = apply_channel(lam, rho)
    rhs = v @ rho @ v.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_reduced_map_non_interacting_composes():
    hs = random_hermitian(2, seed=15)
    h = kron(hs, np.eye(2))
    d = random_density(2, seed=16)
    lam_t = reduced_dynamics_map(h, d, 0.4)
    lam_s = reduced_dynamics_map(h, d, 0.7)
    lam_ts = reduced_dynamics_map(h, d, 1.1)
    assert np.max(np.abs(lam_ts.matrix - lam_t.matrix @ lam_s.matrix)) < 1e-9


def test_reduced_map_small_time_first_order():
    h = exchange_hamiltonian()
    d = random_density(2, seed=17)
    eye = np.eye(4)
    # finite-difference quotients agree to first order in t
    q1 = np.linalg.norm(reduced_dynamics_map(h, d, 1e-3).matrix - eye) / 1e-3
    q2 = np.linalg.norm(reduced_dynamics_map(h, d, 2e-3).matrix - eye) / 2e-3
    assert q1 > 0
    assert q2 == pytest.approx(q1, rel=0.05)


def test_reduced_map_trace_preserving_and_positive():
    rng = philox_rng(18)
    for k in range(10):
        h = random_hermitian(4, seed=100 + k)
        d = random_density(2, seed=200 + k)
        t = float(rng.uniform(-2, 2))
        lam = reduced_dynamics_map(h, d, t)
        rho = random_density(2, seed=300 + k)
        out = apply_channel(lam, rho)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-10
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-9


def test_reduced_map_linear_in_state():
    h = random_hermitian(6, seed=19)
    d = random_density(3, seed=20)
    lam = reduced_dynamics_map(h, d, 1.2)
    r1 = random_density(2, seed=21)
    r2 = random_density(2, seed=22)
    a, b = 0.6, 0.4
    lhs = apply_channel(lam, a * r1 + b * r2)
    rhs = a * apply_channel(lam, r1) + b * apply_channel(lam, r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- Choi / CPTP ------------------------------------------------------------------


def test_choi_identity_channel():
    lam = ReducedChannel(2, np.eye(4, dtype=complex))
    choi = choi_matrix(lam)
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0  # unnormalized maximally entangled vector
    assert np.max(np.abs(choi - np.outer(omega, omega.conj()))) < 1e-14
    vals = np.linalg.eigvalsh(choi)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert is_cptp(lam)


@pytest.mark.parametrize("ds", [2, 3, 8])
def test_choi_matches_kronecker_sum(ds):
    rng = philox_rng(26 + ds)
    m = rng.standard_normal((ds * ds,) * 2) + 1j * rng.standard_normal((ds * ds,) * 2)
    assert np.array_equal(choi_matrix(ReducedChannel(ds, m)), choi_matrix_loops(m, ds))


def test_reduced_map_is_cptp():
    # (32, 2) is the documented ceiling of composite dimension 64
    cases = [(2, 3, 0.5 + 0.3 * k) for k in range(5)] + [(32, 2, 0.9)]
    for k, (ds, de, t) in enumerate(cases):
        h = random_hermitian(ds * de, seed=400 + k)
        d = random_density(de, seed=500 + k)
        lam = reduced_dynamics_map(h, d, t)
        assert is_cptp(lam)


@pytest.mark.parametrize("rank", [None, 1])
@pytest.mark.parametrize("ds, de", [(2, 2), (3, 2), (4, 2), (2, 4), (4, 4), (16, 4)])
def test_cptp_margin_matches_the_full_choi_oracle(ds, de, rank):
    h = random_hermitian(ds * de, seed=31)
    d = random_density(de, rank=rank, seed=32)
    lam = reduced_dynamics_map(h, d, 0.8)
    check = is_cptp(lam)
    oracle = choi_min_eigenvalue_full(lam.matrix, ds)
    assert check.ok
    if de >= ds:
        # the Choi route, unchanged
        assert lam.kraus is None
        assert np.float64(check.choi_min_eigenvalue).view(np.uint64) == np.float64(oracle).view(np.uint64)
        return
    # the Gram route: at most de^2 Kraus operators, so the Choi minimum is 0 up to rounding
    assert check.choi_min_eigenvalue <= 0.0
    assert abs(check.choi_min_eigenvalue - oracle) <= 1e-12
    ks = lam.kraus.transpose(1, 3, 0, 2).reshape(de * de, ds, ds)
    rho = random_density(ds, seed=33)
    got = sum(k @ rho @ k.conj().T for k in ks)
    assert np.max(np.abs(got - apply_channel(lam, rho))) <= 1e-14
    assert np.max(np.abs(sum(k.conj().T @ k for k in ks) - np.eye(ds))) <= 1e-13


@pytest.mark.parametrize("ds, de", [(2, 2), (3, 2), (4, 2), (8, 8), (16, 4), (32, 2)])
def test_trace_preservation_is_read_from_the_channel_matrix(ds, de, monkeypatch):
    lam = reduced_dynamics_map(random_hermitian(ds * de, seed=36), random_density(de, seed=37), 0.8)
    lifted = reduced_dynamics_from_lifting(random_hermitian(ds * de, seed=38),
                                           product_lifting(random_density(de, seed=39), ds), 0.8)
    for channel in (lam, lifted):
        want = partial_trace_sys(choi_matrix(channel), ds, ds)
        got = np.ascontiguousarray(dynamics._output_trace(channel))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not is_cptp(ReducedChannel(ds, 1.01 * lam.matrix)).ok  # CP, but not TP
    # the Gram route forms no Choi matrix at all
    monkeypatch.setattr(dynamics, "choi_matrix", None)
    assert (lam.kraus is not None) == (de < ds)
    if lam.kraus is not None:
        assert is_cptp(lam).ok


def test_lifting_route_carries_no_kraus_stack():
    h = random_hermitian(8, seed=34)
    d = random_density(2, seed=35)
    lam = reduced_dynamics_from_lifting(h, product_lifting(d, 4), 0.8)
    assert lam.kraus is None
    margin = np.float64(is_cptp(lam).choi_min_eigenvalue)
    assert margin.view(np.uint64) == np.float64(choi_min_eigenvalue_full(lam.matrix, 4)).view(np.uint64)
    # only reduced_dynamics_map sets the stack
    with pytest.raises(TypeError):
        ReducedChannel(4, lam.matrix, kraus=reduced_dynamics_map(h, d, 0.8).kraus)


@pytest.mark.parametrize("ds, de", [(2, 3), (8, 8), (16, 4), (32, 2)])
def test_reduced_dynamics_matches_loops(ds, de):
    h = random_hermitian(ds * de, seed=27)
    d = random_density(de, seed=28)
    u = unitary_from_hamiltonian(h, 0.9)
    loops = reduced_dynamics_loops(u, lambda x: np.kron(x, d), ds, de)
    assert np.max(np.abs(reduced_dynamics_map(h, d, 0.9).matrix - loops)) <= 1e-14
    # through the trace screen, which reads the basis images of the lifting
    f = product_lifting(d, ds)
    lam = reduced_dynamics_from_lifting(h, f, 0.9)
    assert np.max(np.abs(lam.matrix - loops)) <= 1e-14


@pytest.mark.parametrize("ds, de, bound", [(16, 4, 4e6), (32, 2, 40e6)])
def test_reduced_dynamics_memory_stays_near_the_channel(ds, de, bound):
    h = random_hermitian(ds * de, seed=29)
    d = random_density(de, seed=30)
    tracemalloc.start()
    try:
        reduced_dynamics_map(h, d, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the channel is 1 MB at (16, 4) and 17 MB at (32, 2); assembling it from the
    # product-lifting matrix, de^2 times its size, peaked at 52 and 218 MB
    assert peak < bound


def test_reduced_dynamics_from_explicit_lifting():
    from statelift import ConstraintViolation, apply_lifting, kraus_lifting, perturbed_product_lifting

    h = random_hermitian(4, seed=24)
    d = random_density(2, seed=25)
    # the product lifting reproduces the reference-state route exactly
    lam_ref = reduced_dynamics_map(h, d, 0.6)
    lam_lift = reduced_dynamics_from_lifting(h, product_lifting(d, 2), 0.6)
    assert np.max(np.abs(lam_ref.matrix - lam_lift.matrix)) < 1e-13
    # like the lifting constructors, the reference route rejects a non-state
    with pytest.raises(ConstraintViolation):
        reduced_dynamics_map(h, 2 * d, 0.6)

    # a right inverse that is not a product map gives the channel of its own matrix
    f = perturbed_product_lifting(d, 2, 1e-2, seed=26)
    lam = reduced_dynamics_from_lifting(h, f, 0.6)
    u = unitary_from_hamiltonian(h, 0.6)
    loops = reduced_dynamics_loops(u, lambda x: apply_lifting(f, x), 2, 2)
    assert np.max(np.abs(lam.matrix - loops)) <= 1e-14
    assert np.max(np.abs(lam.matrix - lam_ref.matrix)) > 1e-4

    # a lifting that is not a right inverse is rejected
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    f_swap = kraus_lifting([swap], d, 2)
    with pytest.raises(ConstraintViolation, match="right inverse"):
        reduced_dynamics_from_lifting(h, f_swap, 0.6)


def test_the_lifting_route_settles_the_trace_check_by_its_bound(monkeypatch):
    from statelift import check_trace_constraint, kraus_lifting

    h = random_hermitian(4, seed=24)
    d = random_density(2, seed=25)
    f_swap = kraus_lifting([np.eye(4)[[0, 2, 1, 3]]], d, 2)
    message = re.escape(f"(deviation {check_trace_constraint(f_swap):.3e})")
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    reduced_dynamics_from_lifting(h, product_lifting(d, 2), 0.6)
    assert calls == []  # a right inverse at rounding level takes no SVD
    with pytest.raises(ConstraintViolation, match=message):
        reduced_dynamics_from_lifting(h, f_swap, 0.6)
    assert len(calls) == 1  # the exact deviation, for the message


def test_transpose_channel_not_completely_positive():
    lam = ReducedChannel(2, transpose_permutation(2))
    rho = random_density(2, seed=23)
    assert np.max(np.abs(apply_channel(lam, rho) - rho.T)) < 1e-14
    choi = choi_matrix(lam)
    vals = np.linalg.eigvalsh(choi)
    assert vals[0] == pytest.approx(-1.0, abs=1e-12)
    assert not is_cptp(lam)
