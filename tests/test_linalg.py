from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from statelift import (
    ConstraintViolation,
    DimensionMismatch,
    Lifting,
    ReducedChannel,
    ReductionMap,
    adjoint_lifting,
    apply_channel,
    apply_lifting,
    apply_reduction,
    is_psd,
    no_go_sweep,
    pairing,
    partial_trace_env,
    partial_trace_sys,
    product_lifting,
    random_perturbation,
    spectral,
    trace_norm,
    unvec,
    vec,
)
from statelift.config import tolerances
from statelift.linalg import frobenius, frobenius_norms
from statelift.rng import philox_rng
from statelift.states import basis_g, random_density, random_hermitian

from oracles import bell_projector, kron, kron_loops, psd_by_char_poly, ptrace_env_loops, ptrace_sys_loops, trace_norm_gram


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# --- kron ---------------------------------------------------------------


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_trace_multiplicative():
    rng = philox_rng(1)
    a = random_complex(rng, 3)
    b = random_complex(rng, 2)
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_kron_diag_expansion():
    # hand expansion of the four products
    got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]), atol=0)


def test_kron_matches_loop_oracle():
    rng = philox_rng(2)
    a = random_complex(rng, 3)
    b = random_complex(rng, 2)
    assert np.max(np.abs(kron(a, b) - kron_loops(a, b))) < 1e-14


# --- partial traces -----------------------------------------------------


def test_ptrace_env_product_input():
    rho = random_density(3, seed=3)
    d = random_complex(philox_rng(4), 2)
    out = partial_trace_env(kron(rho, d), 3, 2)
    assert np.max(np.abs(out - rho * np.trace(d))) < 1e-12


def test_ptrace_env_bell():
    # direct 4x4 index sum, plus the frozen expected value Id/2
    bell = bell_projector()
    out = partial_trace_env(bell, 2, 2)
    assert np.max(np.abs(out - ptrace_env_loops(bell, 2, 2))) == 0.0
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-15


def test_ptrace_env_identity():
    assert np.allclose(partial_trace_env(np.eye(6), 3, 2), 2 * np.eye(3), atol=0)


def test_ptrace_sys_product_input():
    rho = random_density(2, seed=5)
    d = random_complex(philox_rng(6), 3)
    out = partial_trace_sys(kron(rho, d), 2, 3)
    assert np.max(np.abs(out - d * np.trace(rho))) < 1e-12


def test_ptrace_sys_identity_and_bell():
    assert np.allclose(partial_trace_sys(np.eye(6), 2, 3), 2 * np.eye(3), atol=0)
    bell = bell_projector()
    out = partial_trace_sys(bell, 2, 2)
    assert np.max(np.abs(out - ptrace_sys_loops(bell, 2, 2))) == 0.0
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-15


@pytest.mark.parametrize("ds,de", [(2, 2), (3, 2), (2, 4)])
def test_ptrace_linear_and_trace_preserving(ds, de):
    rng = philox_rng(7)
    w1 = random_complex(rng, ds * de)
    w2 = random_complex(rng, ds * de)
    a, b = 0.3 - 0.2j, 1.1 + 0.7j
    lhs = partial_trace_env(a * w1 + b * w2, ds, de)
    rhs = a * partial_trace_env(w1, ds, de) + b * partial_trace_env(w2, ds, de)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(np.trace(partial_trace_env(w1, ds, de)) - np.trace(w1)) < 1e-12
    assert abs(np.trace(partial_trace_sys(w1, ds, de)) - np.trace(w1)) < 1e-12


def test_ptrace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace_env(np.eye(5), 2, 2)


def test_ptrace_adjoint_identity():
    # tr((B x Id) W) = tr(B tr_env(W)), the pairing identity behind reduction
    rng = philox_rng(8)
    for _ in range(20):
        b = random_complex(rng, 3)
        w = random_complex(rng, 6)
        lhs = pairing(kron(b, np.eye(2)), w)
        rhs = pairing(b, partial_trace_env(w, 3, 2))
        assert abs(lhs - rhs) < 1e-10


# --- positivity ---------------------------------------------------------


def test_tolerances_are_fixed():
    # every threshold is decided in statelift.config; none is set at run time
    with pytest.raises(FrozenInstanceError):
        tolerances.psd = 1e-6
    assert tolerances.psd == 1e-9


def test_is_psd_diagonal_cases():
    check = is_psd(np.diag([1.0, 0.0]).astype(complex))
    assert check and check.min_eigenvalue == pytest.approx(0.0, abs=1e-15)
    check = is_psd(np.diag([1.0, -0.1]).astype(complex))
    assert not check
    assert check.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
    assert abs(abs(check.witness[1]) - 1.0) < 1e-12  # witness is e_2


def test_is_psd_basis_element():
    g = basis_g(0, 1, 3)
    check = is_psd(g)
    assert check
    vals = np.linalg.eigvalsh(g)
    assert np.allclose(sorted(vals), [0.0, 0.0, 2.0], atol=1e-12)


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(ConstraintViolation):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_is_psd_matches_char_poly_oracle(d):
    rng = philox_rng(9)
    for k in range(40):
        h = random_hermitian(d, rng)
        if k % 3 == 0:  # include PSD inputs, not only indefinite ones
            h = h @ h.conj().T if k % 2 else h.conj().T @ h
            h = (h + h.conj().T) / 2
        assert bool(is_psd(h)) == psd_by_char_poly(h)


# --- spectral -----------------------------------------------------------


def test_spectral_identity_and_diag():
    dec = spectral(np.eye(2, dtype=complex))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0], atol=0)
    dec = spectral(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=0)
    assert np.allclose(dec.vectors, np.eye(2), atol=1e-15)


def test_spectral_reconstruction_and_orthonormality():
    h = random_hermitian(5, seed=10)
    dec = spectral(h)
    assert np.linalg.norm((dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T - h) < 1e-10
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9
    assert np.all(np.diff(dec.eigenvalues) <= 0)


def test_spectral_phase_convention_and_determinism():
    h = random_hermitian(4, seed=11)
    dec1 = spectral(h)
    dec2 = spectral(h)
    assert np.array_equal(dec1.vectors, dec2.vectors)
    for i in range(4):
        v = dec1.vectors[:, i]
        j = int(np.argmax(np.abs(v)))
        assert v[j].real > 0
        assert abs(v[j].imag) < 1e-12


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ConstraintViolation):
        spectral(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


# --- trace norm and pairing ----------------------------------------------


def test_trace_norm_density_and_diag():
    w = random_density(4, seed=12)
    assert trace_norm(w) == pytest.approx(1.0, abs=1e-12)
    assert trace_norm(np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_matches_gram_oracle():
    a = random_complex(philox_rng(13), 4)
    assert trace_norm(a) == pytest.approx(trace_norm_gram(a), abs=1e-10)


def test_pairing_identity_and_projector():
    rng = philox_rng(14)
    w = random_complex(rng, 3)
    assert abs(pairing(np.eye(3), w) - np.trace(w)) < 1e-14
    p = basis_g(1, 1, 3)
    assert pairing(p, p) == pytest.approx(1.0, abs=1e-14)


def test_pairing_reduction_identity():
    # tr(A (rho x D)) = tr(tr_env(A (Id x D)) rho), both sides independently
    rng = philox_rng(15)
    rho = random_density(2, seed=16)
    d = random_density(3, seed=17)
    for _ in range(10):
        a = random_complex(rng, 6)
        lhs = pairing(a, kron(rho, d))
        rhs = pairing(partial_trace_env(a @ kron(np.eye(2), d), 2, 3), rho)
        assert abs(lhs - rhs) < 1e-10


# --- vec / unvec ----------------------------------------------------------


def test_vec_column_stacking_order():
    x = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(x), np.array([1.0, 2.0, 3.0, 4.0]))


def test_vec_unvec_roundtrip():
    x = random_complex(philox_rng(18), 3)
    assert np.array_equal(unvec(vec(x), 3), x)


def test_non_contiguous_inputs_accepted():
    # transpose views and fortran-ordered arrays must work everywhere
    h = random_hermitian(3, seed=19)
    dec = spectral(h.T.conj())
    assert np.allclose((dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T, h.conj().T, atol=1e-10)
    w = random_complex(philox_rng(20), 4)
    assert trace_norm(w.T) == pytest.approx(trace_norm(np.ascontiguousarray(w.T)), abs=1e-12)
    assert partial_trace_env(np.asfortranarray(kron(np.eye(2), np.eye(2))), 2, 2).shape == (2, 2)


# --- stacked Frobenius norms ---------------------------------------------


def _norm_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_frobenius_norms_keep_the_bits_of_linalg_norm():
    # magnitudes spread over a few decades, so that the order of the sum shows in the bits
    rng = philox_rng(21)
    x = random_complex(rng, 60).reshape(10, 9, 40) * 10.0 ** rng.integers(-2, 3, (10, 9, 40))
    stacks = {
        "contiguous": x,
        "transposed": x.transpose(0, 2, 1),
        "strided": x[:, 1::2, ::3],
        "reversed": x[:, ::-1],
        "every other item": x[::2],
        "fortran": np.asfortranarray(x),
        "real": x.real,
        "real transposed": x.real.transpose(0, 2, 1),
        "vectors": x[:, 0],
        "all zero": np.zeros_like(x),
    }
    for name, stack in stacks.items():
        want = [np.linalg.norm(item) for item in stack]
        assert np.array_equal(_norm_bits(frobenius_norms(stack)), _norm_bits(want)), name
        assert np.array_equal(_norm_bits([frobenius(item) for item in stack]), _norm_bits(want)), name
    # the memory order matters: a C-ordered copy of the transposed items sums differently
    t = x.transpose(0, 2, 1)
    assert not np.array_equal(_norm_bits(frobenius_norms(t)),
                              _norm_bits(frobenius_norms(np.ascontiguousarray(t))))


def test_frobenius_norms_of_empty_stacks():
    assert frobenius_norms(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
    assert np.array_equal(frobenius_norms(np.zeros((2, 0, 4), dtype=complex)), [0.0, 0.0])
    assert frobenius(np.zeros((0, 0))) == np.linalg.norm(np.zeros((0, 0))) == 0.0


# --- stored maps: shape, operand and non-finite checks -------------------------


def _lifting_22():
    return product_lifting(random_density(2, seed=2), 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Lifting(2, 2, np.zeros((16, 3))), DimensionMismatch,
     "lifting matrix shape (16, 3), expected (16, 4)"),
    (lambda: ReductionMap(2, 2, np.zeros((4, 15))), DimensionMismatch,
     "reduction matrix shape (4, 15), expected (4, 16)"),
    (lambda: ReducedChannel(2, np.zeros((4, 3))), DimensionMismatch,
     "channel matrix shape (4, 3), expected (4, 4)"),
    (lambda: apply_lifting(_lifting_22(), np.eye(3)), DimensionMismatch,
     "operator shape (3, 3), lifting expects (2, 2)"),
    (lambda: apply_reduction(adjoint_lifting(_lifting_22()), np.eye(3)), DimensionMismatch,
     "observable shape (3, 3), reduction expects (4, 4)"),
    (lambda: apply_channel(ReducedChannel(2, np.eye(4)), np.eye(3)), DimensionMismatch,
     "state shape (3, 3), channel expects (2, 2)"),
    (lambda: Lifting(1, 2, np.array([[1.0], [np.nan], [0.0], [0.0]])), ConstraintViolation,
     "lifting matrix has non-finite entries"),
    # dimensions below 1, before any shape check: a shape alone passes ds = -1, whose square is 1
    (lambda: Lifting(0, 2, np.zeros((0, 0))), DimensionMismatch,
     "lifting dimensions must be positive, got 0 -> 0"),
    (lambda: Lifting(2, 0, np.zeros((0, 4))), DimensionMismatch,
     "lifting dimensions must be positive, got 2 -> 0"),
    (lambda: Lifting(-1, -2, np.zeros((4, 1))), DimensionMismatch,
     "lifting dimensions must be positive, got -1 -> 2"),
    (lambda: ReductionMap(-1, -1, np.zeros((1, 1))), DimensionMismatch,
     "reduction dimensions must be positive, got 1 -> -1"),
    (lambda: ReducedChannel(-1, np.zeros((1, 1))), DimensionMismatch,
     "channel dimensions must be positive, got -1 -> -1"),
    (lambda: random_perturbation(0, 2, 1), DimensionMismatch,
     "perturbation dimensions must be positive, got 0 -> 0"),
    (lambda: random_perturbation(2, 0, 1), DimensionMismatch,
     "perturbation dimensions must be positive, got 2 -> 0"),
    (lambda: no_go_sweep(-1, 2, 1, 1e-2, 1), DimensionMismatch,
     "perturbation dimensions must be positive, got -1 -> -2"),
], ids=["lifting-shape", "reduction-shape", "channel-shape", "lifting-operand",
        "reduction-operand", "channel-operand", "lifting-non-finite", "lifting-ds-0",
        "lifting-de-0", "lifting-ds-negative", "reduction-dims", "channel-dims",
        "perturbation-ds-0", "perturbation-de-0", "sweep-dims"])
def test_stored_maps_name_the_shape_they_expect(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_stored_maps_keep_a_contiguous_complex_matrix_without_a_copy():
    m = np.zeros((4, 4), dtype=np.complex128)
    assert ReducedChannel(2, m).matrix is m
    lam = ReducedChannel(2, np.eye(4, dtype=np.float32).T)
    assert lam.matrix.dtype == np.complex128 and lam.matrix.flags.c_contiguous
