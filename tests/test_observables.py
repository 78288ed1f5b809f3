import tracemalloc

import numpy as np
import pytest

from statelift import (
    Lifting,
    ReductionMap,
    adjoint_lifting,
    apply_lifting,
    apply_reduction,
    check_trace_constraint,
    check_unit_reduction,
    hermitian_basis,
    kraus_lifting,
    pairing,
    perturbed_product_lifting,
    product_lifting,
    random_density,
    random_hermitian,
    reduce_observable,
)
from statelift.dynamics import unitary_from_hamiltonian
from statelift.rng import philox_rng

from oracles import (
    adjoint_reduction,
    kron,
    matrix_unit,
    reduce_observable_kron,
    transpose_permutation,
    unit_reduction_loops,
    unit_reduction_per_image,
)


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_adjoint_pairing_identity():
    f = product_lifting(random_density(2, seed=1), 3)
    r = adjoint_lifting(f)
    rng = philox_rng(2)
    for _ in range(100):
        a = random_complex(rng, 6)
        rho = random_complex(rng, 3)
        lhs = pairing(a, apply_lifting(f, rho))
        rhs = pairing(apply_reduction(r, a), rho)
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_pairing_identity_on_matrix_units():
    # exact on the basis elements that define the adjoint
    f = product_lifting(random_density(2, seed=3), 2)
    r = adjoint_lifting(f)
    for i in range(4):
        for j in range(4):
            a = matrix_unit(i, j, 4)
            for k in range(2):
                for l in range(2):
                    rho = matrix_unit(k, l, 2)
                    lhs = pairing(a, apply_lifting(f, rho))
                    rhs = pairing(apply_reduction(r, a), rho)
                    assert abs(lhs - rhs) < 1e-14


def test_adjoint_pairing_identity_non_product_lifting():
    # the adjoint construction is generic, not special to product maps
    from statelift import kraus_lifting

    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    f = kraus_lifting([swap], random_density(2, seed=20), 2)
    r = adjoint_lifting(f)
    rng = philox_rng(21)
    for _ in range(50):
        a = random_complex(rng, 4)
        rho = random_complex(rng, 2)
        lhs = pairing(a, apply_lifting(f, rho))
        rhs = pairing(apply_reduction(r, a), rho)
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_of_product_is_unital():
    d = random_density(3, seed=4)
    f = product_lifting(d, 2)
    r = adjoint_lifting(f)
    rng = philox_rng(5)
    for _ in range(10):
        b = random_complex(rng, 2)
        out = apply_reduction(r, kron(b, np.eye(3)))
        assert np.max(np.abs(out - b)) < 1e-12


def test_adjoint_involution():
    f = product_lifting(random_density(2, seed=6), 3)
    back = adjoint_reduction(adjoint_lifting(f))
    assert np.max(np.abs(back.matrix - f.matrix)) < 1e-14
    for g in hermitian_basis(3):
        assert np.max(np.abs(apply_lifting(back, g) - apply_lifting(f, g))) < 1e-14


def test_adjoint_matches_dense_permutations():
    # (8, 8) is the documented ceiling of composite dimension 64
    rng = philox_rng(22)
    for ds, de in [(2, 3), (8, 8)]:
        shape = ((ds * de) ** 2, ds * ds)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t_small, t_big = transpose_permutation(ds), transpose_permutation(ds * de)
        r = adjoint_lifting(Lifting(ds, de, m))
        assert np.array_equal(r.matrix, t_small @ m.T @ t_big)
        back = adjoint_reduction(ReductionMap(ds, de, r.matrix))
        assert np.array_equal(back.matrix, t_big @ r.matrix.T @ t_small)
        assert np.array_equal(back.matrix, m)


def test_adjoint_memory_stays_below_dense_permutation():
    f = product_lifting(random_density(8, seed=23), 8)
    tracemalloc.start()
    try:
        adjoint_lifting(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense transpose-permutation alone is 268 MB at (8, 8)
    assert peak < 64 * 2**20


def test_unit_reduction_product_and_violation():
    d = random_density(2, seed=7)
    f = product_lifting(d, 2)
    assert check_unit_reduction(adjoint_lifting(f)) < 1e-13

    bumped = f.matrix.copy()
    bumped[0, 0] += 1e-3  # inject a trace defect in the pre-adjoint
    fb = Lifting(2, 2, bumped)
    assert check_trace_constraint(fb) > 0
    assert check_unit_reduction(adjoint_lifting(fb)) > 0


def test_unit_reduction_scales_linearly_with_defect():
    d = random_density(2, seed=8)
    base = product_lifting(d, 2).matrix
    devs = []
    for eps in (1e-4, 2e-4, 4e-4):
        bumped = base.copy()
        bumped[0, 0] += eps
        devs.append(check_unit_reduction(adjoint_lifting(Lifting(2, 2, bumped))))
    assert devs[1] == pytest.approx(2 * devs[0], rel=1e-6)
    assert devs[2] == pytest.approx(4 * devs[0], rel=1e-6)


@pytest.mark.parametrize("ds, de", [(1, 3), (2, 2), (3, 5), (8, 4)])
def test_unit_reduction_matches_kron_loop(ds, de):
    d = random_density(de, seed=30)
    base = product_lifting(d, ds).matrix
    rng = philox_rng(31)
    bumped = base.copy()
    bumped[0, 0] += 1e-3
    maps = [base, bumped]
    for eps in (1e-3, 1.0):
        noise = rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)
        maps.append(base + eps * noise)
    for m in maps:
        r = adjoint_lifting(Lifting(ds, de, m))
        want = unit_reduction_loops(r)
        # both routes round sums whose terms are as large as |g|_F <= 2
        assert abs(check_unit_reduction(r) - want) <= 1e-14 * max(want, 1.0)


@pytest.mark.parametrize("ds, de", [(1, 3), (2, 2), (3, 2), (2, 3), (4, 4), (8, 4), (4, 8), (16, 4)])
def test_unit_reduction_keeps_the_bits_of_the_per_image_loop(ds, de):
    d = random_density(de, seed=33)
    u = unitary_from_hamiltonian(random_hermitian(ds * de, seed=34), 1.0)
    bumped = product_lifting(d, ds).matrix.copy()
    bumped[0, 0] += 1e-3
    for f in (product_lifting(d, ds), Lifting(ds, de, bumped), kraus_lifting([u], d, ds),
              perturbed_product_lifting(d, ds, 1e-2, seed=35)):
        r = adjoint_lifting(f)
        got, want = np.float64(check_unit_reduction(r)), np.float64(unit_reduction_per_image(r))
        assert got.view(np.uint64) == want.view(np.uint64)


def test_unit_reduction_memory_stays_near_ds4():
    r = adjoint_lifting(product_lifting(random_density(4, seed=32), 16))
    check_unit_reduction(r)  # builds the cached Hermitian basis
    tracemalloc.start()
    try:
        assert check_unit_reduction(r) < 1e-13
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # B -> R(B (x) Id) and its basis images hold ds^4 entries, 1 MB each at
    # (16, 4); the reduction matrix itself is 16 MB
    assert peak < 4 * 2**20


@pytest.mark.parametrize("ds, de", [(1, 3), (2, 2), (3, 5), (8, 4)])
def test_reduce_observable_matches_kron_route(ds, de):
    d = random_density(de, seed=33)
    rng = philox_rng(34)
    for _ in range(3):
        a = random_complex(rng, ds * de)
        diff = reduce_observable(a, d) - reduce_observable_kron(a, d)
        assert np.max(np.abs(diff)) <= 1e-14 * ds * de * np.max(np.abs(a))


def test_reduce_observable_unital():
    d = random_density(3, seed=9)
    rng = philox_rng(10)
    for _ in range(10):
        b = random_complex(rng, 2)
        assert np.max(np.abs(reduce_observable(kron(b, np.eye(3)), d) - b)) < 1e-12
    assert np.max(np.abs(reduce_observable(np.eye(6), d) - np.eye(2))) < 1e-12


def test_reduce_observable_matches_adjoint_route():
    d = random_density(3, seed=11)
    r = adjoint_lifting(product_lifting(d, 3))
    rng = philox_rng(12)
    for _ in range(100):
        a = random_complex(rng, 9)
        assert np.max(np.abs(apply_reduction(r, a) - reduce_observable(a, d))) < 1e-10


def test_reduction_formula_on_full_operator_basis():
    # the adjoint of any product lifting acts as A -> tr_env(A (Id x D))
    d = random_density(3, seed=13)
    r = adjoint_lifting(product_lifting(d, 3))
    for i in range(9):
        for j in range(9):
            a = matrix_unit(i, j, 9)
            diff = apply_reduction(r, a) - reduce_observable(a, d)
            assert np.max(np.abs(diff)) < 1e-8


def test_reduce_observable_hermiticity_preserving():
    d = random_density(2, seed=14)
    rng = philox_rng(15)
    for _ in range(10):
        a = random_complex(rng, 4)
        lhs = reduce_observable(a.conj().T, d)
        rhs = reduce_observable(a, d).conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_reduce_observable_positivity_preserving():
    d = random_density(2, seed=16)
    rng = philox_rng(17)
    for _ in range(10):
        m = random_complex(rng, 4)
        a = m @ m.conj().T  # PSD
        out = reduce_observable(a, d)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-9


def test_reduce_observable_hermitian_input():
    d = random_density(2, seed=18)
    a = random_hermitian(4, seed=19)
    out = reduce_observable(a, d)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
