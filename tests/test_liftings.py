import dataclasses
import tracemalloc

import numpy as np
import pytest

from statelift import (
    ConstraintViolation,
    Inconclusive,
    Lifting,
    Product,
    ViolatesHermiticity,
    ViolatesPositivity,
    ViolatesTrace,
    analysis_report,
    analyze,
    apply_lifting,
    basis_g,
    basis_g_star,
    basis_images,
    check_hermiticity_preserving,
    check_trace_constraint,
    diag_mixing_positive,
    extract_reference,
    kraus_lifting,
    no_go_sweep,
    partial_trace_env,
    perturbed_product_lifting,
    positivity_witness_search,
    product_lifting,
    product_residual,
    random_density,
    random_perturbation,
    structure_report,
    trace_norm,
    unvec,
    vec,
)
from statelift import liftings
from statelift.config import tolerances
from statelift.dynamics import unitary_from_hamiltonian
from statelift.liftings import (
    PairStructure, _basis, _hermiticity_deviations, _Screen, _triangle, _walk)
from statelift.rng import philox_rng, spawn_seeds
from statelift.states import hermitian_basis, random_hermitian

from oracles import (
    basis_images_per_member,
    hermiticity_deviations_loops,
    residual_loops,
    structure_loops,
    diag_mixing_positive_scan,
    first_witness_loops,
    grid_witness_candidates_loops,
    grid_witness_search_loops,
    kraus_lifting_loops,
    kron,
    perturbed_product_lifting_sum,
    pair_block_parts,
    components,
    reassemble,
    screen_small_dense,
    residual_kron,
    positivity_witness_search_loops,
    witness_candidates_loops,
    product_lifting_loops,
    ptrace_env_loops,
    ptrace_env_superop,
    trace_norm_gram,
    random_perturbation_dense,
    random_perturbation_inv,
)


def swap_matrix(d):
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


# --- construction and application -----------------------------------------


def test_product_lifting_matches_kron():
    d = random_density(2, seed=1)
    f = product_lifting(d, 3)
    rng = philox_rng(2)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(apply_lifting(f, x) - kron(x, d))) < 1e-14


@pytest.mark.parametrize("ds, de", [(2, 3), (4, 4), (8, 8)])
def test_product_lifting_matches_kron_loops(ds, de):
    d = random_density(de, seed=ds + de)
    assert np.array_equal(product_lifting(d, ds).matrix, product_lifting_loops(d, ds))


def test_product_lifting_right_inverse():
    d = random_density(3, seed=3)
    f = product_lifting(d, 2)
    for k in range(10):
        rho = random_density(2, seed=30 + k)
        back = partial_trace_env(apply_lifting(f, rho), 2, 3)
        assert trace_norm(back - rho) < 1e-12


def test_product_lifting_rejects_invalid_reference():
    with pytest.raises(ConstraintViolation):
        product_lifting(np.diag([2.0, 0.0]).astype(complex), 2)


def test_apply_linearity():
    f = product_lifting(random_density(2, seed=4), 2)
    rng = philox_rng(5)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a, b = 0.7 - 0.1j, -0.4 + 0.9j
    lhs = apply_lifting(f, a * x + b * y)
    rhs = a * apply_lifting(f, x) + b * apply_lifting(f, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_on_basis_element():
    d = random_density(2, seed=6)
    f = product_lifting(d, 3)
    g = basis_g(0, 1, 3)
    assert np.max(np.abs(apply_lifting(f, g) - kron(g, d))) == 0.0


def test_component_bookkeeping_exact():
    d = random_density(2, seed=7)
    f = product_lifting(d, 3)
    w = apply_lifting(f, basis_g(1, 2, 3))
    blocks = components(w, 3, 2)
    # convention: C[k, l, i, j] = W[k*de + i, l*de + j]
    assert blocks[1, 2, 0, 1] == w[2 * 1 + 0, 2 * 2 + 1]
    assert np.array_equal(reassemble(blocks), w)


def test_component_convention_inner_products():
    # C[k, l, i, j] = <e_k (x) f_i, W (e_l (x) f_j)> against explicit vectors
    rng = philox_rng(99)
    ds, de = 2, 3
    w = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    blocks = components(w, ds, de)
    for k in range(ds):
        for l in range(ds):
            for i in range(de):
                for j in range(de):
                    left = np.kron(np.eye(ds)[k], np.eye(de)[i])
                    right = np.kron(np.eye(ds)[l], np.eye(de)[j])
                    assert blocks[k, l, i, j] == left.conj() @ w @ right


# --- kraus liftings ---------------------------------------------------------


def test_kraus_identity_family_is_product():
    d = random_density(2, seed=8)
    fk = kraus_lifting([np.eye(6)], d, 3)
    fd = product_lifting(d, 3)
    assert np.array_equal(fk.matrix, fd.matrix)


def normalized_kraus_family(n, dim, seed):
    """n Kraus operators, the row blocks of a random isometry, so that
    sum K^dagger K = Id; for n > 1 none of them is unitary."""
    rng = philox_rng(seed)
    g = rng.standard_normal((n * dim, dim)) + 1j * rng.standard_normal((n * dim, dim))
    return list(np.linalg.qr(g)[0].reshape(n, dim, dim))


ORACLE_DIMS = [(1, 3), (2, 2), (3, 5), (8, 4)]


@pytest.mark.parametrize("ds, de", ORACLE_DIMS)
def test_kraus_lifting_matches_per_unit_loops(ds, de):
    dim = ds * de
    d = random_density(de, seed=60)
    families = [
        [np.eye(dim)],
        [swap_matrix(ds)] if ds == de else [np.eye(dim)[::-1]],
        normalized_kraus_family(1, dim, 61),
        normalized_kraus_family(3, dim, 62),
        normalized_kraus_family(5, dim, 63),
    ]
    for ks in families:
        expected = kraus_lifting_loops(ks, d, ds)
        got = kraus_lifting(ks, d, ds).matrix
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("ds, de", ORACLE_DIMS)
def test_product_residual_is_bit_equal_to_kron_loop(ds, de):
    d = random_density(de, seed=64)
    for f in (
        product_lifting(d, ds),
        perturbed_product_lifting(d, ds, 1e-3, seed=65),
        kraus_lifting(normalized_kraus_family(3, ds * de, 66), d, ds),
    ):
        images = basis_images(f)
        for reference in (d, extract_reference(f), random_density(de, seed=67)):
            got = np.float64(product_residual(f, reference))
            want = np.float64(residual_kron(ds, images, reference))
            assert got.view(np.uint64) == want.view(np.uint64)


def test_kraus_unitary_preserves_state():
    d = random_density(2, seed=9)
    h = philox_rng(10).standard_normal((4, 4))
    h = h + h.T
    vals, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    f = kraus_lifting([u.astype(complex)], d, 2)
    rho = random_density(2, seed=11)
    w = apply_lifting(f, rho)
    assert abs(np.trace(w) - 1.0) < 1e-12
    assert np.linalg.eigvalsh((w + w.conj().T) / 2)[0] > -1e-12


def test_kraus_rejects_unnormalized():
    d = random_density(2, seed=12)
    with pytest.raises(ConstraintViolation, match="not normalized"):
        kraus_lifting([1.1 * np.eye(4)], d, 2)


def test_kraus_swap_violates_trace():
    # swapping system and environment is unitary but not a right inverse
    d = random_density(2, seed=13)
    f = kraus_lifting([swap_matrix(2)], d, 2)
    verdict = analyze(f)
    assert isinstance(verdict, ViolatesTrace)
    assert verdict.max_deviation > 0.1


# --- constraint checks ------------------------------------------------------


def test_trace_constraint_product_and_perturbed():
    d = random_density(2, seed=14)
    f = product_lifting(d, 2)
    assert check_trace_constraint(f) < 1e-14
    eps = 1e-3
    bumped = f.matrix.copy()
    bumped[0, 0] += eps  # shifts a diagonal block sum of the corner image
    assert check_trace_constraint(Lifting(2, 2, bumped)) >= eps


def test_hermiticity_check_product_and_defect():
    d = random_density(3, seed=15)
    f = product_lifting(d, 2)
    assert check_hermiticity_preserving(f) < 1e-14
    defect = np.zeros((6, 6), dtype=complex)
    defect[0, 3] = 1.0j  # anti-Hermitian contribution to the image of E_00
    bumped = f.matrix.copy()
    bumped[:, 0] += vec(defect)
    assert check_hermiticity_preserving(Lifting(2, 3, bumped)) > 1.0


# --- reference extraction -----------------------------------------------------


def test_extract_reference_product():
    d = random_density(3, seed=16)
    f = product_lifting(d, 2)
    assert np.array_equal(extract_reference(f), d)


def test_extract_reference_mixture():
    d1 = random_density(2, seed=17)
    d2 = random_density(2, seed=18)
    f1 = product_lifting(d1, 3)
    f2 = product_lifting(d2, 3)
    alpha = 0.35
    mix = Lifting(3, 2, alpha * f1.matrix + (1 - alpha) * f2.matrix)
    got = extract_reference(mix)
    assert np.max(np.abs(got - (alpha * d1 + (1 - alpha) * d2))) < 1e-12
    assert abs(np.trace(got) - 1.0) < 1e-12


@pytest.mark.parametrize("ds, de", [(1, 3), (2, 2), (3, 2), (4, 4), (8, 4), (8, 8)])
def test_extract_reference_is_the_corner_block_of_the_first_image(ds, de):
    for kind, f in _diagnosed_liftings(ds, de).items():
        corner = basis_images(f)[0, :de, :de].copy()
        for got in (extract_reference(f), analysis_report(f).reference):
            assert got.flags.c_contiguous and got.base is None, kind
            assert np.array_equal(got.view(np.uint64), corner.view(np.uint64)), kind


def test_extract_reference_reads_one_column_at_the_ceiling():
    f = product_lifting(random_density(2, seed=16), 32)
    corner = basis_images(f)[0, :2, :2].copy()
    tracemalloc.start()
    try:
        got = extract_reference(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.view(np.uint64), corner.view(np.uint64))
    assert peak < 2**20  # one 64 x 64 image, where the image stack takes 64 MiB


# --- positivity witness search ------------------------------------------------


def test_witness_search_product_is_clean():
    f = product_lifting(random_density(2, seed=19), 3)
    assert positivity_witness_search(f) is None


def test_witness_search_finds_perturbation():
    d = random_density(2, seed=20)
    f = perturbed_product_lifting(d, 3, 1e-2, seed=21)
    got = positivity_witness_search(f)
    assert isinstance(got, ViolatesPositivity)
    assert got.min_eigenvalue < 0
    # confirm independently: the image of the witness state is negative
    w = apply_lifting(f, got.witness)
    assert np.linalg.eigvalsh((w + w.conj().T) / 2)[0] < 0
    # and the witness input is a genuine state
    assert abs(np.trace(got.witness) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(got.witness)[0] > -1e-12


def _on_one_pair(state):
    """Whether a state is rank one and supported on one span{e_k, e_l}, as every
    member of the witness family, basis member or pair seed, is."""
    used = np.flatnonzero(np.any(state != 0, axis=0) | np.any(state != 0, axis=1))
    return len(used) <= 2 and np.linalg.eigvalsh(state)[-2] <= 1e-12


def test_witness_found_on_one_pair_span():
    # the basis members and the pair seeds are states on one pair span
    for k in range(20):
        d = random_density(2, seed=400 + k)
        f = perturbed_product_lifting(d, 3, 1e-2, seed=500 + k)
        verdict = analyze(f)
        assert isinstance(verdict, ViolatesPositivity)
        assert _on_one_pair(verdict.witness)


def _directional_perturbation(ds, de, target, image):
    """Map the Hermitian basis element `target` to `image`, all others to zero."""
    from statelift.states import hermitian_basis

    src = hermitian_basis(ds)
    g_cols = np.column_stack([vec(h) for h in src])
    coeffs = np.linalg.solve(g_cols, vec(target))
    idx = int(np.argmax(np.abs(coeffs)))
    assert abs(coeffs[idx] - 1.0) < 1e-12  # target must be a family member
    dual_rows = np.linalg.inv(g_cols)
    return np.outer(vec(image), dual_rows[idx])


def test_witness_search_catches_structured_violations():
    # perturbations concentrated on a single basis image, breaking one block
    # relation at a time; all must be caught by the structured family alone
    from statelift import basis_g_star

    ds, de = 2, 2
    d = random_density(de, seed=600)
    base = product_lifting(d, ds)
    t_diag = np.diag([1.0, -1.0]).astype(complex)
    t_off = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    cases = [
        (basis_g(0, 1, ds), kron(basis_g(0, 1, ds), t_diag)),      # cross-pair reference
        (basis_g(0, 1, ds), kron(basis_g(0, 1, ds), t_off)),
        (basis_g_star(0, 1, ds), kron(basis_g_star(0, 1, ds), t_diag)),  # star phases
        (basis_g_star(0, 1, ds), kron(basis_g_star(0, 1, ds), t_off)),
        (basis_g(1, 1, ds), kron(basis_g(1, 1, ds), t_diag)),      # diagonal corner
        (basis_g(0, 1, ds), kron(np.diag([1.0, -1.0]).astype(complex), t_diag)),  # asymmetry
    ]
    for target, image in cases:
        delta = _directional_perturbation(ds, de, target, image)
        f = Lifting(ds, de, base.matrix + 1e-2 * delta)
        # images of Hermitian inputs stay Hermitian and the trace constraint holds
        assert check_hermiticity_preserving(f) < 1e-12
        assert check_trace_constraint(f) < 1e-12
        verdict = analyze(f)
        assert isinstance(verdict, ViolatesPositivity)
        assert _on_one_pair(verdict.witness)
        _assert_same_witness(verdict, positivity_witness_search_loops(f))


def test_witness_search_mixture_is_clean():
    f1 = product_lifting(random_density(2, seed=22), 2)
    f2 = product_lifting(random_density(2, seed=23), 2)
    mix = Lifting(2, 2, 0.5 * f1.matrix + 0.5 * f2.matrix)
    assert positivity_witness_search(mix) is None


def _lifting_of_kind(kind, ds, de, seed):
    d = random_density(de, seed=seed)
    if kind == "product":
        return product_lifting(d, ds)
    if kind == "kraus_local":
        v = unitary_from_hamiltonian(random_hermitian(de, seed=seed + 1), 1.0)
        return kraus_lifting([np.kron(np.eye(ds), v)], d, ds)
    if kind == "perturbed":
        return perturbed_product_lifting(d, ds, 1e-2, seed=seed + 2)
    if kind == "transpose":
        # rho -> rho^T (x) D is positive but not completely positive
        m = product_lifting(d, ds).matrix.reshape(-1, ds, ds).transpose(0, 2, 1)
        return Lifting(ds, de, m.reshape(-1, ds * ds))
    if kind == "large":
        # rounding noise in its images outweighs tol: only the exact path decides
        return Lifting(ds, de, 1e7 * product_lifting(d, ds).matrix)
    u = unitary_from_hamiltonian(random_hermitian(ds * de, seed=seed + 3), 1.0)
    return kraus_lifting([u], d, ds)


def _lifting_from_images(ds, de, images):
    """The lifting that maps the i-th Hermitian basis member to images[i]."""
    g_cols = np.column_stack([vec(h) for h in hermitian_basis(ds)])
    return Lifting(ds, de, np.column_stack([vec(w) for w in images]) @ np.linalg.inv(g_cols))


def _assert_same_witness(got, want):
    """The same verdict of the search: a witness at a basis member keeps its bits.  A pair
    seed is an eigenvector, and the oracle reads it from a block of its own, so a seed
    witness agrees to within rounding over the block's eigenvalue gap, which is of the
    size of the perturbation: 1e-6 entrywise, and its eigenvalue to a relative 1e-6."""
    if want is None:
        assert got is None
    else:
        assert got is not None
        basis = _basis(len(want.witness)).members
        if any(np.array_equal(want.witness, g / np.trace(g).real) for g in basis):
            assert np.array_equal(got.witness, want.witness)
            assert got.min_eigenvalue == want.min_eigenvalue
        else:
            assert _on_one_pair(got.witness)
            assert np.max(np.abs(got.witness - want.witness)) <= 1e-6
            assert got.min_eigenvalue == pytest.approx(want.min_eigenvalue, rel=1e-6)


@pytest.mark.parametrize("ds", [1, 2, 5])
def test_witness_family_matches_loops(ds):
    # no pair of this lifting certifies, so the walk visits the whole family: the stacked
    # basis members carry the bits of the members built one at a time, and each pair's seed,
    # read from the block of four images, is the oracle's, read from the matrix-unit parts
    f = perturbed_product_lifting(random_density(2, seed=880 + ds), ds, 1e-2, seed=881 + ds)
    screen = _screen(f)
    assert not any(screen.certifies(q) for q in range(len(_basis(ds).pairs)))
    walked = list(_walk(screen))
    for q, psi, x in walked:
        assert _member_of_pair(x, q, psi, ds)
    got = [x for _, _, x in walked]
    want = list(witness_candidates_loops(f))
    assert len(got) == len(want) == ds * ds + ds * (ds - 1) // 2
    assert [x.tobytes() for x in got[: ds * ds]] == [x.tobytes() for x in want[: ds * ds]]
    for x, y in zip(got[ds * ds :], want[ds * ds :]):
        assert _on_one_pair(x) and np.max(np.abs(x - y)) <= 1e-12


@pytest.mark.parametrize("ds, de", [(2, 3), (4, 4), (8, 4), (8, 8)])
@pytest.mark.parametrize(
    "kind", ["product", "kraus_local", "perturbed", "entangling", "large", "transpose"]
)
def test_witness_search_matches_loops(kind, ds, de):
    f = _lifting_of_kind(kind, ds, de, seed=700 + ds * de)
    want = positivity_witness_search_loops(f)
    if kind == "large":
        # the pair blocks' lowest eigenvalue, 0, is degenerate, so no seed is fixed by the
        # lifting and rounding decides: the oracle walks the search's own seeds
        screen = _screen(f)
        seeds = [screen.seed(q)[1] for q in range(len(_basis(ds).pairs))]
        want = first_witness_loops(f, [*hermitian_basis(ds), *seeds])
    _assert_same_witness(positivity_witness_search(f), want)


# At (4, 4) members 0, 1, 3 and 15 are g_00, g_01, g_03 and g*_23, the last one.  g_00
# comes first; the plant leaves uncertified the pairs whose images it moves, and the basis
# members of those pairs, then their seeds, follow, each cleared or evaluated on its own.
@pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3])
@pytest.mark.parametrize("member", [0, 1, 3, 15])
def test_witness_search_planted_in_basis(member, scale):
    ds, de = 4, 4
    d = random_density(de, seed=800)
    basis = hermitian_basis(ds)
    images = [kron(g, d) for g in basis]
    g = basis[member]
    # a kernel vector of the rank-one g, times an environment unit vector
    v = np.kron(np.linalg.eigh(g)[1][:, 0], np.eye(de)[0])
    mu = scale * tolerances.psd * np.trace(g).real
    images[member] = images[member] - mu * np.outer(v, v.conj())
    f = _lifting_from_images(ds, de, images)
    got = positivity_witness_search(f)
    _assert_same_witness(got, positivity_witness_search_loops(f))
    if scale > 1:
        assert np.array_equal(got.witness, g / np.trace(g).real)
        assert got.min_eigenvalue == pytest.approx(-scale * tolerances.psd, rel=1e-6)


def _member_of_pair(x, q, psi, ds):
    """Whether x / tr x is psi psi^dagger on span{e_k, e_l} of the q-th pair (on e_0 at q = -1)."""
    b, v = _basis(ds), np.zeros(ds, dtype=complex)
    if q < 0:
        assert ds == 1 and psi[1] == 0
        v[0] = psi[0]
    else:
        v[[b.k[q], b.l[q]]] = psi
    return np.allclose(x / np.trace(x).real, np.outer(v, v.conj()), rtol=0, atol=1e-15)


def _screen(f):
    images = basis_images(f)
    return _Screen(f, images, _hermiticity_deviations(images))


def _pairs(ds):
    """The position q of each pair (k, l) in the pair table."""
    return {(k, l): q for q, (k, l) in enumerate(zip(_basis(ds).k.tolist(), _basis(ds).l.tolist()))}


@pytest.mark.parametrize("ds, de", [(2, 3), (4, 4), (8, 4)])
def test_pair_certificates_of_product_and_transposed_liftings(ds, de):
    # the Choi blocks of rho -> rho (x) D are positive, those of its transpose
    # rho -> rho^T (x) D are not, though the transpose maps states to states
    product = _lifting_of_kind("product", ds, de, seed=820)
    transpose = _lifting_of_kind("transpose", ds, de, seed=820)
    pairs = list(_pairs(ds).values())
    assert len(pairs) == ds * (ds - 1) // 2
    assert all(_screen(product).certifies(q) for q in pairs)
    assert not any(_screen(transpose).certifies(q) for q in pairs)


@pytest.mark.parametrize("kind", ["product", "kraus_local", "perturbed", "transpose", "generic"])
@pytest.mark.parametrize("ds, de", [(2, 3), (4, 4), (8, 4)])
def test_pair_block_from_four_images_matches_matrix_unit_parts(ds, de, kind):
    # the block is read from F(g_kk), F(g_ll), F(g_kl) and F(g*_kl); the oracle
    # takes the Hermitian parts of the matrix-unit images.  They differ by the
    # images' Hermiticity deviations (at most 1.25 sum dev_j over the four) and
    # by rounding, about 25 u N for the images and the recombination and u N
    # for the oracle, where N sums the norms of the pair's four columns
    if kind == "generic":  # a lifting that does not preserve Hermiticity
        rng = philox_rng(822)
        shape = ((ds * de) ** 2, ds * ds)
        f = Lifting(ds, de, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    else:
        f = _lifting_of_kind(kind, ds, de, seed=821)
    screen = _screen(f)
    for q, (k, l) in enumerate(zip(*np.triu_indices(ds, 1))):
        units = [k * ds + k, k * ds + l, l * ds + k, l * ds + l]
        bound = (1.25 * screen.deviations[_basis(ds).pairs[q]].sum()
                 + 13 * np.finfo(float).eps * screen.norms[units].sum())
        assert np.linalg.norm(screen.block(q) - pair_block_parts(f, k, l)) <= bound


def test_pair_certificates_wait_for_the_walk(monkeypatch):
    # a witness among the basis members costs no pair factorization
    tried = []
    certifies = _Screen.certifies

    def counted(screen, q):
        tried.append((int(screen.basis.k[q]), int(screen.basis.l[q])))
        return certifies(screen, q)

    monkeypatch.setattr(_Screen, "certifies", counted)
    d = random_density(4, seed=830)
    got = positivity_witness_search(perturbed_product_lifting(d, 4, 1e-2, seed=831))
    assert np.array_equal(got.witness, hermitian_basis(4)[0])
    assert tried == []
    assert positivity_witness_search(product_lifting(d, 4)) is None
    assert tried == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call records its arguments, then runs; returns the record."""
    calls, wrapped = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("ds, de", [(4, 4), (8, 8)])
def test_a_witness_at_member_0_tries_no_certificate(ds, de, monkeypatch):
    # nogo's eps-1e-2 trials find their witness at g_00, before any pair is certified
    certified = _count_calls(monkeypatch, _Screen, "certifies")
    d = random_density(de, seed=840)
    for seed in range(841, 844):
        f = perturbed_product_lifting(d, ds, 1e-2, seed=seed)
        for got in (analysis_report(f).verdict, positivity_witness_search(f)):
            assert np.array_equal(got.witness, hermitian_basis(ds)[0])
    assert certified == []


@pytest.mark.parametrize("kind", ["product", "kraus_local"])
@pytest.mark.parametrize("ds, de", [(2, 2), (3, 2), (4, 4), (8, 4)])
def test_a_certified_right_inverse_screens_g00_and_no_random_density(kind, ds, de, monkeypatch):
    # g_00 clears without an exact evaluation; then the analyzer's walk stops at the product
    # bound, and a search of its own certifies every pair, so every other basis member is
    # covered, and no pair seed (nor any other member off the basis) is built
    tested = _count_calls(monkeypatch, _Screen, "clears")
    exact = _count_calls(monkeypatch, liftings, "apply_lifting")
    monkeypatch.setattr(_Screen, "seed", lambda screen, q: pytest.fail("built a pair seed"))
    f = _lifting_of_kind(kind, ds, de, seed=850 + ds * de)
    assert isinstance(analysis_report(f).verdict, Product)
    assert positivity_witness_search(f) is None  # with a screen of its own
    assert len(tested) == 2 and exact == []
    for _, q, psi in tested:  # g_00 = e_0 e_0^dagger on the pair (0, 1)
        assert q == 0 and np.array_equal(psi, [1, 0])


def _env_local_kraus(ds, de, seed):
    """rho -> sum_n K_n (rho (x) D) K_n^dagger for K_1 = sqrt(0.3) Id (x) u and
    K_2 = sqrt(0.7) Id (x) v: the product lifting of 0.3 u D u^dagger + 0.7 v D v^dagger."""
    d = random_density(de, seed=seed)
    u, v = (unitary_from_hamiltonian(random_hermitian(de, seed=seed + i), 1.0) for i in (1, 2))
    return kraus_lifting([np.sqrt(0.3) * np.kron(np.eye(ds), u),
                          np.sqrt(0.7) * np.kron(np.eye(ds), v)], d, ds)


@pytest.mark.parametrize("kind", ["product", "kraus_local", "env_local_kraus"])
@pytest.mark.parametrize("ds, de", [(1, 3), (2, 2), (3, 2), (4, 4), (8, 4)])
def test_the_product_bound_settles_a_product_after_g00(kind, ds, de, monkeypatch):
    # the residual is at rounding level, so after g_00 no certificate, member or seed is tried
    certified = _count_calls(monkeypatch, _Screen, "certifies")
    residuals = _count_calls(monkeypatch, liftings, "_residual")
    if kind == "env_local_kraus":
        f = _env_local_kraus(ds, de, seed=870 + ds * de)
    else:
        f = _lifting_of_kind(kind, ds, de, seed=870 + ds * de)
    verdict = analysis_report(f).verdict
    assert isinstance(verdict, Product)
    assert certified == [] and len(residuals) == 1
    reference = liftings._reference(f)
    want = liftings._residual(ds, basis_images(f), reference)
    assert np.float64(verdict.residual).view(np.uint64) == np.float64(want).view(np.uint64)
    assert np.array_equal(verdict.reference.view(np.uint64), reference.view(np.uint64))


def test_a_near_product_whose_bound_fails_still_walks(monkeypatch):
    # at eps 1e-8 the residual is far above tol / (2 ds (1 + sqrt 2)), so after g_00 the pair
    # is certified, and seeded if it fails, as before the bound
    f = perturbed_product_lifting(random_density(2, seed=883), 2, 1e-8, seed=884)  # not at g_00
    images = basis_images(f)
    screen = _Screen(f, images, _hermiticity_deviations(images), liftings._reference(f))
    assert screen.residual > 1e-9 and not screen.near_product()
    certified = _count_calls(monkeypatch, _Screen, "certifies")
    verdict = analyze(f)
    assert len(certified) == 1
    _assert_same_witness(verdict if isinstance(verdict, ViolatesPositivity) else None,
                         positivity_witness_search_loops(f))


def test_a_witness_at_g00_takes_no_residual(monkeypatch):
    residuals = _count_calls(monkeypatch, liftings, "_residual")
    f = perturbed_product_lifting(random_density(4, seed=882), 4, 1e-2, seed=883)
    assert np.array_equal(analyze(f).witness, hermitian_basis(4)[0])
    assert residuals == []


def test_the_product_bound_keeps_every_verdict_near_its_edge(monkeypatch):
    # near-threshold (2, 2) and (3, 2) trials, where the bound settles some and not others: the
    # verdict, witness bits, eigenvalue and residual are those of the walk without the bound
    decided = []
    near_product = _Screen.near_product

    def recorded(screen):
        decided.append(near_product(screen))
        return decided[-1]

    for eps in (5e-11, 1.4e-10, 1.6e-10, 1e-9):
        for ds in (2, 3):
            for trial in range(12):
                f = _sweep_trial(ds, 2, eps, 890, trial)
                monkeypatch.setattr(_Screen, "near_product", lambda screen: False)
                want = analyze(f)
                monkeypatch.setattr(_Screen, "near_product", recorded)
                got = analyze(f)
                assert type(got) is type(want)
                if isinstance(want, ViolatesPositivity):
                    assert np.array_equal(got.witness.view(np.uint64), want.witness.view(np.uint64))
                    assert got.min_eigenvalue == want.min_eigenvalue
                else:
                    assert got.residual == want.residual
    assert 0 < sum(decided) < len(decided)


def _planted_trace_lifting(ds, de, delta, r, unit):
    """The product lifting of the dyadic D = diag(1/2, 1/4, ..., 2^-(de - 1), 2^-(de - 1)), whose
    diagonal sums to 1 without rounding, with y = delta r (x) e_0 e_0^T added to F(E_kl), for
    unit = (k, l), and y^dagger to F(E_lk) when k != l."""
    d = np.diag(np.append(0.5 ** np.arange(1, de), 0.5 ** (de - 1))).astype(complex)
    m = product_lifting(d, ds).matrix.copy()
    y, (k, l) = delta * kron(r, np.diag(np.eye(de)[0])), unit
    m[:, l * ds + k] += vec(y)  # column c*ds + r holds F(E_rc)
    if k != l:
        m[:, k * ds + l] += vec(y.conj().T)
    return Lifting(ds, de, m)


@pytest.mark.parametrize("ds, de", [(2, 2), (3, 2), (8, 4)])
@pytest.mark.parametrize("shape, scale, svds", [("unitary", 1 - 1e-6, 0), ("unitary", 1 + 1e-6, 1),
                                                ("rank_one", None, 1)])
def test_the_trace_screen_keeps_the_exact_verdict(ds, de, shape, scale, svds, monkeypatch):
    tol = tolerances.trace
    star = ds * (ds + 1) // 2  # g*_01
    if shape == "unitary":
        # i delta s (x) e_0 e_0^T in F(E_01), s = E_01 + diag(0, 0, 1/2, ..., 1/2): g*_01's residual
        # is -delta P, P the swap of e_0 and e_1, a Hermitian unitary, so ||.||_1 = sqrt(ds)
        # ||.||_F, the bound's tight case; g_01's is i delta (E_01 - E_10), and the rest are 0.
        # Each lands on a zero real or imaginary part of g, so all are exact
        s = np.diag(np.r_[0.0, 0.0, np.full(ds - 2, 0.5)])
        s[0, 1] = 1
        f, nuclear = _planted_trace_lifting(ds, de, scale * tol / ds, 1j * s, (0, 1)), scale * tol
    else:  # rank one, ||.||_1 = ||.||_F in the band (tol / sqrt(ds), tol] that the SVD decides
        nuclear = tol * (1 + ds**-0.5) / 2
        f = _planted_trace_lifting(ds, de, nuclear, np.diag(np.eye(ds)[-1]), (0, 0))
    exact = check_trace_constraint(f)  # one SVD per basis member, the exact path
    assert exact == pytest.approx(nuclear, rel=1e-12 if shape == "unitary" else 1e-5)
    taken = _count_calls(monkeypatch, np.linalg, "svd")
    report = analysis_report(f)
    assert len(taken) == svds
    assert isinstance(report.verdict, ViolatesTrace) == (exact > tol)
    assert np.float64(report.trace_deviation).view(np.uint64) == np.float64(exact).view(np.uint64)
    assert len(taken) == 1  # read from the report, or taken once where the screen settled it
    if isinstance(report.verdict, ViolatesTrace):
        assert report.verdict.max_deviation == exact
        basis = hermitian_basis(ds)
        assert any(np.array_equal(report.verdict.witness, basis[j]) for j in (1, star))


def test_an_eps_1e2_nogo_trial_takes_no_svd(monkeypatch):
    taken = _count_calls(monkeypatch, np.linalg, "svd")
    assert no_go_sweep(8, 4, 1, 1e-2, seed=1).counts["violates_positivity"] == 1
    assert taken == []


def _late_witness(member, scale):
    """F(g) = g (x) D + c (k k^dagger) (x) X at (3, 2), with g the given basis member, k in
    its kernel and tr X = 0, keeps F Hermitian and a right inverse of tr_E; g / tr g maps to
    -scale * tol on k (x) e_1.  Returns F and g."""
    ds, de = 3, 2
    d = random_density(de, seed=860)
    basis = hermitian_basis(ds)
    g = basis[member]
    k = np.linalg.eigh(g)[1][:, 0]
    images = [kron(h, d) for h in basis]
    images[member] = images[member] + scale * tolerances.psd * np.trace(g).real * kron(
        np.outer(k, k.conj()), np.diag([1.0, -1.0]))
    return _lifting_from_images(ds, de, images), g


# At (3, 2) the basis is g_00, g_01, g_02, g_11, g_12, g_22, g*_01, g*_02, g*_12.
@pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3])
@pytest.mark.parametrize("member", [1, 3, 5, 8])
def test_a_right_inverse_with_a_late_basis_witness(member, scale, monkeypatch):
    ds = 3
    certified = _count_calls(monkeypatch, _Screen, "certifies")
    f, g = _late_witness(member, scale)
    report = analysis_report(f)
    assert report.hermiticity_deviation <= tolerances.hermitian
    assert report.trace_deviation <= tolerances.trace
    _assert_same_witness(positivity_witness_search(f), positivity_witness_search_loops(f))
    if scale > 1:
        _assert_same_witness(report.verdict, positivity_witness_search_loops(f))
        assert np.array_equal(report.verdict.witness, g / np.trace(g).real)
    # one certificate per pair and search, whatever the witness
    assert len(certified) == 2 * len(_basis(ds).pairs)


def _sweep_trial(ds, de, eps, seed, trial):
    """Trial `trial` of no_go_sweep(ds, de, ..., eps, seed)."""
    d_seed, p_seed = spawn_seeds(seed, trial + 1)[trial].spawn(2)
    d = random_density(de, seed=philox_rng(d_seed))
    return perturbed_product_lifting(d, ds, eps, philox_rng(p_seed))


# trial 54 was inconclusive and trial 8 of seed 1 product before the seeds, when no member
# of the grid-and-backstop family mapped below -tol
@pytest.mark.parametrize("seed, trial, eps, kind", [(7, 54, 1e-8, ViolatesPositivity),
                                                    (1, 8, 1e-8, ViolatesPositivity),
                                                    (1, 0, 1e-9, Product)])
def test_a_near_threshold_lifting_with_uncertified_pairs_walks_their_seeds(
        seed, trial, eps, kind, monkeypatch):
    # no_go_sweep(2, 2, ..., eps, seed)'s trial: no basis member maps below -tol, and the
    # one pair is not certified, so its seed is walked
    built = _count_calls(monkeypatch, _Screen, "seed")
    f = _sweep_trial(2, 2, eps, seed, trial)
    assert not _screen(f).certifies(0)
    assert isinstance(analyze(f), kind)
    assert len(built) == 1


# The trials of no_go_sweep(2, 2, ..., eps, seed) that came back inconclusive at a
# first-order violation before the pair seeds: (seed, eps, trial)
_FALSIFIERS = [(7, 1e-8, 54), (1, 8e-9, 1943), (1, 1e-8, 1943), (2, 1e-8, 245), (2, 1e-8, 793),
               (3, 1e-8, 366), (3, 1e-8, 625), (3, 1e-8, 1027), (3, 1e-8, 1788), (3, 1e-8, 1866)]


@pytest.mark.parametrize("seed, eps, trial", _FALSIFIERS)
def test_first_order_falsifiers_violate_positivity(seed, eps, trial):
    f = _sweep_trial(2, 2, eps, seed, trial)
    assert product_residual(f, extract_reference(f)) > tolerances.residual
    verdict = analyze(f)
    assert isinstance(verdict, ViolatesPositivity)
    assert verdict.min_eigenvalue < -tolerances.psd
    w = apply_lifting(f, verdict.witness)
    assert np.linalg.eigvalsh((w + w.conj().T) / 2)[0] == verdict.min_eigenvalue


def test_the_seed_starts_at_the_conjugate_of_the_top_singular_vector():
    # Herm F(psi psi^dagger) = V^dagger B V with V w = conj(psi) (x) w, so the lowest
    # eigenvector of B, read as 2 x n, is reached at psi = conj(u_1).  At the seed-7 sweep's
    # trial 54 that start reaches -0.270 r, the other orientation, psi = u_1, only -0.163 r,
    # and the compass search from the start -0.285 r
    f = _sweep_trial(2, 2, 1e-8, 7, 54)
    r = product_residual(f, extract_reference(f))
    screen = _screen(f)
    b = screen.block(0).T
    b = (b + b.conj().T) / 2
    u = np.linalg.svd(np.linalg.eigh(b)[1][:, 0].reshape(2, screen.dim))[0][:, 0]

    def depth(psi):
        w = apply_lifting(f, np.outer(psi, psi.conj()))
        exact = np.linalg.eigvalsh((w + w.conj().T) / 2)[0]
        vmat = np.kron(np.conj(psi)[:, None], np.eye(screen.dim))
        assert np.linalg.eigvalsh(vmat.conj().T @ b @ vmat)[0] == pytest.approx(exact, abs=1e-15)
        return exact / r

    assert depth(u.conj()) == pytest.approx(-0.270, abs=1e-3)
    assert depth(u) == pytest.approx(-0.163, abs=1e-3)
    psi, seed = screen.seed(0)
    assert _member_of_pair(seed, 0, psi, 2)
    assert depth(psi) == pytest.approx(-0.285, abs=1e-3)


# no_go_sweep's trials near the residual threshold, where the family's
# witnesses are at most a few tol deep, and at eps 1e-9, where every pair of
# most trials certifies and no seed is built
_NEAR_THRESHOLD = [((2, 2), 1e-8, 120), ((2, 2), 2e-8, 40), ((2, 2), 5e-8, 40),
                   ((3, 2), 1e-8, 50), ((2, 2), 1e-9, 30), ((3, 2), 1e-9, 20)]


def _near_threshold_corpus():
    for (ds, de), eps, trials in _NEAR_THRESHOLD:
        for child in spawn_seeds(870, trials):
            d_seed, p_seed = child.spawn(2)
            d = random_density(de, seed=philox_rng(d_seed))
            yield ds, de, perturbed_product_lifting(d, ds, eps, philox_rng(p_seed))


def test_near_threshold_corpus_matches_the_full_family_oracle(monkeypatch):
    built = _count_calls(monkeypatch, _Screen, "seed")
    names, unseeded = [], 0
    for ds, de, f in _near_threshold_corpus():
        before = len(built)
        got = analysis_report(f).verdict
        # the oracle path: the Hermiticity and trace checks, one member of the full
        # family at a time, then the residual
        images = basis_images_per_member(f)
        assert max(hermiticity_deviations_loops(images)) <= tolerances.hermitian
        assert max(trace_norm_gram(ptrace_env_loops(w, ds, de) - g)
                   for g, w in zip(hermitian_basis(ds), images)) <= tolerances.trace
        want = positivity_witness_search_loops(f)
        if want is None:
            images = basis_images(f)
            residual = residual_loops(ds, images, images[0, :de, :de].copy())
            assert type(got) is (Product if residual <= tolerances.residual else Inconclusive)
            assert got.residual == residual
            unseeded += len(built) == before
        else:
            _assert_same_witness(got, want)
        names.append(type(got).__name__)
    assert len(names) == 300 and unseeded > 0
    assert {"Product", "ViolatesPositivity"} <= set(names)


def test_near_threshold_corpus_against_the_grid_walk():
    # against the grid-and-backstop walk that the pair seeds replaced, every difference is a
    # witness that moved or a verdict that became violates_positivity: no witness is lost
    moved, flipped = [], []
    for i, (ds, de, f) in enumerate(_near_threshold_corpus()):
        got, grid = analysis_report(f).verdict, grid_witness_search_loops(f)
        if grid is not None:
            assert isinstance(got, ViolatesPositivity), i
            if np.array_equal(got.witness, grid.witness):
                assert got.min_eigenvalue == grid.min_eigenvalue
            else:
                moved.append(i)
        elif isinstance(got, ViolatesPositivity):
            flipped.append(i)
    # with numpy 2.4.6 and OpenBLAS 0.3.31, three witnesses move, at trials 15, 37 and 54
    # of the corpus, and no verdict flips
    assert moved and len(moved) + len(flipped) <= 15


def _exact_min_eigenvalue(f, x):
    w = apply_lifting(f, x / np.trace(x).real)
    return np.linalg.eigvalsh((w + w.conj().T) / 2)[0]


def test_the_member_test_clears_no_member_below_tol():
    # every basis member and every walked pair seed that the member test clears stays above
    # -tol on the exact path: near-threshold liftings, whose members sit within a few tol of
    # it, the (3, 2) sweep at eps 4e-9, where uncertified pairs share a g_kk, and (8, 8)
    # trials, whose pair blocks are 128 x 128
    corpus = [f for _, _, f in _near_threshold_corpus()]
    corpus += [_sweep_trial(3, 2, 4e-9, 1, trial) for trial in range(200)]
    corpus += [_sweep_trial(8, 8, eps, 1, trial) for eps in (1e-8, 2e-8) for trial in (0, 1)]
    cleared = []
    for f in corpus:
        screen = _screen(f)
        b = screen.basis
        seeds = [(q, *screen.seed(q)) for q in range(len(b.pairs)) if not screen.certifies(q)]
        for q, psi, x in [*zip(b.pair, b.psi, b.members), *seeds]:
            if screen.clears(q, psi):
                cleared.append(_exact_min_eigenvalue(f, x) / tolerances.psd)
    assert len(cleared) > 2000 and min(cleared) >= -1
    # the shift tol/2 lets members down to about -tol/2 through, and these liftings reach it
    assert min(cleared) < -0.4


@pytest.mark.parametrize("member", [0, 1, 3, 5, 8])
def test_the_member_test_keeps_a_member_below_tol(member):
    f, g = _late_witness(member, 1 + 1e-3)
    screen = _screen(f)
    b = screen.basis
    assert _exact_min_eigenvalue(f, g) < -tolerances.psd
    assert not screen.clears(b.pair[member], b.psi[member])


# At (4, 4) the grid walk held 80 boundary mixtures of the pair (1, 2): plain
# and star at each of its 40 values of t.  Member 0 is the plain one at the first
# t, member 79 the star one at the last t.
@pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3])
@pytest.mark.parametrize("member", [0, 79])
def test_witness_search_planted_in_pair_mixture(member, scale):
    ds, de, k, l = 4, 4, 1, 2
    pair = _pairs(ds)[(k, l)]
    x = list(grid_witness_candidates_loops(ds))[ds * ds + 80 * pair + member]
    x = x / np.trace(x).real
    # psi spans the member's range, chi its kernel on span{e_k, e_l}; the
    # functional tr(A y) is 1 at the member and falls off fast around it, also
    # at the basis members g_kk and g_ll, which are close to the ends of the curve
    vecs = np.zeros((ds, 2), dtype=complex)
    vecs[[k, l]] = np.linalg.eigh(x[np.ix_([k, l], [k, l])])[1]
    chi, psi = vecs.T
    a = np.outer(psi, psi.conj()) - 1e5 * np.outer(chi, chi.conj())
    # w lies in the kernel of every y (x) D, so F(y) has the eigenvalue -c tr(A y), and the
    # pair's Choi block its lowest eigenvalue, -c, at conj(psi) (x) w: the seed is x
    d = np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex)
    w = np.kron(np.eye(ds)[0], np.eye(de)[3])
    c = scale * tolerances.psd
    images = [kron(g, d) - c * np.trace(a @ g).real * np.outer(w, w)
              for g in hermitian_basis(ds)]
    f = _lifting_from_images(ds, de, images)
    screen = _screen(f)
    assert not screen.certifies(pair)
    got = positivity_witness_search(f)
    _assert_same_witness(got, positivity_witness_search_loops(f))
    if scale > 1:
        seed = screen.seed(pair)[1]
        assert np.array_equal(got.witness, seed / np.trace(seed).real)
        assert np.max(np.abs(got.witness - x)) <= 1e-12
        assert got.min_eigenvalue == pytest.approx(-scale * tolerances.psd, rel=1e-6)
    else:
        assert got is None


@pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3])
@pytest.mark.parametrize("column", [1, 2])
def test_witness_search_planted_in_hermiticity_defect(column, scale):
    # F(E_10) (column 1) or F(E_01) (column 2) is stretched by 1 + c, with c of
    # the size of tol: the Hermitian part of the image of g_01 / 2 has the
    # eigenvalue -c/4, which one triangle of that image does not show
    m = product_lifting(np.eye(1), 2).matrix.copy()
    m[:, column] *= 1 + 4 * scale * tolerances.psd
    f = Lifting(2, 1, m)
    got = positivity_witness_search(f)
    _assert_same_witness(got, positivity_witness_search_loops(f))
    if scale > 1:
        assert np.array_equal(got.witness, basis_g(0, 1, 2) / 2)
        assert got.min_eigenvalue == pytest.approx(-scale * tolerances.psd, rel=1e-6)


@pytest.mark.parametrize("entry", [1, 2])
def test_witness_search_planted_in_pair_hermiticity_defect(entry):
    # F(E_00) = E_00 + c E_10 (entry 1) or E_00 + c E_01 (entry 2), with c =
    # 3.6 tol, for the identity map: the basis members stay above -0.9 tol,
    # while the Hermitian part of the image of a state psi psi^dagger of the pair
    # (0, 1) near |a|^2 = 3/4 has the eigenvalue -c |a|^3 |b|, down to -1.17 tol.  The
    # lower triangle of the Choi block, which Cholesky reads, shows c in one of
    # the two cases only
    m = product_lifting(np.eye(1), 2).matrix.copy()
    m[entry, 0] = 3.6 * tolerances.psd
    f = Lifting(2, 1, m)
    assert not _screen(f).certifies(_pairs(2)[(0, 1)])
    got = positivity_witness_search(f)
    _assert_same_witness(got, positivity_witness_search_loops(f))
    assert got.witness[0, 1] != 0 and got.witness[0, 0] != got.witness[1, 1]


def test_witness_family_members_equal_their_adjoints():
    # a witness is a state, so every member equals its adjoint exactly: the pair seeds
    # are Hermitized, as the diagonal of an outer product can carry imaginary bits where
    # numpy's complex multiply fuses its products.  No pair of these liftings certifies
    for ds in range(1, 9):
        for kind in ("perturbed", "transpose"):
            walked = list(_walk(_screen(_lifting_of_kind(kind, ds, 2, seed=870 + ds))))
            for _, _, x in walked:
                assert np.array_equal(x, x.conj().T)
            assert len(_basis(ds).pairs) == len(walked) - ds * ds
    # the seed-7 sweep's trial 54, whose witness is its one pair's seed
    f = _sweep_trial(2, 2, 1e-8, 7, 54)
    got, seed = analyze(f), _screen(f).seed(0)[1]
    assert np.array_equal(got.witness, seed / np.trace(seed).real)
    assert np.array_equal(got.witness, got.witness.conj().T)
    w = apply_lifting(f, got.witness)
    assert got.min_eigenvalue == np.linalg.eigvalsh((w + w.conj().T) / 2)[0] < -tolerances.psd


@pytest.mark.parametrize("ds, de", [(2, 3), (3, 2), (8, 4)])
def test_basis_images_match_apply_lifting(ds, de):
    f = perturbed_product_lifting(random_density(de, seed=810), ds, 1e-2, seed=811)
    images = basis_images(f)
    for g, w in zip(hermitian_basis(ds), images):
        assert np.max(np.abs(w - apply_lifting(f, g))) <= 1e-15
    p = product_lifting(random_density(de, seed=812), ds)
    for g, w in zip(hermitian_basis(ds), basis_images(p)):
        assert np.array_equal(w, apply_lifting(p, g))


@pytest.mark.parametrize("ds, de", [(1, 3), (2, 3), (5, 2), (8, 4)])
def test_basis_images_keep_the_per_member_sums(ds, de):
    rng = philox_rng(813)
    shape = ((ds * de) ** 2, ds * ds)
    f = Lifting(ds, de, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    want = basis_images_per_member(f)
    got = np.ascontiguousarray(basis_images(f))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_basis_images_memory_stays_near_the_output():
    f = product_lifting(random_density(4, seed=814), 16)
    basis_images(f)
    tracemalloc.start()
    try:
        out = basis_images(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # images are written into the output a row of pairs at a time
    assert peak <= 1.5 * out.nbytes


# --- structure diagnostics ------------------------------------------------------


def test_structure_report_product_is_exact():
    f = product_lifting(random_density(2, seed=24), 3)
    report = structure_report(f)
    assert report.max_deviation == 0.0


def test_structure_report_mixture():
    f1 = product_lifting(random_density(3, seed=25), 2)
    f2 = product_lifting(random_density(3, seed=26), 2)
    mix = Lifting(2, 3, 0.4 * f1.matrix + 0.6 * f2.matrix)
    assert structure_report(mix).max_deviation < 1e-10


def test_structure_report_flags_violations():
    d = random_density(2, seed=27)
    f = perturbed_product_lifting(d, 3, 1e-2, seed=28)
    assert structure_report(f).max_deviation > 1e-6


def _diagnosed_liftings(ds, de):
    """Liftings of every verdict, with the kinds whose every diagnostic is nonzero."""
    d = random_density(de, seed=70)
    stretched = product_lifting(d, ds).matrix.copy()
    stretched[:, min(1, ds * ds - 1)] *= 1 + 1e-6  # F(E_10), or F(E_00) when ds = 1
    kinds = ("product", "kraus_local", "transpose", "entangling")
    return {
        **{kind: _lifting_of_kind(kind, ds, de, 71) for kind in kinds},
        "perturbed 1e-2": perturbed_product_lifting(d, ds, 1e-2, seed=72),
        "perturbed 1e-8": perturbed_product_lifting(d, ds, 1e-8, seed=72),
        "stretched": Lifting(ds, de, stretched),
    }


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _structure_columns(report):
    """Every diagnostic of a report, field by field, with the keys it is read under."""
    columns = {"diag_off_support": report.diag_off_support,
               "diag_reference_mismatch": report.diag_reference_mismatch}
    for field in dataclasses.fields(PairStructure):
        columns[field.name] = {kl: getattr(p, field.name) for kl, p in report.pairs.items()}
    return columns


DIAGNOSED_DIMS = [(1, 3), (2, 2), (3, 2), (2, 3), (4, 4), (8, 4), (4, 8), (8, 8), (16, 4)]


@pytest.mark.parametrize("ds, de", DIAGNOSED_DIMS)
def test_stacked_diagnostics_keep_the_bits_of_the_loops(ds, de):
    for kind, f in _diagnosed_liftings(ds, de).items():
        images = basis_images(f)
        report = analysis_report(f)
        got = _structure_columns(report.structure)
        for name, column in _structure_columns(structure_loops(ds, de, images)).items():
            assert list(got[name]) == list(column), (kind, name)
            assert np.array_equal(_bits(list(got[name].values())), _bits(list(column.values()))), (kind, name)
        if kind == "entangling" and ds > 2:
            # every diagnostic is nonzero, but a's own mismatch with the block it is read from
            values = [v for name, column in got.items() for key, v in column.items()
                      if (name, key) != ("diag_reference_mismatch", 0)]
            assert min(values) > 0
        deviations = hermiticity_deviations_loops(images)
        assert np.array_equal(_bits(_hermiticity_deviations(images)), _bits(deviations)), kind
        assert _bits(report.hermiticity_deviation) == _bits(max(deviations)), kind
        for reference in (extract_reference(f), random_density(de, seed=73)):
            residual = product_residual(f, reference)
            assert _bits(residual) == _bits(residual_loops(ds, images, reference)), kind
            # the residual does not depend on how the reference is laid out
            assert _bits(product_residual(f, np.asfortranarray(reference))) == _bits(residual)


@pytest.mark.parametrize("ds, de", DIAGNOSED_DIMS)
def test_pair_slack_matches_the_dense_spread(ds, de):
    smalls = []
    for kind, f in _diagnosed_liftings(ds, de).items():
        images = basis_images(f)
        screen = _Screen(f, images, _hermiticity_deviations(images))
        assert screen.small.dtype == bool and screen.small.shape == (len(screen.basis.k),)
        assert np.array_equal(screen.small, screen_small_dense(screen)), kind
        smalls.append(screen.small)
    if ds > 1:  # the stretched lifting's deviations exceed the slack
        assert np.concatenate(smalls).any() and not np.concatenate(smalls).all()


# --- analyzer -------------------------------------------------------------------


def test_analyze_product():
    d = random_density(3, seed=29)
    f = product_lifting(d, 3)
    verdict = analyze(f)
    assert isinstance(verdict, Product)
    assert verdict.residual <= 1e-10
    assert trace_norm(verdict.reference - d) <= 1e-10


def test_analyze_convex_mixture():
    d1 = random_density(2, seed=30)
    d2 = random_density(2, seed=31)
    alpha = 0.25
    mix = Lifting(
        3, 2, alpha * product_lifting(d1, 3).matrix + (1 - alpha) * product_lifting(d2, 3).matrix
    )
    verdict = analyze(mix)
    assert isinstance(verdict, Product)
    assert trace_norm(verdict.reference - (alpha * d1 + (1 - alpha) * d2)) < 1e-10


def test_analyze_perturbed_violates_positivity():
    d = random_density(2, seed=32)
    f = perturbed_product_lifting(d, 3, 1e-2, seed=33)
    verdict = analyze(f)
    assert isinstance(verdict, ViolatesPositivity)
    w = apply_lifting(f, verdict.witness)
    assert np.linalg.eigvalsh((w + w.conj().T) / 2)[0] < 0


def test_analyze_entangling_kraus_violates_trace():
    d = random_density(2, seed=34)
    f = kraus_lifting([swap_matrix(2)], d, 2)
    assert isinstance(analyze(f), ViolatesTrace)


def test_analyze_stretched_column_violates_hermiticity():
    # F(E_10) = (1 + 1e-6) E_10 (x) D: the images of g_01 and g*_01 are off
    # their adjoints by 1e-6 sqrt(2) ||D||_F
    d = random_density(2, seed=35)
    m = product_lifting(d, 2).matrix.copy()
    m[:, 1] *= 1 + 1e-6
    report = analysis_report(Lifting(2, 2, m))
    assert isinstance(report.verdict, ViolatesHermiticity)
    assert report.verdict.max_deviation == report.hermiticity_deviation
    assert report.hermiticity_deviation == pytest.approx(
        1e-6 * np.sqrt(2) * np.linalg.norm(d), rel=1e-6)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_analyzer_rejects_a_tol_out_of_range(tol):
    # nan and -1.0 gave inconclusive, inf gave product
    f = product_lifting(random_density(2, seed=1), 2)
    with pytest.raises(ConstraintViolation, match="tol must be finite and nonnegative"):
        analyze(f, tol)
    with pytest.raises(ConstraintViolation, match="tol must be finite and nonnegative"):
        no_go_sweep(2, 2, 1, 1e-2, 1, tol)
    assert isinstance(analyze(f, 0.0), Product)


@pytest.mark.parametrize("trials", [0, 1])
@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_no_go_sweep_checks_tol_before_any_trial(monkeypatch, tol, trials):
    # 0 trials returned an empty outcome, and 1 trial built its perturbation first
    def no_trial(*args):
        raise AssertionError("a trial ran before tol was checked")

    monkeypatch.setattr(liftings, "perturbed_product_lifting", no_trial)
    with pytest.raises(ConstraintViolation, match="tol must be finite and nonnegative"):
        no_go_sweep(2, 2, trials, 1e-2, 1, tol)


def second_order_lifting(delta):
    """F(E_00) = E_00 (x) (D + delta X), F(E_11) = E_11 (x) (D - delta X) and
    F(E_kl) = E_kl (x) D otherwise, with D = diag(.6, .4) and X = diag(1, -1).

    The map is Hermitian and trace-constrained but not positive: the Schur
    complement of its pair block is -delta^2 X D^-1 X, so the witness family
    reaches only about -0.625 delta^2 while the product residual is
    sqrt(12) delta."""
    d, x = np.diag([0.6, 0.4]).astype(complex), np.diag([1.0, -1.0])
    m = product_lifting(d, 2).matrix.copy()
    m[:, 0] += delta * vec(np.kron(np.diag([1.0, 0.0]), x))
    m[:, 3] -= delta * vec(np.kron(np.diag([0.0, 1.0]), x))
    return Lifting(2, 2, m)


def test_analyze_resolution_limit_of_second_order_violations():
    # -0.625e-12 lies inside the psd margin: only the residual and the structure show the defect
    report = analysis_report(second_order_lifting(1e-6))
    assert isinstance(report.verdict, Inconclusive)
    assert report.verdict.residual == pytest.approx(np.sqrt(12) * 1e-6, rel=1e-6)
    assert report.structure.diag_reference_mismatch[1] == pytest.approx(2 * np.sqrt(2) * 1e-6, rel=1e-6)
    # -0.625e-8 lies outside it
    verdict = analysis_report(second_order_lifting(1e-4)).verdict
    assert isinstance(verdict, ViolatesPositivity)
    assert verdict.min_eigenvalue == pytest.approx(-6.25e-9, rel=1e-3)


def test_factorization_property_with_many_random_densities():
    # passing hermiticity + trace + an extended witness sweep forces the
    # product form within the analyzer residual
    d1 = random_density(2, seed=35)
    d2 = random_density(2, seed=36)
    for f in (
        product_lifting(d1, 2),
        Lifting(2, 2, 0.6 * product_lifting(d1, 2).matrix + 0.4 * product_lifting(d2, 2).matrix),
    ):
        assert check_hermiticity_preserving(f) <= 1e-9
        assert check_trace_constraint(f) <= 1e-10
        assert positivity_witness_search(f) is None
        for child in spawn_seeds(7, 1000):
            w = apply_lifting(f, random_density(2, seed=philox_rng(child)))
            assert np.linalg.eigvalsh((w + w.conj().T) / 2)[0] >= -tolerances.psd
        assert product_residual(f, extract_reference(f)) <= 1e-8


# --- diagonal-mixing criterion ----------------------------------------------------


def test_diag_mixing_closed_form_cases():
    assert diag_mixing_positive(0.5, 1.0, 0.5)
    assert not diag_mixing_positive(1.0, 0.5, 1.0)
    for b in (0.0, 0.3, 2.0):
        assert diag_mixing_positive(0.0, b, 0.0)


def test_diag_mixing_scan_cases():
    assert diag_mixing_positive_scan(0.5, 1.0, 0.5)
    assert not diag_mixing_positive_scan(1.0, 0.5, 1.0)  # a > b
    assert not diag_mixing_positive_scan(0.5, 1.0, 0.6)  # a != c
    for b in (0.0, 0.3, 2.0):
        assert diag_mixing_positive_scan(0.0, b, 0.0)


def test_diag_mixing_rejects_negative():
    with pytest.raises(ConstraintViolation, match="a must be nonnegative, got -0.1"):
        diag_mixing_positive(-0.1, 1.0, 0.5)
    with pytest.raises(ConstraintViolation, match="c must be nonnegative, got -inf"):
        diag_mixing_positive(0.5, 1.0, -np.inf)
    with pytest.raises(ConstraintViolation):
        diag_mixing_positive_scan(0.1, -1.0, 0.5)


@pytest.mark.parametrize("a, b, c, name", [
    (np.nan, 1.0, 1.0, "a"), (1.0, np.nan, 1.0, "b"), (1.0, 1.0, np.nan, "c"),
    (np.inf, 1.0, 1.0, "a"), (1.0, np.inf, 1.0, "b"), (1.0, 1.0, np.inf, "c"),
])
def test_diag_mixing_rejects_non_finite(a, b, c, name):
    # NaN passes a v < 0 check
    with pytest.raises(ConstraintViolation, match=f"{name} must be finite, got (nan|inf)"):
        diag_mixing_positive(a, b, c)


def test_diag_mixing_agreement_sweep():
    rng = philox_rng(37)
    for _ in range(500):
        a, b, c = rng.uniform(0.0, 2.0, 3)
        closed = diag_mixing_positive(a, b, c)
        scanned = diag_mixing_positive_scan(a, b, c)
        if closed != scanned:
            assert min(abs(a - c), abs(a - b)) <= 1e-6
        else:
            assert closed == scanned


# --- perturbation construction -----------------------------------------------------


def test_random_perturbation_properties():
    # (8, 8) and (16, 4) are the documented ceiling of composite dimension 64
    for ds, de, seed in [(2, 3, 38), (8, 8, 42), (16, 4, 42)]:
        delta = random_perturbation(ds, de, seed=seed)
        assert abs(np.linalg.norm(delta) - 1.0) < 1e-12
        # annihilated by the trace constraint
        assert np.max(np.abs(ptrace_env_superop(ds, de) @ delta)) < 1e-12
        # Hermitian image of a Hermitian input, with zero partial trace
        img = unvec(delta @ vec(random_hermitian(ds, seed=seed + 1)), ds * de)
        assert np.max(np.abs(img - img.conj().T)) < 1e-12
        assert np.max(np.abs(ptrace_env_loops(img, ds, de))) < 1e-12


@pytest.mark.parametrize("ds, de", [(2, 2), (2, 3), (3, 2), (4, 4), (8, 4)])
def test_random_perturbation_matches_dense_oracle(ds, de):
    for seed in range(5):
        delta = random_perturbation(ds, de, seed=100 + seed)
        dense = random_perturbation_dense(ds, de, seed=100 + seed)
        assert np.max(np.abs(delta - dense)) <= 1e-13


def test_basis_inverse_matches_linalg_inv():
    # values, not bits: np.linalg.inv puts -0.0 at some zeros from ds = 5 on
    for ds in range(1, 9):
        dense = np.linalg.inv(np.column_stack([vec(h) for h in hermitian_basis(ds)]))
        assert np.array_equal(_basis(ds).inverse, dense)


def test_cached_index_maps_are_read_only():
    for ds in range(1, 9):
        for a in (*_basis(ds), *_triangle(ds + 4)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


@pytest.mark.parametrize("ds", range(1, 9))
def test_basis_table_pairs_and_coordinates(ds):
    b = _basis(ds)
    assert np.array_equal(b.members, np.stack(hermitian_basis(ds)))
    assert np.array_equal(b.members[b.diag], np.stack([basis_g(k, k, ds) for k in range(ds)]))
    # the pairs k < l in row-major order, one row each
    assert np.array_equal([b.k, b.l], np.triu_indices(ds, 1)) and len(b.pairs) == len(b.k)
    for row, k, l in zip(b.pairs, b.k, b.l):
        want = [basis_g(k, k, ds), basis_g(l, l, ds), basis_g(k, l, ds), basis_g_star(k, l, ds)]
        assert np.array_equal(b.members[row], np.stack(want))
    # member j over its trace is psi psi^dagger, psi = psi[j] on the span of its pair
    assert len(b.pair) == len(b.psi) == ds * ds
    for x, q, psi in zip(b.members, b.pair, b.psi):
        assert _member_of_pair(x, q, psi, ds)


@pytest.mark.parametrize("ds, de", [(2, 2), (3, 2), (4, 4), (8, 4), (8, 8)])
def test_random_perturbation_bits_match_inv_oracle(ds, de):
    for seed in range(5):
        delta = random_perturbation(ds, de, seed=200 + seed)
        oracle = random_perturbation_inv(ds, de, seed=200 + seed)
        assert np.array_equal(delta.view(np.uint64), oracle.view(np.uint64))


@pytest.mark.parametrize("ds, de", [(2, 2), (3, 2), (4, 4), (8, 4), (8, 8)])
@pytest.mark.parametrize("eps", [1e-2, 1e-8, 0.0])
def test_perturbed_lifting_bits_match_the_dense_sum(ds, de, eps):
    # eps = 0 makes -0.0 products, which the sum with the product lifting's zeros reads
    # as +0.0, and which a -0.0 of the reference keeps
    for seed in range(3):
        d = random_density(de, seed=300 + seed)
        signed = d.copy()
        signed.imag[np.diag_indices(de)] = -0.0
        for ref in (d, signed):
            got = perturbed_product_lifting(ref, ds, eps, seed=310 + seed).matrix
            want = perturbed_product_lifting_sum(ref, ds, eps, seed=310 + seed)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_perturbed_lifting_memory_stays_below_the_dense_sum():
    d = random_density(8, seed=46)
    perturbed_product_lifting(d, 8, 1e-2, seed=47)
    # the lifting is 4 MB at (8, 8); the dense product lifting and the two
    # temporaries of its sum with eps * delta took the peak to 20 MB
    assert _peak_bytes(lambda: perturbed_product_lifting(d, 8, 1e-2, seed=47)) < 16 * 2**20


def test_random_perturbation_memory_stays_below_dense_basis():
    random_perturbation(8, 8, seed=44)
    tracemalloc.start()
    try:
        random_perturbation(8, 8, seed=44)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense composite Hermitian basis alone is 268 MB at (8, 8)
    assert peak < 64 * 2**20


def test_witness_search_memory_stays_near_one_image_stack():
    f = product_lifting(random_density(4, seed=45), 16)
    tracemalloc.start()
    try:
        assert positivity_witness_search(f) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # called alone, the search forms the basis images, f.matrix.nbytes; the
    # Hermiticity deviations' chunks, a pair block and its Cholesky factor add the rest
    assert peak < 1.5 * f.matrix.nbytes


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_witness_search_reads_the_images_it_is_handed():
    f = product_lifting(random_density(2, seed=46), 32)
    screen = _screen(f)
    # 64 MB of images at (32, 2): a copy of the stack, or of its Hermitian
    # parts, would show; a pair's 256 kB block, its Hermitian part and their
    # Cholesky factors take about 1.4 MB
    assert _peak_bytes(lambda: positivity_witness_search(f, screen)) < 4 * 2**20


@pytest.mark.parametrize("ds, de, bound_mb", [(16, 4, 35), (32, 2, 100)])
def test_analysis_report_holds_one_image_stack(ds, de, bound_mb):
    f = product_lifting(random_density(de, seed=47), ds)
    _basis(ds)  # the canonical basis is cached for every later call
    # the images take 16 MB at (16, 4) and 64 MB at (32, 2); a second stack
    # built for the witness screen took the peak to 49 and 148 MB
    assert _peak_bytes(lambda: analysis_report(f)) < bound_mb * 2**20


def test_perturbed_lifting_stays_in_hypothesis_set():
    d = random_density(2, seed=40)
    f = perturbed_product_lifting(d, 3, 1e-2, seed=41)
    assert check_trace_constraint(f) <= 1e-10
    assert check_hermiticity_preserving(f) <= 1e-9
