"""statelift: partial traces, state liftings, observable reduction, reduced
dynamics, and measure representations for finite-dimensional quantum systems.
"""

from .config import Tolerances, tolerances
from .dynamics import (
    CptpCheck,
    ReducedChannel,
    apply_channel,
    choi_matrix,
    is_cptp,
    reduced_dynamics_from_lifting,
    reduced_dynamics_map,
    unitary_from_hamiltonian,
)
from .errors import ConstraintViolation, DimensionMismatch, FormatError, StateliftError
from .linalg import (
    SpectralDecomposition,
    hermitian_part,
    hermiticity_defect,
    pairing,
    partial_trace_env,
    partial_trace_sys,
    spectral,
    trace_norm,
    unvec,
    vec,
)
from .liftings import (
    AnalysisReport,
    Inconclusive,
    Lifting,
    Product,
    ViolatesHermiticity,
    ViolatesPositivity,
    ViolatesTrace,
    analysis_report,
    analyze,
    apply_lifting,
    basis_images,
    check_hermiticity_preserving,
    check_trace_constraint,
    diag_mixing_positive,
    extract_reference,
    kraus_lifting,
    no_go_sweep,
    perturbed_product_lifting,
    positivity_witness_search,
    product_lifting,
    product_residual,
    random_perturbation,
    structure_report,
    verdict_name,
)
from .measures import (
    EstimateResult,
    GaussianStateSampler,
    WeightedProjectorList,
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
    product_rank,
    split_lift,
)
from .observables import (
    ReductionMap,
    adjoint_lifting,
    apply_reduction,
    check_unit_reduction,
    reduce_observable,
)
from .states import (
    basis_g,
    basis_g_star,
    environment_gram,
    hermitian_basis,
    purify,
    pure_projector,
    random_density,
    random_hermitian,
    validate_density,
)

__version__ = "0.1.0"
