"""Generalized sampling and recovery of graph signals in the graph
frequency domain."""

__version__ = "0.1.0"

from .bipartite import (
    BipartiteSystem,
    build_system,
    fit_one_branch,
    one_branch_design,
    reconstruct_from_part,
    sample_first_part,
    verify_corollary1,
)
from .chebyshev import ChebyshevFilter, apply_chebyshev, chebyshev_fit
from .errors import (
    ConnectivityFailure,
    DimensionMismatch,
    DsConditionViolated,
    EigensolveFailure,
    IntervalMismatch,
    InvalidParameter,
    IoFailure,
    IsolatedVertex,
    NotBipartite,
    PairingFailure,
    SingularCorrelation,
    SpecSampError,
    UnequalParts,
    ZeroReference,
)
from .experiments import (
    ExperimentConfig,
    ReportGroup,
    emit_report,
    run_bipartite_experiment,
    run_recovery_experiment,
    run_recovery_table,
)
from .filters import (
    SpectralFilter,
    bandlimit,
    cosine_taper,
    exponential_decay,
    from_response,
    identity_filter,
    inverted_ramp,
    linear_decay,
    save_filter,
    smoothness_ramp,
)
from .graphs import (
    Graph,
    VariationOperator,
    combinatorial_laplacian,
    complete_bipartite,
    gen_circular,
    gen_matched_bipartite,
    gen_random_bipartite,
    gen_random_sensor,
    normalized_laplacian,
    save_graph,
)
from .recovery import (
    DsCheck,
    PgsModel,
    RecoveryDesign,
    Strategy,
    check_ds,
    design_smoothness_predefined,
    design_smoothness_unconstrained,
    design_subspace_predefined,
    design_subspace_unconstrained,
    error_gains,
    generate_pgs,
    mse_db,
    pgs_spectrum,
    reconstruct,
    reconstruct_spectrum,
)
from .sampling import (
    SampledSpectrum,
    SamplingConfig,
    frequency_sample,
    sample_spectrum,
    sampled_cross_correlation,
    spectral_fold,
)
from .spectral import SpectralBasis, apply_filter, dft_basis, eigendecompose, gft, igft
