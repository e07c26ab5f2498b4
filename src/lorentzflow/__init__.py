"""Certification and contractive-flow geometry for Lorentzian and real
stable polynomials: combinatorial polynomial bases, exclusion-process
flows on coefficient space, polarization lifts, membership certificates,
support strata, and escape-time ball coordinates.
"""

from .poly import (
    HomPoly,
    MultiAffinePoly,
    SubsetBasis,
    compositions,
    elementary_symmetric,
    hessian_quadratic,
    normalize_at_ones,
    restrict_lines,
    subset_basis,
)
from .strata import (
    BasisFamily,
    ExchangeResult,
    MConvexCandidate,
    StratumReport,
    is_m_convex,
    is_matroid_bases,
    support_stratum,
)
from .sep import (
    FlowOverflowError,
    PeriodicFlowError,
    SepGenerator,
    SpectralDecomposition,
    TranspositionRates,
    build_generator,
    centered_norm,
    eigen_coords,
    equilibrium,
    flow,
    spectral,
    uniform_decomposition,
    uniform_rates,
)
from .polarization import (
    PolarizationPlan,
    lifted_decomposition,
    polarize_up,
    polarized_flow,
    project_down,
    stable_center,
)
from .certify import (
    RootClass,
    RootResult,
    SignatureClass,
    SymmetricSpectrum,
    Verdict,
    VerdictStatus,
    certify_hom,
    certify_multiaffine,
    certify_stable,
    discriminant,
    hermite_matrix,
    lorentzian_signature,
    real_rooted,
    sample_sphere_sumzero,
    symmetric_eigen,
)
from .ballmap import (
    EscapeNotBracketed,
    EscapeTimeResult,
    InfiniteEscape,
    MembershipOracle,
    ball_coordinates,
    capped_lorentzian_oracle,
    escape_time,
    multiaffine_lorentzian_oracle,
    stable_oracle,
    trajectory,
)

__version__ = "0.1.0"
