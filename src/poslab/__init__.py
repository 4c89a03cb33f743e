"""poslab: a desk-scale polynomial optimization laboratory.

Sparse polynomial arithmetic with a multinomial-weighted coefficient norm,
sums-of-squares certificate search over quadratic modules and preorderings
(compiled to small dense SDPs solved by operator splitting), hierarchy lower
bounds with independent grid oracles, certificate verification, and
calculators for the known degree/convergence-gap bounds.
"""

from .bounds import (
    BoundInputs,
    DegreeBound,
    GapBound,
    LiftingParameters,
    LojasiewiczFit,
    RoundedCube,
    find_lifting_k,
    gap_bound,
    lifting_parameters,
    lifting_transform,
    lojasiewicz_estimate,
    putinar_degree_bound,
    round_hypercube_degree,
    schmuedgen_degree_bound,
)
from .certificate import (
    PREORDERING,
    QUADRATIC_MODULE,
    Certificate,
    CertificateEntry,
    DisproofReport,
    VerificationReport,
    certificate_from_dict,
    certificate_to_dict,
    extract_squares,
    load_certificate,
    reconstruct,
    round_psd,
    save_certificate,
    verify,
    verify_disproof,
)
from .errors import (
    CapacityError,
    DegenerateFitError,
    DimensionMismatchError,
    InfeasibleAtResolutionError,
    InputError,
    ParseError,
    PoslabError,
    RoundingError,
    SolverError,
)
from .poly import (
    MonomialBasis,
    Polynomial,
    format_polynomial,
    lipschitz_bound,
    monomial_basis,
    multinomial,
    parse_polynomial,
    product_norm_bound,
    rescale,
    sup_bound,
    weighted_norm,
)
from .problemio import ProblemDocument, load_problem, problem_from_dict
from .sdp import SdpProblem, SdpSolution, solve
from .semialg import (
    GridSpec,
    MinimizationResult,
    SemialgebraicSystem,
    contains,
    grid_min,
    rescale_system,
)
from .sos import (
    LasserreResult,
    MembershipProblem,
    MembershipResult,
    archimedean_witness,
    lasserre_bound,
    module_membership,
    preordering_membership,
    sos_decompose,
)

__version__ = "0.1.0"
