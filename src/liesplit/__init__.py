"""liesplit: exact-arithmetic toolkit for Lie algebra splittings.

Compatible Poisson bracket pencils attached to a splitting q = h + r,
bi-homogeneous decompositions of symmetric invariants, good generating
system tests, index and sphericity estimates, reflection-group
restriction analysis, and the case-study CLI built on top of them.
"""

from .rationals import QQ, qq_str

__version__ = "0.1.0"

from .poly import Polynomial
from .linalg import Matrix, inverse, rank, rank_and_nullspace, solve, solve_many
from .liealg import (
    JacobiError,
    LieAlgebra,
    TriangularData,
    algebra_from_json,
    algebra_to_json,
    build_double,
    build_gl,
    build_sl,
    build_so_even,
    change_basis,
    sub_algebra,
)
from .splitting import (
    BracketParameter,
    Decomposition,
    contract,
    family_bracket,
    horospherical_splitting,
    make_decomposition,
    make_splitting,
    pencil_member,
)
from .poisson import (
    IndexEstimate,
    PoissonTensorSample,
    SphericityReport,
    StabilizerReport,
    generic_stabilizer,
    hamiltonian_field,
    index_estimate,
    poisson_bracket,
    sphericity,
    tensor_at,
)
from .invariants import (
    AksReport,
    GgsReport,
    HilbertBasis,
    aks_restrict,
    bidecompose,
    custom_basis,
    double_shift_basis,
    eliminate_on_subspace,
    ggs_check,
    hilbert_basis,
    jacobian_rank,
    restrict_to_t0,
    transport_basis,
    verify_invariance,
)
from .weyl import (
    RestrictionReport,
    RootSystem,
    SatakeDiagram,
    W0Report,
    WeylGroup,
    build_root_system,
    enumerate_weyl,
    invariant_basis,
    restriction_check,
    satake_subspaces,
    w0_compute,
)
from .zalgebra import (
    CaseParameterError,
    CaseReport,
    SuiteReport,
    available_cases,
    commutativity_suite,
    property_suite,
    run_case,
    z_generators,
)

__all__ = [name for name in dir() if not name.startswith("_")]
