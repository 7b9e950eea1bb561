"""Continuous evolution algebras as structure-matrix curves on matrix Lie groups.

The library realizes one-parameter families of evolution algebras as
differentiable curves of structure matrices, constructs them from
generators and initial conditions, evaluates the algebra product of each
time-slice, and verifies the defining laws (semigroup identity, matrix
ODEs, group membership, flow axioms) at machine precision.
"""

from .curves import (
    AffineArg,
    AffineLine,
    Constant,
    Curve,
    ExpLine,
    FlipFlop,
    Heisenberg,
    HeisenbergExp,
    Lorentz11,
    MatrixFunction,
    Numeric,
    Poly,
    Sl2Iwasawa,
    So2,
    TangentInduced,
    check_ode,
    check_one_parameter_subgroup,
    nonsingularity_interval,
    perfectness_profile,
)
from .errors import (
    BadGrid,
    CommutatorTooLarge,
    DimensionMismatch,
    EvolflowError,
    HorizonExceeded,
    NegativeOffDiagonal,
    NonFiniteGenerator,
    NonFiniteInput,
    NotInAlgebra,
    NotInGroup,
    NotStochastic,
    RowSumNonzero,
    SingularMatrix,
    SubsetTooSmall,
    WrongVariant,
)
from .evoalg import (
    EvolutionAlgebra,
    evo_mul,
    evolution_operator,
    is_markov_algebra,
    is_perfect,
)
from .flows import (
    Flow,
    FlowLine,
    IntegratorConfig,
    commuting_magnus,
    flow_apply,
    flow_axioms,
    flow_line,
    integrate_right,
)
from .lie import (
    Algebra,
    Group,
    MembershipReport,
    algebra_of,
    connected_component_sign,
    heisenberg_exp,
    in_algebra,
    in_group,
    o11_element,
    sl2_iwasawa,
    stochastic_affine_embed,
)
from .markov import (
    RateMatrix,
    StationaryDistribution,
    axioms_report,
    birth_death_rate,
    det_trace_identity,
    detailed_balance,
    flip_flop_rate,
    kolmogorov_residuals,
    random_rate_matrix,
    semigroup_at,
    truncate_reversible,
    validate_rate,
)
from .matcore import (
    SINGULAR_TOL,
    as_matrix,
    det,
    det_gauge,
    expm,
    frob_norm,
    inv,
    is_nonsingular,
    is_real,
    one_norm,
    spectral_radius_estimate,
)

__version__ = "0.1.0"
