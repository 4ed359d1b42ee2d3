"""Chart-local numerical differential geometry for projectively equivalent
metric pairs: Killing-tensor families, Carter-quantized operators, and
floating-point verification of the identities they satisfy."""

from .catalog import (
    CatalogEntry,
    control_entries,
    equivalent_entries,
    get_entry,
    list_entries,
)
from .errors import (
    BenentiError,
    DegenerateMetricError,
    EvaluationDomainError,
    ExpressionSyntaxError,
    OrderExhaustedError,
    PairFileError,
    SingularInputError,
    UnknownEntryError,
)
from .geometry import JetTensor, MetricField
from .jets import Jet, seed_coordinates
from .operators import (
    PhaseSpacePoint,
    QuantizedOperator,
    apply_operator,
    commutator_apply,
    commutator_decompose,
    commutator_residual,
    geodesic_drift,
    geodesic_drifts,
    integral_value,
    killing_operator,
    laplace_apply,
    laplacian,
    poisson_bracket,
    poisson_residual,
)
from .pairfile import dump_pair, load_pair, parse_pair
from .projective import (
    DEFAULT_T_GRID,
    ProjectivePair,
    check_carter_condition,
    check_connection_difference,
    check_killing_tensor,
    check_phi_identity,
    check_projective_equivalence,
    check_ricci_commutation,
    t_grid,
)
from .verify import (
    CHECK_IDS,
    VerificationReport,
    VerifyConfig,
    verify_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BenentiError",
    "CHECK_IDS",
    "CatalogEntry",
    "DEFAULT_T_GRID",
    "DegenerateMetricError",
    "EvaluationDomainError",
    "ExpressionSyntaxError",
    "Jet",
    "JetTensor",
    "MetricField",
    "OrderExhaustedError",
    "PairFileError",
    "PhaseSpacePoint",
    "ProjectivePair",
    "QuantizedOperator",
    "SingularInputError",
    "UnknownEntryError",
    "VerificationReport",
    "VerifyConfig",
    "apply_operator",
    "check_carter_condition",
    "check_connection_difference",
    "check_killing_tensor",
    "check_phi_identity",
    "check_projective_equivalence",
    "check_ricci_commutation",
    "commutator_apply",
    "commutator_decompose",
    "commutator_residual",
    "control_entries",
    "dump_pair",
    "equivalent_entries",
    "geodesic_drift",
    "geodesic_drifts",
    "get_entry",
    "integral_value",
    "killing_operator",
    "laplace_apply",
    "laplacian",
    "list_entries",
    "load_pair",
    "parse_pair",
    "poisson_bracket",
    "poisson_residual",
    "seed_coordinates",
    "t_grid",
    "verify_pair",
    "__version__",
]
