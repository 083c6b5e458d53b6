"""Exact unit-reducibility certificates for cyclotomic trace forms.

The library decides, with exact rational arithmetic end to end, whether the
trace form of a totally positive element over a cyclotomic field (or its
maximal totally real subfield) attains its minimum on a unit, and produces
machine-checkable certificates either way: classification verdicts, exact
minima with the attaining vectors, reduction witnesses with enumerated
evidence, and lower bounds for the gap between the unconstrained and the
unit-constrained minima.
"""

from .certify import (
    Certificate,
    CriterionResult,
    boundary_analysis,
    classify,
    hermite_pow,
    strong_criterion,
    table1,
)
from .errors import (
    BudgetError,
    ConductorError,
    DegreeError,
    FieldMismatchError,
    LinearAlgebraError,
    NotTotallyPositiveError,
    VerificationError,
)
from .field import (
    CycloElement,
    FieldContext,
    element_from_json_dict,
    element_to_json_dict,
    make_field,
    parse_element,
    recompose,
)
from .realfield import (
    RealCertificate,
    RealDiscrepancyCertificate,
    RealElement,
    RealFieldContext,
    RealMuRelations,
    classify_real,
    embed,
    make_real_field,
    project,
    real_element_from_json_dict,
    real_mu_relations_check,
    real_sqrt_of_unit,
    verify_real_witness,
)
from .serialize import dumps_canonical
from .svp import (
    EnumerationResult,
    FoundVector,
    MinimaReport,
    enumerate_below,
    lll_reduce,
    shortest,
)
from .traceform import (
    GramMatrix,
    LDLResult,
    gram,
    is_totally_positive,
    ldl,
)
from .units import (
    EtaCertificate,
    MuStarReport,
    ReducednessCertificate,
    eta,
    is_reduced,
    is_unit,
    mu_star,
)
from .witness import (
    DeltaBound,
    DiscrepancyCertificate,
    Eq4Report,
    L75Report,
    delta_lower_bound,
    eq4_check,
    l75_scan,
    q_eval,
    q_matrix,
    rho,
    rho_closed,
    verify_witness,
    witness_for_conductor,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Certificate",
    "ConductorError",
    "CriterionResult",
    "CycloElement",
    "DegreeError",
    "DeltaBound",
    "DiscrepancyCertificate",
    "EnumerationResult",
    "Eq4Report",
    "EtaCertificate",
    "FieldContext",
    "FieldMismatchError",
    "FoundVector",
    "GramMatrix",
    "L75Report",
    "LDLResult",
    "LinearAlgebraError",
    "MinimaReport",
    "MuStarReport",
    "NotTotallyPositiveError",
    "RealCertificate",
    "RealDiscrepancyCertificate",
    "RealElement",
    "RealFieldContext",
    "RealMuRelations",
    "ReducednessCertificate",
    "VerificationError",
    "boundary_analysis",
    "classify",
    "classify_real",
    "delta_lower_bound",
    "dumps_canonical",
    "element_from_json_dict",
    "element_to_json_dict",
    "embed",
    "enumerate_below",
    "eq4_check",
    "eta",
    "gram",
    "hermite_pow",
    "is_reduced",
    "is_totally_positive",
    "is_unit",
    "l75_scan",
    "ldl",
    "lll_reduce",
    "make_field",
    "recompose",
    "make_real_field",
    "mu_star",
    "parse_element",
    "project",
    "q_eval",
    "q_matrix",
    "real_element_from_json_dict",
    "real_mu_relations_check",
    "real_sqrt_of_unit",
    "rho",
    "rho_closed",
    "shortest",
    "strong_criterion",
    "table1",
    "verify_real_witness",
    "verify_witness",
    "witness_for_conductor",
]
