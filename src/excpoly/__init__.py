"""Exceptional polynomial families over small finite fields.

Construction of the indecomposable exceptional families (power maps,
Dickson polynomials, the additive families in characteristics 2 and 3,
and the degree q(q-1)/2 family in characteristic 2), plus the machinery
to certify their behavior: permutation scans over field towers, Galois
cycle statistics, and the associated curves' zeta functions.
"""

__version__ = "0.1.0"

from .ff import (
    Embedding,
    FieldCtx,
    FieldElem,
    embed,
    field_from_json,
    make_field,
)
from .poly import (
    BiPoly,
    Factorization,
    UniPoly,
    factor,
    roots,
)
from .families import (
    FamilySpec,
    CanonicalForm,
    NotInFamily,
    f_closed,
    f_product,
    dickson,
    family_iv,
    family_v,
    trace_poly,
    canonicalize,
)
from .exceptional import (
    PermReport,
    exceptionality_verdict,
    is_permutation,
    tower_scan,
)
from .monodromy import (
    CycleDist,
    PermAction,
    branch_points,
    build_action,
    chebotarev_sample,
    coset_cycle_types,
    dist_compare,
)
from .curves import (
    CurveModel,
    ZetaData,
    count_points,
    plane_model,
    quotient_relations_report,
    sl2_certificate,
    smoothness_check,
    verify_b_action,
    verify_product_identity,
    weil_check,
    weil_contradiction_report,
    zeta,
)

__all__ = [
    "Embedding",
    "FieldCtx",
    "FieldElem",
    "embed",
    "field_from_json",
    "make_field",
    "UniPoly",
    "BiPoly",
    "Factorization",
    "factor",
    "roots",
    "FamilySpec",
    "CanonicalForm",
    "NotInFamily",
    "f_closed",
    "f_product",
    "dickson",
    "family_iv",
    "family_v",
    "trace_poly",
    "canonicalize",
    "PermReport",
    "exceptionality_verdict",
    "is_permutation",
    "tower_scan",
    "CycleDist",
    "PermAction",
    "branch_points",
    "build_action",
    "chebotarev_sample",
    "coset_cycle_types",
    "dist_compare",
    "CurveModel",
    "ZetaData",
    "count_points",
    "plane_model",
    "quotient_relations_report",
    "sl2_certificate",
    "smoothness_check",
    "verify_b_action",
    "verify_product_identity",
    "weil_check",
    "weil_contradiction_report",
    "zeta",
    "__version__",
]
