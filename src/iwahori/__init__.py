"""Exact desk-scale computations with pro-p Iwahori subgroups of split
p-adic matrix groups: p-valuations and ordered bases, twisted unipotent
factorizations, rigid series slopes with the idempotent projector, and the
simplicity criterion for highest-weight modules on exact character data.
"""

from .padic import (
    INF,
    DomainError,
    InternalError,
    PadicError,
    PadicScalar,
    PrecisionError,
    ScalarRing,
    UnitError,
    padic_exp,
    padic_log,
)
from .roots import RootDatum, WeylElement, get_root_datum
from .groups import (
    ChevalleyGroup,
    Factorization,
    GateError,
    GroupElement,
    MembershipError,
    OrderedBasis,
    PValue,
)
from .axioms import (
    AxiomReport,
    check_compatibility_all_w,
    check_et_embedding,
    check_oracle_agreement,
    check_pvaluation_axioms,
    sample_iwahori,
)
from .series import (
    Character,
    SeriesContext,
    SeriesError,
    TruncatedSeries,
    character_expand,
    constants_limit_check,
    haar_obstruction,
    hida_projector,
    lie_action,
    slope_exact,
    slope_split,
    torus_action,
    translate_action,
)
from .verma import (
    DerivedCharacter,
    WeightLabel,
    bgg_simple,
    sp4_conditions,
    summand_inventory,
    weight_multiplicity,
    weyl_twist,
)

__version__ = "0.1.0"
