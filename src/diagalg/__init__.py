"""diagalg: exact diagonalizability workbench over Q and prime fields."""

from .fields import (
    EPSeq,
    GF,
    Polynomial,
    QQ,
    poly_splits_simply,
    poly_squarefree_part,
)
from .linalg import (
    Matrix,
    Subspace,
    commutant,
    diagonalize_finite,
    minimal_polynomial,
    simultaneous_diagonalize_finite,
)
from .operators import (
    FiniteVector,
    Operator,
    closure_membership,
    finite_field_diag_check,
    krylov_torsion,
)
from .idempotents import (
    ExplicitFamily,
    PartitionFamily,
    PatternFamily,
    common_eigenvector_search,
    product_family,
    simultaneous_diagonalize_families,
    summability,
    validate,
)
from .funcalg import (
    AlgebraHom,
    FiniteAlgebra,
    FunctionAlgebra,
    SetMap,
    classical_equivalences,
    crt_split,
    double_commutant_check,
    dual_map,
    radical,
    radical_of_product,
    regular_representation,
    spec0,
    spec_of_hom,
)
from . import treegen

__version__ = "0.1.0"
