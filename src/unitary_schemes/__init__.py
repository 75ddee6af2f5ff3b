"""Association schemes from unitary group actions on isotropic vectors.

Exact construction, verification and export of the schemes obtained by
classifying ordered pairs of isotropic vectors of a non-degenerate Hermitian
space over F_{q^2}: orbit classification, intersection numbers (closed
formulas cross-checked against exhaustive counting), the commutativity
dichotomy, and for q = 2 the closed-form character tables, multiplicities
and fusion schemes, all in exact arithmetic.
"""

from .chartable import (
    CharTable,
    char_table_closed,
    closed_multiplicity_formulas,
    idempotents,
    minimal_polynomial_annihilates,
    multiplicities,
    reconstruct_intersection,
    second_eigenmatrix,
    verify_homomorphism,
    verify_orthogonality,
    verify_reconstruction,
)
from .eisenstein import Eisenstein
from .fields import FieldTables, build_field, norm_solutions, trace_solutions
from .fusion import (
    FusedTable,
    FusionError,
    canonical_fusions,
    coarse_partition,
    fuse,
    symmetrization_partition,
)
from .scheme import (
    AxiomReport,
    OracleMismatch,
    RelationLabel,
    SchemeDescriptor,
    build_adjacency_matrices,
    build_descriptor,
    classify_pair,
    conjugate_index,
    conjugate_relation,
    intersection_matrices,
    intersection_number_closed,
    is_commutative,
    relation_matrix,
    scheme_from_relation_matrix,
    scheme_rank,
    verify_relation_matrix,
    verify_scheme_axioms,
)
from .serialize import (
    SchemeDocument,
    chartable_from_document,
    document_from_chartable,
    document_from_descriptor,
    parse_document,
    parse_relation_matrix,
    render_document,
    render_relation_matrix,
)
from .space import (
    UnitarySpace,
    enumerate_isotropic,
    hermitian_inner,
    hyperbolic_partner,
    isotropic_count,
    witness_pair,
)

__all__ = [
    "CharTable", "char_table_closed", "closed_multiplicity_formulas",
    "idempotents", "minimal_polynomial_annihilates", "multiplicities",
    "reconstruct_intersection", "second_eigenmatrix", "verify_homomorphism",
    "verify_orthogonality", "verify_reconstruction", "Eisenstein",
    "FieldTables", "build_field", "norm_solutions", "trace_solutions", "FusedTable",
    "FusionError", "canonical_fusions", "coarse_partition", "fuse",
    "symmetrization_partition", "AxiomReport", "OracleMismatch",
    "RelationLabel", "SchemeDescriptor", "build_adjacency_matrices",
    "build_descriptor", "classify_pair", "conjugate_index",
    "conjugate_relation", "intersection_matrices", "intersection_number_closed",
    "is_commutative", "relation_matrix", "scheme_from_relation_matrix",
    "scheme_rank", "verify_relation_matrix", "verify_scheme_axioms",
    "SchemeDocument", "chartable_from_document", "document_from_chartable",
    "document_from_descriptor", "parse_document", "parse_relation_matrix",
    "render_document", "render_relation_matrix", "UnitarySpace",
    "enumerate_isotropic", "hermitian_inner", "hyperbolic_partner",
    "isotropic_count", "witness_pair",
]
