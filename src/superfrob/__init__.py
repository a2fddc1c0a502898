"""Exact character tables of cyclotomic Hecke algebras H_{m,n}(q,Q).

The package computes irreducible character tables from a trace identity in
supersymmetric functions and certifies every table against an independent
brute-force trace oracle acting on a tensor superspace.
"""

from superfrob.exact import (
    CyclotomicNumber,
    DomainError,
    Poly,
    SingularMatrixError,
    StructuralError,
    Variable,
    VariableRegistry,
    cyclotomic_phi,
    solve_linear_exact,
    transport,
)
from superfrob.combinat import (
    HookProfile,
    centralizer_order_sym,
    centralizer_order_wreath,
    compositions,
    is_hook,
    multipartitions,
    partitions,
    standard_multitableaux_count,
)
from superfrob.symfunc import (
    BlockVariables,
    ConsistencyError,
    colored_power_sum,
    q_bmu,
    q_n_i,
    q_tilde,
    schur,
    skew_schur,
    super_hall_littlewood_q,
    super_schur,
)
from superfrob.tensorrep import TensorContext, standard_word, trace_D_word
from superfrob.characters import (
    CharacterTable,
    hecke_character_table,
    mn_character,
    specialize_table,
    verify_orthogonality,
    wreath_character,
)

__all__ = [
    "BlockVariables",
    "CharacterTable",
    "ConsistencyError",
    "CyclotomicNumber",
    "DomainError",
    "HookProfile",
    "Poly",
    "SingularMatrixError",
    "StructuralError",
    "TensorContext",
    "Variable",
    "VariableRegistry",
    "centralizer_order_sym",
    "centralizer_order_wreath",
    "colored_power_sum",
    "compositions",
    "cyclotomic_phi",
    "hecke_character_table",
    "is_hook",
    "mn_character",
    "multipartitions",
    "partitions",
    "q_bmu",
    "q_n_i",
    "q_tilde",
    "schur",
    "skew_schur",
    "solve_linear_exact",
    "specialize_table",
    "standard_multitableaux_count",
    "standard_word",
    "super_hall_littlewood_q",
    "super_schur",
    "trace_D_word",
    "transport",
    "verify_orthogonality",
    "wreath_character",
]

__version__ = "0.1.0"
