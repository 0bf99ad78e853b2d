"""Finite-state strong preservation toolkit.

Abstract domains as Moore families over ℘(Σ), forward complete shells,
strongly preserving partitions and domains for inductively defined state
languages, and completeness-based characterizations of bisimulation,
divergence-blind stuttering and simulation.
"""

from .errors import (
    AbspresError,
    CapacityError,
    FormulaSyntaxError,
    ResolutionError,
    SpaceMismatchError,
    ValidationError,
)
from .lattice import (
    AbstractDomain,
    SetFamily,
    StateSet,
    StateSpace,
    closure_of,
    domain_join,
    domain_leq,
    domain_meet,
    enumerate_moore_families,
    family_of_names,
    moore_close,
    powerset_domain,
    top_domain,
)
from .partitions import (
    Partition,
    Preorder,
    add,
    adp,
    is_disjunctive,
    is_partitioning,
    iter_partitions,
    iter_preorders,
    pr,
    preord_of,
    structural_shell,
)
from .formulas import Formula, parse_formula, parse_transformer
from .kripke import (
    KripkeModel,
    Quotient,
    label_partition,
    load_model,
    model_from_json,
    model_to_json,
    quotient,
    transformer,
    validate_model,
)
from .languages import (
    LanguageSpec,
    Operator,
    builtin_operator,
    const_operator,
    eval_concrete,
    label_constants,
    language_from_json,
    language_from_ops,
    load_language,
    operator_from_expr,
    preset_language,
)
from .abstraction import (
    AbstractStructure,
    bca_apply,
    completeness_check,
    eval_abstract,
    gfp_transfer_check,
    is_sp_domain,
    paired_sp_check,
)
from .shells import (
    ShellResult,
    ShellTrace,
    ad_of_language,
    coarsest_sp_partition,
    forward_complete_shell,
    semantic_closure,
    sp_abstract_kripke_search,
)
from .equivalences import (
    EquivalenceReport,
    bisim_partition,
    check_bisimulation,
    check_dbs,
    check_simulation,
    dbs_partition,
    equivalence_report,
    largest_simulation,
    simeq_partition,
)

__version__ = "0.1.0"
