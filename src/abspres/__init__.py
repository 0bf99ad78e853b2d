"""Finite-state strong preservation toolkit.

Abstract domains as Moore families over ℘(Σ), forward complete shells,
strongly preserving partitions and domains for inductively defined state
languages, and completeness-based characterizations of bisimulation,
divergence-blind stuttering and simulation.

The package loads in two layers.  ``import abspres`` loads the refinement
layer, ``errors``, ``lattice``, ``partitions``, ``kripke`` and
``equivalences``: bisimulation, stuttering and simulation need the model
alone.  The language layer, ``formulas``, ``languages``, ``shells`` and
``abstraction``, loads as a whole the first time one of these modules or
one of the names the package gives of them is read.
"""

from importlib import import_module as _import_module

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
    domain_join,
    domain_leq,
    domain_meet,
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
    pr,
    preord_of,
    structural_shell,
)
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

#: The language layer: each module with the names the package gives of it.
_LANGUAGE_LAYER = {
    "formulas": ("Formula", "parse_formula", "parse_transformer"),
    "languages": (
        "LanguageSpec",
        "Operator",
        "builtin_operator",
        "const_operator",
        "eval_concrete",
        "label_constants",
        "language_from_json",
        "language_from_ops",
        "load_language",
        "operator_from_expr",
        "preset_language",
    ),
    "abstraction": (
        "AbstractStructure",
        "bca_apply",
        "completeness_check",
        "eval_abstract",
        "gfp_transfer_check",
        "is_sp_domain",
        "paired_sp_check",
    ),
    "shells": (
        "ShellResult",
        "ShellTrace",
        "ad_of_language",
        "coarsest_sp_partition",
        "forward_complete_shell",
        "semantic_closure",
        "sp_abstract_kripke_search",
    ),
}

# the names above with their modules, then the language layer's
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [name for module, names in _LANGUAGE_LAYER.items() for name in (module, *names)]


def __getattr__(name: str):
    """Load the whole language layer when one of its modules or names is
    first read; after that its names are plain module attributes."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _LANGUAGE_LAYER.items():
        loaded = _import_module(f".{module}", __name__)
        globals().update({n: getattr(loaded, n) for n in names})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
