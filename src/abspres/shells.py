"""Forward complete shells, language semantic closures, the most abstract
strongly preserving domain and the block-relation search.

The shell of a domain A for a set F of transformers is the most abstract
refinement of A that is forward complete for every f ∈ F.  On these finite
lattices it is computed by the package's one saturation engine,
:func:`~abspres.languages.close`: repeatedly add images of F on the family
and re-close under intersection until nothing new appears.  The semantic
closure of a language runs the same engine without the re-closing.  The
result is the greatest fixpoint of ρ ↦ μ_A ⊓ M(F(ρ)), reached from above;
maximality is exhaustively verified at n = 3 by the tests.

The relation search runs the engine once over the concrete atoms and checks
each candidate block relation against the applications it recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, SpaceMismatchError, ValidationError
from .kripke import KripkeModel, block_name
from .lattice import (
    AbstractDomain,
    DEFAULT_MAX_FAMILY,
    Mask,
    SetFamily,
    StateSpace,
    meet_close,
    moore_close,
)
from .languages import LanguageSpec, Operator, apply_operator, close
from .partitions import Partition, pr

#: Candidate bound for the abstract-relation search (2^{b²} relations).
MAX_SEARCH_CANDIDATES = 1 << 25


@dataclass(frozen=True)
class ShellTrace:
    """Iteration snapshots of a shell computation.

    Image sizes strictly increase until the last step; the final snapshot
    repeats the fixpoint, so the last two entries are equal and the last
    new-set count is 0.
    """

    iterations: tuple[AbstractDomain, ...]
    new_counts: tuple[int, ...]

    def to_json(self) -> list[list[str]]:
        out = []
        for dom in self.iterations:
            fam = dom.image
            out.append([dom.space.format_mask(m) for m in fam.masks])
        return out


@dataclass(frozen=True)
class ShellResult:
    domain: AbstractDomain
    trace: ShellTrace


def forward_complete_shell(
    domain: AbstractDomain,
    fs: Sequence[Operator],
    model: KripkeModel,
    *,
    max_size: int = DEFAULT_MAX_FAMILY,
) -> ShellResult:
    """Most abstract refinement of the domain forward complete for every f.

    Runs :func:`~abspres.languages.close` from image(A): each round adds
    F(X) and re-closes under intersection, X := M(X ∪ F(X)), to fixpoint.
    The fixpoint is order-independent; the trace records one snapshot per
    round.
    """
    if model.space != domain.space:
        raise SpaceMismatchError("model over a different space than the domain")
    masks: set[Mask] = set(domain.masks)
    # every round's family is meet-closed and holds Σ, so no snapshot is re-checked
    snapshots = [AbstractDomain._of_moore(domain.space, frozenset(masks))]
    counts: list[int] = []

    def admit(fresh: Iterable[Mask]) -> set[Mask]:
        added = meet_close(masks, fresh)
        if len(masks) > max_size:
            raise CapacityError(
                f"shell image exceeded {max_size} sets (now {len(masks)})"
            )
        snapshots.append(
            AbstractDomain._of_moore(domain.space, frozenset(masks)) if added else snapshots[-1]
        )
        counts.append(len(added))
        return added

    close(masks, [fs], lambda op, args: apply_operator(op, model, args), admit)
    trace = ShellTrace(tuple(snapshots), tuple(counts))
    return ShellResult(snapshots[-1], trace)


def semantic_closure(lang: LanguageSpec, model: KripkeModel) -> SetFamily:
    """The exact set {⟦φ⟧ | φ ∈ L}: atom denotations closed under the
    language's operators by :func:`~abspres.languages.close` (no Moore
    closure here)."""
    if lang.open_ops:
        raise ValidationError("semantic closure needs a closed language")
    masks: set[Mask] = {s.mask for _, s in lang.atoms}

    def admit(fresh: Iterable[Mask]) -> Iterable[Mask]:
        masks.update(fresh)
        if len(masks) > DEFAULT_MAX_FAMILY:
            raise CapacityError("semantic closure exceeded the family bound")
        return fresh

    close(masks, [lang.operators], lambda op, args: apply_operator(op, model, args), admit)
    return SetFamily.of(model.space, masks)


def ad_of_language(lang: LanguageSpec, model: KripkeModel) -> AbstractDomain:
    """The most abstract strongly preserving domain: M({⟦φ⟧ | φ ∈ L}).

    Σ is always a member through the empty meet, matching the convention
    that a conjunction-closed language expresses the tautology.
    """
    return moore_close(semantic_closure(lang, model))


def coarsest_sp_partition(lang: LanguageSpec, model: KripkeModel) -> Partition:
    """P_L: states grouped by logical equivalence, via pr of the domain."""
    return pr(ad_of_language(lang, model))


class _NotBlockUnion(Exception):
    """A set of S is not a union of blocks, so no relation is strong."""


def sp_abstract_kripke_search(
    p: Partition,
    lang: LanguageSpec,
    model: KripkeModel,
    mode: str = "all",
) -> list[frozenset[tuple[int, int]]]:
    """Enumerate every abstract transition relation on the blocks of ``p``
    and return those whose abstract Kripke structure is strongly preserving.

    Abstract atoms follow the existential labeling (the block union of
    every block meeting the atom's denotation); operators are interpreted
    over the candidate block relation through the language's transformer
    bodies.  Relations are returned as index pairs over ``p.blocks``.

    A strong structure agrees with ⟦·⟧ on every formula, so one recorded
    closure of S = {⟦φ⟧ | φ ∈ L} (one stage per operator, lowest arity
    first, as in the paired closure) fixes it: a candidate is strong iff its
    block model gives the recorded value on every recorded application.
    """
    if lang.open_ops:
        raise ValidationError("strong-preservation checks need a closed language")
    if mode not in ("all", "first"):
        raise ValidationError(f"unknown search mode {mode!r}")
    if p.space != model.space:
        raise SpaceMismatchError("partition over a different space than the model")
    blocks = p.blocks
    b = len(blocks)
    if (1 << (b * b)) > MAX_SEARCH_CANDIDATES:
        raise CapacityError(
            f"{b} blocks means 2^{b * b} candidate relations; bound is 2^25"
        )

    # abstract values are block unions: if an atom or a set of S is not
    # one, no relation can work
    atoms = list(dict.fromkeys(s.mask for _, s in lang.atoms))
    if any(p.block_containing(m) != m for m in atoms):
        return []
    steps: list[tuple[Operator, tuple[Mask, ...], Mask]] = []

    def apply(op: Operator, args: tuple[Mask, ...]) -> Mask:
        value = apply_operator(op, model, args)
        if p.block_containing(value) != value:
            raise _NotBlockUnion
        steps.append((op, tuple([p.inner(a) for a in args]), p.inner(value)))
        return value

    stages = [[op] for op in sorted(lang.operators, key=lambda op: op.arity)]
    try:
        close(atoms, stages, apply, lambda fresh: fresh)
    except _NotBlockUnion:
        return []

    bspace = StateSpace(tuple(block_name(model, m) for m in blocks))
    hits: list[frozenset[tuple[int, int]]] = []
    for bits in range(1 << (b * b)):
        succ = tuple(((bits >> (i * b)) & ((1 << b) - 1)) for i in range(b))
        qmodel = KripkeModel(bspace, succ, ())
        if all(apply_operator(op, qmodel, args) == value for op, args, value in steps):
            hits.append(qmodel.relation_pairs())
            if mode == "first":
                break
    return hits
