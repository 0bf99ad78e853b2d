"""Bisimulation, divergence-blind stuttering and simulation.

Each relation is computed by one route, a naive refinement (splitter loop
or gfp over pairs) for the coarsest relation, and judged by one checker,
its literal per-pair definition; both are polynomial.

The paper characterizes the same relations by forward completeness of the
induced domain (bisimulation ↔ {atoms} ∪ {pre}, stuttering ↔ {atoms} ∪
{EU}, simulation ↔ {atoms} ∪ {pre~} on the preorder domain) and the
coarsest ones by forward complete shells.  Those routes build families of
up to 2^n sets, so they stay off the default path: the shell routes
are public here (``*_shell_partition``), the completeness route is
:func:`abspres.abstraction.completeness_check` with
:func:`abspres.languages.label_constants`, and the tests check that both
agree with the refinements and the checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SpaceMismatchError, ValidationError
from .kripke import KripkeModel, label_partition
from .lattice import Mask, SetFamily, moore_close
from .languages import builtin_operator, until_mask
from .partitions import Partition, Preorder, pr
from .shells import forward_complete_shell


def _split_once(model: KripkeModel, blocks: list[Mask], split_mask_fn) -> bool:
    """One deterministic refinement step: lowest-index block, lowest-index
    splitter.  Returns True when a block was split."""
    for i, b1 in enumerate(blocks):
        for b2 in blocks:
            x = split_mask_fn(b1, b2)
            if x and x != b1:
                rest = b1 & ~x
                blocks[i : i + 1] = [x, rest]
                blocks.sort(key=model.space.lex_key)
                return True
    return False


def bisim_partition(model: KripkeModel) -> Partition:
    """Coarsest bisimulation partition by naive splitter refinement:
    start from the label partition, split B1 by pre(B2) ∩ B1 while proper."""
    blocks = sorted(label_partition(model).blocks, key=model.space.lex_key)

    def splitter(b1: Mask, b2: Mask) -> Mask:
        return b1 & model.pre(b2)

    while _split_once(model, blocks, splitter):
        pass
    return Partition.from_masks(model.space, blocks)


def check_bisimulation(p: Partition, model: KripkeModel) -> bool:
    """Is P a bisimulation?  Per block: one label set, and every move of a
    member into a block is matched by every other member."""
    if p.space != model.space:
        raise SpaceMismatchError("partition over a different space than the model")
    for block in p.blocks:
        members = [s for s in range(model.n) if (block >> s) & 1]
        labels = {model.label_of_state(s) for s in members}
        if len(labels) > 1:
            return False
        for s in members:
            for t in range(model.n):
                if not (model.succ[s] >> t) & 1:
                    continue
                t_block = p.block_containing(1 << t)
                for s2 in members:
                    if not model.succ[s2] & t_block:
                        return False
    return True


def dbs_partition(model: KripkeModel) -> Partition:
    """Coarsest divergence-blind stuttering partition: start from the label
    partition; split B1 by EU(B1, B2) ∩ B1 while that intersection is proper."""
    blocks = sorted(label_partition(model).blocks, key=model.space.lex_key)

    def splitter(b1: Mask, b2: Mask) -> Mask:
        if b1 == b2:
            return b1
        return until_mask(model, b1, b2) & b1

    while _split_once(model, blocks, splitter):
        pass
    return Partition.from_masks(model.space, blocks)


def check_dbs(p: Partition, model: KripkeModel) -> bool:
    """Is P a divergence-blind stuttering equivalence?  Label condition plus
    the block criterion: for B1 ≠ B2 the set EU(B1,B2) ∩ B1 is empty or all
    of B1 (members reach B2 inside B1 together, or none does)."""
    if p.space != model.space:
        raise SpaceMismatchError("partition over a different space than the model")
    for block in p.blocks:
        members = [s for s in range(model.n) if (block >> s) & 1]
        if len({model.label_of_state(s) for s in members}) > 1:
            return False
    for b1 in p.blocks:
        for b2 in p.blocks:
            if b1 == b2:
                continue
            x = until_mask(model, b1, b2) & b1
            if x not in (0, b1):
                return False
    return True


def _similarity_rows(model: KripkeModel, equal_labels: bool) -> tuple[Mask, ...]:
    n = model.n
    labels = [model.label_of_state(s) for s in range(n)]
    rows = []
    for s in range(n):
        row = 0
        for s2 in range(n):
            related = labels[s2] == labels[s] if equal_labels else labels[s2] <= labels[s]
            if related:
                row |= 1 << s2
        rows.append(row)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            row = rows[s]
            for s2 in range(n):
                if not (row >> s2) & 1:
                    continue
                ok = True
                for t in range(n):
                    if (model.succ[s] >> t) & 1 and not model.succ[s2] & rows[t]:
                        ok = False
                        break
                if not ok:
                    row &= ~(1 << s2)
                    changed = True
            rows[s] = row
    return tuple(rows)


def largest_simulation(model: KripkeModel) -> Preorder:
    """The similarity preorder by gfp refinement over pairs.

    Start from R₀ = {(s,s') | ℓ(s') ⊆ ℓ(s)} and drop (s,s') while some move
    of s cannot be matched by s'.  Note the label condition compares by
    inclusion, so a state with fewer labels may simulate one with more.
    """
    return Preorder(model.space, _similarity_rows(model, equal_labels=False))


def equal_label_simulation(model: KripkeModel) -> Preorder:
    """Similarity restricted to equal label sets; its kernel is simulation
    equivalence in the classical sense, the one matched by literal-seeded
    shells.  On partition-induced labelings it coincides with
    :func:`largest_simulation`."""
    return Preorder(model.space, _similarity_rows(model, equal_labels=True))


def check_simulation(r: Preorder, model: KripkeModel) -> bool:
    """Is R a simulation?  s R s' needs ℓ(s') ⊆ ℓ(s), and every move s → t
    matched by a move s' → t' with t R t'."""
    if r.space != model.space:
        raise SpaceMismatchError("preorder over a different space than the model")
    n = model.n
    labels = [model.label_of_state(s) for s in range(n)]
    for s in range(n):
        for s2 in range(n):
            if not (r.rows[s] >> s2) & 1:
                continue
            if not labels[s2] <= labels[s]:
                return False
            for t in range(n):
                if (model.succ[s] >> t) & 1 and not model.succ[s2] & r.rows[t]:
                    return False
    return True


def bisim_shell_partition(model: KripkeModel) -> Partition:
    """Bisimulation through the shell route: pr(S_{∁,pre}(M(P_ℓ)))."""
    seed = moore_close(label_partition(model).family)
    ops = [builtin_operator("not"), builtin_operator("pre")]
    return pr(forward_complete_shell(seed, ops, model).domain)


def dbs_shell_partition(model: KripkeModel) -> Partition:
    """Stuttering through the shell route: pr(S_{∁,EU}(M(P_ℓ)))."""
    seed = moore_close(label_partition(model).family)
    ops = [builtin_operator("not"), builtin_operator("EU")]
    return pr(forward_complete_shell(seed, ops, model).domain)


def simeq_shell_partition(model: KripkeModel) -> Partition:
    """Simulation equivalence through the shell route:
    pr(S_{∪,pre~}(M({p, ∁p | p ∈ AP})))."""
    space = model.space
    literals = {space.full_mask}
    for _, mask in model.label_items:
        literals.add(mask)
        literals.add(space.full_mask & ~mask)
    seed = moore_close(SetFamily.of(space, literals))
    ops = [builtin_operator("or"), builtin_operator("pre~")]
    return pr(forward_complete_shell(seed, ops, model).domain)


def simeq_partition(model: KripkeModel) -> Partition:
    """Simulation-equivalence partition: symmetric kernel of the (equal
    label) similarity preorder.

    The inclusion-labeled similarity of :func:`largest_simulation` would
    give a coarser kernel on overlapping labelings, because its witnessing
    simulations may pass through pairs with strictly fewer labels; the
    literal-seeded shell of :func:`simeq_shell_partition` pins the
    classical notion.
    """
    return equal_label_simulation(model).kernel()


@dataclass(frozen=True)
class EquivalenceReport:
    """One behavioural-equivalence computation with its checker verdict."""

    kind: str
    partition: Optional[Partition]
    preorder: Optional[Preorder]
    consistent: bool


def equivalence_report(kind: str, model: KripkeModel) -> EquivalenceReport:
    """Compute one equivalence and judge it with its definitional checker."""
    partition = preorder = None
    if kind == "bisim":
        partition = bisim_partition(model)
        accepted = check_bisimulation(partition, model)
    elif kind == "dbs":
        partition = dbs_partition(model)
        accepted = check_dbs(partition, model)
    elif kind == "sim":
        preorder = largest_simulation(model)
        accepted = check_simulation(preorder, model)
    elif kind == "simeq":
        similarity = equal_label_simulation(model)
        partition = similarity.kernel()
        accepted = check_simulation(similarity, model)
    else:
        raise ValidationError(f"unknown equivalence kind {kind!r}")
    return EquivalenceReport(kind, partition, preorder, accepted)
