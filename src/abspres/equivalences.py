"""Bisimulation, divergence-blind stuttering and simulation.

Each relation is computed by one polynomial route and judged by one
checker, its definition read by rows, not pairs (for stuttering, by blocks).
Bisimulation and stuttering are the coarsest partitions of the label
blocks that are stable for ``EX`` and for ``EU``, both computed by the
splitter engine :func:`_splitter_passes`; similarity is the greatest
fixpoint :func:`_similarity` over rows.  Bisimulation is checked as a
symmetric simulation: an equivalence is a bisimulation exactly when it is
a simulation.

The splitter engine is Ranzato and Tapparo's GPT view of Paige-Tarjan: a
family closed under ``not`` and the operators is the set of unions of the
blocks of a partition Q.  For a unary additive map (or the dual of one) or
``EU``, that family is closed under the map exactly when a test on Q's
blocks holds: f(B) is a union of blocks for every block B and additive f
(f(Σ∖B) for a dual f), and EU(B1, B2) ∩ B1 is ∅ or B1 for all blocks
B1 ≠ B2 (the stuttering criterion).  So the engine splits blocks by these
sets until nothing splits.  The same test is not exact for ``AU``, ``ER``
and ``AR``, which never cut.  :func:`abspres.languages._splitters` picks
the operators it cuts by for :func:`abspres.shells.forward_complete_shell`
and :func:`abspres.shells.ad_of_language`, and ``ad_of_language`` answers
the similarity class by :func:`_similarity`.

The engine works by change and by the edges, and keeps only its blocks
and one state → block index across passes.  It walks each cut block by
block, so a cut costs the blocks it meets; the smaller part of a split
gets the new index, so each state is re-pointed O(log n) times (at most
half the states of a block leave with it).  A pass cuts by what the last
pass changed, the fresh blocks.  For ``EU`` it makes one cut per target
block B2, a fresh block or one that a fresh block moves into: X(B2), the
states with a path inside their own block into B2, found by one backward
search from pre(B2) ∖ B2 that steps from each state it visits to its
predecessors in its own block, one row AND per state.  Three facts make
these cuts the pairs' cuts: X(B2) ∩ B1 = EU(B1, B2) ∩ B1 for every block
B1 ≠ B2, as such a path ends with a move from B1 into B2; a pair cut by
EU(B1, B2) splits only B1, so one X(B2) splits as all pairs (B1, B2) do;
and the pairs with neither block fresh, which a target entered from a
fresh block adds, cut nothing, since both blocks came through the last
pass whole and such a pair is stable by induction on the passes (the
proofs are in :func:`_splitter_passes`).  The similarity is a set worklist
over the model's predecessor rows: when a row shrinks, its pre-image,
cached by row value for at most n values, cuts the rows of its
predecessors.  The engine gives, pass by pass, exactly the answers of the
all-pairs loop it replaces, and the similarity the rows of the move sweep,
which the tests keep as oracles.  The checkers read rows, not pairs:
simulation by R(s) ⊆ pre(R(t)) for each move s → t, stuttering by the
pairs of blocks an edge joins.  The stuttering checker's ``EU`` is
:func:`abspres.languages.until_mask`; its judges are ``eu_path_oracle``,
``brute_stuttering`` and ``all_pairs_check_dbs`` in ``tests/conftest.py``,
and the tests hold each entries cut to ``until_mask`` block by block.

The paper characterizes the same relations by forward completeness of the
induced domain (bisimulation ↔ {atoms} ∪ {pre}, stuttering ↔ {atoms} ∪
{EU}, simulation ↔ {atoms} ∪ {pre~} on the preorder domain) and the
coarsest ones by forward complete shells.  The shell routes are public here
(``*_shell_partition``), the completeness route is
:func:`abspres.abstraction.completeness_check` with
:func:`abspres.languages.label_constants`, and the tests check that both
agree with the refinements and the checkers.  The simulation shell builds
families of up to 2^n sets, so it stays off the default path; the
bisimulation and stuttering shells run the splitter engine.  This module
reaches the shells through the module object, ``shells.forward_complete_shell``,
so that ``shells`` can import it at module level.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from . import shells
from .errors import ValidationError
from .kripke import KripkeModel, label_partition
from .lattice import (
    Mask, SetFamily, _check_space, _join_rows, _members, _owners, _set_field, _Value, moore_close,
)
from .languages import Operator, apply_operator, builtin_operator, until_mask
from .partitions import Partition, Preorder, pr


def _split_once(
    blocks: list[Mask], owner: list[int], cuts: Iterable[Mask], changed: set[int]
) -> int:
    """Cut ``blocks``, a partition of the states with its state → block index
    ``owner``, by each set of ``cuts``, in place; returns the number of
    splits, which is the number of blocks gained.

    A cut is walked block by block: its lowest state left names a block,
    which is dropped from the rest of the cut and split when the cut does
    not hold it, so a cut costs the blocks it meets, not all of them.  The
    smaller part of a split gets the new index and only its states are
    re-pointed (Hopcroft), and both indices go into ``changed``."""
    count = 0
    for x in cuts:
        rest = x
        while rest:
            k = owner[(rest & -rest).bit_length() - 1]
            b = blocks[k]
            inside = b & x
            rest ^= inside  # the states of x in b, all still in rest
            if inside != b:
                outside = b ^ inside
                if inside.bit_count() > outside.bit_count():
                    inside, outside = outside, inside
                blocks[k] = outside
                new = len(blocks)
                blocks.append(inside)
                while inside:
                    low = inside & -inside
                    owner[low.bit_length() - 1] = new
                    inside ^= low
                changed.add(k)
                changed.add(new)
                count += 1
    return count


def _entries(
    model: KripkeModel, blocks: Sequence[Mask], owner: Sequence[int], fresh: Iterable[int]
) -> dict[int, Mask]:
    """The until cuts of a pass, by target: X(B2) = B2 ∪ ⋃_{B1 ≠ B2}
    (EU(B1, B2) ∩ B1) for the index of each block B2 that is fresh or that
    a fresh block moves into, each by one backward search from pre(B2) ∖ B2
    that steps from each state t it visits to pred(t) ∩ t's block."""
    targets = set(fresh)
    for k in fresh:
        rest = model.post(blocks[k]) & ~blocks[k]
        while rest:
            j = owner[(rest & -rest).bit_length() - 1]
            targets.add(j)
            rest &= ~blocks[j]
    pred = model.pred
    cuts = {}
    for j in targets:
        b2 = blocks[j]
        reach = frontier = model.pre(b2) & ~b2
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                t = low.bit_length() - 1
                step |= pred[t] & blocks[owner[t]]
                frontier ^= low
            frontier = step & ~reach
            reach |= frontier
        cuts[j] = b2 | reach
    return cuts


def _splitter_passes(
    model: KripkeModel, blocks: Iterable[Mask], ops: Sequence[Operator]
) -> Iterator[list[Mask]]:
    """Refine ``blocks`` until every operator of ``ops`` maps blocks (pairs of
    blocks, for an until) to unions of blocks; yields the blocks after each
    pass.

    A pass cuts every block by f(B) for each additive f (``op._chain ==
    "additive"``) and by f(Σ∖B) for each dual one, over the blocks B the
    last pass changed (all of them in the first pass), and by EU(B1, B2)
    for each until operator and each pair of blocks B1 ≠ B2 of which one
    is fresh: a splitter already used keeps cutting nothing, since blocks
    only get finer.  Every operator must be a chain or an until, as those
    that :func:`~abspres.languages._splitters` picks are.  The last pass
    makes no block, so its yield repeats the one before (or the input).  The
    result is the coarsest such refinement of the input, since each cut
    separates states that every stable refinement of it separates.

    One state → block index is built per call and kept across passes;
    :func:`_split_once` updates it and names the indices it changed, which
    are the next pass's fresh blocks.  Each split re-points the states of
    its smaller part, whose size is at most half the block they leave, so a
    state is re-pointed at most log₂ n times over the whole refinement.

    Until cuts are made by entries (:func:`_entries`), one cut X(B2) per
    target block B2, and they give each pass's blocks as the pairs do:

    - X(B2) ∩ B1 = EU(B1, B2) ∩ B1 for every block B1 ≠ B2.  EU(B1, B2) is
      B2 with the states of B1 that reach B2 by a path inside B1, and the
      last move of such a path goes from B1 into B2.  The search starts at
      pre(B2) ∖ B2, the sources of those last moves, and steps back only
      along moves inside one block, so the states of B1 it reaches are
      exactly those paths' states.
    - One cut X(B2) splits as all the pair cuts EU(B1, B2) do.  A pass's
      result is the common refinement of its starting blocks by its cuts,
      whatever their order; EU(B1, B2) lies in B1 ∪ B2 and holds B2, so it
      can split only B1, into EU(B1, B2) ∩ B1 and the rest, and X(B2) holds
      B2 and meets each B1 in that same set.  A pair with no move from B1
      into B2 has EU(B1, B2) ∩ B1 = ∅, so the targets are the fresh blocks
      and the blocks a fresh block moves into.
    - The extra pairs cut nothing.  Through X(B2), a target entered from a
      fresh block also cuts by the pairs (B1, B2) in which neither block is
      fresh.  At the start of every pass such a pair is stable, EU(B1, B2)
      ∩ B1 being ∅ or B1, by induction on the passes: before the first
      every block is fresh; and a pair neither of whose blocks is fresh at
      the start of pass p + 1 was a pair of blocks at the start of pass p
      that pass p left whole.  If one of them was fresh then, pass p cut by
      the pair and B1 stayed whole, and otherwise the pair was stable at
      its start; EU(B1, B2) depends only on B1, B2 and the model.

    A search costs pre(B2) and one row AND per state it visits: it steps
    from t to pred(t) ∩ blocks[owner[t]], read off the model's predecessor
    rows and the index as it goes, so nothing but the blocks and the index
    is kept across passes.
    """
    full = model.space.full_mask
    blocks = list(blocks)
    owner = _owners(model.n, blocks)
    fresh: Iterable[int] = range(len(blocks))
    chains = [(op, op._chain == "dual") for op in ops if op._chain != "until"]
    until = any(op._chain == "until" for op in ops)
    while True:
        cuts = set()
        for op, dual in chains:
            cuts.update(
                apply_operator(op, model, (full & ~blocks[k] if dual else blocks[k],))
                for k in fresh
            )
        if until:
            cuts.update(_entries(model, blocks, owner, fresh).values())
        changed: set[int] = set()
        _split_once(blocks, owner, cuts, changed)
        yield list(blocks)
        if not changed:
            return
        fresh = changed


def _stable_partition(
    model: KripkeModel, blocks: Iterable[Mask], ops: Sequence[Operator]
) -> Partition:
    """The last pass of :func:`_splitter_passes`, as a partition."""
    for last in _splitter_passes(model, blocks, ops):
        pass
    return Partition.from_masks(model.space, last)


_EX = (builtin_operator("EX"),)
_EU = (builtin_operator("EU"),)


def bisim_partition(model: KripkeModel) -> Partition:
    """Coarsest bisimulation partition: the label partition refined by the
    splitter engine on ``EX`` (pre) until pre(B) is a union of blocks for
    every block B."""
    return _stable_partition(model, label_partition(model).blocks, _EX)


def check_bisimulation(p: Partition, model: KripkeModel) -> bool:
    """Is P a bisimulation?  It is one exactly when, as an equivalence, it
    is a simulation: the label inclusion both ways makes labels equal in a
    block, and every move of a member is matched by every other member."""
    _check_space(p, model, "partition and model")
    return check_simulation(Preorder.from_partition(p), model)


def dbs_partition(model: KripkeModel) -> Partition:
    """Coarsest divergence-blind stuttering partition: the label partition
    refined by the splitter engine on ``EU`` until EU(B1, B2) ∩ B1 is ∅ or
    B1 for all blocks B1 ≠ B2."""
    return _stable_partition(model, label_partition(model).blocks, _EU)


def check_dbs(p: Partition, model: KripkeModel) -> bool:
    """Is P a divergence-blind stuttering equivalence?  Label condition plus
    the block criterion: for B1 ≠ B2 the set EU(B1,B2) ∩ B1 is empty or all
    of B1 (members reach B2 inside B1 together, or none does).

    Only the pairs with a move from B1 into B2 are tested: for any other
    pair EU(B1, B2) ∩ B1 = ∅, since a member of B1 in EU(B1, B2) has a path
    inside B1 into B2, and its last move goes from B1 into B2.  Those B2
    meet post(B1) ∖ B1, read off the partition's own state → block index
    as the rows of the ∃∃ :func:`~abspres.kripke.quotient` are.  ``EU`` is
    :func:`~abspres.languages.until_mask`, not the engine's entries search;
    the tests judge this checker by ``brute_stuttering`` and
    ``all_pairs_check_dbs``, and ``until_mask`` by ``eu_path_oracle``
    (``tests/conftest.py``)."""
    _check_space(p, model, "partition and model")
    if not p.refines(label_partition(model)):
        return False
    blocks = p.blocks
    return all(
        (until_mask(model, b1, blocks[k]) & b1) in (0, b1)
        for b1 in blocks
        for k in _members(p._meeting(model.post(b1) & ~b1))
    )


def _similarity(model: KripkeModel, atoms: Iterable[Mask]) -> Preorder:
    """The largest simulation that relates s to s' only when every atom of
    ``atoms`` holding s' holds s: start from R(s) = ⋂ {Σ∖a | s ∉ a} and
    keep R(s) ⊆ pre(R(t)) for every move s → t.

    A worklist holds the set of states whose row shrank since their
    predecessors' rows were last cut by it (all of them at first).  Taking
    t from it intersects pre(R(t)) into R(s) for each predecessor s of t
    (``model.pred``), adding s when R(s) shrinks.  pre is cached by row
    value, at most n values, so states with equal rows share it and the
    values that no row holds any more drop out.  Every cut removes only
    pairs that the greatest fixpoint lacks, and when the worklist is empty
    every move's constraint holds, so the rows are that fixpoint, whatever
    the order t is taken in: the same rows as sweeping every move until none
    shrinks, at the cost of the in-edges of the shrunken rows.  The set is
    a dict's keys, so that the state added last is taken first and a
    shrunken row cuts its predecessors at once; with a set's own pop, which
    sweeps the states by index, a 4000-state random model took about a
    quarter longer."""
    rows = [model.space.full_mask] * model.n
    for a in atoms:
        rows = [row if (a >> s) & 1 else row & ~a for s, row in enumerate(rows)]
    pred = model.pred
    image = lru_cache(maxsize=model.n)(model.pre)
    work = dict.fromkeys(t for t in range(model.n) if pred[t])
    while work:
        t = work.popitem()[0]
        cut = image(rows[t])
        for s in _members(pred[t]):
            row = rows[s] & cut
            if row != rows[s]:
                rows[s] = row
                if pred[s]:
                    work[s] = None
    return Preorder._of_preorder(model.space, tuple(rows))


def largest_simulation(model: KripkeModel) -> Preorder:
    """The similarity preorder from R₀ = {(s,s') | ℓ(s') ⊆ ℓ(s)}: labels
    compare by inclusion, so a state with fewer labels may simulate one with
    more."""
    return _similarity(model, [mask for _, mask in model.label_items])


def equal_label_simulation(model: KripkeModel) -> Preorder:
    """Similarity restricted to equal label sets; its kernel is simulation
    equivalence in the classical sense, the one matched by literal-seeded
    shells.  On partition-induced labelings it coincides with
    :func:`largest_simulation`."""
    labels = [mask for _, mask in model.label_items]
    return _similarity(model, labels + [model.space.full_mask & ~m for m in labels])


def check_simulation(r: Preorder, model: KripkeModel) -> bool:
    """Is R a simulation?  s R s' needs ℓ(s') ⊆ ℓ(s), and every move s → t
    matched by a move s' → t' with t R t'.  By rows, not pairs: R(Σ∖a) ∩ a
    = ∅ for each label a, and R(pred(t)) ⊆ pre(R(t)) for each state t; as
    t R t, pred(t) lies in pre(R(t)), so only the rest is tested, and pre is
    taken once per distinct row."""
    _check_space(r, model, "preorder and model")
    rows, full = r.rows, model.space.full_mask
    if any(_join_rows(rows, full & ~a) & a for _, a in model.label_items):
        return False
    image = cache(model.pre)
    for pred, row in zip(model.pred, rows):
        rest = _join_rows(rows, pred) & ~pred
        if rest and rest & ~image(row):
            return False
    return True


def bisim_shell_partition(model: KripkeModel) -> Partition:
    """Bisimulation through the shell route: pr(S_{∁,pre}(M(P_ℓ))).  The
    shell of these operators runs the splitter engine, as
    :func:`bisim_partition` does."""
    seed = moore_close(label_partition(model).family)
    ops = [builtin_operator("not"), builtin_operator("pre")]
    return pr(shells.forward_complete_shell(seed, ops, model).domain)


def dbs_shell_partition(model: KripkeModel) -> Partition:
    """Stuttering through the shell route: pr(S_{∁,EU}(M(P_ℓ))).  The shell
    of these operators runs the splitter engine, as :func:`dbs_partition`
    does."""
    seed = moore_close(label_partition(model).family)
    ops = [builtin_operator("not"), builtin_operator("EU")]
    return pr(shells.forward_complete_shell(seed, ops, model).domain)


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
    return pr(shells.forward_complete_shell(seed, ops, model).domain)


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


class EquivalenceReport(_Value):
    """One behavioural-equivalence computation with its checker verdict."""

    _fields = ("kind", "partition", "preorder", "consistent")
    kind: str
    partition: Optional[Partition]
    preorder: Optional[Preorder]
    consistent: bool

    def __init__(
        self,
        kind: str,
        partition: Optional[Partition],
        preorder: Optional[Preorder],
        consistent: bool,
    ):
        _set_field(self, "kind", kind)
        _set_field(self, "partition", partition)
        _set_field(self, "preorder", preorder)
        _set_field(self, "consistent", consistent)


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
