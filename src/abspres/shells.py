"""Forward complete shells, language semantic closures, the most abstract
strongly preserving domain and the block-relation search.

The shell of a domain A for a set F of transformers is the most abstract
refinement of A that is forward complete for every f ∈ F: the least Moore
family holding A's image that F maps into itself.  It has two routes.

- When :func:`~abspres.languages._splitters` admits F (``not #1``, Boolean
  operators, unary additive or dual chains, ``EU #1 #2``, and the built-in
  until and release operators beside a next operator), the shell is
  partitioning: it is adp(Q), where Q is the coarsest refinement of pr(A)
  that the splitter engine of :mod:`~abspres.equivalences` leaves whole.
  pr(A) is the start because the shell holds the Boolean algebra
  adp(pr(A)) that A generates, so A need not be partitioning.  The answer
  is lazy, as adp is.
- Every other F runs the package's saturation engine,
  :func:`~abspres.languages.close`: repeatedly add images of F on the
  family and re-close under intersection until nothing new appears.  The
  result is the greatest fixpoint of ρ ↦ μ_A ⊓ M(F(ρ)), reached from above;
  maximality is exhaustively verified at n = 3 by the tests, and the tests
  run this route as the oracle of the first.

The semantic closure of a language runs the saturation engine without the
re-closing.  The most abstract strongly preserving domain A_L has three
routes, picked by the operators: adp of the atom partition refined by the
splitter engine (L1, L2 and CTL), add of a similarity preorder (L3), and
the Moore closure of the semantic closure.  The coarsest strongly
preserving partition is pr of that domain, on every route.

The relation search runs the saturation engine once over the concrete
atoms and walks the candidate block relations row by row, pruning each
subtree whose bounds cannot meet an application it recorded, and decides
the relations of each subtree near the leaves together, one bit per
relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from . import equivalences
from .errors import CapacityError, SpaceMismatchError, ValidationError
from .kripke import KripkeModel
from .lattice import (
    AbstractDomain,
    DEFAULT_MAX_FAMILY,
    Mask,
    SetFamily,
    meet_close,
    moore_close,
)
from .languages import (
    LanguageSpec,
    Operator,
    _splitters,
    apply_operator,
    close,
    in_similarity_class,
    in_splitter_class,
)
from .partitions import Partition, add, adp, pr

#: Candidate bound for the abstract-relation search (2^{b²} relations).
MAX_SEARCH_CANDIDATES = 1 << 25


@dataclass(frozen=True)
class ShellTrace:
    """Iteration snapshots of a shell computation.

    The first snapshot is the seed.  On the saturation route each round adds
    one snapshot.  On the splitter route the next snapshot is adp(pr(seed))
    when the seed is not partitioning, and then each pass of the splitter
    engine adds adp of its partition.  On both routes image sizes strictly
    increase until the last step, the final snapshot repeats the fixpoint
    (the last two entries are equal), ``new_counts`` holds the number of
    sets each step adds, and the last new-set count is 0.
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
) -> ShellResult:
    """Most abstract refinement of the domain forward complete for every f.

    When :func:`~abspres.languages._splitters` admits ``fs``, the answer is
    adp of the splitter refinement of pr(A) by the operators it picks, and
    only materializing its image is bounded by
    :data:`DEFAULT_MAX_FAMILY`.  Otherwise it runs
    :func:`~abspres.languages.close` from image(A): each round adds F(X) and
    re-closes under intersection, X := M(X ∪ F(X)), to fixpoint, with the
    image bounded by :data:`DEFAULT_MAX_FAMILY`.  See :class:`ShellTrace`
    for the snapshots of each route.
    """
    if model.space != domain.space:
        raise SpaceMismatchError("model over a different space than the domain")
    cuts = _splitters(fs)
    if cuts is not None:
        return _splitter_shell(domain, cuts, model)
    return _closure_shell(domain, fs, model)


def _splitter_shell(
    domain: AbstractDomain, cuts: Sequence[Operator], model: KripkeModel
) -> ShellResult:
    """The shell as adp of the splitter refinement of pr(A) by ``cuts``."""
    space = domain.space
    start = pr(domain)
    snapshots = [domain]
    counts: list[int] = []
    # A holds Σ∖B for each block B of pr(A) exactly when it is adp(pr(A))
    if not all(domain.contains(space.full_mask & ~b) for b in start.blocks):
        snapshots.append(adp(start))
        counts.append((1 << len(start)) - len(domain))
    size = len(start)
    for blocks in equivalences._splitter_passes(model, start.blocks, cuts):
        grown = len(blocks) > size
        snapshots.append(adp(Partition.from_masks(space, blocks)) if grown else snapshots[-1])
        counts.append((1 << len(blocks)) - (1 << size))
        size = len(blocks)
    return ShellResult(snapshots[-1], ShellTrace(tuple(snapshots), tuple(counts)))


def _closure_shell(
    domain: AbstractDomain, fs: Sequence[Operator], model: KripkeModel
) -> ShellResult:
    """The shell by :func:`~abspres.languages.close` (see
    :func:`forward_complete_shell`)."""
    masks: set[Mask] = set(domain.masks)
    # every round's family is meet-closed and holds Σ, so no snapshot is re-checked
    snapshots = [AbstractDomain._of_moore(domain.space, frozenset(masks))]
    counts: list[int] = []

    def admit(fresh: Iterable[Mask]) -> set[Mask]:
        added = meet_close(masks, fresh)
        if len(masks) > DEFAULT_MAX_FAMILY:
            raise CapacityError(
                f"shell image reached {len(masks)} sets, "
                f"over DEFAULT_MAX_FAMILY = {DEFAULT_MAX_FAMILY}"
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
            raise CapacityError(
                f"semantic closure reached {len(masks)} sets, "
                f"over DEFAULT_MAX_FAMILY = {DEFAULT_MAX_FAMILY}"
            )
        return fresh

    close(masks, [lang.operators], lambda op, args: apply_operator(op, model, args), admit)
    return SetFamily.of(model.space, masks)


def ad_of_language(lang: LanguageSpec, model: KripkeModel) -> AbstractDomain:
    """The most abstract strongly preserving domain A_L = M({⟦φ⟧ | φ ∈ L}).

    The operators pick the route.  For a language of the splitter class
    (:func:`~abspres.languages.in_splitter_class`: L1, L2 and CTL among
    them) S is the set of unions of the blocks of P_L, and P_L is the
    partition by atom membership refined by the splitter engine.  For one of
    the similarity class (:func:`~abspres.languages.in_similarity_class`:
    L3 among them) S is add(R), R the similarity preorder of the atoms.  On
    both routes the domain stays lazy.  Every other language goes through
    its semantic closure.  Σ is always a member, through the empty meet.
    """
    atoms = [s.mask for _, s in lang.atoms]
    if in_splitter_class(lang):
        blocks = [model.space.full_mask]
        equivalences._split_once(blocks, atoms)
        return adp(equivalences._stable_partition(model, blocks, _splitters(lang.operators)))
    if in_similarity_class(lang):
        return add(equivalences._similarity(model, atoms))
    return moore_close(semantic_closure(lang, model))


def coarsest_sp_partition(lang: LanguageSpec, model: KripkeModel) -> Partition:
    """P_L = pr(A_L): states grouped by logical equivalence.  On the
    refinement routes, pr(adp(P)) = P and pr(add(R)) is R's kernel; a
    language without atoms has a one-block P_L."""
    return pr(ad_of_language(lang, model))


class _NotBlockUnion(Exception):
    """A set of S is not a union of blocks, so no relation is strong."""


_Step = tuple[Operator, tuple[Mask, ...], Mask]


def _recorded_steps(
    p: Partition, lang: LanguageSpec, model: KripkeModel
) -> Optional[list[_Step]]:
    """The non-Boolean applications of one closure of S = {⟦φ⟧ | φ ∈ L} over
    the atoms (one stage per operator, lowest arity first, as in the paired
    closure), as (operator, argument blocks, value blocks) in block indices;
    None when an atom or a set of S is not a union of blocks of ``p``, since
    then no relation is strong."""
    # abstract values are block unions: if an atom or a set of S is not
    # one, no relation can work
    atoms = list(dict.fromkeys(s.mask for _, s in lang.atoms))
    if any(p.block_containing(m) != m for m in atoms):
        return None
    steps: list[_Step] = []

    def apply(op: Operator, args: tuple[Mask, ...]) -> Mask:
        value = apply_operator(op, model, args)
        if p.block_containing(value) != value:
            raise _NotBlockUnion
        if not op._boolean:
            steps.append((op, tuple([p.inner(a) for a in args]), p.inner(value)))
        return value

    stages = [[op] for op in sorted(lang.operators, key=lambda op: op.arity)]
    try:
        close(atoms, stages, apply, lambda fresh: fresh)
    except _NotBlockUnion:
        return None
    return steps


#: The walk hands the first node whose open rows span at most 2^this many
#: relations to one :class:`_BlockBatch`, which decides them all at once.
_BATCH_BITS = 12


class _BlockBatch:
    """The block models of a set of relations over b blocks, evaluated
    together.

    Each relation is a completion x < ``width``.  A packed mask holds one
    slice of ``width`` bits per block: bit x of slice j (bit j·width + x of
    the int) says whether block j is in the set under completion x.  ¬, ∧,
    ∨, equality and hashing are then plain int operations on every
    completion at once, so the operator bodies of
    :func:`~abspres.languages.apply_operator` run on a batch unchanged, as
    on a :class:`~abspres.kripke.KripkeModel` (why the answer is each
    completion's: :func:`sp_abstract_kripke_search`).  Only the
    transformers read the relation: bit x of slice j of ``rows[i]`` is the
    edge i → j under completion x, so pre(Y) has slice i = ⋁_j E_ij ∧ Y_j,
    and the duals are ¬pre¬ and ¬post¬.
    """

    __slots__ = ("space", "full_mask", "_rows", "_ones", "_folds", "_copies", "_table")

    def __init__(self, width: int, rows: Sequence[Mask]):
        b = len(rows)
        self.space = self  # operator bodies read model.space.full_mask
        self.full_mask = (1 << (b * width)) - 1
        self._rows = tuple(zip(rows, range(0, b * width, width)))
        self._ones = (1 << width) - 1
        # halving shifts that OR every slice into slice 0, and doubling
        # shifts that copy slice 0 into every slice
        self._folds: list[int] = []
        k = b
        while k > 1:
            k = (k + 1) // 2
            self._folds.append(k * width)
        self._copies = [width << s for s in range((b - 1).bit_length())]
        # a batch of at most 10 bits, such as the node bounds, looks meets up
        self._table = _meets_table(b, width) if b * width <= 10 else None

    def meets(self, y: Mask) -> Mask:
        """The completions under which the packed mask ``y`` is nonempty."""
        if self._table:
            return self._table[y]
        for shift in self._folds:
            y |= y >> shift
        return y & self._ones

    def pre(self, y: Mask) -> Mask:
        acc = 0
        folds, ones, table = self._folds, self._ones, self._table
        for row, at in self._rows:
            t = row & y
            if t:  # slice i is meets(row i ∧ y), inlined
                if table:
                    t = table[t]
                else:
                    for shift in folds:
                        t |= t >> shift
                    t &= ones
                acc |= t << at
        return acc

    def post(self, y: Mask) -> Mask:
        acc = 0
        for row, at in self._rows:
            t = (y >> at) & self._ones
            if t:
                for shift in self._copies:
                    t |= t << shift
                acc |= row & t
        return acc

    def cpre(self, y: Mask) -> Mask:
        full = self.full_mask
        return full & ~self.pre(full & ~y)

    def cpost(self, y: Mask) -> Mask:
        full = self.full_mask
        return full & ~self.post(full & ~y)


@lru_cache(maxsize=None)
def _meets_table(b: int, width: int) -> tuple[Mask, ...]:
    """:meth:`_BlockBatch.meets` of every packed mask of b slices of
    ``width`` bits, indexed by the mask: the batches of the node bounds
    look it up instead of folding."""
    out = []
    for t in range(1 << (b * width)):
        acc = 0
        for j in range(b):
            acc |= t >> (j * width)
        out.append(acc & ((1 << width) - 1))
    return tuple(out)


def _bits(mask: Mask) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lifts(b: int, width: int, ones: Optional[Mask] = None) -> list[Mask]:
    """Every block mask over b blocks as the packed mask that holds it under
    each of ``width`` completions (under those of ``ones`` when given),
    indexed by the block mask."""
    if ones is None:
        ones = (1 << width) - 1
    table = [0] * (1 << b)
    for m in range(1, 1 << b):
        j = (m & -m).bit_length() - 1
        table[m] = table[m & (m - 1)] | (ones << (j * width))
    return table


def _bit_pattern(m: int, width: int) -> Mask:
    """The ``width``-bit mask whose bit x is bit m of x."""
    half = 1 << m
    period = half << 1
    return (((1 << half) - 1) << half) * (((1 << width) - 1) // ((1 << period) - 1))


def sp_abstract_kripke_search(
    p: Partition,
    lang: LanguageSpec,
    model: KripkeModel,
    mode: str = "all",
) -> list[frozenset[tuple[int, int]]]:
    """Every abstract transition relation on the blocks of ``p`` whose
    abstract Kripke structure is strongly preserving, in the order of the
    relations' bits (row i of block successors at bits i·b to i·b + b - 1);
    ``mode="first"`` stops at the first.

    Abstract atoms follow the existential labeling (the block union of
    every block meeting the atom's denotation); operators are interpreted
    over the candidate block relation through the language's transformer
    bodies.  Relations are returned as index pairs over ``p.blocks``.

    A strong structure agrees with ⟦·⟧ on every formula, so one recorded
    closure of S = {⟦φ⟧ | φ ∈ L} (:func:`_recorded_steps`) fixes it: a
    relation is strong iff its block model gives the recorded value on every
    recorded application.  Applications of Boolean operators are not
    recorded: on block unions they agree with every block model (see
    :meth:`~abspres.abstraction.AbstractStructure.from_quotient`).

    The relations are walked depth first, row by row: row b - 1 is fixed
    first and row 0 last, each row's 2^b values in ascending order.  At a
    node the rows still open are set to ∅ for R_lo and to every block for
    R_hi.  A step whose operator grows with the relation
    (``Operator._polarity`` 1) then prunes the subtree when f(R_lo) ⊄ V or
    V ⊄ f(R_hi), V its recorded value; one that shrinks (-1) swaps R_lo and
    R_hi.  Every completion R of the node has R_lo ⊆ R ⊆ R_hi, so f(R) = V
    puts V between the two bounds, and no strong relation is cut; when the
    two bounds both equal V, every completion gives V, and the subtree no
    longer checks the step.  Steps of mixed or no polarity are left to the
    batch.

    At the first node whose open rows span at most 2^12 relations (the root
    for b ≤ 3, the nodes below row 3 for b = 4, below rows 4 to 2 for
    b = 5), one :class:`_BlockBatch` holds every completion of the node,
    completion x standing for the relation whose open rows are x's bits.
    Each step left runs once on it, through the same operator bodies as on
    one block model, and this is exact: ¬, ∧ and ∨ act on each bit alone,
    pre and post read only the edges of one completion, a fixpoint
    iterates all completions together until all have converged (a
    converged one stays put), and when the joint sequence pre^i(S) of
    ``EF[lo,hi]`` repeats, so does each completion's, at the same indices.
    So the value's bits under x are what x's block model gives.  A step
    keeps the completions whose slices all equal its value's, and the
    batch stops once none is left.  The survivors are read off in
    ascending order, which is the relations' bit order, and each one's
    pairs come from a table of every row's pairs.
    :data:`MAX_SEARCH_CANDIDATES` bounds the 2^(b²) relations, before any
    is tried.
    """
    if lang.open_ops:
        raise ValidationError("strong-preservation checks need a closed language")
    if mode not in ("all", "first"):
        raise ValidationError(f"unknown search mode {mode!r}")
    if p.space != model.space:
        raise SpaceMismatchError("partition over a different space than the model")
    b = len(p.blocks)
    if (1 << (b * b)) > MAX_SEARCH_CANDIDATES:
        raise CapacityError(
            f"{b} blocks means 2^{b * b} candidate relations, "
            f"over MAX_SEARCH_CANDIDATES = {MAX_SEARCH_CANDIDATES}"
        )
    steps = _recorded_steps(p, lang, model)
    if steps is None:
        return []

    full = (1 << b) - 1
    batched = min(b, _BATCH_BITS // b)  # the rows a batch leaves open
    width = 1 << (batched * b)
    lifted, bound = _lifts(b, width), _lifts(b, 2)
    # in a batch of width 2, bit 0 of each slice is completion 0 and bit 1
    # completion 1
    low = sum(1 << (2 * j) for j in range(b))
    high = low << 1
    # open row i of a batch steps into block j under completion x iff bit
    # i·b + j of x is set
    patterns = [
        sum(_bit_pattern(i * b + j, width) << (j * width) for j in range(b))
        for i in range(batched)
    ]
    pairs = [[tuple((i, j) for j in range(b) if (r >> j) & 1) for r in range(1 << b)] for i in range(b)]

    def narrow(rows: tuple[Mask, ...], pending: list[_Step]) -> Optional[list[_Step]]:
        """The steps of ``pending`` that the completions of ``rows``, the
        rows from b - len(rows) on, may still fail, or None when each of
        them fails one.  Both bounds run in one batch: completion 0 is R_lo
        and completion 1 is R_hi.  A bounded step whose two bounds meet at
        its recorded value holds on every completion."""
        bounds = _BlockBatch(2, [high] * (b - len(rows)) + [bound[r] for r in rows])
        left = []
        for step in pending:
            op, args, value = step
            if not op._polarity:
                left.append(step)
                continue
            got = apply_operator(op, bounds, tuple([bound[a] for a in args]))
            v = bound[value]
            small, large = (low, high) if op._polarity > 0 else (high, low)
            if got & ~v & small or v & ~got & large:
                return None
            if (got ^ (got >> 1)) & low:
                left.append(step)
        return left

    def decide(rows: tuple[Mask, ...], pending: list[_Step]) -> Iterator[frozenset[tuple[int, int]]]:
        """The strong completions of ``rows`` (rows ``batched`` on), in bit
        order.  Once at most 1/16 of a batch's completions are left, and
        fewer of them than steps, the steps after run on a batch of those
        alone, in the same order: gathering them costs less than a step on
        the wide batch."""
        members: Sequence[int] = range(width)  # completion k of the batch is x = members[k]
        batch, lift = _BlockBatch(width, patterns + [lifted[r] for r in rows]), lifted
        alive = batch._ones
        for done, (op, args, value) in enumerate(pending, 1):
            got = apply_operator(op, batch, tuple([lift[a] for a in args]))
            alive &= ~batch.meets(got ^ lift[value])
            if not alive:
                return
            count = alive.bit_count()
            if count * 16 <= len(members) and count < len(pending) - done:
                members = [members[k] for k in _bits(alive)]
                lift, unit = _lifts(b, count), _lifts(b, count, 1)
                open_rows = [
                    sum(unit[(x >> (i * b)) & full] << k for k, x in enumerate(members))
                    for i in range(batched)
                ]
                batch = _BlockBatch(count, open_rows + [lift[r] for r in rows])
                alive = batch._ones
        fixed = tuple(pair for i, r in enumerate(rows) for pair in pairs[batched + i][r])
        for k in _bits(alive):
            x, rel = members[k], fixed
            for row_pairs in pairs[:batched]:
                rel += row_pairs[x & full]
                x >>= b
            yield frozenset(rel)

    def walk(rows: tuple[Mask, ...], pending: list[_Step]) -> Iterator[frozenset[tuple[int, int]]]:
        pending = narrow(rows, pending)
        if pending is None:
            return
        if len(rows) == b - batched:
            yield from decide(rows, pending)
            return
        for row in range(1 << b):
            yield from walk((row,) + rows, pending)

    hits: list[frozenset[tuple[int, int]]] = []
    for rel in walk((), steps):
        hits.append(rel)
        if mode == "first":
            break
    return hits
