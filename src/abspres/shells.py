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
routes, picked by the operators in :func:`~abspres.languages._route`: adp
of the atom partition refined by the splitter engine (L1, L2 and CTL), add
of a similarity preorder (L3), and the Moore closure of the semantic
closure.  The coarsest strongly preserving partition is pr of that domain,
on every route.

The relation search runs the saturation engine once over the concrete
atoms and walks the candidate block relations row by row, pruning each
subtree whose bounds cannot meet an application it recorded, and decides
the relations of each subtree near the leaves together, one bit per
relation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import equivalences
from .errors import CapacityError, ValidationError
from .kripke import KripkeModel
from .lattice import (
    AbstractDomain,
    Mask,
    SetFamily,
    _check_family,
    _check_space,
    _classes,
    _select,
    _set_field,
    _Value,
    domain_leq,
    meet_close,
    moore_close,
)
from .languages import (
    LanguageSpec,
    Operator,
    _check_language,
    _route,
    _splitters,
    apply_operator,
    close,
)
from .partitions import Partition, add, adp, pr

#: Candidate bound for the abstract-relation search (2^{b²} relations).
MAX_SEARCH_CANDIDATES = 1 << 25


class ShellTrace(_Value):
    """Iteration snapshots of a shell computation.

    The first snapshot is the seed.  On the saturation route each round adds
    one snapshot.  On the splitter route the next snapshot is adp(pr(seed))
    when the seed is not partitioning, and then each pass of the splitter
    engine adds adp of its partition.  On both routes image sizes strictly
    increase until the last step, and the final snapshot repeats the
    fixpoint (the last two entries are equal).
    """

    _fields = ("iterations",)
    iterations: tuple[AbstractDomain, ...]

    def __init__(self, iterations: tuple[AbstractDomain, ...]):
        _set_field(self, "iterations", iterations)

    @property
    def new_counts(self) -> tuple[int, ...]:
        """The number of sets each step adds, the last one 0, read off the
        snapshots' sizes: reading it lists every snapshot's image."""
        sizes = [len(d) for d in self.iterations]
        return tuple(b - a for a, b in zip(sizes, sizes[1:]))

    def to_json(self) -> list[list[str]]:
        out = []
        for dom in self.iterations:
            fam = dom.image
            out.append([dom.space.format_mask(m) for m in fam.masks])
        return out


class ShellResult(_Value):
    _fields = ("domain", "trace")
    domain: AbstractDomain
    trace: ShellTrace

    def __init__(self, domain: AbstractDomain, trace: ShellTrace):
        _set_field(self, "domain", domain)
        _set_field(self, "trace", trace)


def forward_complete_shell(
    domain: AbstractDomain,
    fs: Sequence[Operator],
    model: KripkeModel,
) -> ShellResult:
    """Most abstract refinement of the domain forward complete for every f.

    When :func:`~abspres.languages._splitters` admits ``fs``, the answer is
    adp of the splitter refinement of pr(A) by the operators it picks, and
    only materializing its image is bounded by
    :data:`~abspres.lattice.DEFAULT_MAX_FAMILY`.  Otherwise it runs
    :func:`~abspres.languages.close` from image(A): each round adds F(X) and
    re-closes under intersection, X := M(X ∪ F(X)), to fixpoint, with the
    image bounded by the same constant.  See :class:`ShellTrace` for the
    snapshots of each route.
    """
    _check_space(domain, model, "domain and model")
    cuts = _splitters(fs)
    if cuts is not None:
        return _splitter_shell(domain, cuts, model)
    return _closure_shell(domain, fs, model)


def _cut_functions(
    model: KripkeModel, cuts: Sequence[Operator]
) -> tuple[list[equivalences._Cut], bool]:
    """The splitter engine's arguments for the operators that
    :func:`~abspres.languages._splitters` picks: each chain as a function of
    one mask, applied by :func:`~abspres.languages.apply_operator`, with
    whether it is a dual; and whether one of them is ``EU``."""
    splitters = [
        (lambda a, op=op: apply_operator(op, model, (a,)), op._chain == "dual")
        for op in cuts
        if op._chain != "until"
    ]
    return splitters, any(op._chain == "until" for op in cuts)


def _splitter_shell(
    domain: AbstractDomain, cuts: Sequence[Operator], model: KripkeModel
) -> ShellResult:
    """The shell as adp of the splitter refinement of pr(A) by ``cuts``."""
    space = domain.space
    start = pr(domain)
    snapshots = [domain]
    # A refines adp(pr(A)) exactly when it is adp(pr(A))
    if not domain_leq(domain, adp(start)):
        snapshots.append(adp(start))
    size = len(start)
    for blocks in equivalences._splitter_passes(model, start.blocks, *_cut_functions(model, cuts)):
        grown = len(blocks) > size
        snapshots.append(adp(Partition.from_masks(space, blocks)) if grown else snapshots[-1])
        size = len(blocks)
    return ShellResult(snapshots[-1], ShellTrace(tuple(snapshots)))


def _closure_shell(
    domain: AbstractDomain, fs: Sequence[Operator], model: KripkeModel
) -> ShellResult:
    """The shell by :func:`~abspres.languages.close` (see
    :func:`forward_complete_shell`)."""
    masks: set[Mask] = set(domain.masks)
    snapshots = [domain]

    def admit(fresh: Iterable[Mask]) -> set[Mask]:
        added = meet_close(masks, fresh, "shell image")
        if added:
            # every round's family is meet-closed and holds Σ: its own generators
            image = frozenset(masks)
            snapshots.append(AbstractDomain._of_generators(domain.space, image, image))
        else:
            snapshots.append(snapshots[-1])
        return added

    close(masks, fs, lambda op, args: apply_operator(op, model, args), admit)
    return ShellResult(snapshots[-1], ShellTrace(tuple(snapshots)))


def semantic_closure(lang: LanguageSpec, model: KripkeModel) -> SetFamily:
    """The exact set {⟦φ⟧ | φ ∈ L}: atom denotations closed under the
    language's operators by :func:`~abspres.languages.close` (no Moore
    closure here)."""
    if lang.open_ops:
        raise ValidationError("semantic closure needs a closed language")
    _check_language(lang, model)
    masks: set[Mask] = {s.mask for _, s in lang.atoms}

    def admit(fresh: Iterable[Mask]) -> Iterable[Mask]:
        masks.update(fresh)
        _check_family("semantic closure", len(masks))
        return fresh

    close(masks, lang.operators, lambda op, args: apply_operator(op, model, args), admit)
    return SetFamily.of(model.space, masks)


def ad_of_language(lang: LanguageSpec, model: KripkeModel) -> AbstractDomain:
    """The most abstract strongly preserving domain A_L = M({⟦φ⟧ | φ ∈ L}).

    The operators pick the route, through :func:`~abspres.languages._route`.
    On the splitter route (L1, L2 and CTL among others) S is the set of
    unions of the blocks of P_L, and P_L is the partition by atom membership
    refined by the splitter engine by the route's cuts.  On the similarity
    route (L3 among others) S is add(R), R the similarity preorder of the
    atoms.  On both routes the domain stays lazy.  Every other language goes
    through its semantic closure.  Σ is always a member, through the empty
    meet.
    """
    _check_language(lang, model)
    atoms = [s.mask for _, s in lang.atoms]
    engine, cuts = _route(lang)
    if engine == "splitter":
        blocks = _classes(model.n, atoms)
        return adp(equivalences._stable_partition(model, blocks, *_cut_functions(model, cuts)))
    if engine == "similarity":
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
    """The applications of one closure of S = {⟦φ⟧ | φ ∈ L} over the atoms
    that read the transition relation, each tuple once, in the paired
    closure's discovery order, as (operator, argument blocks, value blocks)
    in block indices; None when an atom or a set of S is not a union of
    blocks of ``p``, since then no relation is strong (abstract values are
    block unions).

    Only the atoms and the values of non-Boolean applications are tested.
    A Boolean body is ``not``, ``and`` and ``or`` over its placeholders, and
    the complement, meet and join of block unions are block unions.  So, by
    induction over the closure's discovery order, every value it reaches is
    a block union, or the closure stops at the first that is not.  A
    constant (any 0-ary operator) or an operator that reads no transition
    is tested but records no step: every block model reads it as
    :meth:`~abspres.abstraction.AbstractStructure.from_quotient` does, by
    the least block union holding its value, which is the value itself."""
    atoms = list(dict.fromkeys(s.mask for _, s in lang.atoms))
    if any(p.block_containing(m) != m for m in atoms):
        return None
    steps: list[_Step] = []

    def apply(op: Operator, args: tuple[Mask, ...]) -> Mask:
        value = apply_operator(op, model, args)
        if not op._boolean:
            if p.block_containing(value) != value:
                raise _NotBlockUnion
            if op.arity and op._polarity != 0:
                steps.append((op, tuple([p.inner(a) for a in args]), p.inner(value)))
        return value

    try:
        close(atoms, lang.operators, apply, lambda fresh: fresh)
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
    edge i → j under completion x, so pre(Y) has slice i = ⋁_j E_ij ∧ Y_j.
    Its only transformers are ``pre`` and ``post``: the built-in table of
    :mod:`~abspres.languages` makes the duals ¬pre¬ and ¬post¬ from them.
    """

    __slots__ = ("space", "full_mask", "_rows", "_ones", "_folds", "_copies")

    def __init__(self, width: int, rows: Sequence[Mask]):
        self.space = self  # operator bodies read model.space.full_mask
        self.full_mask, offsets, self._ones, self._folds, self._copies = _shape(len(rows), width)
        self._rows = tuple(zip(rows, offsets))

    def meets(self, y: Mask) -> Mask:
        """The completions under which the packed mask ``y`` is nonempty."""
        for shift in self._folds:
            y |= y >> shift
        return y & self._ones

    def pre(self, y: Mask) -> Mask:
        acc = 0
        folds, ones = self._folds, self._ones
        for row, at in self._rows:
            t = row & y
            if t:  # slice i is meets(row i ∧ y), inlined
                for shift in folds:
                    t |= t >> shift
                acc |= (t & ones) << at
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


@lru_cache(maxsize=None)
def _shape(b: int, width: int) -> tuple:
    """What a :class:`_BlockBatch` of b slices of ``width`` bits reads
    besides its rows, built once per process for each (b, width): the full
    mask; the offsets of the slices; the slice mask; halving shifts that OR
    every slice into slice 0; and doubling shifts that copy slice 0 into
    every slice."""
    folds = []
    k = b
    while k > 1:
        k = (k + 1) // 2
        folds.append(k * width)
    ones = (1 << width) - 1
    copies = tuple(width << s for s in range((b - 1).bit_length()))
    return (1 << (b * width)) - 1, range(0, b * width, width), ones, tuple(folds), copies


def _lifts(b: int, width: int) -> list[Mask]:
    """Every block mask over b blocks as the packed mask that holds it under
    each of ``width`` completions, indexed by the block mask."""
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


#: The pair table of a search covers the lowest ⌊this / b⌋ open rows of
#: its batches (all of them for b ≤ 3): at most 2^this frozensets, built
#: once per process.  A 2^12-entry table for the three open rows of four
#: blocks raised the relation-search benchmark's peak memory by about 3 MB,
#: and building it cost most of the throughput that the table gains there.
_TABLE_BITS = 9


@lru_cache(maxsize=None)
def _search_tables(b: int) -> tuple:
    """What every search over b blocks reads, built once per process:
    ``batched``, the rows a batch leaves open; ``width``, its number of
    completions; the lifted block masks of a batch (:func:`_lifts`) and of
    the two-completion batch of the node bounds; ``patterns``, the packed
    rows of the open rows (open row i steps into block j under completion x
    iff bit i·b + j of x is set); ``pairs``, where ``pairs[i][r]`` lists
    the pairs (i, j) of row value r; ``low_bits``, the bits of the lowest
    open rows that the pair table covers, and their mask; and the pair
    table, indexed by x < 2^``low_bits``, whose entry x holds pair (i, j)
    iff bit i·b + j of x is set: the entry with x's lowest bit cleared plus
    that bit's pair."""
    batched = min(b, _BATCH_BITS // b)
    width = 1 << (batched * b)
    patterns = tuple(
        sum(_bit_pattern(i * b + j, width) << (j * width) for j in range(b))
        for i in range(batched)
    )
    pairs = tuple(
        tuple(tuple((i, j) for j in range(b) if (r >> j) & 1) for r in range(1 << b))
        for i in range(b)
    )
    low_bits = min(batched, _TABLE_BITS // b) * b
    table = [frozenset()]
    for x in range(1, 1 << low_bits):
        table.append(table[x & (x - 1)] | {divmod((x & -x).bit_length() - 1, b)})
    return (
        batched, width, tuple(_lifts(b, width)), tuple(_lifts(b, 2)), patterns, pairs,
        low_bits, (1 << low_bits) - 1, tuple(table),
    )


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
    recorded application.  Applications of Boolean operators, of constants
    and of operators that read no transition are not recorded: on block
    unions they agree with every block model (see
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
    longer checks the step.  Steps of mixed polarity are left to the
    batch.

    At the first node whose open rows span at most 2^12 relations (the root
    for b ≤ 3, the nodes below row 3 for b = 4, below rows 4 to 2 for
    b = 5), one :class:`_BlockBatch` holds every completion of the node,
    completion x standing for the relation whose open rows are x's bits.
    Each step left runs once on it, through the same operator bodies as on
    one block model, and this is exact: ¬, ∧ and ∨ act on each bit alone,
    pre and post read only the edges of one completion, a fixpoint or a
    bounded search iterates all completions together until all converge
    or the bound is met (a converged one stays put), and when the joint
    prefix pre^i(S), i ≤ lo, of ``EF[lo,hi]`` repeats, so does each
    completion's, at the same indices.
    So the value's bits under x are what x's block model gives.  A step
    keeps the completions whose slices all equal its value's, and the
    batch stops once none is left; the node builds no other batch.  The
    survivors are read off the alive mask in ascending order, which is the
    relations' bit order, by :func:`~abspres.lattice._select` in C rather
    than bit by bit.  Each one's lowest open rows are one entry of a
    per-process table of frozensets, and its other rows one frozenset per
    distinct value in the batch, so a hit costs a lookup or one union, not
    a step per row; for b ≤ 3 the table has one entry per completion, and
    a hit is its entry.  The table, the batch's masks and the row pairs are
    built once per process (:func:`_search_tables`).  Hits are shared
    immutable frozensets: one object may stand for the same relation in
    several answers.  :data:`MAX_SEARCH_CANDIDATES` bounds the 2^(b²)
    relations, before any is tried.
    """
    if lang.open_ops:
        raise ValidationError("strong-preservation checks need a closed language")
    if mode not in ("all", "first"):
        raise ValidationError(f"unknown search mode {mode!r}")
    _check_space(p, model, "partition and model")
    _check_language(lang, model)
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
    # a hit's lowest open rows come from the pair table, its other rows
    # from the pairs of each row value
    batched, width, lifted, bound, patterns, pairs, low_bits, low_mask, table = _search_tables(b)
    # in a batch of width 2, bit 0 of each slice is completion 0 and bit 1
    # completion 1
    low = sum(1 << (2 * j) for j in range(b))
    high = low << 1
    first = mode == "first"
    hits: list[frozenset[tuple[int, int]]] = []

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

    def decide(rows: tuple[Mask, ...], pending: list[_Step]) -> None:
        """Add the strong completions of ``rows`` (rows ``batched`` on) to
        ``hits``, in bit order: one batch of all ``width`` completions runs
        every step of ``pending``, and completion x is alive while each
        step's value under x is its recorded value."""
        batch = _BlockBatch(width, [*patterns, *[lifted[r] for r in rows]])
        alive = batch._ones
        for op, args, value in pending:
            got = apply_operator(op, batch, tuple([lifted[a] for a in args]))
            alive &= ~batch.meets(got ^ lifted[value])
            if not alive:
                return
        if first:
            alive &= -alive
        if not rows:  # b ≤ 3: the table has one entry per completion, and no row is fixed
            hits.extend(_select(table, alive))
            return
        fixed = tuple(pair for i, r in enumerate(rows) for pair in pairs[batched + i][r])
        rest: dict[int, frozenset[tuple[int, int]]] = {}  # by the open rows above the table
        for x in _select(range(width), alive):
            above = x >> low_bits
            if above not in rest:
                rel, y = fixed, above
                for row_pairs in pairs[low_bits // b : batched]:
                    rel += row_pairs[y & full]
                    y >>= b
                rest[above] = frozenset(rel)
            hits.append(table[x & low_mask] | rest[above])

    def walk(rows: tuple[Mask, ...], pending: list[_Step]) -> None:
        pending = narrow(rows, pending)
        if pending is None:
            return
        if len(rows) == b - batched:
            decide(rows, pending)
            return
        for row in range(1 << b):
            walk((row,) + rows, pending)
            if first and hits:
                return

    walk((), steps)
    return hits
