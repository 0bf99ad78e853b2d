"""Abstract semantic structures, best correct approximations and the
completeness / strong-preservation checks.

Because abstract values are the closed sets themselves, the best correct
approximation of an operator f is simply μ∘f on closed arguments, and a
domain is forward complete for f exactly when f maps closed tuples to
closed sets.

An :class:`AbstractStructure` checks each value once, when it is built:
its atoms, and the values of an explicit table.  Closures (the best
approximation) and block unions (a quotient's structure) are closed by
construction, so no application is re-checked.

The closed sets of adp(P) are the unions of blocks, a Boolean subalgebra of
℘(Σ): they are closed under ¬, ∧ and ∨, so on them the best correct
approximation of each is the concrete operator itself.  A quotient
structure therefore applies an operator with a Boolean body (``not``,
``and``, ``or`` and placeholders) straight to its block-union arguments,
and a constant (a 0-ary operator, whatever its body reads) or one that
reads no transition by the least block union holding its value; only the
other operators go through the block-level model.

Strong preservation of a structure is decided exactly (no formula-depth
bound) through the *paired semantic closure*: the least set of pairs
(⟦φ⟧, γ⟦φ⟧♯) containing the atom pairs and closed under paired operator
application.  It is finite (⊆ ℘(Σ)×℘(Σ)) and covers every formula of the
language; :func:`paired_semantic_closure` returns it as a
:class:`PairedClosure`, whose verdict, weak flag and witness are read off
the pairs.  The pairs are saturated by the same engine as the semantic
closure, :func:`~abspres.languages.close`, with pairs of masks as its items.

:func:`paired_sp_check` returns only an :class:`SpVerdict`: the verdict and
a witness.  Under a language that :func:`~abspres.languages._route` sends
to the splitter or the similarity engine, a quotient by P is strong iff
adp(P) ⊑ A_L and each checked operator agrees with the concrete one on each
generator g of A_L (dual chains) or on Σ∖g (additive chains):
:func:`_strong_on_generators`.  It first tries P's own blocks, and builds
no A_L when they decide: if each atom is a union of blocks and each checked
operator agrees with the concrete one on each block B of P (additive
chains) or on Σ∖B (dual chains), the quotient is strong.  By induction on
φ, ⟦φ⟧ and γ⟦φ⟧♯ are then the same block union: atoms by the first check,
the Boolean operators are exact on block unions, and on block unions both
sides of an additive chain distribute over the union of the blocks (both
sides of a dual one preserve the meet of the Σ∖B, Σ included), so agreement
on the blocks is agreement everywhere.  The block test is not necessary:
on the 3-cycle 1 → 2 → 3 → 1 with one label on every state, the ∃∃
quotient by {1}, {2,3} is strong under L1, yet EX{1} = {3} is no block
union.  So when it fails, the generator test decides.

Under a language with ``not`` a quotient is never weak-only (an existential
atom contains its concrete set, and ¬ is exact on block unions), so
otherwise a paired closure that stops at the first violating pair, with the
full closure's witness, decides it.

The relation search of :mod:`abspres.shells` needs no paired closure either:
S = {⟦φ⟧ | φ ∈ L} is the same for every candidate, so it closes S once and
checks each candidate against that record.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapacityError, ValidationError
from .formulas import App, Atom, Formula
from .kripke import KripkeModel, Quotient
from .lattice import AbstractDomain, Mask, StateSet, _check_space, _set_field, _Value, domain_leq
from .languages import (
    LanguageSpec,
    Operator,
    _check_language,
    _has_not,
    _route,
    apply_operator,
    close,
    eval_formula,
    gfp,
    lfp,
)
from .partitions import Partition, adp
from .shells import ad_of_language

#: Bound on the argument tuples of one operator in :func:`completeness_check`.
DEFAULT_MAX_TUPLES = 1 << 20
#: Bound on the pairs of one :func:`paired_semantic_closure`.
DEFAULT_MAX_PAIRS = 1 << 16


def bca_apply(
    domain: AbstractDomain,
    f: Operator,
    args: Sequence[StateSet],
    model: KripkeModel,
) -> StateSet:
    """Best correct approximation μ(f(γ(args))) on closed arguments."""
    _check_space(domain, model, "domain and model")
    masks = []
    for s in args:
        _check_space(s, domain, "argument and domain")
        if not domain.contains(s.mask):
            raise ValidationError(f"{s!r} is not a closed set of the domain")
        masks.append(s.mask)
    raw = apply_operator(f, model, masks)
    return StateSet(domain.space, domain.closure_mask(raw))


def eval_abstract(
    phi: Formula,
    domain: AbstractDomain,
    model: KripkeModel,
    lang: LanguageSpec,
) -> StateSet:
    """⟦φ⟧ under the structure induced by the domain: atoms are abstracted
    by μ and operators by their best correct approximations."""
    return AbstractStructure.best_approximation(domain, model, lang).semantics(phi)


class AbstractStructure(_Value):
    """An abstract semantic structure (A, I♯) over closed sets.

    Atom interpretations are closed sets; ``apply`` interprets an operator
    on a tuple of closed sets and returns a closed set.  Construct through
    one of :meth:`best_approximation` (values are closures),
    :meth:`from_quotient` (values are block unions) or :meth:`from_tables`
    (every table value is checked when the structure is built), so
    ``apply`` never re-checks its result.  Two structures are equal only
    when they are the same object.
    """

    _fields = ("domain", "lang", "atom_values", "apply")
    domain: AbstractDomain
    lang: LanguageSpec
    atom_values: dict[str, Mask]
    apply: Callable[[Operator, tuple[Mask, ...]], Mask]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        domain: AbstractDomain,
        lang: LanguageSpec,
        atom_values: dict[str, Mask],
        apply: Callable[[Operator, tuple[Mask, ...]], Mask],
    ):
        for name, mask in atom_values.items():
            if not domain.contains(mask):
                raise ValidationError(f"atom {name!r} is interpreted by a non-closed set")
        _set_field(self, "domain", domain)
        _set_field(self, "lang", lang)
        _set_field(self, "atom_values", atom_values)
        _set_field(self, "apply", apply)

    @staticmethod
    def best_approximation(
        domain: AbstractDomain, model: KripkeModel, lang: LanguageSpec
    ) -> "AbstractStructure":
        _check_space(domain, model, "domain and model")
        _check_language(lang, model)
        atoms = {
            name: domain.closure_mask(s.mask) for name, s in lang.atoms
        }

        def apply(op: Operator, args: tuple[Mask, ...]) -> Mask:
            return domain.closure_mask(apply_operator(op, model, args))

        return AbstractStructure(domain, lang, atoms, apply)

    @staticmethod
    def from_quotient(q: Quotient, lang: LanguageSpec) -> "AbstractStructure":
        """The structure induced by an abstract Kripke structure on blocks.

        Atom interpretations follow the existential labeling (every block
        meeting the concrete atom set); operators are evaluated over the
        block-level model and mapped back through the union of blocks.

        Operators with a Boolean body skip the block model: ``inner`` and
        ``union`` are a Boolean-algebra isomorphism between the block unions
        of Σ and the block-index masks (Σ maps to the full mask), so ¬, ∧
        and ∨ give the same block union applied to the arguments themselves.
        A 0-ary operator, a constant of the language even when its body
        reads the relation, skips it too, as does one that reads no
        transition (``_polarity`` 0): each is read by its best approximation
        on adp(P), the least block union holding its value on the parent.
        """
        _check_language(lang, q.parent)
        p = q.partition
        atoms = {name: p.block_containing(s.mask) for name, s in lang.atoms}

        def apply(op: Operator, args: tuple[Mask, ...]) -> Mask:
            if op._boolean:
                return apply_operator(op, q.parent, args)
            if op._polarity == 0 or not op.arity:
                return p.block_containing(apply_operator(op, q.parent, args))
            return p.union(apply_operator(op, q.model, tuple(p.inner(a) for a in args)))

        return AbstractStructure(adp(p), lang, atoms, apply)

    @staticmethod
    def from_tables(
        domain: AbstractDomain,
        lang: LanguageSpec,
        atom_values: dict[str, Mask],
        tables: dict[str, dict[tuple[Mask, ...], Mask]],
    ) -> "AbstractStructure":
        """The structure that reads each operator's values off ``tables``."""
        for name, table in tables.items():
            for args, out in table.items():
                if not domain.contains(out):
                    raise ValidationError(
                        f"interpretation table for {name!r} maps {args} to a non-closed set"
                    )

        def apply(op: Operator, args: tuple[Mask, ...]) -> Mask:
            try:
                return tables[op.name][args]
            except KeyError:
                raise ValidationError(
                    f"interpretation table for {op.name!r} lacks entry {args}"
                ) from None

        return AbstractStructure(domain, lang, atom_values, apply)

    def atom_value(self, name: str) -> Mask:
        if name not in self.atom_values:
            self.lang.atom_mask(name)  # an atom the language lacks: ResolutionError
            raise ValidationError(f"structure does not interpret atom {name!r}")
        return self.atom_values[name]

    def semantics(self, phi: Formula) -> StateSet:
        mask = eval_formula(phi, self.lang, self.atom_value, self.apply)
        return StateSet(self.domain.space, mask)


class PairedClosure(_Value):
    """The pairs (⟦φ⟧, γ⟦φ⟧♯) in discovery order, each with the formula φ
    that first produced it; ``aborted`` when the closure stopped at the
    first violating pair.  The verdict is read off the pairs: strong when
    every pair agrees, weak when every abstract side lies inside its
    concrete side, and the witness is the first pair that disagrees."""

    _fields = ("pairs", "formulas", "aborted")
    pairs: tuple[tuple[Mask, Mask], ...]
    formulas: tuple[Formula, ...]
    aborted: bool

    def __init__(
        self, pairs: tuple[tuple[Mask, Mask], ...], formulas: tuple[Formula, ...], aborted: bool
    ):
        _set_field(self, "pairs", pairs)
        _set_field(self, "formulas", formulas)
        _set_field(self, "aborted", aborted)

    @property
    def strong(self) -> bool:
        return all(c == a for c, a in self.pairs)

    @property
    def weak(self) -> bool:
        return not any(a & ~c for c, a in self.pairs)

    @property
    def witness(self) -> Optional[Formula]:
        bad = (phi for (c, a), phi in zip(self.pairs, self.formulas) if c != a)
        return next(bad, None)

    @property
    def verdict(self) -> str:
        """One of "strong", "weak-only" and "neither"."""
        if self.strong:
            return "strong"
        return "weak-only" if self.weak else "neither"


class _Violation(Exception):
    """Raised inside the paired closure to stop at the first violating pair."""


def paired_semantic_closure(
    model: KripkeModel,
    structure: AbstractStructure,
    lang: LanguageSpec,
    *,
    abort_on_violation: bool = False,
) -> PairedClosure:
    """Compute the least pair set; track the first strongness violation.

    The pairs are saturated by :func:`~abspres.languages.close`, each tuple
    once.  A pair keeps the formula that first produced it, so the witness is
    the first violating pair by round, operator (lowest arity first, ties in
    ``lang.operators`` order) and tuple.  With ``abort_on_violation`` the
    closure stops at that pair, keeping the full closure's strong flag and
    witness: :func:`paired_sp_check` runs it so for quotients under a
    language with ``not``.  The pair that takes the count past
    :data:`DEFAULT_MAX_PAIRS` raises :class:`CapacityError` as it is made.
    """
    if lang.open_ops:
        raise ValidationError("strong-preservation checks need a closed language")
    _check_space(structure.domain, model, "structure and model")
    _check_language(lang, model)
    formulas: dict[tuple[Mask, Mask], Formula] = {}

    def result(aborted: bool) -> PairedClosure:
        return PairedClosure(tuple(formulas), tuple(formulas.values()), aborted)

    def check_size(extra: int) -> None:
        size = len(formulas) + extra
        if size > DEFAULT_MAX_PAIRS:
            raise CapacityError(
                f"paired closure exceeded DEFAULT_MAX_PAIRS = {DEFAULT_MAX_PAIRS} (now {size} pairs)"
            )

    for name, s in lang.atoms:
        pair = (s.mask, structure.atom_value(name))
        if pair not in formulas:
            check_size(1)
            formulas[pair] = Atom(name)
            if abort_on_violation and pair[0] != pair[1]:
                return result(True)

    # the round's new pairs, counted as they are made
    made: set[tuple[Mask, Mask]] = set()

    def apply(op: Operator, args: tuple[tuple[Mask, Mask], ...]) -> tuple[Mask, Mask]:
        c = apply_operator(op, model, [x[0] for x in args])
        a = structure.apply(op, tuple([x[1] for x in args]))
        pair = (c, a)
        if abort_on_violation and c != a:
            formulas[pair] = App(op.name, tuple(formulas[x] for x in args))
            raise _Violation
        if pair not in formulas and pair not in made:
            made.add(pair)
            check_size(len(made))
        return pair

    def admit(fresh: dict) -> Iterable[tuple[Mask, Mask]]:
        made.clear()
        for pair, (op, args) in fresh.items():
            formulas[pair] = App(op.name, tuple(formulas[x] for x in args))
        return fresh

    try:
        close(formulas, lang.operators, apply, admit)
    except _Violation:
        return result(True)
    return result(False)


class SpVerdict(_Value):
    """A strong-preservation verdict, one of "strong", "weak-only" and
    "neither", and unless strong a witness: a formula whose concrete and
    abstract semantics differ."""

    _fields = ("verdict", "witness")
    verdict: str
    witness: Optional[Formula]

    def __init__(self, verdict: str, witness: Optional[Formula]):
        _set_field(self, "verdict", verdict)
        _set_field(self, "witness", witness)

    @property
    def strong(self) -> bool:
        return self.verdict == "strong"


def _agrees_on(
    model: KripkeModel, structure: AbstractStructure, cuts: Sequence[Operator], sets: Iterable[Mask]
) -> bool:
    """Does each cut agree with the concrete operator on each X of ``sets``
    (additive chains) or on Σ∖X (dual chains)?"""
    full = model.space.full_mask
    sets = tuple(sets)
    for op in cuts:
        dual = op._chain == "dual"
        for x in sets:
            if dual:
                x = full & ~x
            if structure.apply(op, (x,)) != apply_operator(op, model, (x,)):
                return False
    return True


def _strong_on_generators(model: KripkeModel, p: Partition, structure: AbstractStructure) -> bool:
    """Does the block test or the generator test (module docstring) show
    the quotient by ``p`` strong?  Both check the operators
    :func:`~abspres.languages._route` returns, the cuts of the splitter
    route or the ``AX``/``pre~`` operators of the similarity route, unless
    an until is among them (``EU`` is not additive in its first argument);
    with no route it is False.

    The block test comes first: each atom's existential value is its
    concrete set, and each cut agrees with the concrete operator on every
    block B of P (additive chains) or on Σ∖B (dual chains).  It is
    sufficient, by induction on φ: ⟦φ⟧ = γ⟦φ⟧♯ and both are block unions.
    Atoms are so by the first check.  ``and``, ``or`` and ``not`` are exact
    on block unions on both sides.  An additive chain distributes over the
    union of blocks on both sides (the quotient's union∘f♯∘inner does, as
    inner, f♯ and union each do, and both map ∅ to ∅), so agreement on the
    blocks is agreement on every block union; a dual chain preserves meets
    on block unions on both sides and maps Σ to Σ, and every block union is
    a meet of the Σ∖B, so agreement on those suffices.  The fixpoints that
    do not cut are built from the next operator among the cuts, ¬, ∩ and ∪,
    so their iterates agree too.  It is not necessary (the 3-cycle of the
    module docstring), so when it fails, the generator test decides.

    The generator test is exact.  S ⊆ adp(P) iff adp(P) ⊑ A_L = M(S), and
    A_L's generators G lie in S, so agreement on G is needed.  It suffices:
    on the similarity route S = add(R) is the meets of G = {Σ∖R(s)}, Σ the
    empty one, and concrete AX and the quotient's union∘pre~∘inner both
    preserve ∩ on block unions (inner, pre~ and union each do) and map Σ to
    Σ.  On the splitter route G is the Σ∖C for the blocks C of P_L and S
    their unions; both sides of an additive (dual) chain distribute over the
    unions of the C (the meets of the Σ∖C), and the fixpoints that do not
    cut are built from the next operator among the cuts."""
    lang = structure.lang
    engine, cuts = _route(lang)
    if engine is None or any(op._chain == "until" for op in cuts):
        return False
    if all(structure.atom_values[name] == s.mask for name, s in lang.atoms) and _agrees_on(
        model, structure, cuts, p.blocks
    ):
        return True
    a_l = ad_of_language(lang, model)
    if not domain_leq(adp(p), a_l):
        return False
    full = model.space.full_mask
    return _agrees_on(model, structure, cuts, (full & ~g for g in a_l._gens))


def paired_sp_check(
    model: KripkeModel,
    abstract: "AbstractStructure | Quotient",
    lang: LanguageSpec,
) -> SpVerdict:
    """Exact strong/weak preservation verdict for an abstract model, with the
    full paired closure's witness.

    ``abstract`` is either an :class:`AbstractStructure` or a block-level
    :class:`Quotient` (then the induced structure with existential labeling
    is checked).  A quotient passes the block or the generator test (module
    docstring) or, under a language with ``not #1``, goes to an aborting paired
    closure; every other case reads the verdict off the full paired
    closure.  :data:`DEFAULT_MAX_PAIRS` bounds whichever closure runs.
    """
    if isinstance(abstract, Quotient):
        _check_space(abstract.parent, model, "quotient and model")
        structure = AbstractStructure.from_quotient(abstract, lang)
        if _strong_on_generators(model, abstract.partition, structure):
            return SpVerdict("strong", None)
        if _has_not(lang.operators):
            cut = paired_semantic_closure(model, structure, lang, abort_on_violation=True)
            return SpVerdict("neither", cut.witness) if cut.aborted else SpVerdict("strong", None)
    else:
        structure = abstract
    closure = paired_semantic_closure(model, structure, lang)
    return SpVerdict(closure.verdict, closure.witness)


class CompletenessCounterexample(_Value):
    """First tuple violating the defining equation.

    Forward: lhs = f(args) on closed args, rhs = μ(f(args)).
    Backward: lhs = μ(f(args)) on raw args, rhs = μ(f(μ(args))).
    """

    _fields = ("op", "args", "lhs", "rhs")
    op: str
    args: tuple[StateSet, ...]
    lhs: StateSet
    rhs: StateSet

    def __init__(self, op: str, args: tuple[StateSet, ...], lhs: StateSet, rhs: StateSet):
        _set_field(self, "op", op)
        _set_field(self, "args", args)
        _set_field(self, "lhs", lhs)
        _set_field(self, "rhs", rhs)


class CompletenessReport(_Value):
    _fields = ("direction", "holds", "counterexample", "checked")
    direction: str
    holds: bool
    counterexample: Optional[CompletenessCounterexample]
    checked: int

    def __init__(
        self,
        direction: str,
        holds: bool,
        counterexample: Optional[CompletenessCounterexample],
        checked: int,
    ):
        _set_field(self, "direction", direction)
        _set_field(self, "holds", holds)
        _set_field(self, "counterexample", counterexample)
        _set_field(self, "checked", checked)

    def __bool__(self) -> bool:
        return self.holds


def completeness_check(
    direction: str,
    domain: AbstractDomain,
    fs: Sequence[Operator],
    model: KripkeModel,
) -> CompletenessReport:
    """Check forward (f∘μ⃗ = μ∘f∘μ⃗) or backward (μ∘f = μ∘f∘μ⃗) completeness.

    Forward ranges over tuples of image members in canonical order, backward
    over tuples of all subsets (it never materializes the domain); both
    report the first counterexample.  The check is exhaustive: an operator
    whose tuples exceed :data:`DEFAULT_MAX_TUPLES` raises
    :class:`CapacityError` before any of them is tried.
    """
    if direction not in ("forward", "backward"):
        raise ValidationError(f"unknown direction {direction!r}")
    _check_space(domain, model, "domain and model")
    space = domain.space
    mu = domain.closure_mask
    forward = direction == "forward"
    if forward:
        members: Sequence[Mask] = sorted(domain.masks, key=space.lex_key)
        size = len(members)
    else:
        size = 1 << space.n
        members = range(size)
    checked = 0
    for f in fs:
        count = size**f.arity
        if count > DEFAULT_MAX_TUPLES:
            raise CapacityError(
                f"{direction} check for {f.name!r} needs {count} tuples, "
                f"over DEFAULT_MAX_TUPLES = {DEFAULT_MAX_TUPLES}"
            )
        for args in product(members, repeat=f.arity):
            checked += 1
            raw = apply_operator(f, model, args)
            if forward:
                lhs, rhs = raw, mu(raw)
            else:
                lhs, rhs = mu(raw), mu(apply_operator(f, model, tuple(mu(a) for a in args)))
            if lhs != rhs:
                ce = CompletenessCounterexample(
                    f.name,
                    tuple(StateSet(space, a) for a in args),
                    StateSet(space, lhs),
                    StateSet(space, rhs),
                )
                return CompletenessReport(direction, False, ce, checked)
    return CompletenessReport(direction, True, None, checked)


def is_sp_domain(domain: AbstractDomain, lang: LanguageSpec, model: KripkeModel) -> bool:
    """True iff the domain is strongly preserving for the language, by the
    paper's definition: it refines A_L = M({⟦φ⟧ | φ ∈ L}), the most abstract
    strongly preserving domain.  :func:`~abspres.lattice.domain_leq` tests
    only A_L's generators: one membership test per block of P_L for a
    splitter-class language, one per class of the similarity for a
    similarity-class one.  Neither builds S; other languages build A_L as
    the Moore closure of S, whose generators are S, so one membership test
    per member of S."""
    return domain_leq(domain, ad_of_language(lang, model))


class GfpTransferReport(_Value):
    """Outcome of the fixpoint-transfer check α(gfp f) = gfp(f^A)."""

    _fields = ("applicable", "gfp_holds", "lfp_checked", "lfp_holds", "detail")
    applicable: bool  # forward completeness hypothesis holds
    gfp_holds: Optional[bool]
    lfp_checked: bool  # γ(⊥_A) = ⊥ held, so the lfp direction was checked too
    lfp_holds: Optional[bool]
    detail: str

    def __init__(
        self,
        applicable: bool,
        gfp_holds: Optional[bool],
        lfp_checked: bool,
        lfp_holds: Optional[bool],
        detail: str,
    ):
        _set_field(self, "applicable", applicable)
        _set_field(self, "gfp_holds", gfp_holds)
        _set_field(self, "lfp_checked", lfp_checked)
        _set_field(self, "lfp_holds", lfp_holds)
        _set_field(self, "detail", detail)

    @property
    def holds(self) -> bool:
        return bool(self.applicable and self.gfp_holds and self.lfp_holds is not False)


def gfp_transfer_check(
    domain: AbstractDomain, f: Operator, model: KripkeModel
) -> GfpTransferReport:
    """Verify fixpoint transfer for a monotone unary f the domain is forward
    complete for; vacuous (no claim) when the hypothesis fails.

    On these finite lattices the continuity side conditions hold, so when
    ∅ is closed (γ(⊥) = ⊥) the least-fixpoint direction is verified too.
    Every iteration stops within the height of the lattice, or raises
    :class:`ValidationError` at the first step that shows f is not monotone.
    """
    if f.arity != 1:
        raise ValidationError("fixpoint transfer checks unary operators")
    fwd = completeness_check("forward", domain, [f], model)
    if not fwd.holds:
        return GfpTransferReport(
            False, None, False, None, "hypothesis fails: domain is not forward complete"
        )
    full = domain.space.full_mask

    def concrete(z: Mask) -> Mask:
        return apply_operator(f, model, (z,))

    def abstract(z: Mask) -> Mask:
        return domain.closure_mask(concrete(z))

    gfp_c = gfp(concrete, full)
    gfp_a = gfp(abstract, full)
    gfp_ok = domain.closure_mask(gfp_c) == gfp_a

    lfp_checked = domain.contains(0)
    lfp_ok: Optional[bool] = None
    if lfp_checked:
        lfp_c = lfp(concrete, 0)
        lfp_a = lfp(abstract, 0)
        lfp_ok = domain.closure_mask(lfp_c) == lfp_a
    detail = f"gfp {'=' if gfp_ok else '≠'}"
    if lfp_checked:
        detail += f", lfp {'=' if lfp_ok else '≠'}"
    else:
        detail += ", lfp skipped (∅ not closed)"
    return GfpTransferReport(True, gfp_ok, lfp_checked, lfp_ok, detail)
