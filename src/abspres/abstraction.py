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
``and``, ``or`` and placeholders) straight to its block-union arguments;
only the other operators go through the block-level model.

Strong preservation of a structure is decided exactly (no formula-depth
bound) through the *paired semantic closure*: the least set of pairs
(⟦φ⟧, γ⟦φ⟧♯) containing the atom pairs and closed under paired operator
application.  It is finite (⊆ ℘(Σ)×℘(Σ)) and covers every formula of the
language; :func:`paired_semantic_closure` returns it as a
:class:`PairedClosure`, whose verdict, weak flag and witness are read off
the pairs.  The pairs are saturated by the same engine as the semantic
closure, :func:`~abspres.languages.close`, with pairs of masks as its items.

:func:`paired_sp_check` returns only an :class:`SpVerdict`: the verdict and
a witness.  A quotient under a language with ``not`` is never weak-only (an
existential atom contains its concrete set, and ¬ is exact on block
unions), so a paired closure that stops at the first violating pair, with
the full closure's witness, decides it.  For a splitter-class language
whose cuts (:func:`~abspres.languages._splitters`) hold no until, a block
test shows "strong" first: S is the set of unions of P_L's blocks, so by
the paper's characterisation (S representable, operators agreeing on S)
the quotient by P is strong iff P refines P_L and each cut agrees with the
concrete one on each block C of P_L (additive chains) or on Σ∖C (dual
chains).  Both sides distribute over the unions, respectively
intersections, that build S from these sets, and the fixpoints that do not
cut are built from the next operator among the cuts.  ``EU`` is not
additive in its first argument, so L2 has no block test.

The relation search of :mod:`abspres.shells` needs no paired closure either:
S = {⟦φ⟧ | φ ∈ L} is the same for every candidate, so it closes S once and
checks each candidate against that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapacityError, SpaceMismatchError, ValidationError
from .formulas import App, Atom, Formula
from .kripke import KripkeModel, Quotient
from .lattice import AbstractDomain, Mask, StateSet, domain_leq
from .languages import (
    LanguageSpec,
    Operator,
    _has_not,
    _splitters,
    apply_operator,
    close,
    eval_formula,
    gfp,
    in_splitter_class,
    lfp,
)
from .partitions import Partition, adp
from .shells import ad_of_language, coarsest_sp_partition

DEFAULT_MAX_TUPLES = 1 << 20
DEFAULT_MAX_PAIRS = 1 << 16


def bca_apply(
    domain: AbstractDomain,
    f: Operator,
    args: Sequence[StateSet],
    model: KripkeModel,
) -> StateSet:
    """Best correct approximation μ(f(γ(args))) on closed arguments."""
    masks = []
    for s in args:
        if s.space != domain.space:
            raise SpaceMismatchError("argument over a different space")
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


@dataclass(frozen=True, eq=False)
class AbstractStructure:
    """An abstract semantic structure (A, I♯) over closed sets.

    Atom interpretations are closed sets; ``apply`` interprets an operator
    on a tuple of closed sets and returns a closed set.  Construct through
    one of :meth:`best_approximation` (values are closures),
    :meth:`from_quotient` (values are block unions) or :meth:`from_tables`
    (every table value is checked when the structure is built), so
    ``apply`` never re-checks its result.
    """

    domain: AbstractDomain
    lang: LanguageSpec
    atom_values: dict[str, Mask]
    apply: Callable[[Operator, tuple[Mask, ...]], Mask]

    def __post_init__(self):
        for name, mask in self.atom_values.items():
            if not self.domain.contains(mask):
                raise ValidationError(f"atom {name!r} is interpreted by a non-closed set")

    @staticmethod
    def best_approximation(
        domain: AbstractDomain, model: KripkeModel, lang: LanguageSpec
    ) -> "AbstractStructure":
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
        """
        p = q.partition
        atoms = {name: p.block_containing(s.mask) for name, s in lang.atoms}

        def apply(op: Operator, args: tuple[Mask, ...]) -> Mask:
            if op._boolean:
                return apply_operator(op, q.parent, args)
            return p.union(apply_operator(op, q.model, tuple(p.inner(a) for a in args)))

        return AbstractStructure(adp(p), lang, atoms, apply)

    @staticmethod
    def from_tables(
        domain: AbstractDomain,
        lang: LanguageSpec,
        atom_values: dict[str, Mask],
        tables: dict[str, dict[tuple[Mask, ...], Mask]],
    ) -> "AbstractStructure":
        """An explicitly tabulated interpretation (used to enumerate I♯)."""
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


@dataclass(frozen=True)
class PairedClosure:
    """The pairs (⟦φ⟧, γ⟦φ⟧♯) in discovery order, each with the formula φ
    that first produced it; ``aborted`` when the closure stopped at the
    first violating pair.  The verdict is read off the pairs: strong when
    every pair agrees, weak when every abstract side lies inside its
    concrete side, and the witness is the first pair that disagrees."""

    pairs: tuple[tuple[Mask, Mask], ...]
    formulas: tuple[Formula, ...]
    aborted: bool

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
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> PairedClosure:
    """Compute the least pair set; track the first strongness violation.

    The pairs are saturated by :func:`~abspres.languages.close`; each pair
    keeps the formula that first produced it, so the witness is the first
    violating pair in discovery order.  With ``abort_on_violation`` the
    closure stops at that pair, keeping the full closure's strong flag and
    witness: :func:`paired_sp_check` runs it so for quotients under a
    language with ``not``.
    """
    if lang.open_ops:
        raise ValidationError("strong-preservation checks need a closed language")
    formulas: dict[tuple[Mask, Mask], Formula] = {}

    def result(aborted: bool) -> PairedClosure:
        return PairedClosure(tuple(formulas), tuple(formulas.values()), aborted)

    def check_size(extra: int) -> None:
        size = len(formulas) + extra
        if size > max_pairs:
            raise CapacityError(f"paired closure exceeded max_pairs = {max_pairs} (now {size} pairs)")

    for name, s in lang.atoms:
        pair = (s.mask, structure.atom_value(name))
        if pair not in formulas:
            check_size(1)
            formulas[pair] = Atom(name)
            if abort_on_violation and pair[0] != pair[1]:
                return result(True)

    def apply(op: Operator, args: tuple[tuple[Mask, Mask], ...]) -> tuple[Mask, Mask]:
        c = apply_operator(op, model, [x[0] for x in args])
        a = structure.apply(op, tuple([x[1] for x in args]))
        if abort_on_violation and c != a:
            formulas[(c, a)] = App(op.name, tuple(formulas[x] for x in args))
            raise _Violation
        return (c, a)

    def admit(fresh: dict) -> Iterable[tuple[Mask, Mask]]:
        check_size(len(fresh))
        for pair, (op, args) in fresh.items():
            formulas[pair] = App(op.name, tuple(formulas[x] for x in args))
        return fresh

    # one stage per operator, lowest arity first: later operators of a round
    # already see the pairs earlier ones added, which fixes the witness found
    stages = [[op] for op in sorted(lang.operators, key=lambda op: op.arity)]
    try:
        close(formulas, stages, apply, admit)
    except _Violation:
        return result(True)
    return result(False)


@dataclass(frozen=True)
class SpVerdict:
    """A strong-preservation verdict, one of "strong", "weak-only" and
    "neither", and unless strong a witness: a formula whose concrete and
    abstract semantics differ."""

    verdict: str
    witness: Optional[Formula]

    @property
    def strong(self) -> bool:
        return self.verdict == "strong"


def _strong_on_blocks(model: KripkeModel, p: Partition, structure: AbstractStructure) -> bool:
    """Does the block test (module docstring) show the quotient by ``p``
    strong?  False also for a language outside the splitter class or one
    whose cuts hold an until, where the test does not apply."""
    cuts = _splitters(structure.lang.operators)
    if not in_splitter_class(structure.lang) or any(op._chain == "until" for op in cuts):
        return False
    blocks = coarsest_sp_partition(structure.lang, model).blocks
    if any(p.block_containing(c) != c for c in blocks):
        return False
    full = model.space.full_mask
    for op in cuts:
        for c in blocks:
            x = c if op._chain == "additive" else full & ~c
            if structure.apply(op, (x,)) != apply_operator(op, model, (x,)):
                return False
    return True


def paired_sp_check(
    model: KripkeModel,
    abstract: "AbstractStructure | Quotient",
    lang: LanguageSpec,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> SpVerdict:
    """Exact strong/weak preservation verdict for an abstract model, with the
    full paired closure's witness.

    ``abstract`` is either an :class:`AbstractStructure` or a block-level
    :class:`Quotient` (then the induced structure with existential labeling
    is checked).  A quotient under a language with ``not #1`` is decided by
    the block test or an aborting paired closure (module docstring); every
    other case reads the verdict off the full paired closure.  ``max_pairs``
    bounds whichever closure runs.
    """
    if isinstance(abstract, Quotient):
        if abstract.parent.space != model.space:
            raise SpaceMismatchError("quotient of a different model")
        structure = AbstractStructure.from_quotient(abstract, lang)
        if _has_not(lang.operators):
            if _strong_on_blocks(model, abstract.partition, structure):
                return SpVerdict("strong", None)
            cut = paired_semantic_closure(
                model, structure, lang, abort_on_violation=True, max_pairs=max_pairs
            )
            return SpVerdict("neither", cut.witness) if cut.aborted else SpVerdict("strong", None)
    else:
        structure = abstract
    closure = paired_semantic_closure(model, structure, lang, max_pairs=max_pairs)
    return SpVerdict(closure.verdict, closure.witness)


@dataclass(frozen=True)
class CompletenessCounterexample:
    """First tuple violating the defining equation.

    Forward: lhs = f(args) on closed args, rhs = μ(f(args)).
    Backward: lhs = μ(f(args)) on raw args, rhs = μ(f(μ(args))).
    """

    op: str
    args: tuple[StateSet, ...]
    lhs: StateSet
    rhs: StateSet


@dataclass(frozen=True)
class CompletenessReport:
    direction: str
    holds: bool
    counterexample: Optional[CompletenessCounterexample]
    checked: int

    def __bool__(self) -> bool:
        return self.holds


def completeness_check(
    direction: str,
    domain: AbstractDomain,
    fs: Sequence[Operator],
    model: KripkeModel,
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> CompletenessReport:
    """Check forward (f∘μ⃗ = μ∘f∘μ⃗) or backward (μ∘f = μ∘f∘μ⃗) completeness.

    Forward ranges over tuples of image members in canonical order, backward
    over tuples of all subsets (it never materializes the domain); both
    report the first counterexample.  The check is exhaustive: an operator
    whose tuples exceed ``max_tuples`` raises :class:`CapacityError` before
    any of them is tried.
    """
    if direction not in ("forward", "backward"):
        raise ValidationError(f"unknown direction {direction!r}")
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
        if count > max_tuples:
            raise CapacityError(
                f"{direction} check for {f.name!r} needs {count} tuples, "
                f"over max_tuples = {max_tuples}"
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


@dataclass(frozen=True)
class GfpTransferReport:
    """Outcome of the fixpoint-transfer check α(gfp f) = gfp(f^A)."""

    applicable: bool  # forward completeness hypothesis holds
    gfp_holds: Optional[bool]
    lfp_checked: bool  # γ(⊥_A) = ⊥ held, so the lfp direction was checked too
    lfp_holds: Optional[bool]
    detail: str

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
