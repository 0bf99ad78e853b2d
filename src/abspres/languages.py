"""Language specifications, built-in operator semantics and concrete evaluation.

A language is a set of named atoms with fixed interpretations plus a set of
named operators, each defined by a transformer expression over the built-ins
(complement, meet, join, the four pre/post transformers, the until/release
fixpoints and bounded reachability), each one row of ``_BUILTIN_TABLE``.
``EU`` is a backward search (:func:`until_mask`) and ``AU`` a Knaster-Tarski
iteration; ``AR`` and ``EF[lo,hi]`` use EU's search and ``ER`` AU's
iteration (:func:`_dual`, :func:`_ef_bounded`).

An :class:`Operator` resolves its body once, when it is built; only a
constant's space is left for :func:`apply_operator` to check.  The same
walk reads off the rows whether its body is Boolean (only ``not``, ``and``,
``or`` and placeholders), which lets quotient structures apply it to block
unions directly, whether its body is a chain of additive built-ins (or of
their duals) applied to ``#1``, or ``EU #1 #2``, and whether it grows or
shrinks with the transition relation, which bounds the relation search.  The
operators, never a language's name, pick its routes: :func:`_splitters`
for a set of operators, and :func:`_route`, the one place that decides a
language's engine.

:func:`close` is the one saturation engine of the package: the forward
complete shell (outside the splitter class, whose shells the splitter
engine of :mod:`~abspres.equivalences` computes), the semantic closure of a
language and the paired semantic closure all run it with their own item
type and admission step; it applies each operator to each tuple once.

Shipped presets: L1 (atoms, ∧, ¬, EX), L2 (atoms, ∧, ¬, EU), L3 (atoms and
negated atoms, ∧, ∨, AX), CTL, the traffic-light language ``semaforo``
(atoms + AXX) and the bounded-reachability language ``exef`` (atoms, ∧,
EF[0,2]).  The ``full`` preset resolves every built-in.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .errors import CapacityError, ResolutionError, ValidationError
from .formulas import (
    App,
    Arg,
    Atom,
    Const,
    EF_PATTERN,
    Formula,
    Node,
    max_placeholder,
    parse_transformer,
)
from .kripke import KripkeModel
from .lattice import Mask, StateSet, _check_space, _set_field, _Value

PRESET_NAMES = ("L1", "L2", "L3", "CTL", "semaforo", "exef", "full")
# tuples one operator may try in one round of close: a closure that reaches
# all 2^10 sets, as the semantic closure of L1 at n=10 does, tries 2^20 `and`
# tuples a round (A_L and P_L of L1 come from the splitter engine and close
# nothing), and an arity-12 operator over 5 sets would try 5^12
MAX_STAGE_TUPLES = 1 << 24

T = TypeVar("T")


class Operator(_Value):
    """A named n-ary transformer: a body over built-ins and #k placeholders.

    The body is resolved once, at construction, by one walk
    (:func:`_resolve_body`) into a function of (model, argument masks) and
    three facts; a bad body raises then, naming the operator.
    ``_boolean`` holds when the body has only ``"boolean"`` built-ins and
    placeholders.  ``_chain`` is ``"additive"`` when the operator is unary
    and its body is a chain of ``"additive"`` built-ins applied to ``#1``,
    ``"dual"`` for a chain of ``"dual"`` ones, ``"until"`` when the operator
    is binary and its body is exactly ``EU #1 #2``, and None otherwise.
    ``_polarity`` is the sign of the operator in the transition relation.
    Only ``name``, ``arity`` and ``body`` are compared.
    """

    _fields = ("name", "arity", "body")
    name: str
    arity: int
    body: Node
    _resolved: Callable[[KripkeModel, Sequence[Mask]], Mask]
    _boolean: bool
    _chain: Optional[str]
    _polarity: Optional[int]

    def __init__(self, name: str, arity: int, body: Node):
        _set_field(self, "name", name)
        _set_field(self, "arity", arity)
        _set_field(self, "body", body)
        resolved, boolean, chain, polarity = _resolve_body(self, body)
        if arity == 2 and body == _UNTIL_BODY:
            chain = "until"
        elif arity != 1:
            chain = None
        _set_field(self, "_resolved", resolved)
        _set_field(self, "_boolean", boolean)
        _set_field(self, "_chain", chain or None)
        _set_field(self, "_polarity", polarity)


def operator_from_expr(name: str, arity: int, expr: str) -> Operator:
    return Operator(name, arity, parse_transformer(expr))


def const_operator(name: str, value: StateSet) -> Operator:
    """A 0-ary transformer denoting a fixed set (atom interpretations)."""
    return Operator(name, 0, Const(value))


def lfp(step: Callable[[Mask], Mask], bottom: Mask) -> Mask:
    """Least fixpoint above ``bottom`` by ascending Knaster-Tarski iteration."""
    z = bottom
    while True:
        nxt = step(z)
        if nxt == z:
            return z
        if z & ~nxt:
            raise ValidationError("lfp iteration is not ascending (operator not monotone?)")
        z = nxt


def gfp(step: Callable[[Mask], Mask], top: Mask) -> Mask:
    """Greatest fixpoint below ``top`` by descending Knaster-Tarski iteration."""
    z = top
    while True:
        nxt = step(z)
        if nxt == z:
            return z
        if nxt & ~z:
            raise ValidationError("gfp iteration is not descending (operator not monotone?)")
        z = nxt


def until_mask(model: KripkeModel, s1: Mask, s2: Mask, steps: Optional[int] = None) -> Mask:
    """EU(S1, S2) over masks: the least fixpoint of z ↦ S2 ∪ (S1 ∩ pre(z)),
    by a backward search from S2 through S1.  pre is additive, so the Kleene
    step from z_k adds S1 ∩ pre(F) ∖ z_k, F the states the step before
    added: each state's in-edges are read once, and a step that adds nothing
    ends at the fixpoint; ``steps`` stops it after that many steps, at
    z_steps from z_0 = S2.  ``AR`` runs it as ¬EU(¬a, ¬b), and the packed
    masks of a :class:`~abspres.shells._BlockBatch` take the same steps slice
    by slice, since the batch's pre is additive too: a slice whose frontier
    is empty stays put, and the joint frontier is empty only when every
    slice's is."""
    reach = frontier = s2
    while frontier and steps != 0:
        frontier = model.pre(frontier) & s1 & ~reach
        reach |= frontier
        if steps is not None:
            steps -= 1
    return reach


def _dual(model: KripkeModel, f: Callable[..., Mask], a: Mask, *rest: Mask) -> Mask:
    """¬f¬ at the arguments, for f a function of masks: every dual built-in
    is made here from the model's ``pre`` and ``post``, so a model needs
    only those and ``space.full_mask``.  AX = pre~ = ¬pre¬, post~ = ¬post¬,
    and by De Morgan ER(a, b) = ¬AU(¬a, ¬b) and AR(a, b) = ¬EU(¬a, ¬b):
    complement reverses ⊆, so it maps the fixpoints of a monotone g onto
    those of ¬g¬, the least onto the greatest, ¬μg = ν(¬g¬).  AU(¬a, ¬b) is
    μg for g(z) = ¬b ∪ (¬a ∩ ¬pre¬z), and ¬g(¬w) = b ∩ (a ∪ pre w) is ER's
    step; EU(¬a, ¬b) is μh for h(z) = ¬b ∪ (¬a ∩ pre z), and ¬h(¬w) =
    b ∩ (a ∪ ¬pre¬w) is AR's.  Stuck states need no case: ¬pre¬z holds each
    stuck state for every z (succ = ∅ ⊆ z), so this holds on every model."""
    full = model.space.full_mask
    if not rest:  # a unary dual, the hot case, builds no argument list
        return full & ~f(full & ~a)
    return full & ~f(full & ~a, *[full & ~b for b in rest])


def _au(model: KripkeModel, s1: Mask, s2: Mask) -> Mask:
    return lfp(lambda z: s2 | (s1 & _dual(model, model.pre, z)), 0)


def _ef_bounded(model: KripkeModel, lo: int, hi: int, s: Mask) -> Mask:
    """EF_[lo,hi](S) = ⋃_{i in [lo,hi]} pre^i(S), which is until_mask(Σ,
    pre^lo(S)) cut after hi - lo steps: pre is additive, so the union is
    ⋃_{j ≤ hi-lo} pre^j(T) for T = pre^lo(S), and with S1 = Σ the Kleene
    step z_k = T ∪ pre(z_(k-1)) gives z_k = ⋃_{j ≤ k} pre^j(T) by induction.
    The steps to pre^lo(S) index the sets they meet: once pre^i(S) =
    pre^j(S) for j < i, the sequence repeats with period i - j, and whole
    periods are skipped, so the cost is bounded by the number of distinct
    sets, not by ``lo``.  On a :class:`~abspres.shells._BlockBatch` a joint
    repeat is each completion's, at the same indices.  Without a repeat it
    calls ``pre`` at most ``hi`` times."""
    span = hi - lo
    if lo:
        seen: dict[Mask, int] = {}
        while lo and s not in seen:
            seen[s] = lo
            s = model.pre(s)
            lo -= 1
        if lo:  # s was met seen[s] - lo steps ago
            lo %= seen[s] - lo
        for _ in range(lo):
            s = model.pre(s)
    return until_mask(model, model.space.full_mask, s, span)


# A row: arity, semantics of (model, argument masks), shape ("boolean",
# "additive" for unary and union-preserving, "dual" for ¬f¬ of one, or
# "fixpoint") and sign (1 or -1 as it grows or shrinks with the transition
# relation, 0 if it does not read it).  pre and post are looked up on the
# model at each call, so a rebound KripkeModel method is seen.
_Builtin = namedtuple("_Builtin", "arity semantics shape sign")
_BUILTIN_TABLE: dict[str, _Builtin] = {
    "not": _Builtin(1, lambda model, a: model.space.full_mask & ~a, "boolean", 0),
    "and": _Builtin(2, lambda model, a, b: a & b, "boolean", 0),
    "or": _Builtin(2, lambda model, a, b: a | b, "boolean", 0),
    "EX": _Builtin(1, lambda model, a: model.pre(a), "additive", 1),
    "AX": _Builtin(1, lambda model, a: _dual(model, model.pre, a), "dual", -1),
    "pre": _Builtin(1, lambda model, a: model.pre(a), "additive", 1),
    "post": _Builtin(1, lambda model, a: model.post(a), "additive", 1),
    "pre~": _Builtin(1, lambda model, a: _dual(model, model.pre, a), "dual", -1),
    "post~": _Builtin(1, lambda model, a: _dual(model, model.post, a), "dual", -1),
    "EU": _Builtin(2, until_mask, "fixpoint", 1),
    "AU": _Builtin(2, _au, "fixpoint", -1),
    "ER": _Builtin(2, lambda model, a, b: _dual(model, partial(_au, model), a, b), "fixpoint", 1),
    "AR": _Builtin(2, lambda model, a, b: _dual(model, partial(until_mask, model), a, b), "fixpoint", -1),
}
# the additive twin of each unary dual: AX = ¬EX¬, pre~ = ¬pre¬, post~ = ¬post¬
_TWINS = {"AX": "EX", "pre~": "pre", "post~": "post"}


def _builtin(name: str) -> Optional[_Builtin]:
    """The row of the built-in ``name``, or None if there is none."""
    m = EF_PATTERN.match(name)
    if m is None:
        return _BUILTIN_TABLE.get(name)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValidationError(f"empty bound range [{lo},{hi}]")
    return _Builtin(1, lambda model, a: _ef_bounded(model, lo, hi, a), "additive", 1)


def _resolve_body(
    op: Operator, node: Node
) -> tuple[Callable[[KripkeModel, Sequence[Mask]], Mask], bool, Optional[str], Optional[int]]:
    """``node`` of the body of ``op`` as a function of (model, argument
    masks), with three facts read off the built-ins' rows in the same walk:

    - whether it is Boolean: only ``"boolean"`` built-ins and placeholders;
    - its chain: ``""`` for ``#1``, ``"additive"`` (``"dual"``) for a chain
      of ``"additive"`` (``"dual"``) built-ins down to ``#1``, else None;
    - its sign as a function of the transition relation, its placeholders
      fixed: 1 when it grows with the relation, -1 when it shrinks, 0 when
      it does not read it and None when its parts disagree (``AX EX #1``).
      A built-in's own sign is its row's; every built-in is monotone in its
      arguments but ``not``, which flips their sign."""
    where = f"operator {op.name!r}:"
    if isinstance(node, Arg):
        if node.index > op.arity:
            raise ValidationError(f"{where} uses #{node.index} but has arity {op.arity}")
        i = node.index - 1
        return (lambda model, args: args[i]), True, "" if i == 0 else None, 0
    if isinstance(node, Const):
        value = node.value

        def const(model: KripkeModel, args: Sequence[Mask]) -> Mask:
            _check_space(value, model, "constant and model")
            return value.mask

        return const, False, None, 0
    if isinstance(node, Atom):
        raise ResolutionError(f"{where} atom {node.name!r} cannot appear in an operator body")
    entry = _builtin(node.op)
    if entry is None:
        raise ResolutionError(f"{where} unknown built-in operator {node.op!r}")
    arity, fn, shape, sign = entry
    if arity != len(node.args):
        raise ValidationError(f"{where} {node.op} expects {arity} arguments, got {len(node.args)}")
    parts, booleans, chains, signs = zip(*[_resolve_body(op, a) for a in node.args])
    boolean = shape == "boolean" and all(booleans)
    chain = shape if shape in ("additive", "dual") and chains[0] in ("", shape) else None
    flip = -1 if node.op == "not" else 1
    # the nonzero signs of the built-in and its flipped arguments must agree
    nonzero = {sign, *[None if s is None else flip * s for s in signs]} - {0}
    polarity = nonzero.pop() if len(nonzero) == 1 else None if nonzero else 0
    if arity == 1:
        (p,) = parts
        return (lambda model, args: fn(model, p(model, args))), boolean, chain, polarity
    p, q = parts
    return (lambda model, args: fn(model, p(model, args), q(model, args))), boolean, chain, polarity


_UNTIL_BODY = App("EU", (Arg(1), Arg(2)))


def apply_operator(op: Operator, model: KripkeModel, args: Sequence[Mask]) -> Mask:
    if len(args) != op.arity:
        raise ValidationError(f"{op.name} expects {op.arity} arguments, got {len(args)}")
    return op._resolved(model, args)


def _touching(known: Sequence[T], lo: int, hi: int, k: int) -> Iterator[tuple[T, ...]]:
    """The k-tuples over ``known`` with a member in the window ``known[lo:hi]``,
    in ``product(known, repeat=k)`` order; none for k = 0."""
    if k == 0:
        return
    # after a window item any (k-1)-tuple, after another one that touches it
    tails = list(_touching(known, lo, hi, k - 1)) if k > 1 else []
    for i, x in enumerate(known):
        if lo <= i < hi:
            yield from product((x,), *[known] * (k - 1))
        else:
            for t in tails:
                yield (x, *t)


def close(
    seeds: Iterable[T],
    ops: Sequence[Operator],
    apply: Callable[[Operator, tuple[T, ...]], T],
    admit: Callable[[dict[T, tuple[Operator, tuple[T, ...]]]], Iterable[T]],
) -> None:
    """Saturate ``seeds`` under ``ops``, round by round.

    A round applies each operator, lowest arity first, to every tuple over
    the known items with a member admitted in the previous round, the window
    ``known[lo:hi]``, so each tuple runs once.  The first round always runs,
    with no seeds too, and applies each 0-ary operator once; no later round
    applies one.  New results are kept with the (operator, arguments) that
    first produced them, and at the round's end ``admit`` returns the ones to
    add.  The loop stops after a round that adds nothing.  An operator of
    arity 2 or more whose |known|^arity tuples exceed
    :data:`MAX_STAGE_TUPLES` raises :class:`CapacityError` first.
    """
    ops = sorted(ops, key=lambda op: op.arity)
    known = list(seeds)
    seen = set(known)
    lo, hi = 0, len(known)
    first = True
    while first or lo < hi:
        fresh: dict[T, tuple[Operator, tuple[T, ...]]] = {}
        for op in ops:
            count = len(known) ** op.arity
            if op.arity >= 2 and count > MAX_STAGE_TUPLES:
                raise CapacityError(
                    f"operator {op.name!r} of arity {op.arity} needs {count} tuples "
                    f"in one round, over the bound {MAX_STAGE_TUPLES} (MAX_STAGE_TUPLES)"
                )
            tuples = _touching(known, lo, hi, op.arity) if op.arity else ((),) if first else ()
            for args in tuples:
                r = apply(op, args)
                if r not in seen and r not in fresh:
                    fresh[r] = (op, args)
        added = list(admit(fresh))
        known.extend(added)
        seen.update(added)
        lo, hi, first = hi, len(known), False


def _builtin_body(name: str, arity: int) -> App:
    """The body of the built-in ``name`` applied to its placeholders."""
    return App(name, tuple(Arg(i + 1) for i in range(arity)))


#: One operator per row of ``_BUILTIN_TABLE``, built at import and shared.
_BUILTIN_OPERATORS = {
    name: Operator(name, row.arity, _builtin_body(name, row.arity))
    for name, row in _BUILTIN_TABLE.items()
}


def builtin_operator(name: str) -> Operator:
    """The built-in ``name`` as an operator of its arity over ``#1``, ...

    A name of the fixed table (``EX``, ``and``, ``EU``, ...) gives one shared
    operator, built once at import: operators are immutable values, so
    every language holds the same object.  ``EF[lo,hi]`` is user text with
    any bounds, so it is resolved on each call and nothing is kept.
    """
    op = _BUILTIN_OPERATORS.get(name)
    if op is not None:
        return op
    entry = _builtin(name)
    if entry is None:
        raise ResolutionError(f"unknown built-in operator {name!r}")
    return Operator(name, entry.arity, _builtin_body(name, entry.arity))


class LanguageSpec(_Value):
    """Atoms with interpretations plus named operators, bound to one space.

    ``open_ops`` lets resolution fall through to any built-in (the ``full``
    preset); closed languages reject operators they do not list.  All
    atoms lie over one space.
    """

    _fields = ("name", "atoms", "operators", "open_ops")
    name: str
    atoms: tuple[tuple[str, StateSet], ...]
    operators: tuple[Operator, ...]
    open_ops: bool

    def __init__(
        self,
        name: str,
        atoms: tuple[tuple[str, StateSet], ...],
        operators: tuple[Operator, ...] = (),
        open_ops: bool = False,
    ):
        names = [n for n, _ in atoms] + [op.name for op in operators]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate atom/operator names in language")
        for _, s in atoms:
            _check_space(s, atoms[0][1], "language atoms")
        _set_field(self, "name", name)
        _set_field(self, "atoms", atoms)
        _set_field(self, "operators", operators)
        _set_field(self, "open_ops", open_ops)

    def atom_mask(self, name: str) -> Mask:
        for n, s in self.atoms:
            if n == name:
                return s.mask
        raise ResolutionError(f"unknown atom {name!r} in language {self.name}")

    def has_atom(self, name: str) -> bool:
        return any(n == name for n, _ in self.atoms)

    def operator(self, name: str) -> Operator:
        for op in self.operators:
            if op.name == name:
                return op
        if self.open_ops and _builtin(name) is not None:
            return builtin_operator(name)
        raise ResolutionError(f"unknown operator {name!r} in language {self.name}")

    def has_operator(self, name: str) -> bool:
        if any(op.name == name for op in self.operators):
            return True
        return self.open_ops and _builtin(name) is not None


def _check_language(lang: LanguageSpec, model: KripkeModel) -> None:
    if lang.atoms:  # they share one space
        _check_space(lang.atoms[0][1], model, "language and model")


_NOT_BODY = App("not", (Arg(1),))
_JOINS = {App("and", (Arg(1), Arg(2))), App("or", (Arg(1), Arg(2)))}
_DUAL_NEXTS = {App("AX", (Arg(1),)), App("pre~", (Arg(1),))}
_NEXTS = _DUAL_NEXTS | {App("EX", (Arg(1),)), App("pre", (Arg(1),))}
# fixpoints of pre, ¬, ∩ and ∪, so a pre-stable partition maps them to block unions
_FIXPOINTS = {App(n, (Arg(1), Arg(2))) for n, r in _BUILTIN_TABLE.items() if r.shape == "fixpoint"}


def _has_not(ops: Sequence[Operator]) -> bool:
    return any(op.body == _NOT_BODY for op in ops)


def _splitters(ops: Sequence[Operator]) -> Optional[list[Operator]]:
    """The operators the splitter engine cuts by, when a Moore family is
    closed under ``ops`` exactly when it is the unions of the blocks of a
    partition that the engine leaves whole; else None.  That needs ``not
    #1``.  Chains and untils (``Operator._chain``) cut, Boolean operators do
    not, nor does a binary ``EU``, ``AU``, ``ER`` or ``AR`` of ``#1, #2`` when
    some body is ``EX #1``, ``AX #1``, ``pre #1`` or ``pre~ #1``.  Nor does a
    dual chain whose additive twin (``AX`` to ``EX``, ``pre~`` to ``pre``,
    ``post~`` to ``post``) is a cut: AX(Σ∖B) = Σ∖EX(B) makes the twin's cut.
    The generator test on :func:`_route`'s cuts stays exact without the
    twin, since with ``not`` the quotient's AX is ¬EX♯¬
    as the concrete AX is ¬EX¬, so it agrees on block unions when EX does.
    The test is syntactic: an equivalent body written otherwise is not
    admitted."""
    if not _has_not(ops):
        return None
    has_next = any(op.body in _NEXTS for op in ops if op._chain)
    additive = {op.body for op in ops if op._chain == "additive"}
    cuts = []
    for op in ops:
        if op._boolean or (has_next and op.arity == 2 and op.body in _FIXPOINTS):
            continue
        if op._chain is None:
            return None
        if op._chain == "dual" and _additive_twin(op.body) in additive:
            continue
        cuts.append(op)
    return cuts


def _additive_twin(node: Node) -> Node:
    """A dual chain with each built-in replaced by its additive twin."""
    if isinstance(node, App):
        return App(_TWINS[node.op], tuple(_additive_twin(a) for a in node.args))
    return node


def _route(lang: LanguageSpec) -> tuple[Optional[str], list[Operator]]:
    """The engine that answers S = {⟦φ⟧ | φ ∈ L} for a closed ``lang`` with
    an atom and an operator ``and #1 #2`` or ``or #1 #2``, and the operators
    it cuts by; every test is syntactic.  ``("splitter", cuts)`` when
    :func:`_splitters` admits the operators (L1, L2 and CTL): S is the unions
    of the blocks of P_L, which the splitter engine computes from the atom
    partition.  ``("similarity", the AX #1 and pre~ #1 operators)`` when the
    atoms are closed under complement and the operators are both joins and
    at least one of those (L3): S is add of the similarity of the atoms
    (:func:`~abspres.equivalences._similarity`).  Else ``(None, [])``, and
    :func:`close` builds S."""
    bodies = {op.body for op in lang.operators}
    if lang.open_ops or not lang.atoms or not bodies & _JOINS:
        return None, []
    cuts = _splitters(lang.operators)
    if cuts is not None:
        return "splitter", cuts
    full = lang.atoms[0][1].space.full_mask
    masks = {s.mask for _, s in lang.atoms}
    if _JOINS < bodies <= _JOINS | _DUAL_NEXTS and masks == {full & ~m for m in masks}:
        return "similarity", [op for op in lang.operators if op.body in _DUAL_NEXTS]
    return None, []


def resolve_application(lang: LanguageSpec, phi: App) -> App | Atom:
    """Map ¬p to a negated-atom literal when the language has one but no ¬."""
    if (
        phi.op == "not"
        and not lang.has_operator("not")
        and len(phi.args) == 1
        and isinstance(phi.args[0], Atom)
        and lang.has_atom("!" + phi.args[0].name)
    ):
        return Atom("!" + phi.args[0].name)
    return phi


def eval_formula(
    phi: Formula,
    lang: LanguageSpec,
    atom_fn: Callable[[str], Mask],
    apply_fn: Callable[[Operator, tuple[Mask, ...]], Mask],
) -> Mask:
    """Shared inductive evaluator; concrete and abstract semantics plug in
    their atom interpretation and operator application."""
    if isinstance(phi, Atom):
        return atom_fn(phi.name)
    if isinstance(phi, (Arg, Const)):
        raise ResolutionError("placeholders are not state formulae")
    resolved = resolve_application(lang, phi)
    if isinstance(resolved, Atom):
        return atom_fn(resolved.name)
    op = lang.operator(resolved.op)
    args = tuple(eval_formula(a, lang, atom_fn, apply_fn) for a in resolved.args)
    return apply_fn(op, args)


def eval_concrete(phi: Formula, model: KripkeModel, lang: LanguageSpec) -> StateSet:
    """⟦φ⟧: the set of states satisfying φ under the language's interpretation."""
    _check_language(lang, model)
    mask = eval_formula(
        phi,
        lang,
        lang.atom_mask,
        lambda op, args: apply_operator(op, model, args),
    )
    return StateSet(model.space, mask)


def _model_atoms(model: KripkeModel) -> tuple[tuple[str, StateSet], ...]:
    return tuple(
        (name, StateSet(model.space, mask)) for name, mask in model.label_items
    )


def label_constants(model: KripkeModel) -> list[Operator]:
    """One 0-ary operator per label, valued at the label's states: the atoms
    of the forward-completeness characterizations of the equivalences."""
    return [const_operator(name, value) for name, value in _model_atoms(model)]


def _ops(*names: str) -> tuple[Operator, ...]:
    return tuple(builtin_operator(n) for n in names)


@lru_cache(maxsize=None)
def _preset_operators(name: str) -> tuple[Operator, ...]:
    """The operators of the preset ``name``, built on its first use and
    then shared; called with the names of :data:`PRESET_NAMES` only."""
    if name == "semaforo":
        return (operator_from_expr("AXX", 1, "AX AX #1"),)
    return _ops(*{
        "L1": ("and", "not", "EX"),
        "L2": ("and", "not", "EU"),
        "L3": ("and", "or", "AX"),
        "CTL": ("and", "not", "AX", "EX", "AU", "EU", "AR", "ER"),
        "exef": ("and", "EF[0,2]"),
        "full": (),
    }[name])


def preset_language(name: str, model: KripkeModel) -> LanguageSpec:
    """Instantiate a shipped preset against a model: its atoms are the
    model's labels (and for L3 their negations), built per call, and its
    operators one tuple per preset, built once per process and shared by
    every model's language."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown language preset {name!r}")
    atoms = _model_atoms(model)
    if name == "L3":
        atoms += tuple(("!" + label, ~s) for label, s in atoms)
    return LanguageSpec(name, atoms, _preset_operators(name), name == "full")


def language_from_ops(
    model: KripkeModel,
    op_names: Iterable[str],
    atoms: Optional[Mapping[str, Iterable[str]]] = None,
    name: str = "custom",
) -> LanguageSpec:
    """Convenience builder: built-in operators by name, atoms from the model
    labels unless given explicitly."""
    if atoms is None:
        atom_items = _model_atoms(model)
    else:
        atom_items = tuple(
            (k, model.space.set_of(v)) for k, v in atoms.items()
        )
    return LanguageSpec(name, atom_items, _ops(*op_names))


def language_from_json(doc: object, model: KripkeModel) -> LanguageSpec:
    """Decode the language file format.

    {"atoms": {"p": null | ["s", ...]}, "operators": [{"name": ..,
    "arity": .., "expr": ..}], "preset": "L1|L2|L3|CTL|semaforo|exef|null"}

    A null atom interpretation resolves to the model's label of the same
    name.  A preset provides the base language; atoms/operators in the file
    extend or override it.  Operators without an "expr" name built-ins, at
    their own arity.
    """
    if not isinstance(doc, dict):
        raise ValidationError("language file must contain a JSON object")
    preset = doc.get("preset")
    if preset is not None:
        if preset not in PRESET_NAMES:
            raise ValidationError(
                f"'preset' must be one of {', '.join(PRESET_NAMES)} or null, got {preset!r}"
            )
        base = preset_language(preset, model)
        atom_items = list(base.atoms)
        operators = list(base.operators)
        open_ops = base.open_ops
        name = preset
    else:
        atom_items = []
        operators = []
        open_ops = False
        name = "file"
        if "atoms" not in doc:
            atom_items = list(_model_atoms(model))
    atoms = {} if doc.get("atoms") is None else doc["atoms"]
    if not isinstance(atoms, dict):
        raise ValidationError("'atoms' must map each atom to a list of state names or null")
    for atom, interp in atoms.items():
        if interp is None:
            if atom not in model.labels:
                raise ValidationError(f"atom {atom!r} is null, but the model has no label {atom!r}")
            value = StateSet(model.space, model.label_mask(atom))
        elif isinstance(interp, list) and all(isinstance(s, str) for s in interp):
            value = model.space.set_of(interp)
        else:
            raise ValidationError(f"atom {atom!r} must be a list of state names or null")
        atom_items = [(n, s) for n, s in atom_items if n != atom]
        atom_items.append((atom, value))
    entries = [] if doc.get("operators") is None else doc["operators"]
    if not isinstance(entries, list):
        raise ValidationError("'operators' must be a list of operator objects")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ValidationError(f"operator entry {k} needs a string 'name'")
        op_name, expr = entry["name"], entry.get("expr")
        if expr is not None and not isinstance(expr, str):
            raise ValidationError(f"operator {op_name!r} needs a string 'expr', got {expr!r}")
        # a built-in's body takes exactly its arity's placeholders
        body = builtin_operator(op_name).body if expr is None else parse_transformer(expr)
        arity = entry.get("arity", max_placeholder(body))
        # bool is a subclass of int, and JSON true must not read as arity 1
        if type(arity) is not int or arity < 0:
            raise ValidationError(
                f"operator {op_name!r} needs a non-negative integer 'arity', got {arity!r}"
            )
        if expr is None and arity != max_placeholder(body):
            raise ValidationError(
                f"built-in {op_name!r} has 'arity' {max_placeholder(body)}, got {arity}"
            )
        operators = [o for o in operators if o.name != op_name]
        operators.append(Operator(op_name, arity, body))
    return LanguageSpec(name, tuple(atom_items), tuple(operators), open_ops)


def load_language(spec: str, model: KripkeModel) -> LanguageSpec:
    """Resolve a --lang value: a preset name or a language-file path."""
    if spec in PRESET_NAMES:
        return preset_language(spec, model)
    with open(spec, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"language file {spec}: {exc}") from None
    return language_from_json(doc, model)
