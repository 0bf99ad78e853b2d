"""Language specifications, built-in operator semantics and concrete evaluation.

A language is a set of named atoms with fixed interpretations plus a set of
named operators, each defined by a transformer expression over the built-ins
(complement, meet, join, the four pre/post transformers, the until/release
fixpoints and bounded reachability).  Fixpoints are computed by
Knaster-Tarski iteration, which terminates on these finite lattices.

An :class:`Operator` resolves its body once, when it is built; only a
constant's space is left for :func:`apply_operator` to check.

:func:`close` is the one saturation engine of the package: the forward
complete shell, the semantic closure of a language and the paired semantic
closure all run it with their own item type and admission step.

Shipped presets: L1 (atoms, ∧, ¬, EX), L2 (atoms, ∧, ¬, EU), L3 (atoms and
negated atoms, ∧, ∨, AX), CTL, the traffic-light language ``semaforo``
(atoms + AXX) and the bounded-reachability language ``exef`` (atoms, ∧,
EF[0,2]).  The ``full`` preset resolves every built-in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

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
from .lattice import Mask, StateSet

PRESET_NAMES = ("L1", "L2", "L3", "CTL", "semaforo", "exef", "full")
# tuples one operator may try in one stage of close: L1 at n=10 tries 2^20
# `and` tuples a stage, and an arity-12 operator over 5 sets would try 5^12
MAX_STAGE_TUPLES = 1 << 24

T = TypeVar("T")


@dataclass(frozen=True)
class Operator:
    """A named n-ary transformer: a body over built-ins and #k placeholders.

    The body is resolved once, at construction, into a function of (model,
    argument masks); a bad body raises then, naming the operator.
    """

    name: str
    arity: int
    body: Node
    _resolved: Callable[[KripkeModel, Sequence[Mask]], Mask] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "_resolved", _resolve_body(self, self.body))


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


def until_mask(model: KripkeModel, s1: Mask, s2: Mask) -> Mask:
    """EU(S1, S2) over masks; handy for the stuttering block criterion."""
    return lfp(lambda z: s2 | (s1 & model.pre(z)), 0)


def _au(model: KripkeModel, s1: Mask, s2: Mask) -> Mask:
    return lfp(lambda z: s2 | (s1 & model.cpre(z)), 0)


def _er(model: KripkeModel, s1: Mask, s2: Mask) -> Mask:
    return gfp(lambda z: s2 & (s1 | model.pre(z)), model.space.full_mask)


def _ar(model: KripkeModel, s1: Mask, s2: Mask) -> Mask:
    return gfp(lambda z: s2 & (s1 | model.cpre(z)), model.space.full_mask)


def _ef_bounded(model: KripkeModel, lo: int, hi: int, s: Mask) -> Mask:
    """EF_[lo,hi](S) = ∪_{i in [lo,hi]} pre^i(S).

    The sets pre^i(S) are eventually periodic: once one repeats, the rest of
    [lo, hi] is read off the cycle, so the cost is bounded by the number of
    distinct sets, not by ``hi``.
    """
    seq: list[Mask] = []
    index: dict[Mask, int] = {}
    acc = 0
    cur = s
    for i in range(hi + 1):
        if cur in index:
            # pre^r(S) = seq[j + (r - j) % period] for every r ≥ j
            j = index[cur]
            period = i - j
            first = max(i, lo)
            for r in range(first, min(hi, first + period - 1) + 1):
                acc |= seq[j + (r - j) % period]
            break
        index[cur] = i
        seq.append(cur)
        if i >= lo:
            acc |= cur
        cur = model.pre(cur)
    return acc


# Transformers are called through the model, so a rebound KripkeModel method is seen.
_BUILTIN_TABLE: dict[str, tuple[int, Callable[..., Mask]]] = {
    "not": (1, lambda model, a: model.space.full_mask & ~a),
    "and": (2, lambda model, a, b: a & b),
    "or": (2, lambda model, a, b: a | b),
    "EX": (1, lambda model, a: model.pre(a)),
    "AX": (1, lambda model, a: model.cpre(a)),
    "pre": (1, lambda model, a: model.pre(a)),
    "post": (1, lambda model, a: model.post(a)),
    "pre~": (1, lambda model, a: model.cpre(a)),
    "post~": (1, lambda model, a: model.cpost(a)),
    "EU": (2, until_mask),
    "AU": (2, _au),
    "ER": (2, _er),
    "AR": (2, _ar),
}


def _builtin(name: str) -> Optional[tuple[int, Callable[..., Mask]]]:
    """(arity, semantics) of the built-in ``name``, or None if there is none."""
    m = EF_PATTERN.match(name)
    if m is None:
        return _BUILTIN_TABLE.get(name)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValidationError(f"empty bound range [{lo},{hi}]")
    return 1, lambda model, a: _ef_bounded(model, lo, hi, a)


def _resolve_body(op: Operator, node: Node) -> Callable[[KripkeModel, Sequence[Mask]], Mask]:
    """``node`` of the body of ``op`` as a function of (model, argument masks)."""
    where = f"operator {op.name!r}:"
    if isinstance(node, Arg):
        if node.index > op.arity:
            raise ValidationError(f"{where} uses #{node.index} but has arity {op.arity}")
        i = node.index - 1
        return lambda model, args: args[i]
    if isinstance(node, Const):
        value = node.value

        def const(model: KripkeModel, args: Sequence[Mask]) -> Mask:
            if value.space != model.space:
                raise ValidationError("constant set over a different space")
            return value.mask

        return const
    if isinstance(node, Atom):
        raise ResolutionError(f"{where} atom {node.name!r} cannot appear in an operator body")
    entry = _builtin(node.op)
    if entry is None:
        raise ResolutionError(f"{where} unknown built-in operator {node.op!r}")
    arity, fn = entry
    if arity != len(node.args):
        raise ValidationError(f"{where} {node.op} expects {arity} arguments, got {len(node.args)}")
    parts = [_resolve_body(op, a) for a in node.args]
    if arity == 1:
        (p,) = parts
        return lambda model, args: fn(model, p(model, args))
    p, q = parts
    return lambda model, args: fn(model, p(model, args), q(model, args))


def apply_operator(op: Operator, model: KripkeModel, args: Sequence[Mask]) -> Mask:
    if len(args) != op.arity:
        raise ValidationError(f"{op.name} expects {op.arity} arguments, got {len(args)}")
    return op._resolved(model, args)


def close(
    seeds: Iterable[T],
    stages: Sequence[Sequence[Operator]],
    apply: Callable[[Operator, tuple[T, ...]], T],
    admit: Callable[[dict[T, tuple[Operator, tuple[T, ...]]]], Iterable[T]],
) -> None:
    """Saturate ``seeds`` under the operators of ``stages``, round by round.

    A round runs the stages in order.  A stage applies each of its
    operators to every tuple over the items known when the stage starts
    that has a member admitted in the previous round (0-ary operators run
    in the first round only).  Results not yet known are collected as they
    appear, each with the (operator, arguments) that first produced it, and
    at the end of the stage ``admit`` receives them and returns the items
    to add.  The loop stops after a round that adds nothing.  An operator of
    arity 2 or more whose |known|^arity tuples exceed :data:`MAX_STAGE_TUPLES`
    raises :class:`CapacityError` before its stage tries any of them.
    """
    known = list(seeds)
    seen = set(known)
    frontier = list(known)
    first_round = True
    while frontier:
        fset = set(frontier)
        previous, frontier = frontier, []
        for ops in stages:
            fresh: dict[T, tuple[Operator, tuple[T, ...]]] = {}
            for op in ops:
                if op.arity == 0:
                    tuples: Iterable[tuple[T, ...]] = [()] if first_round else []
                elif op.arity == 1:
                    tuples = ((x,) for x in previous)
                else:
                    count = len(known) ** op.arity
                    if count > MAX_STAGE_TUPLES:
                        raise CapacityError(
                            f"operator {op.name!r} of arity {op.arity} needs {count} tuples "
                            f"in one stage, over the bound {MAX_STAGE_TUPLES} (MAX_STAGE_TUPLES)"
                        )
                    tuples = (
                        t
                        for t in product(known, repeat=op.arity)
                        if any(x in fset for x in t)
                    )
                for args in tuples:
                    r = apply(op, args)
                    if r not in seen and r not in fresh:
                        fresh[r] = (op, args)
            added = list(admit(fresh))
            known.extend(added)
            seen.update(added)
            frontier.extend(added)
        first_round = False


def builtin_operator(name: str) -> Operator:
    entry = _builtin(name)
    if entry is None:
        raise ResolutionError(f"unknown built-in operator {name!r}")
    arity, _ = entry
    return Operator(name, arity, App(name, tuple(Arg(i + 1) for i in range(arity))))


@dataclass(frozen=True)
class LanguageSpec:
    """Atoms with interpretations plus named operators, bound to one space.

    ``open_ops`` lets resolution fall through to any built-in (the ``full``
    preset); closed languages reject operators they do not list.
    """

    name: str
    atoms: tuple[tuple[str, StateSet], ...]
    operators: tuple[Operator, ...] = ()
    open_ops: bool = False

    def __post_init__(self):
        names = [n for n, _ in self.atoms] + [op.name for op in self.operators]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate atom/operator names in language")

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


def preset_language(name: str, model: KripkeModel) -> LanguageSpec:
    """Instantiate a shipped preset against a model (atoms from its labels)."""
    atoms = _model_atoms(model)
    if name == "L1":
        return LanguageSpec("L1", atoms, _ops("and", "not", "EX"))
    if name == "L2":
        return LanguageSpec("L2", atoms, _ops("and", "not", "EU"))
    if name == "L3":
        literals = list(atoms)
        for label, s in atoms:
            literals.append(("!" + label, ~s))
        return LanguageSpec("L3", tuple(literals), _ops("and", "or", "AX"))
    if name == "CTL":
        return LanguageSpec(
            "CTL", atoms, _ops("and", "not", "AX", "EX", "AU", "EU", "AR", "ER")
        )
    if name == "semaforo":
        axx = operator_from_expr("AXX", 1, "AX AX #1")
        return LanguageSpec("semaforo", atoms, (axx,))
    if name == "exef":
        return LanguageSpec("exef", atoms, _ops("and", "EF[0,2]"))
    if name == "full":
        return LanguageSpec("full", atoms, (), open_ops=True)
    raise ValidationError(f"unknown language preset {name!r}")


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
    extend or override it.  Operators without an "expr" must name built-ins.
    """
    if not isinstance(doc, dict):
        raise ValidationError("language file must contain a JSON object")
    preset = doc.get("preset")
    if preset is not None:
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
    atoms = doc.get("atoms") or {}
    if not isinstance(atoms, dict):
        raise ValidationError("'atoms' must map each atom to a list of state names or null")
    for atom, interp in atoms.items():
        if interp is None:
            value = StateSet(model.space, model.label_mask(atom))
        elif isinstance(interp, list) and all(isinstance(s, str) for s in interp):
            value = model.space.set_of(interp)
        else:
            raise ValidationError(f"atom {atom!r} must be a list of state names or null")
        atom_items = [(n, s) for n, s in atom_items if n != atom]
        atom_items.append((atom, value))
    entries = doc.get("operators") or []
    if not isinstance(entries, list):
        raise ValidationError("'operators' must be a list of operator objects")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ValidationError(f"operator entry {k} needs a string 'name'")
        op_name = entry["name"]
        if "expr" in entry and entry["expr"] is not None:
            body = parse_transformer(entry["expr"])
            try:
                arity = int(entry.get("arity", max_placeholder(body)))
            except (TypeError, ValueError):
                raise ValidationError(f"operator {op_name!r} needs an integer 'arity'") from None
            op = Operator(op_name, arity, body)
        else:
            op = builtin_operator(op_name)
        operators = [o for o in operators if o.name != op_name]
        operators.append(op)
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
