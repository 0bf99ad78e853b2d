"""Kripke structures, predecessor/successor transformers and block quotients.

A transition relation is stored as per-state rows twice: ``succ[s]`` is the
mask of the successors of s, and ``pred[t]``, its transpose built once with
the model, the mask of the predecessors of t.  pre and post are then one
row-OR over the members of Y, and their duals are their complements:

    pre(Y)   = {s | succ(s) ∩ Y ≠ ∅} = ∪_{t∈Y} pred(t)
    post(Y)  = ∪_{s∈Y} succ(s)
    pre~(Y)  = {s | succ(s) ⊆ Y}     = ∁ pre ∁ (Y)
    post~(Y) = {t | pred(t) ⊆ Y}     = ∁ post ∁ (Y)

pre and post cost one OR per member of their argument, their duals one per
member of its complement, not a scan of all n rows.  pre and post are
additive, their duals co-additive.  The duals are exact on non-total models
too: a stuck state has succ = ∅ ⊆ Y, so it is in pre~(Y) for every Y, and
it lies in no pre(∁Y).  The library builds its duals from pre and post
(:mod:`~abspres.languages`); ``cpre`` and ``cpost`` remain for callers.
:func:`until_mask`, EU over masks, is a backward search by pre; the
built-in ``EU`` and the stuttering checker both run it.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import and_, or_
from typing import Iterable, Mapping, Optional

from .errors import ValidationError
from .lattice import (
    Mask, StateSet, StateSpace, _check_space, _classes, _join_rows, _members, _set_field,
    _transpose, _Value,
)
from .partitions import Partition


class KripkeModel(_Value):
    """A transition system with a state labeling.

    ``succ[i]`` is the successor mask of state i; ``label_items`` maps each
    atomic proposition to the mask of states carrying it.  ``pred[i]``, the
    predecessor mask of state i, is derived from ``succ`` at construction,
    in one pass over the edges, and takes no part in equality, hashing or
    the repr.  Totality is not enforced at construction (∀∃ quotients may
    produce stuck blocks); use :func:`validate_model` where totality matters.
    """

    _fields = ("space", "succ", "label_items")
    space: StateSpace
    succ: tuple[Mask, ...]
    label_items: tuple[tuple[str, Mask], ...]
    pred: tuple[Mask, ...]

    def __init__(
        self, space: StateSpace, succ: tuple[Mask, ...], label_items: tuple[tuple[str, Mask], ...]
    ):
        _set_field(self, "space", space)
        _set_field(self, "succ", succ)
        _set_field(self, "label_items", label_items)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields and derive ``pred``: the one step of every model
        build, so a count of its calls counts the builds."""
        # one OR-fold over the rows and one over the labels; the offender is
        # looked up only to name it
        n = self.space.n
        if n == 0:
            raise ValidationError("a Kripke model needs a nonempty state space")
        if len(self.succ) != n:
            raise ValidationError("successor table width does not match the space")
        outside = -1 << n  # the bits above the space: ~full_mask
        if reduce(or_, self.succ) & outside:
            i = next(i for i, m in enumerate(self.succ) if m & outside)
            raise ValidationError(
                f"successors of {self.space.names[i]!r} fall outside the space"
            )
        if self.label_items:
            names = {name for name, _ in self.label_items}
            if len(names) != len(self.label_items):
                raise ValidationError("duplicate label names")
            if reduce(or_, (m for _, m in self.label_items)) & outside:
                name = next(name for name, m in self.label_items if m & outside)
                raise ValidationError(f"label {name!r} falls outside the space")
        _set_field(self, "pred", _transpose(self.succ))

    @staticmethod
    def of(
        states: Iterable[str],
        transitions: Iterable[tuple[str, str]],
        labels: Mapping[str, Iterable[str]],
    ) -> "KripkeModel":
        space = StateSpace(tuple(states))
        succ = [0] * space.n
        for s, t in transitions:
            succ[space.index(s)] |= 1 << space.index(t)
        items = tuple(
            (name, space.mask_of(members)) for name, members in labels.items()
        )
        return KripkeModel(space, tuple(succ), items)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def labels(self) -> dict[str, Mask]:
        return dict(self.label_items)

    def label_mask(self, name: str) -> Mask:
        for n, m in self.label_items:
            if n == name:
                return m
        raise ValidationError(f"unknown label {name!r}")

    def label_of_state(self, i: int) -> frozenset[str]:
        return frozenset(n for n, m in self.label_items if (m >> i) & 1)

    def edges(self) -> list[tuple[str, str]]:
        names = self.space.names
        return [(names[i], names[j]) for i, j in sorted(self.relation_pairs())]

    def is_total(self) -> bool:
        return all(m != 0 for m in self.succ)

    def relation_pairs(self) -> frozenset[tuple[int, int]]:
        """The transition relation as (source, target) state-index pairs."""
        return frozenset((i, j) for i, row in enumerate(self.succ) for j in _members(row))

    # Transformers over masks.

    def pre(self, y: Mask) -> Mask:
        return _join_rows(self.pred, y)

    def post(self, y: Mask) -> Mask:
        return _join_rows(self.succ, y)

    def cpre(self, y: Mask) -> Mask:
        full = self.space.full_mask
        return full & ~_join_rows(self.pred, full & ~y)

    def cpost(self, y: Mask) -> Mask:
        full = self.space.full_mask
        return full & ~_join_rows(self.succ, full & ~y)


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


def validate_model(model: KripkeModel) -> None:
    """Check totality; reports the first stuck state by name."""
    for i, m in enumerate(model.succ):
        if m == 0:
            raise ValidationError(
                f"transition relation is not total: state "
                f"{model.space.names[i]!r} has no successor"
            )


def transformer(kind: str, model: KripkeModel, s: StateSet) -> StateSet:
    """Apply one of pre / post / pre~ / post~ to a set over the model's space."""
    _check_space(s, model, "set and model")
    fn = {
        "pre": model.pre,
        "post": model.post,
        "pre~": model.cpre,
        "post~": model.cpost,
    }.get(kind)
    if fn is None:
        raise ValidationError(f"unknown transformer kind {kind!r}")
    return StateSet(model.space, fn(s.mask))


def label_partition(model: KripkeModel) -> Partition:
    """Partition of Σ by equal label sets (the initial refinement partition):
    the classes of the label masks."""
    return Partition.from_masks(model.space, _classes(model.n, (m for _, m in model.label_items)))


class Quotient(_Value):
    """A block-level Kripke model over the blocks of a partition of
    ``parent``: state i of ``model`` is ``partition.blocks[i]``.  ∀∃
    quotients may leave a block stuck, so ``total`` is read off the model.
    """

    _fields = ("parent", "partition", "model")
    parent: KripkeModel
    partition: Partition
    model: KripkeModel

    def __init__(self, parent: KripkeModel, partition: Partition, model: KripkeModel):
        _set_field(self, "parent", parent)
        _set_field(self, "partition", partition)
        _set_field(self, "model", model)

    @property
    def total(self) -> bool:
        return self.model.is_total()


def block_name(model: KripkeModel, mask: Mask) -> str:
    return "[" + ",".join(model.space.names_of(mask)) + "]"


def quotient(kind: str, model: KripkeModel, p: Partition) -> Quotient:
    """∃∃ or ∀∃ quotient of the model by a partition.

    ∃∃: B1 → B2 iff some member of B1 steps into B2.
    ∀∃: B1 → B2 iff every member of B1 steps into B2.
    The abstract labeling is existential: a block carries every label one of
    its members carries.  An ∃∃ row and a label are the blocks that meet one
    mask, post(B) or the label's, read off the partition's state → block
    index one whole block at a time; a ∀∃ row meets its members' rows.
    """
    if kind not in ("ee", "ae"):
        raise ValidationError(f"unknown quotient kind {kind!r} (want 'ee' or 'ae')")
    _check_space(p, model, "partition and model")
    meeting = p._meeting
    if kind == "ee":
        bsucc = tuple(meeting(model.post(blk)) for blk in p.blocks)
    else:
        bsucc = tuple(
            reduce(and_, (meeting(model.succ[s]) for s in _members(blk))) for blk in p.blocks
        )
    bspace = StateSpace(tuple(block_name(model, m) for m in p.blocks))
    items = tuple((label, meeting(mask)) for label, mask in model.label_items)
    return Quotient(model, p, KripkeModel(bspace, bsucc, items))


def model_to_json(model: KripkeModel) -> dict:
    return {
        "states": list(model.space.names),
        "transitions": [[s, t] for s, t in model.edges()],
        "labels": {
            name: list(model.space.names_of(mask)) for name, mask in model.label_items
        },
    }


def model_from_json(doc: object) -> KripkeModel:
    """Decode the model file format; unknown state names are load errors."""
    if not isinstance(doc, dict):
        raise ValidationError("model file must contain a JSON object")
    try:
        states = doc["states"]
        transitions = doc["transitions"]
    except KeyError as exc:
        raise ValidationError(f"model file is missing the {exc.args[0]!r} key") from None
    labels = doc.get("labels", {})
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ValidationError("'states' must be a list of names")
    if not isinstance(transitions, list):
        raise ValidationError("'transitions' must be a list of [source, target] pairs")
    if not isinstance(labels, dict):
        raise ValidationError("'labels' must map each label to a list of state names")
    for name, members in labels.items():
        if not isinstance(members, list) or not all(isinstance(s, str) for s in members):
            raise ValidationError(f"label {name!r} must be a list of state names")
    pairs = []
    for k, entry in enumerate(transitions):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValidationError(
                f"'transitions' entry {k} must be a [source, target] pair, got {entry!r}"
            )
        pairs.append((entry[0], entry[1]))
    return KripkeModel.of(states, pairs, labels)


def load_model(path: str) -> KripkeModel:
    """Read, decode and validate a model file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"model file {path}: {exc}") from None
    model = model_from_json(doc)
    validate_model(model)
    return model
