"""Kripke structures, predecessor/successor transformers and block quotients.

Transition relations are stored as per-state successor masks, which makes
the four transformers one-liners:

    pre(Y)   = {s | succ(s) ∩ Y ≠ ∅}        post(Y)  = ∪_{s∈Y} succ(s)
    pre~(Y)  = {s | succ(s) ⊆ Y}            post~(Y) = ∁ post ∁ (Y)

pre and post are additive, their duals co-additive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Mapping

from .errors import SpaceMismatchError, ValidationError
from .lattice import Mask, StateSet, StateSpace
from .partitions import Partition


@dataclass(frozen=True)
class KripkeModel:
    """A transition system with a state labeling.

    ``succ[i]`` is the successor mask of state i; ``label_items`` maps each
    atomic proposition to the mask of states carrying it.  Totality is not
    enforced at construction (∀∃ quotients may produce stuck blocks); use
    :func:`validate_model` where totality matters.
    """

    space: StateSpace
    succ: tuple[Mask, ...]
    label_items: tuple[tuple[str, Mask], ...]

    def __post_init__(self):
        if self.space.n == 0:
            raise ValidationError("a Kripke model needs a nonempty state space")
        if len(self.succ) != self.space.n:
            raise ValidationError("successor table width does not match the space")
        full = self.space.full_mask
        for i, m in enumerate(self.succ):
            if m & ~full:
                raise ValidationError(
                    f"successors of {self.space.names[i]!r} fall outside the space"
                )
        names = [name for name, _ in self.label_items]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate label names")
        for name, m in self.label_items:
            if m & ~full:
                raise ValidationError(f"label {name!r} falls outside the space")

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
        return frozenset(
            (i, j) for i in range(self.n) for j in range(self.n) if (self.succ[i] >> j) & 1
        )

    # Transformers over masks.

    def pre(self, y: Mask) -> Mask:
        acc = 0
        for i in range(self.n):
            if self.succ[i] & y:
                acc |= 1 << i
        return acc

    def post(self, y: Mask) -> Mask:
        acc = 0
        for i in range(self.n):
            if (y >> i) & 1:
                acc |= self.succ[i]
        return acc

    def cpre(self, y: Mask) -> Mask:
        acc = 0
        for i in range(self.n):
            if self.succ[i] & ~y == 0:
                acc |= 1 << i
        return acc

    def cpost(self, y: Mask) -> Mask:
        full = self.space.full_mask
        return full & ~self.post(full & ~y)


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
    if s.space != model.space:
        raise SpaceMismatchError("set over a different space than the model")
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
    """Partition of Σ by equal label sets (the initial refinement partition)."""
    classes: dict[frozenset[str], Mask] = {}
    for i in range(model.n):
        key = model.label_of_state(i)
        classes[key] = classes.get(key, 0) | (1 << i)
    return Partition.from_masks(model.space, classes.values())


@dataclass(frozen=True)
class Quotient:
    """A block-level Kripke model over the blocks of a partition of
    ``parent``: state i of ``model`` is ``partition.blocks[i]``.  ∀∃
    quotients may leave a block stuck, so ``total`` is read off the model.
    """

    parent: KripkeModel
    partition: Partition
    model: KripkeModel

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
    its members carries.
    """
    if kind not in ("ee", "ae"):
        raise ValidationError(f"unknown quotient kind {kind!r} (want 'ee' or 'ae')")
    if p.space != model.space:
        raise SpaceMismatchError("partition over a different space than the model")
    # a block's row joins (∃∃) or intersects (∀∃) its members' successor blocks
    combine = or_ if kind == "ee" else and_
    bsucc = []
    for blk in p.blocks:
        rows = (p.meeting(model.succ[s]) for s in range(model.n) if (blk >> s) & 1)
        bsucc.append(reduce(combine, rows))
    bspace = StateSpace(tuple(block_name(model, m) for m in p.blocks))
    items = tuple((label, p.meeting(mask)) for label, mask in model.label_items)
    return Quotient(model, p, KripkeModel(bspace, tuple(bsucc), items))


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
    for entry in transitions:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValidationError(f"bad transition entry {entry!r}")
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
