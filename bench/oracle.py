"""Answer oracle for the benchmark, sharing no code with ``abspres``.

States are ints, sets are frozensets and relations are dicts of
frozensets, so nothing here can inherit a bitmask bug from the library.
Equivalences come from the textbook definitions by naive refinement, and
the coarsest strongly preserving partitions of L1, CTL, L2 and L3 are
checked through the route equalities the paper proves
(P_L1 = P_CTL = bisimulation, P_L2 = stuttering, P_L3 = simulation
equivalence).  Other languages are closed explicitly, and the relation
search is compared with all 2^(b²) relations tried one by one.  Every
check returns ``None`` when the answer is right and a message when it is
not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional


@dataclass(frozen=True)
class Model:
    states: frozenset
    succ: tuple  # succ[s] is the frozenset of successors of s
    labels: dict  # label name -> frozenset of states carrying it

    def label_set(self, s: int) -> frozenset:
        return frozenset(name for name, members in self.labels.items() if s in members)


def _members(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _mask(states) -> int:
    return sum(1 << s for s in states)


def model_of(spec: dict) -> Model:
    n = len(spec["names"])
    return Model(
        frozenset(range(n)),
        tuple(_members(m) for m in spec["succ"]),
        {name: _members(m) for name, m in spec["labels"]},
    )


def pre(m: Model, target: frozenset) -> frozenset:
    return frozenset(s for s in m.states if not m.succ[s].isdisjoint(target))


def cpre(m: Model, target: frozenset) -> frozenset:
    return frozenset(s for s in m.states if m.succ[s] <= target)


def eu(m: Model, s1: frozenset, s2: frozenset) -> frozenset:
    z = frozenset()
    while True:
        nxt = s2 | (s1 & pre(m, z))
        if nxt == z:
            return z
        z = nxt


def _label_blocks(m: Model) -> set:
    classes: dict = {}
    for s in m.states:
        classes.setdefault(m.label_set(s), set()).add(s)
    return {frozenset(c) for c in classes.values()}


def _refine(m: Model, splitter: Callable[[frozenset, frozenset], frozenset]) -> frozenset:
    blocks = _label_blocks(m)
    changed = True
    while changed:
        changed = False
        for b1 in list(blocks):
            for b2 in list(blocks):
                part = splitter(b1, b2)
                if part and part != b1:
                    blocks -= {b1}
                    blocks |= {part, b1 - part}
                    changed = True
                    break
            if changed:
                break
    return frozenset(blocks)


def bisimulation(m: Model) -> frozenset:
    """Coarsest bisimulation: split B1 by pre(B2) until stable."""
    return _refine(m, lambda b1, b2: b1 & pre(m, b2))


def stuttering(m: Model) -> frozenset:
    """Coarsest divergence-blind stuttering equivalence: split B1 by
    EU(B1, B2) ∩ B1 for B1 ≠ B2 until stable."""
    return _refine(m, lambda b1, b2: frozenset() if b1 == b2 else eu(m, b1, b2) & b1)


def simulation(m: Model, equal_labels: bool) -> dict:
    """Largest simulation as s -> {t | t simulates s}; labels of t must equal
    those of s, or be a subset of them when ``equal_labels`` is false."""
    rel = {}
    for s in m.states:
        ls = m.label_set(s)
        rel[s] = {t for t in m.states if (m.label_set(t) == ls if equal_labels else m.label_set(t) <= ls)}
    changed = True
    while changed:
        changed = False
        for s in m.states:
            for t in list(rel[s]):
                if any(not any(t2 in rel[s2] for t2 in m.succ[t]) for s2 in m.succ[s]):
                    rel[s].discard(t)
                    changed = True
    return {s: frozenset(ts) for s, ts in rel.items()}


def simulation_equivalence(m: Model) -> frozenset:
    rel = simulation(m, equal_labels=True)
    return frozenset(frozenset(t for t in rel[s] if s in rel[t]) for s in m.states)


def _ef02(m: Model, s: frozenset) -> frozenset:
    one = pre(m, s)
    return s | one | pre(m, one)


# Operators of the languages whose closure the oracle computes itself.
OPERATORS = {
    "and": (2, lambda m, a, b: a & b),
    "or": (2, lambda m, a, b: a | b),
    "not": (1, lambda m, a: m.states - a),
    "EX": (1, pre),
    "AX": (1, cpre),
    "AXX": (1, lambda m, a: cpre(m, cpre(m, a))),
    "EF[0,2]": (1, _ef02),
}
#: Operators that do not read the transition relation.
BOOLEAN = ("and", "or", "not")
LANGUAGE_OPERATORS = {
    "L1": ("and", "not", "EX"),
    "exef": ("and", "EF[0,2]"),
    "semaforo": ("AXX",),
}


def semantic_closure(m: Model, language: str) -> frozenset:
    """{⟦φ⟧ | φ ∈ L}: the label sets closed under the language's operators.

    Semi-naive: each set is combined once with every set found before it.
    """
    ops = [OPERATORS[name] for name in LANGUAGE_OPERATORS[language]]
    sets = set(m.labels.values())
    frontier, known = list(sets), []
    while frontier:
        x = frontier.pop()
        known.append(x)
        for arity, fn in ops:
            if arity == 1:
                fresh = [fn(m, x)]
            else:
                fresh = [r for y in known for r in (fn(m, x, y), fn(m, y, x))]
            for r in fresh:
                if r not in sets:
                    sets.add(r)
                    frontier.append(r)
    return frozenset(sets)


def _partition_by(m: Model, family) -> frozenset:
    classes: dict = {}
    for s in m.states:
        classes.setdefault(frozenset(i for i, x in enumerate(family) if s in x), set()).add(s)
    return frozenset(frozenset(c) for c in classes.values())


def _blocks_of(masks) -> frozenset:
    return frozenset(_members(b) for b in masks)


def _rows_of(rel: dict) -> list:
    return [_mask(rel[s]) for s in sorted(rel)]


def _unions(blocks) -> set:
    out = {frozenset()}
    for b in blocks:
        out |= {u | b for u in out}
    return out


class Oracle:
    """Expected answers for one corpus, computed lazily and cached per model."""

    def __init__(self, corpus: dict):
        self.models = [model_of(spec) for spec in corpus["models"]]
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def partition(self, index: int, name: str) -> frozenset:
        """The expected partition for an equivalence or a language."""
        m = self.models[index]
        fns = {
            "bisim": lambda: bisimulation(m),
            "dbs": lambda: stuttering(m),
            "simeq": lambda: simulation_equivalence(m),
        }
        route = {"L1": "bisim", "CTL": "bisim", "L2": "dbs", "L3": "simeq", "simeq_kernel": "simeq"}
        name = route.get(name, name)
        if name in fns:
            return self._memo((index, name), fns[name])
        return self._memo((index, name), lambda: _partition_by(m, list(self.closure(index, name))))

    def closure(self, index: int, language: str) -> frozenset:
        m = self.models[index]
        return self._memo((index, "closure", language), lambda: semantic_closure(m, language))

    def strong_relations(self, index: int, block_masks, language: str) -> frozenset:
        """Every strongly preserving relation over the blocks, found by
        trying all 2^(b²) of them."""
        key = (index, "search", tuple(block_masks), language)
        return self._memo(key, lambda: strong_relations(
            self.models[index], block_masks, language, self.closure(index, language)))

    def check(self, job: list, answer) -> Optional[str]:
        kind, index, arg, blocks = job
        m = self.models[index]
        if kind == "equiv":
            if not answer["consistent"]:
                return f"{arg} routes disagree"
            answer = answer["rows" if arg == "sim" else "blocks"]
        if arg == "sim":
            want = _rows_of(self._memo((index, "sim"), lambda: simulation(m, equal_labels=False)))
            return None if list(answer) == want else "similarity preorder differs"
        if kind in ("sp_partition", "refine", "equiv"):
            want = self.partition(index, arg)
            return None if _blocks_of(answer) == want else f"partition {answer} is not {arg}"
        if kind == "shell":
            want = {_mask(u) for u in _unions(self.partition(index, "bisim"))}
            return None if set(answer["family"]) == want else "shell is not adp(bisimulation)"
        if kind == "paired_check":
            return None if answer == "strong" else f"bisimulation quotient judged {answer!r}"
        if kind == "search":
            got = [frozenset(map(tuple, rel)) for rel in answer]
            want = self.strong_relations(index, blocks, arg)
            if len(set(got)) != len(got):
                return "a relation is returned twice"
            if set(got) - want:
                return f"relation {sorted(next(iter(set(got) - want)))} is not strongly preserving"
            if want - set(got):
                return f"{len(want - set(got))} strongly preserving relations are missing"
            return None
        return f"unknown job kind {kind!r}"


def strong_relations(m: Model, block_masks: list, language: str, closure) -> frozenset:
    """The relations over the blocks, each a frozenset of (source, target)
    block-mask pairs, that give an abstract model on which every formula of
    the language denotes the same states as on the concrete one.

    That holds exactly when every atom is a union of blocks and every
    operator agrees with its block-level reading on all argument tuples
    drawn from the concrete semantic ``closure``.  The atoms and the
    Boolean operators do not read the relation, so they are checked once;
    the other operators are checked on each of the 2^(b²) relations.
    """
    blocks = [_members(b) for b in block_masks]
    k = len(blocks)
    universe = frozenset(range(k))

    def to_blocks(x: frozenset) -> Optional[frozenset]:
        """The blocks whose union is ``x``, or None if ``x`` is no union."""
        inside = frozenset(i for i, b in enumerate(blocks) if b <= x)
        return inside if frozenset().union(*(blocks[i] for i in inside)) == x else None

    if any(to_blocks(members) is None for members in m.labels.values()):
        return frozenset()
    closure = list(closure)
    no_relation = Model(universe, (frozenset(),) * k, {})
    checks = []
    for name in LANGUAGE_OPERATORS[language]:
        arity, fn = OPERATORS[name]
        for args in product(closure, repeat=arity):
            abstract_args = tuple(to_blocks(x) for x in args)
            want = to_blocks(fn(m, *args))
            if want is None or None in abstract_args:
                return frozenset()
            if name not in BOOLEAN:
                checks.append((fn, abstract_args, want))
            elif fn(no_relation, *abstract_args) != want:
                return frozenset()

    rows = [frozenset(j for j in range(k) if (bits >> j) & 1) for bits in range(1 << k)]
    row_mask = (1 << k) - 1
    hits = set()
    for bits in range(1 << (k * k)):
        succ = tuple(rows[(bits >> (i * k)) & row_mask] for i in range(k))
        abstract = Model(universe, succ, {})
        if all(fn(abstract, *args) == want for fn, args, want in checks):
            hits.add(frozenset((block_masks[i], block_masks[j]) for i in range(k) for j in succ[i]))
    return frozenset(hits)
