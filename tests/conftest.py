"""Shared oracles and generators.

The oracles deliberately use a different representation than the library
(frozensets of state names instead of bitmasks) so the two routes stay
independent.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from abspres import KripkeModel, StateSpace
from abspres.fixtures import (
    five_state_nondisjunctive_domain,
    five_state_pq,
    five_state_pqr,
    three_chain,
    traffic_light,
)


# --- set-based oracles -----------------------------------------------------


def brute_moore_close(universe: frozenset, sets) -> frozenset:
    """Meet closure by enumerating every sub-collection's intersection."""
    pool = [frozenset(s) for s in sets]
    out = {universe}  # empty intersection
    for r in range(1, len(pool) + 1):
        for combo in combinations(pool, r):
            acc = universe
            for s in combo:
                acc = acc & s
            out.add(acc)
    return frozenset(out)


def brute_moore_families(universe: frozenset) -> list[frozenset]:
    """All Moore families over a universe, by filtering every family."""
    subsets = []
    items = sorted(universe)
    for bits in range(1 << len(items)):
        subsets.append(frozenset(x for i, x in enumerate(items) if (bits >> i) & 1))
    families = []
    for bits in range(1 << len(subsets)):
        fam = frozenset(s for i, s in enumerate(subsets) if (bits >> i) & 1)
        if universe not in fam:
            continue
        if all(a & b in fam for a in fam for b in fam):
            families.append(fam)
    return families


def domain_as_frozensets(domain) -> frozenset:
    return frozenset(
        frozenset(domain.space.names_of(m)) for m in domain.masks
    )


def eu_path_oracle(model: KripkeModel, s1: int, s2: int) -> int:
    """EU by explicit path search: states of S1 with a finite path through
    S1 ending in S2, plus S2 itself."""
    result = s2
    n = model.n
    for start in range(n):
        if not (s1 >> start) & 1:
            continue
        stack = [start]
        seen = {start}
        found = False
        while stack and not found:
            cur = stack.pop()
            for nxt in range(n):
                if not (model.succ[cur] >> nxt) & 1:
                    continue
                if (s2 >> nxt) & 1:
                    found = True
                    break
                if (s1 >> nxt) & 1 and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if found:
            result |= 1 << start
    return result


def brute_least_fixpoint(step, n: int) -> int:
    """Least fixpoint by scanning all subsets (the fixpoints of a monotone
    map form a lattice, so their meet is itself a fixpoint)."""
    fixpoints = [m for m in range(1 << n) if step(m) == m]
    meet = (1 << n) - 1
    for m in fixpoints:
        meet &= m
    assert meet in fixpoints, "fixpoint set has no minimum"
    return meet


def brute_greatest_fixpoint(step, n: int) -> int:
    fixpoints = [m for m in range(1 << n) if step(m) == m]
    join = 0
    for m in fixpoints:
        join |= m
    assert join in fixpoints, "fixpoint set has no maximum"
    return join


def brute_bisimulation(model: KripkeModel):
    """The coarsest bisimulation, on state names: start from every pair with
    equal labels and delete a pair while a move of one side has no related
    move of the other, then group each state with the states it relates to."""
    from abspres import Partition

    names = model.space.names
    succ = {s: model.space.names_of(model.succ[i]) for i, s in enumerate(names)}
    label = {s: model.label_of_state(i) for i, s in enumerate(names)}
    rel = {(s, t) for s in names for t in names if label[s] == label[t]}

    def matched(s, t):
        return all(any((u, v) in rel for v in succ[t]) for u in succ[s])

    changed = True
    while changed:
        changed = False
        for s, t in list(rel):
            if not (matched(s, t) and matched(t, s)):
                rel.discard((s, t))
                changed = True
    classes = {frozenset(t for t in names if (s, t) in rel) for s in names}
    return Partition.of(model.space, classes)


def brute_simulation(model: KripkeModel, atoms):
    """The largest simulation over ``atoms`` (masks), as rows of state-index
    masks: start from every pair (s, t) such that each atom holding t holds
    s, and delete (s, t) while a move s → u has no move t → v with (u, v)
    related."""
    n = model.n
    succ = [[t for t in range(n) if (model.succ[s] >> t) & 1] for s in range(n)]
    rel = {
        (s, t)
        for s in range(n)
        for t in range(n)
        if all((a >> s) & 1 for a in atoms if (a >> t) & 1)
    }
    changed = True
    while changed:
        changed = False
        for s, t in list(rel):
            if not all(any((u, v) in rel for v in succ[t]) for u in succ[s]):
                rel.discard((s, t))
                changed = True
    return tuple(sum(1 << t for t in range(n) if (s, t) in rel) for s in range(n))


def brute_stuttering(model: KripkeModel):
    """The coarsest divergence-blind stuttering equivalence, on state names:
    start from every pair with equal labels and delete (s, t) while a move
    s → s' of one side has no answer from the other, a path t = t0 → ... →
    tk (k ≥ 0) with s related to t0, ..., t(k-1) and s' related to tk."""
    from abspres import Partition

    names = model.space.names
    succ = {s: model.space.names_of(model.succ[i]) for i, s in enumerate(names)}
    label = {s: model.label_of_state(i) for i, s in enumerate(names)}
    rel = {(s, t) for s in names for t in names if label[s] == label[t]}

    def answered(s, s2, t):
        seen, todo = {t}, [t]
        while todo:
            u = todo.pop()
            if (s2, u) in rel:
                return True
            if (s, u) in rel:
                fresh = [v for v in succ[u] if v not in seen]
                seen.update(fresh)
                todo += fresh
        return False

    def matched(s, t):
        return all(answered(s, s2, t) for s2 in succ[s])

    changed = True
    while changed:
        changed = False
        for s, t in list(rel):
            if not (matched(s, t) and matched(t, s)):
                rel.discard((s, t))
                changed = True
    classes = {frozenset(t for t in names if (s, t) in rel) for s in names}
    return Partition.of(model.space, classes)


def exhaustive_relation_search(p, lang, model: KripkeModel, mode: str = "all") -> list:
    """The relation search as one flat loop over all 2^(b²) relations in bit
    order (row i at bits i·b to i·b + b - 1), each built as a block model and
    checked against every step that the search records."""
    from abspres.kripke import block_name
    from abspres.languages import apply_operator
    from abspres.shells import _recorded_steps

    steps = _recorded_steps(p, lang, model)
    if steps is None:
        return []
    b = len(p.blocks)
    bspace = StateSpace(tuple(block_name(model, m) for m in p.blocks))
    hits = []
    for bits in range(1 << (b * b)):
        succ = tuple(((bits >> (i * b)) & ((1 << b) - 1)) for i in range(b))
        qmodel = KripkeModel(bspace, succ, ())
        if all(apply_operator(op, qmodel, args) == value for op, args, value in steps):
            hits.append(qmodel.relation_pairs())
            if mode == "first":
                break
    return hits


def row_walk_relation_search(p, lang, model: KripkeModel, mode: str = "all") -> list:
    """The relation search as a walk over one block model per node bound and
    per leaf: rows fixed from b - 1 down to 0, each node's open rows set to
    ∅ and to every block for the two bounds of each step of one polarity
    (dropped once they meet at the recorded value, the subtree cut when they
    cannot reach it), and every leaf checked against the steps left.  Hits
    are listed in bit order."""
    from abspres.kripke import block_name
    from abspres.languages import apply_operator
    from abspres.shells import _recorded_steps

    steps = _recorded_steps(p, lang, model)
    if steps is None:
        return []
    b = len(p.blocks)
    bspace = StateSpace(tuple(block_name(model, m) for m in p.blocks))
    full = bspace.full_mask

    def narrow(rows, pending):
        open_rows = b - len(rows)
        lo = KripkeModel(bspace, (0,) * open_rows + rows, ())
        hi = KripkeModel(bspace, (full,) * open_rows + rows, ())
        left = []
        for step in pending:
            op, args, value = step
            if not op._polarity:
                left.append(step)
                continue
            small, large = (lo, hi) if op._polarity > 0 else (hi, lo)
            below = apply_operator(op, small, args)
            above = apply_operator(op, large, args)
            if below & ~value or value & ~above:
                return None
            if below != above:
                left.append(step)
        return left

    def walk(rows, pending):
        if len(rows) == b:
            qmodel = KripkeModel(bspace, rows, ())
            if all(apply_operator(op, qmodel, args) == value for op, args, value in pending):
                yield qmodel.relation_pairs()
            return
        pending = narrow(rows, pending)
        if pending is None:
            return
        for row in range(1 << b):
            yield from walk((row,) + rows, pending)

    hits = []
    for rel in walk((), steps):
        hits.append(rel)
        if mode == "first":
            break
    return hits


def all_pairs_splitter_passes(model: KripkeModel, blocks, ops):
    """The splitter engine with an until cut for every pair of blocks B1 ≠ B2
    of which one is new, each by the ``EU`` fixpoint of ``apply_operator``
    with an O(n) ``pre`` at each step; yields the blocks after each pass."""
    from abspres.equivalences import _split_once
    from abspres.languages import apply_operator

    full = model.space.full_mask
    blocks = list(blocks)
    fresh = set(blocks)
    while True:
        cuts = set()
        for op in ops:
            if op._chain == "until":
                cuts.update(
                    apply_operator(op, model, (b1, b2))
                    for b1 in blocks
                    for b2 in blocks
                    if b1 != b2 and (b1 in fresh or b2 in fresh)
                )
            else:
                dual = op._chain == "dual"
                cuts.update(apply_operator(op, model, (full & ~b if dual else b,)) for b in fresh)
        old = set(blocks)
        _split_once(blocks, cuts)
        fresh = set(blocks) - old
        yield list(blocks)
        if not fresh:
            return


def all_pairs_check_dbs(p, model: KripkeModel) -> bool:
    """The stuttering checker over every pair of blocks B1 ≠ B2."""
    from abspres.kripke import label_partition
    from abspres.languages import until_mask

    return p.refines(label_partition(model)) and all(
        (until_mask(model, b1, b2) & b1) in (0, b1)
        for b1 in p.blocks
        for b2 in p.blocks
        if b1 != b2
    )


def sweep_similarity(model: KripkeModel, atoms) -> tuple:
    """The similarity rows by sweeping every move s → t in each round, with
    R(s) := R(s) ∩ pre(R(t)), until no row shrinks; R₀(s) = ⋂ {Σ∖a | s ∉ a}."""
    rows = [model.space.full_mask] * model.n
    for a in atoms:
        rows = [row if (a >> s) & 1 else row & ~a for s, row in enumerate(rows)]
    moves = sorted(model.relation_pairs())
    changed = True
    while changed:
        changed = False
        for s, t in moves:
            row = rows[s] & model.pre(rows[t])
            changed |= row != rows[s]
            rows[s] = row
    return tuple(rows)


def semantic_closure_is_sp_domain(domain, lang, model: KripkeModel) -> bool:
    """Strong preservation as containment of S = {⟦φ⟧ | φ ∈ L}, closed over
    ℘(Σ): the domain is a Moore family, so holding S is holding M(S)."""
    from abspres.shells import semantic_closure

    return all(domain.contains(c) for c in semantic_closure(lang, model).masks)


# --- random model generation -----------------------------------------------


def random_total_model(rng: random.Random, max_states: int = 6, max_atoms: int = 2) -> KripkeModel:
    n = rng.randint(1, max_states)
    names = [str(i + 1) for i in range(n)]
    space = StateSpace(tuple(names))
    succ = tuple(rng.randrange(1, 1 << n) for _ in range(n))
    atoms = {}
    for k in range(rng.randint(1, max_atoms)):
        atoms[chr(ord("p") + k)] = rng.randrange(0, 1 << n)
    items = tuple((name, mask) for name, mask in atoms.items())
    return KripkeModel(space, succ, items)


def chain_abstract_structure(k3: KripkeModel):
    """The two-block abstract model [12] -> [3] -> [3] (no [12] self-loop)."""
    from abspres import Partition, quotient
    from abspres.kripke import KripkeModel as KM, Quotient

    p = Partition.of(k3.space, [["1", "2"], ["3"]])
    base = quotient("ee", k3, p)
    i12 = base.model.space.index("[1,2]")
    i3 = base.model.space.index("[3]")
    succ = [0, 0]
    succ[i12] = 1 << i3
    succ[i3] = 1 << i3
    model = KM(base.model.space, tuple(succ), base.model.label_items)
    return Quotient(k3, p, model)


def random_model(rng: random.Random, n: int) -> KripkeModel:
    """n states and one or two labels whose masks are ∅, Σ or random.  In
    about 40 % of the models a successor set may be empty, one draw of
    2^n, so few of them have a dead state."""
    space = StateSpace(tuple(str(i + 1) for i in range(n)))
    full = space.full_mask
    lo = 0 if rng.random() < 0.4 else 1
    succ = tuple(rng.randrange(lo, full + 1) for _ in range(n))
    labels = tuple(
        (name, rng.choice([0, full, rng.randrange(full + 1)]))
        for name in "pq"[: rng.randint(1, 2)]
    )
    return KripkeModel(space, succ, labels)


# --- fixtures ----------------------------------------------------------------


@pytest.fixture
def tl():
    return traffic_light()


@pytest.fixture
def kpqr():
    return five_state_pqr()


@pytest.fixture
def kpq():
    return five_state_pq()


@pytest.fixture
def k3():
    return three_chain()


@pytest.fixture
def a7(kpqr):
    return five_state_nondisjunctive_domain(kpqr)
