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
