"""Shared oracles and generators.

The oracles deliberately use a different representation than the library
(frozensets of state names instead of bitmasks) so the two routes stay
independent.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from abspres import AbstractDomain, KripkeModel, Partition, Preorder, StateSpace
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


def moore_families(n: int) -> list:
    """Every Moore family over the space of states "1" to "n", in the order
    of :func:`brute_moore_families`, each entering through the checked
    constructor: 1, 2, 7, 61 and 2480 domains for n = 0 to 4."""
    space = StateSpace(tuple(str(i + 1) for i in range(n)))
    return [
        AbstractDomain(space, image=[space.mask_of(s) for s in family])
        for family in brute_moore_families(frozenset(space.names))
    ]


def iter_partitions(space: StateSpace):
    """All partitions of the space (Bell-number many); canonical block order."""

    def assign(i: int, blocks: list[list[int]]):
        if i == space.n:
            yield [sum(1 << s for s in b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from assign(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from assign(i + 1, blocks)
        blocks.pop()

    if space.n == 0:
        return
    for masks in assign(0, []):
        yield Partition.from_masks(space, masks)


def iter_preorders(space: StateSpace):
    """All preorders over a small space: the reflexive relations, as row
    masks, that Warshall's closure leaves as they are."""
    n = space.n
    reflexive = ([row for row in range(1 << n) if (row >> s) & 1] for s in range(n))
    for rows in product(*reflexive):
        if warshall_closure(rows) == rows:
            yield Preorder(space, rows)


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


def split_every_block(blocks: list, cuts) -> int:
    """Cut every block of ``blocks`` by each set of ``cuts``, in place: a
    block that a cut meets without containing keeps its part inside the cut,
    and its part outside goes to the end.  Returns the number of cuts made."""
    count = 0
    for x in cuts:
        for i in range(len(blocks)):
            c = blocks[i]
            inside = c & x
            if inside and inside != c:
                blocks[i] = inside
                blocks.append(c & ~x)
                count += 1
    return count


def all_pairs_splitter_passes(model: KripkeModel, blocks, ops):
    """The splitter engine with an until cut for every pair of blocks B1 ≠ B2
    of which one is new, each by the ``EU`` fixpoint of ``apply_operator``
    with an O(n) ``pre`` at each step, and each cut tried on every block
    (:func:`split_every_block`); yields the blocks after each pass."""
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
        split_every_block(blocks, cuts)
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


def pairwise_check_simulation(r, model: KripkeModel) -> bool:
    """The simulation checker over every related pair (s, s'): ℓ(s') ⊆ ℓ(s),
    and every move s → t matched by a move s' → t' with t R t'."""
    from abspres.lattice import _members

    labels = [model.label_of_state(s) for s in range(model.n)]

    def matched(s, s2):
        return all(model.succ[s2] & r.rows[t] for t in _members(model.succ[s]))

    return all(
        labels[s2] <= labels[s] and matched(s, s2)
        for s in range(model.n)
        for s2 in _members(r.rows[s])
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


# --- the routes by spelled bodies that languages._route replaced ----------


def spelled_splitters(ops):
    """``_splitters`` by comparing bodies with spelled ones: ``not #1``, the
    next operators ``EX``, ``AX``, ``pre`` and ``pre~`` of #1, the fixpoints
    of #1, #2, and each dual chain's additive twin rebuilt by renaming AX
    to EX, pre~ to pre and post~ to post."""
    from abspres.formulas import App, Arg

    twins = {"AX": "EX", "pre~": "pre", "post~": "post"}

    def twin(node):
        if isinstance(node, App):
            return App(twins[node.op], tuple(twin(a) for a in node.args))
        return node

    nexts = {App(name, (Arg(1),)) for name in ("EX", "AX", "pre", "pre~")}
    fixpoints = {App(name, (Arg(1), Arg(2))) for name in ("EU", "AU", "ER", "AR")}
    if not any(op.body == App("not", (Arg(1),)) for op in ops):
        return None
    has_next = any(op.body in nexts for op in ops if op._chain)
    additive = {op.body for op in ops if op._chain == "additive"}
    cuts = []
    for op in ops:
        if op._boolean or (has_next and op.arity == 2 and op.body in fixpoints):
            continue
        if op._chain is None:
            return None
        if op._chain == "dual" and twin(op.body) in additive:
            continue
        cuts.append(op)
    return cuts


def spelled_route(lang):
    """``_route`` by spelled bodies: a join is ``and #1 #2`` or ``or #1
    #2``, and the similarity route's next operators are ``AX #1`` and
    ``pre~ #1``."""
    from abspres.formulas import App, Arg

    joins = {App("and", (Arg(1), Arg(2))), App("or", (Arg(1), Arg(2)))}
    dual_nexts = {App("AX", (Arg(1),)), App("pre~", (Arg(1),))}
    bodies = {op.body for op in lang.operators}
    if lang.open_ops or not lang.atoms or not bodies & joins:
        return None, []
    cuts = spelled_splitters(lang.operators)
    if cuts is not None:
        return "splitter", cuts
    full = lang.atoms[0][1].space.full_mask
    masks = {s.mask for _, s in lang.atoms}
    if joins < bodies <= joins | dual_nexts and masks == {full & ~m for m in masks}:
        return "similarity", [op for op in lang.operators if op.body in dual_nexts]
    return None, []


def twin_by_row(op, ops) -> bool:
    """Is ``op`` a dual chain with an additive chain among ``ops`` that is
    its twin once each link is named by its transformer, EX, AX, pre and
    pre~ as pre, post and post~ as post?  Such a cut adds nothing: AX(Σ∖B)
    = Σ∖EX(B), and a set and its complement cut blocks alike."""
    from abspres.formulas import App

    side = {"EX": "pre", "AX": "pre", "pre": "pre", "pre~": "pre", "post": "post", "post~": "post"}

    def named(node):
        if isinstance(node, App):
            return App(side.get(node.op, node.op), tuple(named(a) for a in node.args))
        return node

    return op._chain == "dual" and any(
        o._chain == "additive" and named(o.body) == named(op.body) for o in ops
    )


def in_splitter_class(lang) -> bool:
    """Is ``lang`` a closed language with an atom, an operator ``and #1 #2``
    or ``or #1 #2``, and operators that ``_splitters`` admits (L1, L2 and
    CTL are)?  Then S = {⟦φ⟧ | φ ∈ L} is the unions of the blocks of P_L,
    which the splitter engine computes from the atom partition."""
    from abspres.formulas import App, Arg

    joins = {App("and", (Arg(1), Arg(2))), App("or", (Arg(1), Arg(2)))}
    return (
        bool(lang.atoms)
        and not lang.open_ops
        and spelled_splitters(lang.operators) is not None
        and any(op.body in joins for op in lang.operators)
    )


def in_similarity_class(lang) -> bool:
    """Is ``lang`` a closed language with atoms closed under complement, the
    operators ``and #1 #2`` and ``or #1 #2``, some ``AX #1`` or ``pre~ #1``,
    and no other operator?  L3 is.  Then S = {⟦φ⟧ | φ ∈ L} is add of the
    similarity of the atoms."""
    from abspres.formulas import App, Arg

    joins = {App("and", (Arg(1), Arg(2))), App("or", (Arg(1), Arg(2)))}
    dual_nexts = {App("AX", (Arg(1),)), App("pre~", (Arg(1),))}
    bodies = {op.body for op in lang.operators}
    if lang.open_ops or not lang.atoms or not joins < bodies <= joins | dual_nexts:
        return False
    full = lang.atoms[0][1].space.full_mask
    masks = {s.mask for _, s in lang.atoms}
    return masks == {full & ~m for m in masks}


def splitter_class_languages(model: KripkeModel) -> list:
    """L1, L1 + post, L1 + AX, or/not/EF[0,2] and and/or/not/pre~/post~."""
    from abspres import language_from_ops, preset_language

    return [preset_language("L1", model)] + [
        language_from_ops(model, ops)
        for ops in (
            ["and", "not", "EX", "post"],
            ["and", "not", "EX", "AX"],
            ["or", "not", "EF[0,2]"],
            ["and", "or", "not", "pre~", "post~"],
        )
    ]


def similarity_class_languages(model: KripkeModel) -> list:
    """L3, and/or/pre~ and and/or/pre~/AX, over the labels and their negations."""
    from abspres import LanguageSpec, builtin_operator, preset_language

    l3 = preset_language("L3", model)
    return [l3] + [
        LanguageSpec(f"L3-{len(ops)}", l3.atoms, tuple(builtin_operator(op) for op in ops))
        for ops in (["and", "or", "pre~"], ["and", "or", "pre~", "AX"])
    ]


# --- an operator's facts by the separate walks that its resolver replaced --


def walk_resolution_error(name: str, arity: int, node):
    """The (type, message) that resolving ``node`` of operator ``name`` of
    ``arity`` raises, checked node by node before its arguments, or None."""
    from abspres.errors import ResolutionError, ValidationError
    from abspres.formulas import Arg, Atom, Const
    from abspres.languages import _builtin

    where = f"operator {name!r}:"
    if isinstance(node, Arg):
        if node.index > arity:
            return ValidationError, f"{where} uses #{node.index} but has arity {arity}"
        return None
    if isinstance(node, Const):
        return None
    if isinstance(node, Atom):
        return ResolutionError, f"{where} atom {node.name!r} cannot appear in an operator body"
    try:
        entry = _builtin(node.op)
    except ValidationError as exc:
        return ValidationError, str(exc)
    if entry is None:
        return ResolutionError, f"{where} unknown built-in operator {node.op!r}"
    if entry.arity != len(node.args):
        return ValidationError, f"{where} {node.op} expects {entry.arity} arguments, got {len(node.args)}"
    for a in node.args:
        err = walk_resolution_error(name, arity, a)
        if err is not None:
            return err
    return None


def walk_is_boolean(node) -> bool:
    from abspres.formulas import App, Arg
    from abspres.languages import _builtin

    if isinstance(node, Arg):
        return True
    return isinstance(node, App) and _builtin(node.op).shape == "boolean" and all(
        walk_is_boolean(a) for a in node.args
    )


def walk_chain_kind(arity: int, body):
    """``Operator._chain`` by walking the body top down."""
    from abspres.formulas import App, Arg
    from abspres.languages import _builtin

    if arity == 2 and body == App("EU", (Arg(1), Arg(2))):
        return "until"
    if arity != 1:
        return None
    kind = None
    node = body
    while isinstance(node, App) and len(node.args) == 1:
        step = _builtin(node.op).shape
        if step not in ("additive", "dual"):
            return None
        if kind not in (None, step):
            return None  # a mixed chain such as AX EX #1
        kind = step
        node = node.args[0]
    return kind if node == Arg(1) else None


def walk_call(body):
    """``Operator._call``: the built-in a body is, over #1, ..., #k in order."""
    from abspres.formulas import App, Arg

    if isinstance(body, App) and body.args == tuple(Arg(k + 1) for k in range(len(body.args))):
        return body.op
    return None


def walk_sides(chain, body):
    """``Operator._sides``: the side of each link of an additive or dual
    chain, from the outside in."""
    from abspres.formulas import App
    from abspres.languages import _builtin

    if chain not in ("additive", "dual"):
        return None
    sides = []
    while isinstance(body, App):
        sides.append(_builtin(body.op).side)
        (body,) = body.args
    return tuple(sides)


def walk_polarity(node):
    """``Operator._polarity``: each argument's sign, flipped under ``not``,
    joins the built-in's own; None once two nonzero signs disagree."""
    from abspres.formulas import App
    from abspres.languages import _builtin

    if not isinstance(node, App):
        return 0
    sign = _builtin(node.op).sign
    flip = -1 if node.op == "not" else 1
    for arg in node.args:
        inner = walk_polarity(arg)
        if inner is None:
            return None
        inner *= flip
        if not sign:
            sign = inner
        elif inner and inner != sign:
            return None
    return sign


def walk_apply(node, model: KripkeModel, args) -> int:
    """The body's value by evaluating it node by node on the model."""
    from abspres.formulas import App, Arg, Const
    from abspres.languages import _builtin

    if isinstance(node, Arg):
        return args[node.index - 1]
    if isinstance(node, Const):
        return node.value.mask
    assert isinstance(node, App)
    return _builtin(node.op).semantics(model, *[walk_apply(a, model, args) for a in node.args])


def random_body(rng: random.Random, space: StateSpace, depth: int):
    """A random operator body over every built-in (``EF[lo,hi]`` with lo > hi
    now and then), constants, placeholders up to #4, and now and then an
    atom, an unknown name or a wrong argument count."""
    from abspres.formulas import App, Arg, Atom, Const
    from abspres.languages import _BUILTIN_TABLE
    from abspres.lattice import StateSet

    roll = rng.random()
    if depth == 0 or roll < 0.25:
        leaf = rng.random()
        if leaf < 0.75:
            return Arg(rng.choice([1, 1, 1, 1, 2, 2, 3, 4]))
        if leaf < 0.97:
            return Const(StateSet(space, rng.randrange(space.full_mask + 1)))
        return Atom("p")
    if roll < 0.6:  # a unary step, so that chains, pure or mixed, are common
        names = [n for n, row in _BUILTIN_TABLE.items() if row.arity == 1] + ["EF"]
    else:
        names = list(_BUILTIN_TABLE) + ["not", "EF"]
    name = rng.choice(names)
    if name == "EF":
        lo = rng.randrange(4)
        name = f"EF[{lo},{lo + rng.randrange(-1, 4)}]"
    elif rng.random() < 0.01:
        name = "nope"
    arity = 1 if name.startswith("EF") or name == "nope" else _BUILTIN_TABLE[name].arity
    if rng.random() < 0.02:
        arity = rng.choice([0, 1, 2, 3])
    return App(name, tuple(random_body(rng, space, depth - 1) for _ in range(arity)))


# --- partitions and preorders by their definitions ------------------------


def closure_pr(domain):
    """pr by one closure per state: states with equal singleton closures."""
    classes = {}
    for i in range(domain.space.n):
        mu = domain.closure_mask(1 << i)
        classes[mu] = classes.get(mu, 0) | (1 << i)
    return Partition.from_masks(domain.space, classes.values())


def row_column_kernel(r):
    """A preorder's kernel by meeting each row with its column."""
    n = r.space.n
    cols = [sum(1 << s for s in range(n) if (r.rows[s] >> t) & 1) for t in range(n)]
    return Partition.from_masks(r.space, {row & col for row, col in zip(r.rows, cols)})


def warshall_closure(rows) -> tuple:
    """Warshall's transitive closure of a relation given as row masks."""
    closure = list(rows)
    for k in range(len(closure)):
        for s in range(len(closure)):
            if (closure[s] >> k) & 1:
                closure[s] |= closure[k]
    return tuple(closure)


def block_pair_refines(p, q) -> bool:
    """P ≼ Q by testing each block of P against every block of Q."""
    return all(any(b & ~c == 0 for c in q.blocks) for b in p.blocks)


def label_set_partition(model: KripkeModel):
    """States grouped by the set of their labels' names."""
    classes = {}
    for i in range(model.n):
        key = model.label_of_state(i)
        classes[key] = classes.get(key, 0) | (1 << i)
    return Partition.from_masks(model.space, classes.values())


def double_loop_preord_rows(domain) -> tuple:
    """preord_of's rows by comparing every pair of singleton closures:
    bit y of row x iff μ({x}) ⊆ μ({y})."""
    n = domain.space.n
    closures = [domain.closure_mask(1 << i) for i in range(n)]
    return tuple(
        sum(1 << y for y in range(n) if closures[x] & ~closures[y] == 0) for x in range(n)
    )


def complement_closed(domain) -> bool:
    """Partitioning as an image closed under complement (lists the image)."""
    full = domain.space.full_mask
    return all((full & ~m) in domain.masks for m in domain.masks)


def union_closed(domain) -> bool:
    """Disjunctive as ∅ in the image and closure under pairwise unions
    (lists the image)."""
    masks = domain.masks
    return 0 in masks and all(x | y in masks for x, y in combinations(masks, 2))


# --- block-index masks by the block loops they replace -----------------------


def per_state_quotient(kind: str, model: KripkeModel, p) -> KripkeModel:
    """The ∃∃ or ∀∃ block model of ``quotient`` by one block lookup per
    state: a block's row joins (∃∃) or intersects (∀∃) the blocks that its
    members' successors meet, and a label holds the blocks its states meet."""
    from functools import reduce
    from operator import and_, or_

    from abspres.kripke import block_name
    from abspres.lattice import _members, _owners

    owner = _owners(model.n, p.blocks)

    def meeting(mask):
        return reduce(or_, (1 << owner[s] for s in _members(mask)), 0)

    combine = or_ if kind == "ee" else and_
    bsucc = tuple(
        reduce(combine, (meeting(model.succ[s]) for s in _members(blk))) for blk in p.blocks
    )
    bspace = StateSpace(tuple(block_name(model, m) for m in p.blocks))
    items = tuple((label, meeting(mask)) for label, mask in model.label_items)
    return KripkeModel(bspace, bsucc, items)


def block_loop_inner(p, mask) -> int:
    """``Partition.inner`` by testing every block against the mask."""
    return sum(1 << i for i, b in enumerate(p.blocks) if b & ~mask == 0)


def block_loop_union(p, bm) -> int:
    """``Partition.union`` by testing every block's bit: bits past the last
    block name no block."""
    acc = 0
    for i, b in enumerate(p.blocks):
        if (bm >> i) & 1:
            acc |= b
    return acc


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
    from abspres import quotient
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
