"""Behavioural equivalences: refinement computations, definitional checkers,
and their agreement with the shell and forward-completeness routes."""

import random

import pytest

from abspres import (
    KripkeModel,
    Partition,
    Preorder,
    ValidationError,
    bisim_partition,
    check_bisimulation,
    check_dbs,
    check_simulation,
    dbs_partition,
    equivalence_report,
    label_partition,
    largest_simulation,
    simeq_partition,
)
from abspres import abstraction, equivalences, shells
from abspres.abstraction import completeness_check
from abspres.equivalences import (
    bisim_shell_partition,
    dbs_shell_partition,
    equal_label_simulation,
    simeq_shell_partition,
)
from abspres.languages import builtin_operator, label_constants, preset_language
from abspres.lattice import StateSpace, _members, _owners, moore_close
from abspres.partitions import add, adp, pr
from abspres.shells import _cut_functions, semantic_closure

from conftest import (
    all_pairs_check_dbs,
    all_pairs_splitter_passes,
    brute_bisimulation,
    brute_simulation,
    brute_stuttering,
    iter_partitions,
    iter_preorders,
    pairwise_check_simulation,
    random_model,
    random_total_model,
    sweep_similarity,
    warshall_closure,
)


def merge_two_blocks(p: Partition, i: int, j: int) -> Partition:
    blocks = list(p.blocks)
    merged = blocks[i] | blocks[j]
    rest = [b for k, b in enumerate(blocks) if k not in (i, j)]
    return Partition.from_masks(p.space, rest + [merged])


class TestBisimulation:
    def test_five_state(self, kpq):
        assert bisim_partition(kpq) == Partition.of(
            kpq.space, [["1", "2"], ["3"], ["4"], ["5"]]
        )

    def test_traffic_light_is_rigid(self, tl):
        assert bisim_partition(tl) == Partition.identity(tl.space)

    def test_single_looping_state(self):
        model = KripkeModel.of(["s"], [("s", "s")], {"p": ["s"]})
        assert bisim_partition(model) == Partition.trivial(model.space)

    def test_checker_accepts_and_rejects(self, kpq):
        good = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        assert check_bisimulation(good, kpq)
        bad = Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]])
        assert not check_bisimulation(bad, kpq)
        assert check_bisimulation(Partition.identity(kpq.space), kpq)

    def test_local_maximality(self, kpq, tl):
        for model in (kpq, tl):
            p = bisim_partition(model)
            assert check_bisimulation(p, model)
            for i in range(len(p.blocks)):
                for j in range(i + 1, len(p.blocks)):
                    assert not check_bisimulation(merge_two_blocks(p, i, j), model)


def oracle_models(seed):
    """300 models of 1-8 states, half of them with a stuck state, label masks
    ∅ and Σ included."""
    rng = random.Random(seed)
    models = []
    for i in range(300):
        model = random_model(rng, 1 + i % 8)
        if i % 2:  # make a random state stuck
            succ = list(model.succ)
            succ[rng.randrange(model.n)] = 0
            model = KripkeModel(model.space, tuple(succ), model.label_items)
        models.append(model)
    assert sum(0 in m.succ for m in models) >= 150
    masks = {mask for m in models for _, mask in m.label_items}
    assert {0, 1, 255} <= masks
    return models


class TestSplitterEngine:
    def test_bisimulation_matches_the_brute_force_oracle(self):
        for model in oracle_models(1414):
            assert bisim_partition(model) == brute_bisimulation(model), model

    def test_stuttering_matches_the_brute_force_oracle(self):
        for model in oracle_models(1515):
            assert dbs_partition(model) == brute_stuttering(model), model

    def test_passes_end_with_one_that_splits_nothing(self, kpq):
        ex = [(kpq.pre, False)]
        passes = list(equivalences._splitter_passes(kpq, label_partition(kpq).blocks, ex))
        assert [len(p) for p in passes] == [3, 4, 4]
        assert passes[-1] == passes[-2]
        # a stable input takes one pass
        stable = bisim_partition(kpq).blocks
        assert list(equivalences._splitter_passes(kpq, stable, ex)) == [list(stable)]


class TestSplitPasses:
    def test_one_pass_splits_every_unstable_block(self):
        # a1 -> c, a2 -> a2 and b1 -> c, b2 -> b2: both two-state blocks are
        # cut by their own pre-image, so one step over the blocks' pre-images
        # splits both
        model = KripkeModel.of(
            ["a1", "a2", "b1", "b2", "c"],
            [("a1", "c"), ("a2", "a2"), ("b1", "c"), ("b2", "b2"), ("c", "c")],
            {"p": ["a1", "a2"], "q": ["b1", "b2"]},
        )
        mask = model.space.mask_of
        blocks = [mask(["a1", "a2"]), mask(["b1", "b2"]), mask(["c"])]
        owner = _owners(model.n, blocks)
        cuts = [model.pre(b) for b in blocks]

        changed = set()
        assert equivalences._split_once(blocks, owner, cuts, changed) == 2
        assert set(blocks) == {mask([s]) for s in ("a1", "a2", "b1", "b2", "c")}
        assert owner == _owners(model.n, blocks)
        # both parts of both split blocks changed, c did not
        assert {blocks[k] for k in changed} == set(blocks) - {mask(["c"])}
        changed = set()
        assert equivalences._split_once(blocks, owner, cuts, changed) == 0
        assert not changed
        assert bisim_partition(model) == Partition.identity(model.space)


def lifted_model(rng, n, stuck=False):
    """n states over k ≤ 12 classes, class of state i = i mod k: each class
    has 1-2 successor classes, each state 1-2 successors in each of them,
    and the labels are unions of classes, so the coarsest bisimulation has
    at most k blocks; then up to three states get one more random successor
    each, which splits their classes.  With ``stuck``, one class has no successors and one more
    state loses its own."""
    k = rng.randint(3, 12)
    targets = [rng.sample(range(k), rng.randint(1, 2)) for _ in range(k)]
    if stuck:
        targets[rng.randrange(k)] = []
    members = [list(range(c, n, k)) for c in range(k)]
    succ = [
        sum(1 << t for d in targets[i % k] for t in rng.sample(members[d], min(2, len(members[d]))))
        for i in range(n)
    ]
    for i in rng.sample(range(n), rng.randint(0, 3)):
        succ[i] |= 1 << rng.randrange(n)
    if stuck:
        succ[rng.randrange(n)] = 0
    classes = [rng.random() < 0.5 for _ in range(k)], [rng.random() < 0.3 for _ in range(k)]
    labels = tuple(
        (name, sum(1 << i for i in range(n) if holds[i % k]))
        for name, holds in zip("pq", classes)
    )
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return KripkeModel(space, tuple(succ), labels)


def sparse_model(rng, n, stuck=False):
    """n states with 1-3 random successors each, and with ``stuck`` 1-3 of
    them with none; labels p and q are random masks, so the refinements
    come out close to the identity."""
    succ = [sum(1 << t for t in rng.sample(range(n), rng.randint(1, 3))) for _ in range(n)]
    if stuck:
        for i in rng.sample(range(n), rng.randint(1, 3)):
            succ[i] = 0
    labels = (("p", rng.randrange(1 << n)), ("q", rng.randrange(1 << n)))
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return KripkeModel(space, tuple(succ), labels)


def ring_model(n, chords=0, seed=0):
    """An n-cycle with p on state 0 only, plus ``chords`` random moves."""
    rng = random.Random(seed)
    succ = [1 << (i + 1) % n for i in range(n)]
    for _ in range(chords):
        succ[rng.randrange(n)] |= 1 << rng.randrange(n)
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return KripkeModel(space, tuple(succ), (("p", 1),))


class TestEdgeRefinements:
    """The engine cuts by EU only where an edge joins the two blocks, and the
    similarity runs a worklist over predecessors; both against today's
    all-pairs and move-sweep routes, kept in conftest as oracles."""

    @staticmethod
    def models():
        rng = random.Random(1717)
        lifted = [lifted_model(rng, 30 + 15 * i, stuck=i % 3 == 0) for i in range(9)]
        sparse = [sparse_model(rng, 30 + 15 * i, stuck=i % 2 == 0) for i in range(4)]
        return lifted + sparse + [ring_model(100), ring_model(90, chords=6, seed=17)]

    def test_refinements_match_the_all_pairs_and_sweep_routes(self):
        ex, eu = [builtin_operator("EX")], [builtin_operator("EU")]
        models = self.models()
        assert sum(not m.is_total() for m in models) >= 5
        assert max(m.n for m in models) == 150
        for model in models:
            labels = label_partition(model).blocks
            for ops, compute in ((eu, dbs_partition), (ex, bisim_partition), (ex + eu, None)):
                if compute is None and model.n > 80:
                    continue  # the oracle's pairs make this the slow one
                engine = equivalences._splitter_passes(model, labels, *_cut_functions(model, ops))
                passes = [set(p) for p in engine]
                want = [set(p) for p in all_pairs_splitter_passes(model, labels, ops)]
                assert passes == want, (model, ops)
                if compute is not None:
                    assert compute(model) == Partition.from_masks(model.space, want[-1])
            atoms = [mask for _, mask in model.label_items]
            full = model.space.full_mask
            assert largest_simulation(model).rows == sweep_similarity(model, atoms)
            assert equal_label_simulation(model).rows == sweep_similarity(
                model, atoms + [full & ~a for a in atoms]
            )

    def test_stuttering_passes_on_small_sparse_models(self):
        # one label and 1-3 successors on 8-14 states leave blocks of several
        # states, where a fresh block's move into an older block can cut it;
        # an engine that searched only into fresh blocks missed such cuts
        rng = random.Random(2929)
        eu = [builtin_operator("EU")]
        split = 0
        for i in range(600):
            model = sparse_model(rng, rng.randint(8, 14), stuck=i % 2 == 0)
            model = KripkeModel(model.space, model.succ, model.label_items[:1])
            labels = label_partition(model).blocks
            passes = [set(p) for p in equivalences._splitter_passes(model, labels, [], until=True)]
            want = [set(p) for p in all_pairs_splitter_passes(model, labels, eu)]
            assert passes == want, model
            split += len(want) > 2
        assert split >= 200, split

    def test_checker_skips_only_pairs_without_an_edge(self):
        rng = random.Random(1818)
        accepted = rejected = 0
        for i in range(24):
            model = lifted_model(rng, rng.randint(6, 30), stuck=i % 2 == 0)
            p = dbs_partition(model)
            candidates = [p, label_partition(model), bisim_partition(model)]
            if len(p) > 1:
                candidates.append(merge_two_blocks(p, *rng.sample(range(len(p)), 2)))
            for q in candidates:
                verdict = check_dbs(q, model)
                assert verdict == all_pairs_check_dbs(q, model), (model, q)
                accepted += verdict
                rejected += not verdict
        assert accepted >= 40 and rejected >= 30

    def test_until_cuts_are_made_only_across_edges(self, monkeypatch):
        # each pass cuts by one X(B2) per target block B2, a fresh block or
        # one that a fresh block moves into, and X(B2) meets every other
        # block B1 in EU(B1, B2) ∩ B1; the state → block index kept across
        # passes names each state's block after every pass
        entries, split_once = equivalences._entries, equivalences._split_once
        until = equivalences.until_mask
        targets = checks = entered = 0
        models = self.models()
        assert sum(not m.is_total() for m in models) >= 5

        for model in models:

            def checked_entries(m, blocks, owner, fresh, model=model):
                nonlocal targets, checks, entered
                fresh = set(fresh)
                cuts = entries(m, blocks, owner, fresh)
                moved_into = {
                    j for k in fresh for j, b in enumerate(blocks)
                    if j != k and model.post(blocks[k]) & b
                }
                assert set(cuts) == fresh | moved_into
                entered += len(moved_into - fresh)
                for j, x in cuts.items():
                    b2 = blocks[j]
                    assert x & b2 == b2
                    for b1 in blocks:
                        if b1 != b2:
                            assert x & b1 == until(model, b1, b2) & b1, (model, b1, b2)
                            checks += 1
                    targets += 1
                return cuts

            def checked_split(blocks, owner, cuts, changed, model=model):
                old = set(blocks)
                count = split_once(blocks, owner, cuts, changed)
                assert count == len(blocks) - len(old)
                assert {blocks[k] for k in changed} == set(blocks) - old
                assert sum(b.bit_count() for b in blocks) == model.n
                for k, b in enumerate(blocks):
                    assert b and all(owner[s] == k for s in _members(b))
                return count

            monkeypatch.setattr(equivalences, "_entries", checked_entries)
            monkeypatch.setattr(equivalences, "_split_once", checked_split)
            dbs_partition(model)
        assert targets >= 400 and checks >= 500 and entered >= 90, (targets, checks, entered)


class TestStuttering:
    def test_five_state(self, kpq):
        assert dbs_partition(kpq) == Partition.of(
            kpq.space, [["1", "2", "3", "4"], ["5"]]
        )

    def test_traffic_light(self, tl):
        assert dbs_partition(tl) == Partition.of(tl.space, [["R", "RY"], ["G", "Y"]])

    def test_strongly_connected_uniform(self):
        model = KripkeModel.of(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("c", "a")],
            {"p": ["a", "b", "c"]},
        )
        assert dbs_partition(model) == Partition.trivial(model.space)

    def test_checker(self, kpq):
        assert check_dbs(Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]]), kpq)
        # any refinement that still meets the block criterion passes
        assert check_dbs(Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]]), kpq)
        assert not check_dbs(Partition.trivial(kpq.space), kpq)

    def test_local_maximality(self, kpq, tl):
        for model in (kpq, tl):
            p = dbs_partition(model)
            assert check_dbs(p, model)
            for i in range(len(p.blocks)):
                for j in range(i + 1, len(p.blocks)):
                    assert not check_dbs(merge_two_blocks(p, i, j), model)


class TestSimulation:
    def test_similarity_matches_the_brute_force_oracle(self):
        # inclusion-labeled from the labels, equal-labeled from the labels
        # and their complements
        for model in oracle_models(1616):
            labels = [mask for _, mask in model.label_items]
            literals = labels + [model.space.full_mask & ~mask for mask in labels]
            assert largest_simulation(model).rows == brute_simulation(model, labels), model
            assert equivalences.equal_label_simulation(model).rows == brute_simulation(
                model, literals
            ), model

    def test_contains_identity(self, kpq, tl, k3):
        for model in (kpq, tl, k3):
            r = largest_simulation(model)
            for i in range(model.n):
                assert (r.rows[i] >> i) & 1

    def test_chain_is_totally_similar(self, k3):
        assert largest_simulation(k3) == Preorder.total(k3.space)

    def test_five_state_kernel(self, kpq):
        r = largest_simulation(kpq)
        assert r.kernel() == Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])

    def test_checker(self, kpq):
        assert check_simulation(Preorder.identity(kpq.space), kpq)
        assert check_simulation(largest_simulation(kpq), kpq)
        assert not check_simulation(Preorder.total(kpq.space), kpq)

    def test_largest_is_largest(self, kpq, tl):
        rng = random.Random(77)
        for model in (kpq, tl):
            r = largest_simulation(model)
            # adding any missing pair (closed transitively) breaks simulation
            n = model.n
            missing = [
                (s, t)
                for s in range(n)
                for t in range(n)
                if not (r.rows[s] >> t) & 1
            ]
            for s, t in rng.sample(missing, min(6, len(missing))):
                rows = list(r.rows)
                rows[s] |= 1 << t
                bigger = Preorder(model.space, warshall_closure(rows))
                assert not check_simulation(bigger, model)

    def test_checker_matches_the_pair_loop(self):
        # similarities, partitions, merged blocks and single added pairs on
        # seeded models: the row checker gives the per-pair loop's verdicts
        rng = random.Random(31)
        verdicts = {True: 0, False: 0}
        for i in range(120):
            model = random_model(rng, 2 + i % 7)
            space = model.space
            bisim = bisim_partition(model)
            blocks = [bisim, label_partition(model), Partition.identity(space)]
            if len(bisim) > 1:
                j, k = rng.sample(range(len(bisim)), 2)
                blocks.append(merge_two_blocks(bisim, j, k))
            for p in blocks:
                want = pairwise_check_simulation(Preorder.from_partition(p), model)
                assert check_bisimulation(p, model) == want, (model, p)
                verdicts[want] += 1
            relations = [Preorder.total(space)]
            for sim in (largest_simulation(model), equal_label_simulation(model)):
                relations.append(sim)
                missing = [
                    (s, t) for s in range(model.n) for t in _members(space.full_mask & ~sim.rows[s])
                ]
                for s, t in rng.sample(missing, min(2, len(missing))):
                    rows = list(sim.rows)
                    rows[s] |= 1 << t
                    relations.append(Preorder(space, warshall_closure(rows)))
            for r in relations:
                want = pairwise_check_simulation(r, model)
                assert check_simulation(r, model) == want, (model, r)
                verdicts[want] += 1
        assert min(verdicts.values()) >= 200, verdicts


class TestSimulationEquivalence:
    def test_five_state(self, kpq):
        assert simeq_partition(kpq) == Partition.of(
            kpq.space, [["1", "2"], ["3"], ["4"], ["5"]]
        )

    def test_uniform_cycle(self):
        model = KripkeModel.of(
            ["a", "b"], [("a", "b"), ("b", "a")], {"p": ["a", "b"]}
        )
        assert simeq_partition(model) == Partition.trivial(model.space)

    def test_kernel_route_equals_shell_route(self):
        from abspres.equivalences import equal_label_simulation

        rng = random.Random(101)
        for _ in range(40):
            model = random_total_model(rng, max_states=6)
            kernel = equal_label_simulation(model).kernel()
            assert kernel == simeq_shell_partition(model)

    def test_inclusion_kernel_can_be_coarser(self):
        # with overlapping labels the inclusion-labeled similarity may merge
        # states that the language distinguishes through negated atoms
        from abspres.lattice import StateSpace

        space = StateSpace.of("1", "2", "3", "4", "5")
        model = KripkeModel(space, (28, 7, 30, 31, 18), (("p", 29), ("q", 3)))
        coarse = largest_simulation(model).kernel()
        fine = simeq_partition(model)
        assert fine.refines(coarse)
        assert fine != coarse
        assert coarse == Partition.of(space, [["1"], ["2"], ["3", "4", "5"]])
        assert fine == Partition.identity(space)


class TestShellRoutes:
    def test_bisim_shell_equals_refinement(self, kpq, tl, k3):
        # both routes run the splitter engine, so both meet the brute-force
        # coarsest bisimulation
        rng = random.Random(13)
        models = [kpq, tl, k3] + [random_total_model(rng) for _ in range(30)]
        for model in models:
            want = brute_bisimulation(model)
            assert bisim_partition(model) == want
            assert bisim_shell_partition(model) == want

    def test_dbs_shell_equals_refinement(self, kpq, tl):
        rng = random.Random(17)
        models = [kpq, tl] + [random_total_model(rng) for _ in range(30)]
        for model in models:
            p = dbs_partition(model)
            assert p == dbs_shell_partition(model)
            closed = moore_close(semantic_closure(preset_language("L2", model), model))
            assert p == pr(closed)


class TestOrderings:
    def test_refinement_chains(self):
        rng = random.Random(4242)
        for _ in range(40):
            model = random_total_model(rng)
            p_ell = label_partition(model)
            bis = bisim_partition(model)
            dbs = dbs_partition(model)
            simeq = simeq_partition(model)
            assert bis.refines(simeq)
            assert simeq.refines(p_ell)
            assert bis.refines(dbs)
            assert dbs.refines(p_ell)

    def test_outputs_pass_their_checkers(self):
        rng = random.Random(555)
        for _ in range(25):
            model = random_total_model(rng)
            assert check_bisimulation(bisim_partition(model), model)
            assert check_dbs(dbs_partition(model), model)
            assert check_simulation(largest_simulation(model), model)

    def test_local_maximality_on_random_models(self):
        rng = random.Random(808)
        for _ in range(12):
            model = random_total_model(rng)
            for compute, checker in (
                (bisim_partition, check_bisimulation),
                (dbs_partition, check_dbs),
            ):
                p = compute(model)
                for i in range(len(p.blocks)):
                    for j in range(i + 1, len(p.blocks)):
                        assert not checker(merge_two_blocks(p, i, j), model)


class TestReports:
    def test_all_kinds_consistent_on_fixtures(self, kpq, tl):
        for model in (kpq, tl):
            for kind in ("bisim", "dbs", "sim", "simeq"):
                report = equivalence_report(kind, model)
                assert report.consistent
                assert report.kind == kind
                if kind == "sim":
                    assert report.preorder is not None
                else:
                    assert report.partition is not None


    def test_unknown_kind_is_refused(self, kpq):
        with pytest.raises(ValidationError, match="unknown equivalence kind 'trace'"):
            equivalence_report("trace", kpq)

class TestCompletenessCharacterizations:
    """The checkers decide the definitions; the paper proves the same
    verdicts are forward completeness of adp(P) or add(R) for the atoms and
    one operator.  Checked on every partition or preorder of small models."""

    @pytest.mark.parametrize(
        "check, op", [(check_bisimulation, "pre"), (check_dbs, "EU")], ids=["bisim", "dbs"]
    )
    def test_partition_checkers(self, kpq, tl, k3, check, op):
        rng = random.Random(2004)
        # a non-total model: states 3 and 4 have no successor
        stuck = KripkeModel.of(
            ["1", "2", "3", "4", "5"],
            [("1", "3"), ("1", "5"), ("2", "4"), ("2", "5"), ("5", "5")],
            {"p": ["1", "2", "5"], "q": ["3", "4"]},
        )
        models = [kpq, tl, k3, stuck] + [random_total_model(rng, max_states=5) for _ in range(20)]
        for model in models:
            ops = label_constants(model) + [builtin_operator(op)]
            for p in iter_partitions(model.space):
                complete = completeness_check("forward", adp(p), ops, model).holds
                assert check(p, model) == complete, p

    def test_simulation_checker(self):
        rng = random.Random(2005)
        for _ in range(20):
            model = random_total_model(rng, max_states=4)
            ops = label_constants(model) + [builtin_operator("pre~")]
            for r in iter_preorders(model.space):
                complete = completeness_check("forward", add(r), ops, model).holds
                assert check_simulation(r, model) == complete, r


class TestDefaultPath:
    def test_no_exponential_route(self, kpq, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("exponential route on the default path")

        for module in (equivalences, shells, abstraction):
            for name in ("forward_complete_shell", "completeness_check"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        for kind in ("bisim", "dbs", "sim", "simeq"):
            assert equivalence_report(kind, kpq).consistent
        assert simeq_partition(kpq) == bisim_partition(kpq)
        assert check_bisimulation(bisim_partition(kpq), kpq)
        assert check_dbs(dbs_partition(kpq), kpq)
        assert check_simulation(largest_simulation(kpq), kpq)

    def test_checker_has_no_block_cap(self):
        # adp of 24 blocks would have 2^24 members
        n = 24
        space = StateSpace(tuple(str(i) for i in range(n)))
        succ = tuple(1 << ((i + 1) % n) for i in range(n))
        model = KripkeModel(space, succ, (("p", 0x555555),))
        assert check_bisimulation(Partition.identity(space), model)
