"""Behavioural equivalences: refinement computations, definitional checkers,
and their agreement with the shell and forward-completeness routes."""

import random

import pytest

from abspres import (
    KripkeModel,
    Partition,
    Preorder,
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
    simeq_shell_partition,
)
from abspres.languages import builtin_operator, label_constants, preset_language
from abspres.lattice import StateSpace
from abspres.partitions import add, adp, iter_partitions, iter_preorders
from abspres.shells import coarsest_sp_partition

from conftest import random_total_model


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
                for k in range(n):
                    for i in range(n):
                        if (rows[i] >> k) & 1:
                            rows[i] |= rows[k]
                bigger = Preorder(model.space, tuple(rows))
                assert not check_simulation(bigger, model)


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
        rng = random.Random(13)
        models = [kpq, tl, k3] + [random_total_model(rng) for _ in range(30)]
        for model in models:
            assert bisim_partition(model) == bisim_shell_partition(model)

    def test_dbs_shell_equals_refinement(self, kpq, tl):
        rng = random.Random(17)
        models = [kpq, tl] + [random_total_model(rng) for _ in range(30)]
        for model in models:
            p = dbs_partition(model)
            assert p == dbs_shell_partition(model)
            assert p == coarsest_sp_partition(preset_language("L2", model), model)


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


class TestCompletenessCharacterizations:
    """The checkers decide the definitions; the paper proves the same
    verdicts are forward completeness of adp(P) or add(R) for the atoms and
    one operator.  Checked on every partition or preorder of small models."""

    @pytest.mark.parametrize(
        "check, op", [(check_bisimulation, "pre"), (check_dbs, "EU")], ids=["bisim", "dbs"]
    )
    def test_partition_checkers(self, kpq, tl, k3, check, op):
        rng = random.Random(2004)
        models = [kpq, tl, k3] + [random_total_model(rng, max_states=5) for _ in range(20)]
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
