"""Acceptance suite: one criterion per test, each printing a PASS line.

All equalities are exact set/partition comparisons; run with ``pytest -s``
to see the per-criterion lines and timings.
"""

import random
import time
from contextlib import contextmanager

from abspres import (
    AbstractStructure,
    Partition,
    adp,
    bisim_partition,
    dbs_partition,
    domain_leq,
    enumerate_moore_families,
    eval_abstract,
    family_of_names,
    gfp_transfer_check,
    is_disjunctive,
    is_partitioning,
    iter_partitions,
    label_partition,
    language_from_ops,
    moore_close,
    paired_sp_check,
    parse_formula,
    pr,
    preord_of,
    preset_language,
    quotient,
    simeq_partition,
)
from abspres.abstraction import completeness_check, paired_semantic_closure
from abspres.equivalences import (
    bisim_shell_partition,
    dbs_shell_partition,
    equal_label_simulation,
    simeq_shell_partition,
)
from abspres.fixtures import (
    five_state_nondisjunctive_domain,
    five_state_pq,
    five_state_pqr,
    three_chain,
    traffic_light,
)
from abspres.kripke import KripkeModel, StateSpace
from abspres.languages import builtin_operator
from abspres.lattice import AbstractDomain
from abspres.partitions import add
from abspres.shells import (
    ad_of_language,
    coarsest_sp_partition,
    forward_complete_shell,
    sp_abstract_kripke_search,
)

from conftest import chain_abstract_structure, random_total_model


@contextmanager
def criterion(number, label):
    start = time.time()
    yield
    print(f"ACCEPTANCE {number} PASS ({time.time() - start:.2f}s): {label}")


def test_criterion_1_abstract_evaluation_on_seven_member_domain():
    with criterion(1, "abstract EX r = top, EX (p & q) = {1,2}"):
        model = five_state_pqr()
        dom = five_state_nondisjunctive_domain(model)
        lang = language_from_ops(model, ["and", "EX"], name="pq-next")
        assert eval_abstract(parse_formula("EX r"), dom, model, lang) == model.space.full
        assert eval_abstract(
            parse_formula("EX (p & q)"), dom, model, lang
        ) == model.space.set_of(["1", "2"])


def test_criterion_2_sample_domains_partition_structure():
    with criterion(2, "pr(mu_i) = {12,3,4}; only mu3 partitioning; adp = mu3"):
        space = StateSpace.of("1", "2", "3", "4")

        def dom(compact):
            return AbstractDomain(space, image=family_of_names(space, compact).masks)

        mus = {
            1: dom(["", "12", "3", "4", "1234"]),
            2: dom(["", "12", "3", "4", "34", "1234"]),
            3: dom(["", "12", "3", "4", "34", "123", "124", "1234"]),
            4: dom(["12", "123", "124", "1234"]),
            5: dom(["", "12", "123", "124", "1234"]),
        }
        p = Partition.of(space, [["1", "2"], ["3"], ["4"]])
        for i in range(1, 6):
            assert pr(mus[i]) == p
        assert {i for i in mus if is_partitioning(mus[i])} == {3}
        assert adp(p) == mus[3]


def test_criterion_3_traffic_light():
    with criterion(3, "traffic-light domain/partition/AXX table; empty searches"):
        tl = traffic_light()
        lang = preset_language("semaforo", tl)
        stop = tl.space.set_of(["R", "RY"])
        go = tl.space.set_of(["G", "Y"])
        dom = ad_of_language(lang, tl)
        assert dom.masks == frozenset({0, stop.mask, go.mask, tl.space.full_mask})
        p_l = coarsest_sp_partition(lang, tl)
        assert p_l == Partition.of(tl.space, [["R", "RY"], ["G", "Y"]])
        axx = lang.operator("AXX")
        from abspres import bca_apply

        table = {
            tl.space.empty: tl.space.empty,
            stop: go,
            go: stop,
            tl.space.full: tl.space.full,
        }
        for arg, want in table.items():
            assert bca_apply(dom, axx, [arg], tl) == want
        assert sp_abstract_kripke_search(p_l, lang, tl) == []
        # extended claim: over every non-discrete partition of the four
        # states there is still no strongly preserving block relation
        non_discrete = [
            p
            for p in iter_partitions(tl.space)
            if p != Partition.identity(tl.space)
        ]
        assert len(non_discrete) == 14
        for p in non_discrete:
            assert sp_abstract_kripke_search(p, lang, tl) == []


def test_criterion_4_bounded_reach_example():
    with criterion(4, "bisim blocks, 16-set domain, bounded-reach domain/partition"):
        model = five_state_pq()
        pbis = bisim_partition(model)
        assert pbis == Partition.of(model.space, [["1", "2"], ["3"], ["4"], ["5"]])
        unions = {0}
        for b in pbis.blocks:
            unions |= {u | b for u in unions}
        assert adp(pbis).masks == frozenset(unions)
        assert len(unions) == 16
        lang = preset_language("exef", model)
        want = moore_close(
            family_of_names(model.space, ["", "5", "34", "345", "1234", "12345"])
        )
        assert ad_of_language(lang, model) == want
        p_l = coarsest_sp_partition(lang, model)
        assert p_l == Partition.of(model.space, [["1", "2"], ["3", "4"], ["5"]])
        assert sp_abstract_kripke_search(p_l, lang, model) == []


def test_criterion_5_unique_strong_relation():
    with criterion(5, "2^16 relations on the bisimulation blocks: exactly one"):
        model = five_state_pq()
        pbis = bisim_partition(model)
        lang = preset_language("L1", model)
        hits = sp_abstract_kripke_search(pbis, lang, model, mode="all")
        assert len(hits) == 1
        assert hits[0] == quotient("ee", model, pbis).model.relation_pairs()


def test_criterion_6_two_strong_structures_one_semantics():
    with criterion(6, "both chain structures strong; same map; EX differs at {[12]}"):
        k3 = three_chain()
        lang = language_from_ops(k3, ["EX"], name="p-next")
        p = Partition.of(k3.space, [["1", "2"], ["3"]])
        dom = adp(p)
        bca = AbstractStructure.best_approximation(dom, k3, lang)
        induced = AbstractStructure.from_quotient(chain_abstract_structure(k3), lang)
        assert paired_sp_check(k3, bca, lang).verdict == "strong"
        assert paired_sp_check(k3, induced, lang).verdict == "strong"
        pairs_bca = set(paired_semantic_closure(k3, bca, lang).pairs)
        pairs_induced = set(paired_semantic_closure(k3, induced, lang).pairs)
        assert pairs_bca == pairs_induced
        ex = lang.operator("EX")
        block12 = k3.space.mask_of(["1", "2"])
        assert bca.apply(ex, (block12,)) == block12
        assert induced.apply(ex, (block12,)) == 0


def test_criterion_7_oracle_equivalences_on_random_models():
    with criterion(7, "200 random models: all refinement/shell routes agree"):
        rng = random.Random(20240331)
        p_op = builtin_operator("pre")
        c_op = builtin_operator("not")
        for _ in range(200):
            model = random_total_model(rng, max_states=6, max_atoms=2)
            seed = moore_close(label_partition(model).family)
            # bisimulation: splitter refinement vs complement/pre shell
            assert bisim_partition(model) == bisim_shell_partition(model)
            # stuttering: refinement vs complement/EU shell vs the
            # until-logic s.p. partition
            p_dbs = dbs_partition(model)
            assert p_dbs == dbs_shell_partition(model)
            assert p_dbs == coarsest_sp_partition(preset_language("L2", model), model)
            # simulation equivalence: kernel route vs literal-seeded shell
            kernel = equal_label_simulation(model).kernel()
            assert kernel == simeq_shell_partition(model)
            assert kernel == simeq_partition(model)
            # full branching logic collapses to complement + pre
            ctl = preset_language("CTL", model)
            shell_small = forward_complete_shell(seed, [c_op, p_op], model).domain
            shell_ctl = forward_complete_shell(seed, list(ctl.operators), model).domain
            assert shell_small == shell_ctl
            assert shell_small == adp(bisim_partition(model))


def test_criterion_8_three_state_structural_enumeration():
    with criterion(8, "61 families: partitioning/disjunctive laws, adjunction, maximality"):
        domains = list(enumerate_moore_families(3))
        assert len(domains) == 61
        space = domains[0].space
        partitions = list(iter_partitions(space))
        for dom in domains:
            # three-way partitioning equivalence
            complement_closed = is_partitioning(dom)
            union_closed = 0 in dom.masks and all(
                a | b in dom.masks for a in dom.masks for b in dom.masks
            )
            closures = {dom.closure_mask(1 << i) for i in range(space.n)}
            covered = 0
            disjoint = True
            for c in closures:
                if c & covered:
                    disjoint = False
                covered |= c
            forms_partition = disjoint and covered == space.full_mask
            assert complement_closed == (union_closed and forms_partition)
            assert complement_closed == (adp(pr(dom)) == dom)
            # disjunctive characterization through preorders
            assert is_disjunctive(dom) == (add(preord_of(dom)) == dom)
            # adjunction with every partition
            for p in partitions:
                assert p.refines(pr(dom)) == domain_leq(adp(p), dom)
        # shell maximality for pre on a fixed three-state model
        model = KripkeModel(space, (0b010, 0b100, 0b100), (("p", 0b011),))
        pre = builtin_operator("pre")
        complete = [
            d for d in domains if completeness_check("forward", d, [pre], model).holds
        ]
        for dom in domains:
            shell = forward_complete_shell(dom, [pre], model).domain
            candidates = [c for c in complete if dom.masks <= c.masks]
            assert shell.masks == min(candidates, key=len).masks
            assert all(shell.masks <= c.masks for c in candidates)


def test_criterion_9_fixpoint_transfer():
    with criterion(9, "gfp/lfp transfer on bisimulation-block domains"):
        pre = builtin_operator("pre")
        models = [five_state_pq(), five_state_pqr(), traffic_light(), three_chain()]
        rng = random.Random(909)
        models += [random_total_model(rng, max_states=6, max_atoms=2) for _ in range(50)]
        for model in models:
            dom = adp(bisim_partition(model))
            report = gfp_transfer_check(dom, pre, model)
            assert report.applicable
            assert report.gfp_holds
            assert report.lfp_checked and report.lfp_holds
