"""Forward complete shells, language domains and the block-relation search."""

import random

import pytest

from abspres import (
    AbstractDomain,
    CapacityError,
    Partition,
    SetFamily,
    StateSpace,
    ValidationError,
    adp,
    completeness_check,
    domain_leq,
    enumerate_moore_families,
    family_of_names,
    is_partitioning,
    moore_close,
    pr,
    quotient,
)
from abspres.languages import LanguageSpec, builtin_operator, preset_language
from abspres.lattice import StateSet
from abspres.shells import (
    ad_of_language,
    coarsest_sp_partition,
    forward_complete_shell,
    semantic_closure,
    sp_abstract_kripke_search,
)
from abspres.kripke import KripkeModel, label_partition

from conftest import brute_moore_close, domain_as_frozensets, random_total_model


class TestForwardCompleteShell:
    def test_bounded_reach_shell(self, kpq):
        seed = moore_close(label_partition(kpq).family)
        result = forward_complete_shell(seed, [builtin_operator("EF[0,2]")], kpq)
        want = moore_close(
            family_of_names(kpq.space, ["", "5", "34", "345", "1234", "12345"])
        )
        assert result.domain == want
        assert completeness_check(
            "forward", result.domain, [builtin_operator("EF[0,2]")], kpq
        ).holds

    def test_trace_invariants(self, kpq):
        seed = moore_close(label_partition(kpq).family)
        result = forward_complete_shell(seed, [builtin_operator("EF[0,2]")], kpq)
        trace = result.trace
        sizes = [len(d) for d in trace.iterations]
        assert sizes[-1] == sizes[-2]
        assert trace.iterations[-1] == trace.iterations[-2]
        for a, b in zip(sizes, sizes[1:-1]):
            assert a < b
        assert trace.new_counts[-1] == 0
        assert len(trace.new_counts) == len(trace.iterations) - 1

    def test_already_complete_domain_is_fixed(self, kpq):
        pbis = adp(Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]]))
        ops = [builtin_operator("not"), builtin_operator("pre")]
        result = forward_complete_shell(pbis, ops, kpq)
        assert result.domain == pbis
        assert len(result.trace.iterations) == 2

    def test_shell_refines_input_and_is_complete(self, kpq, tl):
        rng = random.Random(19)
        ops = [builtin_operator("not"), builtin_operator("pre")]
        for model in (kpq, tl):
            for _ in range(10):
                masks = {model.space.full_mask}
                masks.update(rng.randrange(1 << model.n) for _ in range(3))
                dom = moore_close(SetFamily.of(model.space, masks))
                shell = forward_complete_shell(dom, ops, model).domain
                assert dom.masks <= shell.masks
                assert domain_leq(shell, dom)
                assert completeness_check("forward", shell, ops, model).holds

    def test_maximality_over_three_state_enumeration(self):
        # among every F-complete family refining A, the shell is the most
        # abstract (smallest image)
        space = StateSpace.of("1", "2", "3")
        model = KripkeModel(space, (0b010, 0b100, 0b100), (("p", 0b011),))
        pre = builtin_operator("pre")
        domains = list(enumerate_moore_families(3))
        complete = [
            d for d in domains if completeness_check("forward", d, [pre], model).holds
        ]
        for dom in domains:
            shell = forward_complete_shell(dom, [pre], model).domain
            candidates = [c for c in complete if dom.masks <= c.masks]
            best = min(candidates, key=lambda c: len(c.masks))
            assert shell.masks == best.masks
            assert all(shell.masks <= c.masks for c in candidates)

    def test_capacity_guard(self, kpq):
        seed = moore_close(label_partition(kpq).family)
        with pytest.raises(CapacityError):
            forward_complete_shell(
                seed, [builtin_operator("not"), builtin_operator("pre")], kpq, max_size=4
            )

    def test_worklist_matches_naive_iteration(self):
        # oracle: X := M(X ∪ F(X)) recomputed from scratch over all tuples
        from itertools import product as iproduct

        from abspres.languages import apply_operator

        def naive_shell(dom, fs, model):
            masks = frozenset(dom.masks)
            while True:
                raw = set(masks)
                for op in fs:
                    for args in iproduct(sorted(masks), repeat=op.arity):
                        raw.add(apply_operator(op, model, args))
                closed = moore_close(SetFamily.of(model.space, raw)).masks
                if closed == masks:
                    return masks
                masks = closed

        rng = random.Random(83)
        op_sets = [
            [builtin_operator("not"), builtin_operator("EU")],
            [builtin_operator("or"), builtin_operator("pre~")],
            [builtin_operator("EF[0,2]")],
        ]
        for _ in range(12):
            model = random_total_model(rng, max_states=5)
            masks = {model.space.full_mask}
            masks.update(rng.randrange(1 << model.n) for _ in range(3))
            dom = moore_close(SetFamily.of(model.space, masks))
            for fs in op_sets:
                got = forward_complete_shell(dom, fs, model).domain.masks
                assert got == naive_shell(dom, fs, model)

    def test_matches_moore_oracle_on_sets(self):
        # oracle: the shell recomputed on frozensets of state names, with the
        # operators written out on sets and brute_moore_close as the meet
        # closure; no library operator or Moore closure is used
        from itertools import product as iproduct

        def set_ops(model):
            universe = frozenset(model.space.names)
            succ = {
                name: frozenset(model.space.names_of(model.succ[i]))
                for i, name in enumerate(model.space.names)
            }

            def pre(x):
                return frozenset(s for s in universe if succ[s] & x)

            return {
                "not": (1, lambda x: universe - x),
                "pre": (1, pre),
                "or": (2, lambda x, y: x | y),
                "pre~": (1, lambda x: frozenset(s for s in universe if succ[s] <= x)),
                "EF[0,2]": (1, lambda x: x | pre(x) | pre(pre(x))),
            }

        def naive_shell(universe, family, ops):
            while True:
                raw = set(family)
                for arity, f in ops:
                    for args in iproduct(family, repeat=arity):
                        raw.add(f(*args))
                closed = brute_moore_close(universe, raw)
                if closed == family:
                    return family
                family = closed

        rng = random.Random(29)
        op_sets = [("not", "pre"), ("or", "pre~"), ("EF[0,2]",)]
        for _ in range(30):
            model = random_total_model(rng, max_states=3)
            universe = frozenset(model.space.names)
            seeds = [
                frozenset(model.space.names_of(rng.randrange(1 << model.n)))
                for _ in range(2)
            ]
            family = brute_moore_close(universe, seeds)
            dom = AbstractDomain(model.space, [model.space.mask_of(x) for x in family])
            on_sets = set_ops(model)
            for names in op_sets:
                got = forward_complete_shell(dom, [builtin_operator(n) for n in names], model)
                want = naive_shell(universe, family, [on_sets[n] for n in names])
                assert domain_as_frozensets(got.domain) == want


class TestSemanticClosure:
    def test_traffic_light_swap(self, tl):
        lang = preset_language("semaforo", tl)
        got = semantic_closure(lang, tl)
        assert got == SetFamily.of(
            tl.space, [tl.space.mask_of(["R", "RY"]), tl.space.mask_of(["G", "Y"])]
        )

    def test_atoms_only(self, kpq):
        lang = LanguageSpec(
            "atoms", tuple((n, StateSet(kpq.space, m)) for n, m in kpq.label_items)
        )
        got = semantic_closure(lang, kpq)
        assert got.mask_set() == {kpq.label_mask("p"), kpq.label_mask("q")}

    def test_bounded_reach_denotations(self, kpq):
        lang = preset_language("exef", kpq)
        got = semantic_closure(lang, kpq)
        assert got.mask_set() == family_of_names(
            kpq.space, ["", "5", "34", "345", "1234", "12345"]
        ).mask_set()

    def test_matches_naive_saturation(self):
        # oracle: apply every operator to every tuple of the whole set,
        # again and again, until nothing new appears
        from itertools import product as iproduct

        from abspres.languages import apply_operator

        def naive(lang, model):
            masks = {s.mask for _, s in lang.atoms}
            while True:
                nxt = set(masks)
                for op in lang.operators:
                    for args in iproduct(sorted(masks), repeat=op.arity):
                        nxt.add(apply_operator(op, model, args))
                if nxt == masks:
                    return masks
                masks = nxt

        rng = random.Random(97)
        for _ in range(30):
            model = random_total_model(rng, max_states=5)
            for name in ("L1", "L2", "L3", "exef", "semaforo"):
                lang = preset_language(name, model)
                assert semantic_closure(lang, model).mask_set() == naive(lang, model)


class TestLanguageDomain:
    def test_traffic_light(self, tl):
        lang = preset_language("semaforo", tl)
        want = moore_close(
            SetFamily.from_names(tl.space, [["R", "RY"], ["G", "Y"]])
        )
        assert ad_of_language(lang, tl) == want
        assert len(want) == 4

    def test_bounded_reach(self, kpq):
        lang = preset_language("exef", kpq)
        want = moore_close(
            family_of_names(kpq.space, ["", "5", "34", "345", "1234", "12345"])
        )
        assert ad_of_language(lang, kpq) == want

    def test_atoms_forming_partition(self, kpq):
        lang = LanguageSpec(
            "blocks",
            (
                ("b1", kpq.space.set_of(["1", "2", "3", "4"])),
                ("b2", kpq.space.set_of(["5"])),
            ),
        )
        got = ad_of_language(lang, kpq)
        assert got == moore_close(label_partition(kpq).family)

    def test_consistency_with_shell_for_conjunction_closed(self, kpq, tl):
        # AD_L = S_{Op_L}(M(atoms)) once ∧ is in the language
        rng = random.Random(67)
        cases = [
            (kpq, preset_language("L1", kpq)),
            (kpq, preset_language("L2", kpq)),
            (tl, preset_language("CTL", tl)),
        ]
        for _ in range(10):
            model = random_total_model(rng, max_states=5)
            cases.append((model, preset_language("L1", model)))
        for model, lang in cases:
            seed = moore_close(
                SetFamily.of(model.space, [s.mask for _, s in lang.atoms])
            )
            shell = forward_complete_shell(seed, list(lang.operators), model).domain
            assert ad_of_language(lang, model) == shell

    def test_whole_space_always_member(self, kpq):
        lang = LanguageSpec("just-q", (("q", StateSet(kpq.space, kpq.label_mask("q"))),))
        dom = ad_of_language(lang, kpq)
        assert kpq.space.full_mask in dom.masks


class TestShellLanguageTheorems:
    def test_language_of_domain_and_operators(self, kpq):
        # for a language whose atoms are a domain's image and whose
        # operators include the meet, AD equals the operator shell
        rng = random.Random(5)
        op_pool = [builtin_operator("pre"), builtin_operator("pre~"), builtin_operator("or")]
        for _ in range(8):
            model = random_total_model(rng, max_states=4)
            masks = {model.space.full_mask}
            masks.update(rng.randrange(1 << model.n) for _ in range(2))
            dom = moore_close(SetFamily.of(model.space, masks))
            fs = rng.sample(op_pool, rng.randint(1, 3))
            atoms = tuple(
                (f"a{i}", StateSet(model.space, m))
                for i, m in enumerate(sorted(dom.masks))
            )
            lang = LanguageSpec("induced", atoms, tuple(fs) + (builtin_operator("and"),))
            assert ad_of_language(lang, model) == forward_complete_shell(
                dom, fs, model
            ).domain

    def test_full_branching_logic_reduces_to_complement_and_pre(self):
        # the two operator sets produce identical shells, and a domain is
        # complete for one set exactly when it is complete for the other
        rng = random.Random(29)
        for _ in range(8):
            model = random_total_model(rng, max_states=5)
            ctl = preset_language("CTL", model)
            small_ops = [builtin_operator("not"), builtin_operator("pre")]
            masks = {model.space.full_mask}
            masks.update(rng.randrange(1 << model.n) for _ in range(3))
            dom = moore_close(SetFamily.of(model.space, masks))
            small = forward_complete_shell(dom, small_ops, model).domain
            big = forward_complete_shell(dom, list(ctl.operators), model).domain
            assert small == big
            for probe in (dom, small):
                assert (
                    completeness_check("forward", probe, small_ops, model).holds
                    == completeness_check(
                        "forward", probe, list(ctl.operators), model
                    ).holds
                )

    def test_negation_closure_decides_partitioning(self, kpq, tl):
        # among conjunction-closed languages, closure under ¬ (L1, L2)
        # gives a partitioning domain and its absence (the bounded-reach
        # language) loses information against the partition
        for model, preset in ((kpq, "L1"), (kpq, "L2")):
            dom = ad_of_language(preset_language(preset, model), model)
            assert is_partitioning(dom)
        dom = ad_of_language(preset_language("exef", kpq), kpq)
        assert not is_partitioning(dom)
        assert dom.masks < adp(pr(dom)).masks  # proper loss of information
        # without conjunction the proposition is silent: the traffic-light
        # language happens to produce exactly the block unions of its
        # partition, so no loss occurs there
        dom = ad_of_language(preset_language("semaforo", tl), tl)
        assert is_partitioning(dom)
        assert dom == adp(pr(dom))


class TestCoarsestSpPartition:
    def test_traffic_light(self, tl):
        assert coarsest_sp_partition(
            preset_language("semaforo", tl), tl
        ) == Partition.of(tl.space, [["R", "RY"], ["G", "Y"]])

    def test_bounded_reach(self, kpq):
        assert coarsest_sp_partition(
            preset_language("exef", kpq), kpq
        ) == Partition.of(kpq.space, [["1", "2"], ["3", "4"], ["5"]])

    def test_next_logic(self, kpq):
        assert coarsest_sp_partition(
            preset_language("L1", kpq), kpq
        ) == Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])


class TestRelationSearch:
    def test_traffic_light_has_no_strong_relation(self, tl):
        lang = preset_language("semaforo", tl)
        p = coarsest_sp_partition(lang, tl)
        assert sp_abstract_kripke_search(p, lang, tl) == []

    def test_bounded_reach_has_no_strong_relation(self, kpq):
        lang = preset_language("exef", kpq)
        p = coarsest_sp_partition(lang, kpq)
        assert p == Partition.of(kpq.space, [["1", "2"], ["3", "4"], ["5"]])
        assert sp_abstract_kripke_search(p, lang, kpq) == []

    def test_bisimulation_blocks_have_unique_strong_relation(self, kpq):
        lang = preset_language("L1", kpq)
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        hits = sp_abstract_kripke_search(p, lang, kpq)
        assert len(hits) == 1
        assert hits[0] == quotient("ee", kpq, p).model.relation_pairs()

    def test_first_mode_stops_early(self, kpq):
        lang = preset_language("L1", kpq)
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        hits = sp_abstract_kripke_search(p, lang, kpq, mode="first")
        assert len(hits) == 1

    def test_capacity_guard(self):
        space = StateSpace(tuple(str(i) for i in range(6)))
        model = KripkeModel(space, tuple(1 << ((i + 1) % 6) for i in range(6)), ())
        lang = LanguageSpec("empty", ())
        with pytest.raises(CapacityError):
            sp_abstract_kripke_search(Partition.identity(space), lang, model)

    def test_open_language_rejected(self, kpq):
        # checked first: on the trivial partition the atom p = {1,2,3,4} is
        # not a union of blocks, and on the bisimulation blocks the open
        # language lists no operators, so no recorded step would reject
        # any of the 2^16 relations
        lang = preset_language("full", kpq)
        bisim = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        for p in (bisim, Partition.trivial(kpq.space)):
            with pytest.raises(ValidationError):
                sp_abstract_kripke_search(p, lang, kpq)

    def test_no_paired_closure_per_candidate(self, kpq, monkeypatch):
        # the search checks candidates against one concrete closure; it
        # builds no abstract structure and runs no paired closure
        from abspres import abstraction, shells

        def boom(*args, **kwargs):
            raise AssertionError("the search must not build structures")

        for module in (shells, abstraction):
            monkeypatch.setattr(module, "paired_semantic_closure", boom, raising=False)
            monkeypatch.setattr(module, "AbstractStructure", boom, raising=False)
        lang = preset_language("L1", kpq)
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        assert sp_abstract_kripke_search(p, lang, kpq) == [
            quotient("ee", kpq, p).model.relation_pairs()
        ]

    def test_search_agrees_with_quotient_route(self):
        # oracle: a paired closure of the quotient structure for every
        # candidate relation, for b ≤ 3 blocks.  The aborting closure gives
        # the full closure's verdict (TestPairedSpCheck) at a fraction of
        # the cost; every hit is confirmed by the full paired_sp_check.
        from abspres import AbstractStructure, paired_sp_check
        from abspres.abstraction import paired_semantic_closure
        from abspres.equivalences import bisim_partition
        from abspres.kripke import Quotient, block_name

        rng = random.Random(59)
        checked = strong = 0
        for _ in range(8):
            model = random_total_model(rng, max_states=4)
            picks = [rng.randrange(3) for _ in range(model.n)]
            shuffled = Partition.from_masks(
                model.space,
                {sum(1 << s for s in range(model.n) if picks[s] == k) for k in set(picks)},
            )
            for p in (label_partition(model), bisim_partition(model), shuffled):
                b = len(p.blocks)
                if b > 3:
                    continue
                bspace = StateSpace(tuple(block_name(model, m) for m in p.blocks))
                for name in ("L1", "L2", "L3", "exef", "semaforo", "CTL"):
                    lang = preset_language(name, model)
                    hits = set(sp_abstract_kripke_search(p, lang, model))
                    for bits in range(1 << (b * b)):
                        succ = tuple(((bits >> (i * b)) & ((1 << b) - 1)) for i in range(b))
                        qmodel = KripkeModel(bspace, succ, ())
                        q = Quotient(model, p, qmodel)
                        rel = frozenset(
                            (i, j) for i in range(b) for j in range(b) if (succ[i] >> j) & 1
                        )
                        structure = AbstractStructure.from_quotient(q, lang)
                        want = paired_semantic_closure(
                            model, structure, lang, abort_on_violation=True
                        ).strong
                        assert (rel in hits) == want
                        if want:
                            assert paired_sp_check(model, q, lang).strong
                        checked += 1
                        strong += want
        assert strong >= 400 and checked - strong >= 9000
