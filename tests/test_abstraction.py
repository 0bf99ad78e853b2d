"""Best correct approximations, completeness checks and strong preservation."""

import random
from itertools import product

import pytest

from abspres import (
    AbstractStructure,
    CapacityError,
    KripkeModel,
    LanguageSpec,
    Partition,
    SpaceMismatchError,
    ValidationError,
    adp,
    bca_apply,
    completeness_check,
    eval_abstract,
    eval_concrete,
    gfp_transfer_check,
    is_sp_domain,
    language_from_ops,
    paired_sp_check,
    parse_formula,
    powerset_domain,
    preset_language,
    quotient,
)
from abspres import abstraction
from abspres.formulas import Atom
from abspres.languages import builtin_operator, const_operator, operator_from_expr
from abspres.lattice import StateSet, StateSpace
from abspres.shells import ad_of_language

from conftest import similarity_class_languages, splitter_class_languages


class TestBestApproximation:
    def test_axx_table_on_traffic_light(self, tl):
        lang = preset_language("semaforo", tl)
        dom = ad_of_language(lang, tl)
        axx = lang.operator("AXX")
        stop = tl.space.set_of(["R", "RY"])
        go = tl.space.set_of(["G", "Y"])
        table = {
            tl.space.empty: tl.space.empty,
            stop: go,
            go: stop,
            tl.space.full: tl.space.full,
        }
        for arg, want in table.items():
            assert bca_apply(dom, axx, [arg], tl) == want

    def test_pre_on_chain_blocks(self, k3):
        dom = adp(Partition.of(k3.space, [["1", "2"], ["3"]]))
        got = bca_apply(dom, builtin_operator("pre"), [k3.space.set_of(["1", "2"])], k3)
        assert got == k3.space.set_of(["1", "2"])

    def test_identity_on_powerset(self, kpq):
        dom = powerset_domain(kpq.space)
        rng = random.Random(3)
        for _ in range(10):
            s = StateSet(kpq.space, rng.randrange(1 << kpq.n))
            assert bca_apply(dom, builtin_operator("pre"), [s], kpq).mask == kpq.pre(
                s.mask
            )

    def test_non_closed_argument_rejected(self, k3):
        dom = adp(Partition.of(k3.space, [["1", "2"], ["3"]]))
        with pytest.raises(ValidationError):
            bca_apply(dom, builtin_operator("pre"), [k3.space.set_of(["1"])], k3)


class TestAbstractEvaluation:
    def test_seven_member_domain(self, a7, kpqr):
        lang = language_from_ops(kpqr, ["and", "EX"], name="pq-next")
        assert eval_abstract(parse_formula("EX r"), a7, kpqr, lang) == kpqr.space.full
        assert eval_abstract(
            parse_formula("EX (p & q)"), a7, kpqr, lang
        ) == kpqr.space.set_of(["1", "2"])

    def test_powerset_coincides_with_concrete(self, kpq):
        dom = powerset_domain(kpq.space)
        lang = preset_language("CTL", kpq)
        for text in ("p", "EX p", "AU(p, q)", "!EX (p & !q)", "ER(q, p)"):
            phi = parse_formula(text)
            assert eval_abstract(phi, dom, kpq, lang) == eval_concrete(phi, kpq, lang)

    def test_over_approximation_for_monotone_languages(self, kpq, tl):
        # γ(abstract) ⊇ concrete holds once every operator is monotone
        rng = random.Random(41)
        cases = [
            (kpq, preset_language("exef", kpq)),
            (tl, preset_language("semaforo", tl)),
            (kpq, preset_language("L3", kpq)),
        ]
        for model, lang in cases:
            for _ in range(20):
                masks = rng.sample(range(1 << model.n), 5)
                dom_masks = {model.space.full_mask}
                dom_masks.update(masks)
                from abspres import SetFamily, moore_close

                dom = moore_close(SetFamily.of(model.space, dom_masks))
                structure = AbstractStructure.best_approximation(dom, model, lang)
                from abspres.abstraction import paired_semantic_closure

                closure = paired_semantic_closure(model, structure, lang)
                for c, a in closure.pairs:
                    assert c & ~a == 0


class TestCompleteness:
    def test_forward_counterexample_on_chain(self, k3):
        dom = adp(Partition.of(k3.space, [["1", "2"], ["3"]]))
        report = completeness_check("forward", dom, [builtin_operator("pre")], k3)
        assert not report.holds
        ce = report.counterexample
        assert ce.args[0] == k3.space.set_of(["3"])
        assert ce.lhs == k3.space.set_of(["2", "3"])
        assert ce.rhs == k3.space.set_of(["1", "2", "3"])

    def test_meet_always_forward_complete(self, kpq, a7, kpqr):
        and_op = builtin_operator("and")
        for model, dom in ((kpqr, a7), (kpq, powerset_domain(kpq.space))):
            assert completeness_check("forward", dom, [and_op], model).holds

    def test_bisimulation_blocks_forward_complete_for_pre(self, kpq):
        dom = adp(Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]]))
        ops = [
            const_operator("p", StateSet(kpq.space, kpq.label_mask("p"))),
            const_operator("q", StateSet(kpq.space, kpq.label_mask("q"))),
            builtin_operator("pre"),
        ]
        assert completeness_check("forward", dom, ops, kpq).holds

    def test_backward_counterexample_matches_brute_force(self, k3):
        dom = adp(Partition.of(k3.space, [["1", "2"], ["3"]]))
        report = completeness_check("backward", dom, [builtin_operator("pre")], k3)
        # independent scan over all subsets
        def mu(m):
            return dom.closure_mask(m)

        want_holds = all(
            mu(k3.pre(s)) == mu(k3.pre(mu(s))) for s in range(1 << k3.n)
        )
        assert report.holds == want_holds
        assert not report.holds
        ce = report.counterexample
        assert mu(k3.pre(ce.args[0].mask)) == ce.lhs.mask
        assert mu(k3.pre(mu(ce.args[0].mask))) == ce.rhs.mask

    def test_backward_trivial_domains(self, kpq):
        pre = builtin_operator("pre")
        assert completeness_check("backward", powerset_domain(kpq.space), [pre], kpq).holds
        from abspres import top_domain

        assert completeness_check("backward", top_domain(kpq.space), [pre], kpq).holds

    def test_backward_sampling_mode(self, kpq, monkeypatch):
        # no sampling: past DEFAULT_MAX_TUPLES the backward check raises
        # before any tuple
        monkeypatch.setattr(abstraction, "DEFAULT_MAX_TUPLES", 100)
        dom = powerset_domain(kpq.space)
        with pytest.raises(
            CapacityError, match=r"'EU' needs 1024 tuples, over DEFAULT_MAX_TUPLES = 100"
        ):
            completeness_check("backward", dom, [builtin_operator("EU")], kpq)

    def test_unknown_direction(self, kpq):
        with pytest.raises(ValidationError):
            completeness_check("sideways", powerset_domain(kpq.space), [], kpq)

    def test_forward_tuple_capacity(self, kpq, monkeypatch):
        monkeypatch.setattr(abstraction, "DEFAULT_MAX_TUPLES", 100)
        dom = powerset_domain(kpq.space)
        with pytest.raises(CapacityError, match="DEFAULT_MAX_TUPLES = 100"):
            completeness_check("forward", dom, [builtin_operator("EU")], kpq)


class TestSpDomain:
    def test_traffic_light_language_domain(self, tl):
        lang = preset_language("semaforo", tl)
        assert is_sp_domain(ad_of_language(lang, tl), lang, tl)

    def test_seven_member_domain_is_not_sp(self, a7, kpqr):
        lang = language_from_ops(kpqr, ["and", "EX"], name="pq-next")
        assert not is_sp_domain(a7, lang, kpqr)

    def test_powerset_is_sp_for_everything(self, kpq):
        dom = powerset_domain(kpq.space)
        for preset in ("L1", "L2", "L3", "CTL", "exef"):
            assert is_sp_domain(dom, preset_language(preset, kpq), kpq)

    def test_sp_iff_formula_closures_fixed(self, kpq):
        # a domain is s.p. exactly when it fixes every formula denotation
        from abspres.shells import semantic_closure

        lang = preset_language("exef", kpq)
        closure = semantic_closure(lang, kpq)
        good = ad_of_language(lang, kpq)
        assert is_sp_domain(good, lang, kpq)
        assert all(good.closure_mask(m) == m for m in closure.masks)
        bad = adp(Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]]))
        assert not is_sp_domain(bad, lang, kpq)
        assert not all(bad.closure_mask(m) == m for m in closure.masks)

    def test_partition_domain_members_are_never_listed(self, kpq, monkeypatch):
        # adp, add and the class routes' A_L answer membership through their
        # closure, and domain_leq tests only A_L's generators, so the check
        # never builds an image of meets
        from abspres import AbstractDomain, Preorder, add
        from abspres.equivalences import largest_simulation

        langs = {name: preset_language(name, kpq) for name in ("L1", "L3", "CTL")}
        fine = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        coarse = Partition.of(kpq.space, [["1", "2"], ["3", "4"], ["5"]])
        sp = [adp(fine), add(largest_simulation(kpq)), add(Preorder.identity(kpq.space))]
        sp += [ad_of_language(lang, kpq) for lang in langs.values()]
        not_sp = [adp(coarse), add(Preorder.total(kpq.space))]

        def boom(self):
            raise AssertionError("is_sp_domain listed a domain's members")

        monkeypatch.setattr(AbstractDomain, "masks", property(boom))
        for lang in langs.values():
            assert all(is_sp_domain(dom, lang, kpq) for dom in sp), lang.name
            assert not any(is_sp_domain(dom, lang, kpq) for dom in not_sp), lang.name

    def test_agrees_with_the_language_domain(self):
        # oracle: the definition, AD_L ⊆ A, with AD_L = M(S) built in full
        from abspres.equivalences import bisim_partition
        from abspres.kripke import label_partition
        from abspres.lattice import SetFamily, moore_close
        from abspres.shells import semantic_closure
        from conftest import random_total_model

        rng = random.Random(149)
        verdicts = []
        for _ in range(20):
            model = random_total_model(rng, max_states=5)
            masks = {rng.randrange(1 << model.n) for _ in range(4)}
            domains = [
                moore_close(SetFamily.of(model.space, masks)),
                adp(label_partition(model)),
                adp(bisim_partition(model)),
            ]
            for name in ("L1", "L2", "L3", "exef", "semaforo"):
                lang = preset_language(name, model)
                want = moore_close(semantic_closure(lang, model)).masks
                for dom in domains:
                    verdicts.append(is_sp_domain(dom, lang, model))
                    assert verdicts[-1] == (want <= dom.masks)
        assert 50 <= sum(verdicts) <= len(verdicts) - 50

    def test_matches_the_semantic_closure_route(self):
        # differential: A ⊑ A_L through A_L's generators against containment
        # of S closed over ℘(Σ), on seeded models of at most 6 states
        from abspres.equivalences import largest_simulation
        from abspres.kripke import label_partition
        from abspres.lattice import SetFamily, moore_close
        from abspres.partitions import add
        from abspres.shells import coarsest_sp_partition
        from conftest import random_total_model, semantic_closure_is_sp_domain

        rng = random.Random(181)
        verdicts = []
        for _ in range(40):
            model = random_total_model(rng, max_states=6)
            space = model.space
            for name in ("L1", "L2", "L3", "CTL", "exef", "semaforo"):
                lang = preset_language(name, model)
                blocks = list(coarsest_sp_partition(lang, model).blocks)
                domains = [
                    ad_of_language(lang, model),
                    adp(Partition.from_masks(space, blocks)),
                    adp(Partition.identity(space)),
                    adp(label_partition(model)),
                    add(largest_simulation(model)),
                ]
                if len(blocks) > 1:
                    merged = [blocks[0] | blocks[1]] + blocks[2:]
                    domains.append(adp(Partition.from_masks(space, merged)))
                for _ in range(2):
                    masks = {rng.randrange(1 << model.n) for _ in range(rng.randint(1, 4))}
                    domains.append(moore_close(SetFamily.of(space, masks)))
                for dom in domains:
                    verdicts.append(is_sp_domain(dom, lang, model))
                    assert verdicts[-1] == semantic_closure_is_sp_domain(dom, lang, model), (
                        name, model, dom,
                    )
        assert 500 <= sum(verdicts) <= len(verdicts) - 500

    def test_closure_route_tests_each_member_of_s_once(self, kpq, tl, monkeypatch):
        # A_L = moore_close(S) keeps S as its generators, so the check makes
        # one membership test per member of S, never one per meet of them
        from abspres import AbstractDomain, LanguageSpec
        from abspres.lattice import moore_close
        from abspres.shells import semantic_closure

        l1 = preset_language("L1", kpq)
        axex = LanguageSpec(
            "L1+AXEX", l1.atoms, l1.operators + (operator_from_expr("AXEX", 1, "AX EX #1"),)
        )
        cases = [(axex, kpq), (preset_language("semaforo", kpq), kpq)]
        cases.append((preset_language("semaforo", tl), tl))
        calls = []
        real = AbstractDomain.contains

        def counting(self, s):
            calls.append(s)
            return real(self, s)

        grown = 0
        for lang, model in cases:
            closure = semantic_closure(lang, model)
            grown += len(moore_close(closure)) > len(closure)
            dom = powerset_domain(model.space)
            monkeypatch.setattr(AbstractDomain, "contains", counting)
            calls.clear()
            assert is_sp_domain(dom, lang, model)
            monkeypatch.setattr(AbstractDomain, "contains", real)
            assert sorted(calls) == sorted(closure.masks), lang.name
        # S is meet-closed for L1 + AX EX #1, not for semaforo
        assert grown >= 1


from conftest import chain_abstract_structure


class TestPairedSpCheck:
    def test_chain_structures_are_strong(self, k3):
        lang = language_from_ops(k3, ["EX"], name="p-next")
        p = Partition.of(k3.space, [["1", "2"], ["3"]])
        assert paired_sp_check(k3, chain_abstract_structure(k3), lang).verdict == "strong"
        bca = AbstractStructure.best_approximation(adp(p), k3, lang)
        assert paired_sp_check(k3, bca, lang).verdict == "strong"

    def test_chain_structures_agree_but_interpret_next_differently(self, k3):
        lang = language_from_ops(k3, ["EX"], name="p-next")
        p = Partition.of(k3.space, [["1", "2"], ["3"]])
        dom = adp(p)
        q = chain_abstract_structure(k3)
        bca = AbstractStructure.best_approximation(dom, k3, lang)
        induced = AbstractStructure.from_quotient(q, lang)
        # identical strongly preserving semantics...
        from abspres.abstraction import paired_semantic_closure

        pairs_bca = set(paired_semantic_closure(k3, bca, lang).pairs)
        pairs_ind = set(paired_semantic_closure(k3, induced, lang).pairs)
        assert pairs_bca == pairs_ind
        # ...from different interpretation functions: EX at the block {1,2}
        ex = lang.operator("EX")
        arg = k3.space.mask_of(["1", "2"])
        assert bca.apply(ex, (arg,)) == k3.space.mask_of(["1", "2"])
        assert induced.apply(ex, (arg,)) == 0

    def test_traffic_light_blocks_never_strong(self, tl):
        from abspres.kripke import Quotient

        lang = preset_language("semaforo", tl)
        p = Partition.of(tl.space, [["R", "RY"], ["G", "Y"]])
        base = quotient("ee", tl, p)
        # the candidate relation B1 <-> B2
        swapped = KripkeModel(base.model.space, (2, 1), base.model.label_items)
        report = paired_sp_check(
            tl, Quotient(tl, p, swapped), lang
        )
        assert report.verdict in ("weak-only", "neither")
        assert report.witness is not None
        # the witness really does violate strongness
        concrete = eval_concrete(report.witness, tl, lang)
        induced = AbstractStructure.from_quotient(
            Quotient(tl, p, swapped), lang
        )
        assert induced.semantics(report.witness) != concrete

    def test_identity_partition_is_strong(self, kpq):
        lang = preset_language("L1", kpq)
        q = quotient("ee", kpq, Partition.identity(kpq.space))
        assert paired_sp_check(kpq, q, lang).verdict == "strong"

    def test_dropping_transitions_gives_weak_only(self, k3):
        # an abstract relation with fewer edges than the existential
        # quotient under-approximates every formula: weak, never strong
        from abspres.kripke import Quotient

        lang = language_from_ops(k3, ["EX"], name="p-next")
        p = Partition.of(k3.space, [["1", "2"], ["3"]])
        base = quotient("ee", k3, p)
        i3 = base.model.space.index("[3]")
        succ = [0, 0]
        succ[i3] = 1 << i3  # keep only the [3] self-loop
        starved = KripkeModel(base.model.space, tuple(succ), base.model.label_items)
        report = paired_sp_check(k3, Quotient(k3, p, starved), lang)
        assert report.verdict == "weak-only"
        assert report.witness is not None

    def test_open_language_rejected(self, kpq):
        q = quotient("ee", kpq, Partition.identity(kpq.space))
        with pytest.raises(ValidationError):
            paired_sp_check(kpq, q, preset_language("full", kpq))

    def test_pair_capacity(self, kpq, monkeypatch):
        # exef is in neither class and has no `not`, so its quotient check
        # runs the full paired closure
        monkeypatch.setattr(abstraction, "DEFAULT_MAX_PAIRS", 4)
        lang = preset_language("exef", kpq)
        q = quotient("ee", kpq, Partition.identity(kpq.space))
        with pytest.raises(CapacityError, match="DEFAULT_MAX_PAIRS = 4"):
            paired_sp_check(kpq, q, lang)

    def test_pair_capacity_does_not_bound_the_block_route(self, kpq, monkeypatch):
        # a strong L1 or L3 check of a quotient runs no paired closure, so
        # DEFAULT_MAX_PAIRS does not apply to it
        monkeypatch.setattr(abstraction, "DEFAULT_MAX_PAIRS", 4)
        q = quotient("ee", kpq, Partition.identity(kpq.space))
        for name in ("L1", "L3"):
            lang = preset_language(name, kpq)
            assert paired_sp_check(kpq, q, lang).verdict == "strong"

    def test_abort_agrees_with_full_closure(self):
        # stopping at the first violation keeps the full closure's verdict
        # and witness, and the witness separates the two semantics
        from abspres.abstraction import paired_semantic_closure
        from abspres.kripke import label_partition
        from conftest import random_total_model

        rng = random.Random(131)
        witnesses = 0
        for _ in range(30):
            model = random_total_model(rng, max_states=3)
            p = label_partition(model)
            for name in ("L1", "L2", "L3", "exef", "semaforo"):
                lang = preset_language(name, model)
                structures = [
                    AbstractStructure.from_quotient(quotient("ee", model, p), lang),
                    AbstractStructure.from_quotient(quotient("ae", model, p), lang),
                    AbstractStructure.best_approximation(adp(p), model, lang),
                ]
                for structure in structures:
                    full = paired_semantic_closure(model, structure, lang)
                    cut = paired_semantic_closure(
                        model, structure, lang, abort_on_violation=True
                    )
                    assert (cut.strong, cut.witness) == (full.strong, full.witness)
                    assert cut.aborted == (not full.strong)
                    if full.witness is not None:
                        witnesses += 1
                        concrete = eval_concrete(full.witness, model, lang)
                        assert structure.semantics(full.witness) != concrete
        assert witnesses >= 20


class TestStructureValues:
    def test_from_tables_rejects_a_non_closed_value_when_built(self, tl):
        lang = preset_language("semaforo", tl)
        dom = ad_of_language(lang, tl)
        members = sorted(dom.masks)
        stray = tl.space.mask_of(["R"])  # not a member of the four-set domain
        assert not dom.contains(stray)
        atoms = {name: dom.closure_mask(s.mask) for name, s in lang.atoms}
        table = {(m,): m for m in members}
        table[(members[1],)] = stray
        with pytest.raises(ValidationError, match=r"'AXX' maps .* non-closed"):
            AbstractStructure.from_tables(dom, lang, atoms, {"AXX": table})

    def test_from_tables_rejects_a_non_closed_atom_and_a_missing_entry(self, tl):
        lang = preset_language("semaforo", tl)
        dom = ad_of_language(lang, tl)
        stray = tl.space.mask_of(["R"])
        atoms = {name: dom.closure_mask(s.mask) for name, s in lang.atoms}
        with pytest.raises(ValidationError, match="atom 'go' is interpreted by a non-closed set"):
            AbstractStructure.from_tables(dom, lang, {**atoms, "go": stray}, {})
        go = atoms["go"]
        structure = AbstractStructure.from_tables(dom, lang, atoms, {"AXX": {(go,): go}})
        axx = lang.operator("AXX")
        assert structure.apply(axx, (go,)) == go
        with pytest.raises(ValidationError, match=r"table for 'AXX' lacks entry \(0,\)"):
            structure.apply(axx, (0,))

    def test_atom_value_names_the_atom_it_refuses(self, tl):
        from abspres import ResolutionError

        lang = preset_language("semaforo", tl)
        dom = ad_of_language(lang, tl)
        stop = dom.closure_mask(lang.atom_mask("stop"))
        structure = AbstractStructure.from_tables(dom, lang, {"stop": stop}, {})
        assert structure.atom_value("stop") == stop
        with pytest.raises(ValidationError, match="does not interpret atom 'go'"):
            structure.atom_value("go")
        with pytest.raises(ResolutionError, match="unknown atom 'amber'"):
            structure.atom_value("amber")

    def test_applications_in_a_full_closure_return_closed_sets(self):
        # the invariant that lets AbstractStructure.apply skip a re-check:
        # best approximations return closures, quotient structures block unions
        from abspres.abstraction import paired_semantic_closure
        from abspres.kripke import label_partition
        from conftest import random_total_model

        rng = random.Random(606)
        applications = 0
        for _ in range(24):
            model = random_total_model(rng, max_states=4)
            p = label_partition(model)
            for name in ("L1", "L2", "L3", "exef", "semaforo"):
                lang = preset_language(name, model)
                for structure in (
                    AbstractStructure.best_approximation(adp(p), model, lang),
                    AbstractStructure.from_quotient(quotient("ee", model, p), lang),
                    AbstractStructure.from_quotient(quotient("ae", model, p), lang),
                ):

                    def checked(op, args, structure=structure):
                        nonlocal applications
                        out = structure.apply(op, args)
                        assert structure.domain.contains(out), (name, op.name, args, out)
                        applications += 1
                        return out

                    rebuilt = AbstractStructure(
                        structure.domain, structure.lang, structure.atom_values, checked
                    )
                    paired_semantic_closure(model, rebuilt, lang)
        assert applications >= 5000


class TestClosureAgainstDepthSaturation:
    def test_pairs_match_levelwise_saturation(self, k3, tl):
        # oracle: saturate pair sets depth by depth, re-applying every
        # operator to every tuple each level until nothing new appears
        import random as rnd

        from abspres.abstraction import paired_semantic_closure
        from abspres.languages import apply_operator
        from conftest import random_total_model

        def saturate(model, structure, lang):
            pairs = {
                (s.mask, structure.atom_value(name)) for name, s in lang.atoms
            }
            while True:
                nxt = set(pairs)
                for op in lang.operators:
                    from itertools import product as iproduct

                    for combo in iproduct(sorted(pairs), repeat=op.arity):
                        c = apply_operator(op, model, tuple(x[0] for x in combo))
                        a = structure.apply(op, tuple(x[1] for x in combo))
                        nxt.add((c, a))
                if nxt == pairs:
                    return pairs
                pairs = nxt

        rng = rnd.Random(271)
        cases = [
            (k3, language_from_ops(k3, ["EX"], name="p-next")),
            (tl, preset_language("semaforo", tl)),
        ]
        for _ in range(6):
            model = random_total_model(rng, max_states=4)
            cases.append((model, preset_language("L1", model)))
        for model, lang in cases:
            p = Partition.from_masks(
                model.space, set(bisect_blocks(model))
            )
            structure = AbstractStructure.best_approximation(adp(p), model, lang)
            closure = paired_semantic_closure(model, structure, lang)
            assert set(closure.pairs) == saturate(model, structure, lang)

    def test_recorded_formulas_evaluate_to_their_pairs(self):
        # every pair (c, a) keeps a formula φ with ⟦φ⟧ = c and ⟦φ⟧♯ = a: the
        # induction that lets the relation search judge a candidate by the
        # concrete closure alone
        from abspres.abstraction import paired_semantic_closure
        from abspres.kripke import label_partition
        from conftest import random_total_model

        rng = random.Random(163)
        checked = differing = 0
        for _ in range(25):
            model = random_total_model(rng, max_states=4)
            p = label_partition(model)
            for name in ("L1", "L2", "L3", "exef", "semaforo"):
                lang = preset_language(name, model)
                structures = [
                    AbstractStructure.from_quotient(quotient("ee", model, p), lang),
                    AbstractStructure.from_quotient(quotient("ae", model, p), lang),
                    AbstractStructure.best_approximation(adp(p), model, lang),
                ]
                for structure in structures:
                    closure = paired_semantic_closure(model, structure, lang)
                    for (c, a), phi in zip(closure.pairs, closure.formulas):
                        assert eval_concrete(phi, model, lang).mask == c
                        assert structure.semantics(phi).mask == a
                        checked += 1
                        differing += c != a
        assert checked >= 2000 and differing >= 200


def bisect_blocks(model):
    # an arbitrary deterministic two-block split (or one block for n=1)
    n = model.n
    half = (1 << (n // 2 + 1)) - 1 if n > 1 else 1
    full = model.space.full_mask
    blocks = [half & full]
    if full & ~half:
        blocks.append(full & ~half)
    return blocks


def block_model_structure(q, lang):
    """The quotient structure that maps every application, Boolean ones
    included, through ``inner``, the block-level model and ``union``."""
    from abspres.languages import apply_operator

    p = q.partition
    atoms = {name: p.block_containing(s.mask) for name, s in lang.atoms}

    def apply(op, args):
        return p.union(apply_operator(op, q.model, tuple(p.inner(a) for a in args)))

    return AbstractStructure(adp(p), lang, atoms, apply)


class TestBooleanMaskRoute:
    def test_paired_check_matches_the_block_model_route(self, monkeypatch):
        from abspres import bisim_partition, language_from_json
        from abspres.abstraction import paired_semantic_closure
        from abspres.kripke import label_partition
        from conftest import in_splitter_class
        from conftest import random_total_model

        # a closure past 64 pairs is stopped on both routes, which must then
        # fail alike: uncapped, the few L1/L2 closures of 512-1024 pairs at
        # six states make this test take about 90 s
        monkeypatch.setattr(abstraction, "DEFAULT_MAX_PAIRS", 64)

        def check(structure, lang):
            try:
                return paired_semantic_closure(model, structure, lang)
            except CapacityError as exc:
                return str(exc)

        rng = random.Random(977)
        file_doc = {"operators": [{"name": "imp", "expr": "!#1 | #2"}, {"name": "EX"}]}
        checked = strong = capped = 0
        for _ in range(20):
            model = random_total_model(rng, max_states=6)
            picks = [rng.randrange(3) for _ in range(model.n)]
            shuffled = Partition.from_masks(
                model.space,
                {sum(1 << s for s in range(model.n) if picks[s] == k) for k in set(picks)},
            )
            langs = [preset_language(n, model) for n in ("L1", "L2", "L3", "exef", "semaforo")]
            langs.append(language_from_json(file_doc, model))
            for p in (label_partition(model), bisim_partition(model), shuffled):
                for kind in ("ee", "ae"):
                    q = quotient(kind, model, p)
                    for lang in langs:
                        got = check(AbstractStructure.from_quotient(q, lang), lang)
                        want = check(block_model_structure(q, lang), lang)
                        if isinstance(want, str):
                            assert got == want
                            capped += 1
                            continue
                        assert got.pairs == want.pairs
                        assert got.formulas == want.formulas
                        assert (got.verdict, got.witness) == (want.verdict, want.witness)
                        if in_splitter_class(lang):
                            verdict = paired_sp_check(model, q, lang)
                            assert (verdict.verdict, verdict.witness) == (
                                want.verdict, want.witness
                            )
                        checked += 1
                        strong += got.strong
        assert checked >= 650 and capped <= 50 and 400 <= strong <= checked - 200

    def test_boolean_operators_skip_inner_and_union(self, kpq, monkeypatch):
        from abspres.abstraction import paired_semantic_closure

        lang = language_from_ops(kpq, ["and", "or", "not"])
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        q = quotient("ee", kpq, p)
        want = paired_semantic_closure(kpq, AbstractStructure.from_quotient(q, lang), lang)

        def boom(*args, **kwargs):
            raise AssertionError("Boolean operators must not use the block model")

        monkeypatch.setattr(Partition, "inner", boom)
        monkeypatch.setattr(Partition, "union", boom)
        structure = AbstractStructure.from_quotient(q, lang)
        got = paired_semantic_closure(kpq, structure, lang)
        assert (got.pairs, got.formulas) == (want.pairs, want.formulas)
        assert got.strong and len(got.pairs) == 4
        imp = operator_from_expr("imp", 2, "!#1 | #2")
        a, b = p.blocks[0], p.blocks[0] | p.blocks[2]
        assert structure.apply(imp, (b, a)) == kpq.space.full_mask & ~b | a

    def test_other_operators_go_through_the_block_model(self, tl, monkeypatch):
        from abspres import abstraction, bisim_partition
        from abspres.languages import apply_operator

        models = []

        def recording(op, model, args):
            models.append((op.name, model))
            return apply_operator(op, model, args)

        monkeypatch.setattr(abstraction, "apply_operator", recording)
        q = quotient("ee", tl, bisim_partition(tl))
        axx = operator_from_expr("AXX", 1, "AX AX #1")
        eu, ex, conj = builtin_operator("EU"), builtin_operator("EX"), builtin_operator("and")
        structure = AbstractStructure.from_quotient(q, preset_language("semaforo", tl))
        go = tl.label_mask("go")
        for op, args in ((ex, (go,)), (eu, (go, go)), (axx, (go,)), (conj, (go, go))):
            structure.apply(op, args)
        assert models == [
            ("EX", q.model), ("EU", q.model), ("AXX", q.model), ("and", q.parent)
        ]


def random_model(rng, max_states, stuck):
    """A random model whose states have no successor with probability ``stuck``."""
    n = rng.randint(1, max_states)
    space = StateSpace(tuple(str(i + 1) for i in range(n)))
    succ = tuple(0 if rng.random() < stuck else rng.randrange(1, 1 << n) for _ in range(n))
    labels = tuple((name, rng.randrange(1 << n)) for name in "pq"[: rng.randint(1, 2)])
    return KripkeModel(space, succ, labels)


class TestBlockRoute:
    def test_operator_records_its_chain(self):
        # each built-in's (_boolean, _chain, _polarity), read off its row
        rows = {
            "not": (True, None, 0),
            "and": (True, None, 0),
            "or": (True, None, 0),
            "EX": (False, "additive", 1),
            "pre": (False, "additive", 1),
            "post": (False, "additive", 1),
            "EF[1,3]": (False, "additive", 1),
            "AX": (False, "dual", -1),
            "pre~": (False, "dual", -1),
            "post~": (False, "dual", -1),
            "EU": (False, "until", 1),
            "AU": (False, None, -1),
            "ER": (False, None, 1),
            "AR": (False, None, -1),
        }
        for name, want in rows.items():
            op = builtin_operator(name)
            assert (op._boolean, op._chain, op._polarity) == want, name
            assert op._call == name, name
        # the side of each link, outside in, for additive and dual chains only
        sides = {
            "EX #1": ("pre",),
            "post EF[1,3] pre #1": ("post", None, "pre"),
            "pre~ post~ AX #1": ("pre", "post", "pre"),
            "AX EX #1": None,
            "#1": None,
            "EX #1 & #1": None,
        }
        for expr, want in sides.items():
            assert operator_from_expr("f", 1, expr)._sides == want, expr
        assert builtin_operator("EU")._sides is None
        # a built-in over its own placeholders, at any arity the operator has
        for arity, expr, want in (
            (1, "! #1", "not"), (2, "! #1", "not"), (3, "#1 & #2", "and"), (2, "#2 & #1", None),
            (1, "EX EX #1", None), (1, "#1", None), (2, "EU(#1, #2)", "EU"), (1, "EF[1,3] #1", "EF[1,3]"),
        ):
            assert operator_from_expr("f", arity, expr)._call == want, expr
        cases = {
            "EX #1": "additive",
            "post EF[1,3] pre #1": "additive",
            "AX #1": "dual",
            "pre~ post~ AX #1": "dual",
            "AX EX #1": None,
            "!EX #1": None,
            "EX !#1": None,
            "#1": None,
            "EX #1 & #1": None,
        }
        for expr, want in cases.items():
            assert operator_from_expr("f", 1, expr)._chain == want, expr
        assert operator_from_expr("f", 2, "EX #1")._chain is None
        # exactly EU #1 #2, the built-in or a file operator written that way
        assert builtin_operator("EU")._chain == "until"
        assert operator_from_expr("f", 2, "EU(#1, #2)")._chain == "until"
        for expr in ("EU(#2, #1)", "AU(#1, #2)", "ER(#1, #2)", "EU(#1, EX #2)", "EU(#1, #2) & #1"):
            assert operator_from_expr("f", 2, expr)._chain is None, expr
        assert operator_from_expr("f", 3, "EU(#1, #2)")._chain is None

    def test_resolving_walk_matches_the_separate_walks(self, kpq):
        # oracle: the resolution checks, the Boolean, chain and polarity
        # walks, and a node-by-node evaluation, each a walk of its own
        from abspres.errors import AbspresError
        from abspres.formulas import App, Arg
        from abspres.languages import Operator, apply_operator
        from conftest import (
            random_body, walk_apply, walk_call, walk_chain_kind, walk_is_boolean, walk_polarity,
            walk_resolution_error, walk_sides,
        )

        rng = random.Random(38)
        seen = {"built": 0, "refused": 0, "until": 0, "additive": 0, "dual": 0, None: 0}
        for k in range(6000):
            arity = rng.choice([0, 1, 1, 1, 2, 2, 3])
            body = random_body(rng, kpq.space, rng.randint(0, 4))
            if k % 50 == 0:  # EU #1 #2 itself, at every arity
                body = App("EU", (Arg(1), Arg(2)))
            want = walk_resolution_error("f", arity, body)
            try:
                op = Operator("f", arity, body)
            except AbspresError as exc:
                assert want == (type(exc), str(exc)), body
                seen["refused"] += 1
                continue
            assert want is None, body
            got = (op._boolean, op._chain, op._polarity)
            assert got == (
                walk_is_boolean(body), walk_chain_kind(arity, body), walk_polarity(body)
            ), body
            assert (op._call, op._sides) == (walk_call(body), walk_sides(op._chain, body)), body
            args = [rng.randrange(kpq.space.full_mask + 1) for _ in range(arity)]
            assert apply_operator(op, kpq, args) == walk_apply(body, kpq, args), body
            seen["built"] += 1
            seen[op._chain] += 1
        assert seen["built"] >= 2000 and seen["refused"] >= 500
        assert min(seen[kind] for kind in ("until", "additive", "dual")) >= 20

    def test_block_route_matches_the_paired_closure(self, monkeypatch):
        # the verdict and witness of the block route against the full paired
        # closure of the same quotient structure, on total and non-total
        # models, ∃∃ and ∀∃ quotients and five kinds of partition.  A strong
        # closure holds one pair per set of S, at most 2^5 here, so a closure
        # stopped past 64 pairs is "neither" without being run to the end;
        # uncapped, a few closures of 256-512 pairs make this test take 30 s
        from abspres import bisim_partition, coarsest_sp_partition
        from abspres.abstraction import paired_semantic_closure
        from abspres.kripke import label_partition
        from conftest import in_splitter_class

        rng = random.Random(1213)
        verdicts = {"strong": 0, "neither": 0, "capped": 0}
        aborting_verdicts = {"strong": 0, "neither": 0}
        for k in range(50):
            model = random_model(rng, 5, 0.3 if k % 2 else 0.0)
            picks = [rng.randrange(3) for _ in range(model.n)]
            shuffled = Partition.from_masks(
                model.space,
                {sum(1 << s for s in range(model.n) if picks[s] == j) for j in set(picks)},
            )
            split = rng.randrange(1 << model.n)
            partitions = (
                label_partition(model),
                bisim_partition(model),
                Partition.identity(model.space),
                shuffled,
            )
            # CTL and L1 + EU + EX cut by AX and EX, so the block test decides
            # them; L2 cuts by EU and {and, not, AU} has no cuts, so their
            # route is the aborting closure.  The full closures of these four
            # are slow enough to run on every fifth model
            block_langs = splitter_class_languages(model)
            if k % 5 == 1:
                block_langs += [
                    preset_language("CTL", model),
                    language_from_ops(model, ["and", "not", "EU", "EX"]),
                ]
            aborting = [
                preset_language("L2", model),
                language_from_ops(model, ["and", "not", "AU"]),
            ] if k % 5 == 0 else []
            assert all(in_splitter_class(lang) for lang in block_langs)
            halves = (split, model.space.full_mask & ~split)
            for lang in block_langs + aborting:
                # P_L cut in two by a random set: a refinement of P_L whose
                # ∀∃ quotient may fail any one cut
                refined = Partition.from_masks(model.space, {
                    c & x for c in coarsest_sp_partition(lang, model).blocks for x in halves if c & x
                })
                for p in partitions + (refined,):
                    for kind in ("ee", "ae"):
                        q = quotient(kind, model, p)
                        structure = AbstractStructure.from_quotient(q, lang)
                        try:
                            # only the full closure is capped, not the block route
                            with monkeypatch.context() as patch:
                                patch.setattr(abstraction, "DEFAULT_MAX_PAIRS", 64)
                                full = paired_semantic_closure(model, structure, lang)
                        except CapacityError:
                            full = None
                        got = paired_sp_check(model, q, lang)
                        if full is None:
                            assert got.verdict == "neither"
                            verdicts["capped"] += 1
                        else:
                            assert (got.verdict, got.witness) == (full.verdict, full.witness)
                            verdicts[got.verdict] += 1
                            if lang in aborting:
                                aborting_verdicts[got.verdict] += 1
                        assert got.strong == (got.verdict == "strong")
                        if got.witness is not None:
                            concrete = eval_concrete(got.witness, model, lang)
                            assert structure.semantics(got.witness) != concrete
        assert verdicts["strong"] >= 300 and verdicts["neither"] >= 300
        assert aborting_verdicts["strong"] >= 100 and aborting_verdicts["neither"] >= 20

    def test_similarity_route_matches_the_paired_closure(self, monkeypatch):
        # the verdict and witness of the generator test, and of the full
        # closure it falls back to, against the full paired closure, on
        # dense, sparse and non-total models, ∃∃ and ∀∃ quotients and six
        # kinds of partition.  A strong closure holds one pair per set of S,
        # at most 2^5 here, so both routes stop alike past 64 pairs
        from abspres import bisim_partition, coarsest_sp_partition, simeq_partition
        from abspres.abstraction import paired_semantic_closure
        from abspres.kripke import label_partition
        from conftest import in_similarity_class

        monkeypatch.setattr(abstraction, "DEFAULT_MAX_PAIRS", 64)

        def check(route, *args):
            try:
                got = route(*args)
            except CapacityError as exc:
                return str(exc)
            return got.verdict, got.witness

        rng = random.Random(2027)
        verdicts = {"strong": 0, "neither": 0, "weak-only": 0, "capped": 0}
        for k in range(24):
            model = random_model(rng, 5, (0.0, 0.3, 0.6)[k % 3])
            picks = [rng.randrange(3) for _ in range(model.n)]
            shuffled = Partition.from_masks(
                model.space,
                {sum(1 << s for s in range(model.n) if picks[s] == j) for j in set(picks)},
            )
            for lang in similarity_class_languages(model):
                assert in_similarity_class(lang)
                partitions = (
                    label_partition(model),
                    bisim_partition(model),
                    Partition.identity(model.space),
                    simeq_partition(model),
                    coarsest_sp_partition(lang, model),
                    shuffled,
                )
                for p in partitions:
                    for kind in ("ee", "ae"):
                        q = quotient(kind, model, p)
                        structure = AbstractStructure.from_quotient(q, lang)
                        want = check(paired_semantic_closure, model, structure, lang)
                        got = check(paired_sp_check, model, q, lang)
                        assert got == want, (k, lang.name, p, kind)
                        if isinstance(got, str):
                            verdicts["capped"] += 1
                            continue
                        verdicts[got[0]] += 1
                        if got[1] is not None:
                            concrete = eval_concrete(got[1], model, lang)
                            assert structure.semantics(got[1]) != concrete
        assert verdicts["strong"] >= 300
        assert verdicts["neither"] + verdicts["weak-only"] >= 100

    def test_block_test_and_its_fallback_match_the_paired_closure(self, monkeypatch):
        # _strong_on_generators against the full paired closure, on seeded
        # models of at most 6 states with stuck states, under the splitter-
        # and similarity-class languages, ∃∃ and ∀∃ quotients and six kinds
        # of partition.  A case is decided by P's own blocks when no A_L is
        # built, else by A_L's generators.  A strong closure holds one pair
        # per set of S, at most 2^6 here, so a closure stopped past 64 pairs
        # is not strong
        from abspres import bisim_partition, coarsest_sp_partition
        from abspres.abstraction import _strong_on_generators, paired_semantic_closure
        from abspres.kripke import label_partition

        built = []
        monkeypatch.setattr(
            abstraction, "ad_of_language", lambda lang, m: built.append(lang) or ad_of_language(lang, m)
        )
        monkeypatch.setattr(abstraction, "DEFAULT_MAX_PAIRS", 64)
        rng = random.Random(3232)
        tiers = {(tier, strong): 0 for tier in ("blocks", "generators") for strong in (True, False)}
        for k in range(24):
            model = random_model(rng, 6, (0.0, 0.3)[k % 2])
            picks = [rng.randrange(3) for _ in range(model.n)]
            shuffled = Partition.from_masks(
                model.space,
                {sum(1 << s for s in range(model.n) if picks[s] == j) for j in set(picks)},
            )
            split = rng.randrange(1 << model.n)
            halves = (split, model.space.full_mask & ~split)
            for lang in splitter_class_languages(model) + similarity_class_languages(model):
                p_l = coarsest_sp_partition(lang, model)
                cut = Partition.from_masks(
                    model.space, {c & x for c in p_l.blocks for x in halves if c & x}
                )
                partitions = (
                    label_partition(model),
                    bisim_partition(model),
                    Partition.identity(model.space),
                    p_l,
                    cut,
                    shuffled,
                )
                for p in partitions:
                    for kind in ("ee", "ae"):
                        structure = AbstractStructure.from_quotient(quotient(kind, model, p), lang)
                        try:
                            strong = paired_semantic_closure(model, structure, lang).strong
                        except CapacityError:
                            strong = False
                        built.clear()
                        assert _strong_on_generators(model, p, structure) == strong, (k, lang.name, p, kind)
                        tiers["generators" if built else "blocks", strong] += 1
        # the block test decides only strong cases; each tier decides some
        assert tiers["blocks", False] == 0
        assert tiers["blocks", True] >= 1000, tiers
        assert tiers["generators", True] >= 30, tiers
        assert tiers["generators", False] >= 300, tiers

    def test_block_test_needs_its_fallback(self):
        # the 3-cycle 1 → 2 → 3 → 1 with p on every state: under L1, P_L is
        # one block and the ∃∃ quotient by {1}, {2,3} is strong, but EX{1} =
        # {3} is no block union, so only A_L's generators show it
        from abspres.abstraction import _agrees_on, _strong_on_generators
        from abspres.languages import _route

        space = StateSpace(tuple("123"))
        cycle = KripkeModel(space, (0b010, 0b100, 0b001), (("p", 0b111),))
        lang = preset_language("L1", cycle)
        p = Partition.of(space, [["1"], ["2", "3"]])
        structure = AbstractStructure.from_quotient(quotient("ee", cycle, p), lang)
        assert not _agrees_on(cycle, structure, _route(lang)[1], p.blocks)
        assert _strong_on_generators(cycle, p, structure)
        assert paired_sp_check(cycle, quotient("ee", cycle, p), lang).verdict == "strong"

    def test_block_test_needs_its_atom_check(self, tl):
        # the one-block quotient of a total model agrees with EX and AX on Σ
        # and ∅, but an atom that holds some states and not others is
        # interpreted by Σ, so the quotient is not strong
        from abspres.abstraction import _agrees_on, _strong_on_generators
        from abspres.languages import _route

        p = Partition.trivial(tl.space)
        for name in ("L1", "CTL"):
            lang = preset_language(name, tl)
            structure = AbstractStructure.from_quotient(quotient("ee", tl, p), lang)
            assert _agrees_on(tl, structure, _route(lang)[1], p.blocks)
            assert not _strong_on_generators(tl, p, structure)
            report = paired_sp_check(tl, quotient("ee", tl, p), lang)
            assert report.verdict == "neither" and isinstance(report.witness, Atom)

    def test_bisimulation_quotients_are_decided_on_their_blocks(self, monkeypatch):
        # the blocks of the bisimulation are unions of label classes and
        # pre-stable, so its ∃∃ and ∀∃ quotients agree with EX on them and no
        # A_L is built under L1 or CTL
        from abspres import bisim_partition

        def boom(*args):
            raise AssertionError("A_L built for a bisimulation quotient")

        monkeypatch.setattr(abstraction, "ad_of_language", boom)
        rng = random.Random(3333)
        for k in range(40):
            model = random_model(rng, 6, (0.0, 0.3)[k % 2])
            p = bisim_partition(model)
            for name in ("L1", "CTL"):
                for kind in ("ee", "ae"):
                    q = quotient(kind, model, p)
                    assert paired_sp_check(model, q, preset_language(name, model)).strong

    def test_similarity_quotients_close_no_family(self, monkeypatch):
        # the ∃∃ quotient by simulation equivalence is strong under L3 and
        # under and/or/pre~ (Grumberg and Long), and the generator test shows
        # it from the similarity alone: neither the paired closure nor the
        # semantic closure runs
        from abspres import abstraction, shells, simeq_partition

        def boom(*args, **kwargs):
            raise AssertionError("a closure over ℘(Σ) on the generator route")

        monkeypatch.setattr(abstraction, "paired_semantic_closure", boom)
        monkeypatch.setattr(shells, "semantic_closure", boom)
        for n in (12, 16, 40):
            rng = random.Random(n)
            space = StateSpace(tuple(str(i) for i in range(n)))
            succ = tuple(sum(1 << t for t in rng.sample(range(n), 2)) for _ in range(n))
            labels = (("p", rng.randrange(1 << n)), ("q", rng.randrange(1 << n)))
            model = KripkeModel(space, succ, labels)
            q = quotient("ee", model, simeq_partition(model))
            for lang in similarity_class_languages(model)[:2]:
                assert paired_sp_check(model, q, lang).verdict == "strong", (n, lang.name)

    def test_block_test_checks_every_cut(self):
        # under L1 + post, P_L is one block, and the ∀∃ quotient by
        # {1,2,3,4}, {5} agrees with EX on it but not with post
        model = KripkeModel(StateSpace(tuple("12345")), (29, 19, 13, 14, 14), (("p", 31),))
        lang = language_from_ops(model, ["and", "not", "EX", "post"])
        q = quotient("ae", model, Partition.of(model.space, [["1", "2", "3", "4"], ["5"]]))
        got = paired_sp_check(model, q, lang)
        assert (got.verdict, str(got.witness)) == ("neither", "post p")

    def test_strong_class_checks_run_no_paired_closure(self, tl, kpq, monkeypatch):
        from abspres import abstraction, bisim_partition, coarsest_sp_partition

        def boom(*args, **kwargs):
            raise AssertionError("a strong class check must not close pairs")

        monkeypatch.setattr(abstraction, "paired_semantic_closure", boom)
        cases = [
            (model, lang, Partition.identity(model.space))
            for model in (tl, kpq)
            for lang in splitter_class_languages(model)
        ]
        # the ∃∃ quotient by P_L, strong for these five on the traffic light
        # (not for EF[0,2] on kpq: P_L is stable for EF[0,2], not for EX)
        cases += [(tl, lang, coarsest_sp_partition(lang, tl)) for lang in splitter_class_languages(tl)]
        cases.append((kpq, preset_language("L1", kpq), bisim_partition(kpq)))
        for model, lang, p in cases:
            assert paired_sp_check(model, quotient("ee", model, p), lang).verdict == "strong"

    def test_class_quotients_of_sixteen_states_close_no_family(self, monkeypatch):
        # the identity ∃∃ quotient is strong under L1 + post and L1 + AX.  P_L
        # comes from the splitter engine, so neither the semantic closure
        # (MAX_STAGE_TUPLES at 16 states) nor the paired closure runs
        from abspres import abstraction, language_from_json, shells

        def boom(*args, **kwargs):
            raise AssertionError("a closure over ℘(Σ) on the block route")

        monkeypatch.setattr(abstraction, "paired_semantic_closure", boom)
        monkeypatch.setattr(shells, "semantic_closure", boom)
        for n in (12, 16):
            rng = random.Random(n)
            space = StateSpace(tuple(str(i) for i in range(n)))
            succ = tuple(sum(1 << t for t in rng.sample(range(n), 2)) for _ in range(n))
            labels = (("p", rng.randrange(1 << n)), ("q", rng.randrange(1 << n)))
            model = KripkeModel(space, succ, labels)
            q = quotient("ee", model, Partition.identity(space))
            for extra in ("post", "AX"):
                lang = language_from_json({"preset": "L1", "operators": [{"name": extra}]}, model)
                assert paired_sp_check(model, q, lang).verdict == "strong"

    def test_other_checks_take_the_paired_route(self, kpq, monkeypatch):
        from abspres import LanguageSpec, abstraction, bisim_partition

        calls = []
        closure = abstraction.paired_semantic_closure

        def recording(*args, **kwargs):
            calls.append(kwargs.get("abort_on_violation", False))
            return closure(*args, **kwargs)

        monkeypatch.setattr(abstraction, "paired_semantic_closure", recording)
        l1 = preset_language("L1", kpq)
        mixed = operator_from_expr("AXEX", 1, "AX EX #1")
        # without `not` a check may be weak-only, so it reads the full closure
        full = [preset_language(name, kpq) for name in ("semaforo", "exef")]
        full.append(language_from_ops(kpq, ["and", "or", "EX"]))
        # with `not` and no block test, an aborting closure decides
        aborting = [
            preset_language("L2", kpq),
            LanguageSpec("L1+AXEX", l1.atoms, l1.operators + (mixed,)),
            LanguageSpec("no-atoms", (), l1.operators),
        ]
        p = bisim_partition(kpq)
        q = quotient("ee", kpq, p)
        for lang in full + aborting:
            paired_sp_check(kpq, q, lang)
            assert calls.pop() is (lang in aborting), lang.name
        assert calls == []
        # CTL's cuts are AX and EX, and L3's operator is AX, so both checks
        # are decided on the generators of A_L
        for name in ("CTL", "L3"):
            assert paired_sp_check(kpq, q, preset_language(name, kpq)).verdict == "strong"
        assert calls == []
        for structure in (
            AbstractStructure.from_quotient(q, l1),
            AbstractStructure.best_approximation(adp(p), kpq, l1),
        ):
            assert paired_sp_check(kpq, structure, l1).verdict == "strong"
            assert calls.pop() is False
        # a failing class check closes pairs only for the witness, and stops
        # at the first violation
        label_q = quotient("ee", kpq, Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]]))
        report = paired_sp_check(kpq, label_q, l1)
        assert report.verdict == "neither" and report.witness is not None
        assert calls == [True]


class TestQuotientPreservationTheorems:
    def test_existential_quotient_of_bisimulation_preserves_ctl(self, kpq, tl):
        from abspres import bisim_partition
        from conftest import random_total_model

        rng = random.Random(31337)
        models = [kpq, tl] + [random_total_model(rng, max_states=5) for _ in range(15)]
        for model in models:
            pbis = bisim_partition(model)
            q = quotient("ee", model, pbis)
            lang = preset_language("CTL", model)
            assert paired_sp_check(model, q, lang).verdict == "strong"

    def test_forall_quotient_of_simeq_preserves_l3(self, kpq):
        from abspres import simeq_partition
        from conftest import random_total_model

        rng = random.Random(424243)
        models = [kpq] + [random_total_model(rng, max_states=5) for _ in range(15)]
        for model in models:
            ps = simeq_partition(model)
            q = quotient("ae", model, ps)
            lang = preset_language("L3", model)
            assert paired_sp_check(model, q, lang).verdict == "strong"


class TestUniqueInterpretation:
    def test_every_strong_interpretation_is_the_best_approximation(self, tl):
        # conjunction-closed language with a tautology atom over the
        # four-element traffic-light domain: enumerate atom interpretations
        # and the full unary-operator table (the meet is kept at its best
        # approximation; see the notes on enumerating binary tables)
        axx = operator_from_expr("AXX", 1, "AX AX #1")
        lang_atoms = {
            "stop": ["R", "RY"],
            "go": ["G", "Y"],
            "true": ["R", "RY", "G", "Y"],
        }
        lang = language_from_ops(
            tl, ["and"], atoms=lang_atoms, name="semaforo-conj"
        )
        lang = type(lang)(
            lang.name, lang.atoms, lang.operators + (axx,), lang.open_ops
        )
        dom = ad_of_language(lang, tl)
        members = sorted(dom.masks)
        assert len(members) == 4

        from abspres.abstraction import paired_semantic_closure

        meet_table = {
            (x, y): dom.closure_mask(x & y) for x in members for y in members
        }
        bca_axx = {
            (x,): dom.closure_mask(tl.cpre(tl.cpre(x))) for x in members
        }
        bca_atoms = {
            name: dom.closure_mask(tl.space.mask_of(v)) for name, v in lang_atoms.items()
        }
        strong_hits = []
        for stop_v, go_v, true_v in product(members, repeat=3):
            for axx_outs in product(members, repeat=4):
                tables = {
                    "and": meet_table,
                    "AXX": {(m,): out for m, out in zip(members, axx_outs)},
                }
                structure = AbstractStructure.from_tables(
                    dom,
                    lang,
                    {"stop": stop_v, "go": go_v, "true": true_v},
                    tables,
                )
                closure = paired_semantic_closure(
                    tl, structure, lang, abort_on_violation=True
                )
                if closure.strong:
                    strong_hits.append((stop_v, go_v, true_v, axx_outs))
        want_axx = tuple(bca_axx[(m,)] for m in members)
        assert strong_hits == [
            (bca_atoms["stop"], bca_atoms["go"], bca_atoms["true"], want_axx)
        ]


class TestGfpTransfer:
    def test_bisimulation_blocks_with_pre(self, kpq):
        dom = adp(Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]]))
        report = gfp_transfer_check(dom, builtin_operator("pre"), kpq)
        assert report.applicable and report.gfp_holds
        assert report.lfp_checked and report.lfp_holds
        assert report.holds

    def test_powerset_trivially_transfers(self, kpq, tl, k3):
        for model in (kpq, tl, k3):
            dom = powerset_domain(model.space)
            for name in ("pre", "post", "pre~", "post~"):
                report = gfp_transfer_check(dom, builtin_operator(name), model)
                assert report.holds

    def test_rejects_non_unary_operators(self, kpq):
        with pytest.raises(ValidationError):
            gfp_transfer_check(
                powerset_domain(kpq.space), builtin_operator("EU"), kpq
            )

    def test_vacuous_when_not_forward_complete(self, k3):
        dom = adp(Partition.of(k3.space, [["1", "2"], ["3"]]))
        report = gfp_transfer_check(dom, builtin_operator("pre"), k3)
        assert not report.applicable
        assert report.gfp_holds is None
        assert "hypothesis fails" in report.detail

    def test_composite_monotone_operator(self, kpq):
        # f(Z) = q ∪ (p ∩ pre(Z)) is monotone, and the bisimulation-block
        # domain (closed under ∪, ∩ and pre) is forward complete for it
        from abspres.formulas import App, Arg, Const
        from abspres.languages import Operator

        dom = adp(Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]]))
        p_set = StateSet(kpq.space, kpq.label_mask("p"))
        q_set = StateSet(kpq.space, kpq.label_mask("q"))
        body = App("or", (Const(q_set), App("and", (Const(p_set), App("EX", (Arg(1),))))))
        report = gfp_transfer_check(dom, Operator("step", 1, body), kpq)
        assert report.applicable and report.holds

    def test_non_monotone_operator_stops_at_the_first_bad_step(self):
        # not on Σ gives ∅ and then Σ again: the descending gfp iteration
        # stops there, on a space far too large to bound it by 2^n steps
        n = 40
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        model = KripkeModel(space, tuple(1 << ((i + 1) % n) for i in range(n)), ())
        dom = adp(Partition.of(space, [(1 << 20) - 1, space.full_mask ^ ((1 << 20) - 1)]))
        with pytest.raises(ValidationError, match="not descending"):
            gfp_transfer_check(dom, builtin_operator("not"), model)


def _ring():
    """The 5-cycle a → b → c → d → e → a, p = {a, b} and q = {e}."""
    return KripkeModel.of(
        "abcde", [(s, t) for s, t in zip("abcde", "bcdea")], {"p": ["a", "b"], "q": ["e"]}
    )


def _mismatches():
    """Each entry point, called with a value over five_state_pq's space and
    the ring, or the ring's values and five_state_pq's language."""
    from abspres import bisim_partition, coarsest_sp_partition, sp_abstract_kripke_search
    from abspres.fixtures import five_state_pq
    from abspres.shells import semantic_closure

    kpq, ring = five_state_pq(), _ring()
    dom = adp(bisim_partition(kpq))
    l1, ring_l1 = preset_language("L1", kpq), preset_language("L1", ring)
    ring_id = Partition.identity(ring.space)
    ex = builtin_operator("EX")
    return {
        "paired_sp_check": lambda: paired_sp_check(
            ring, AbstractStructure.best_approximation(dom, kpq, l1), ring_l1
        ),
        "eval_abstract": lambda: eval_abstract(parse_formula("EX p"), dom, ring, ring_l1),
        "completeness_check": lambda: completeness_check("forward", dom, [ex], ring),
        "bca_apply": lambda: bca_apply(dom, ex, [kpq.space.full], ring),
        "gfp_transfer_check": lambda: gfp_transfer_check(dom, ex, ring),
        "eval_concrete": lambda: eval_concrete(parse_formula("EX p"), ring, l1),
        "coarsest_sp_partition": lambda: coarsest_sp_partition(l1, ring),
        "is_sp_domain": lambda: is_sp_domain(adp(ring_id), l1, ring),
        "semantic_closure": lambda: semantic_closure(preset_language("exef", kpq), ring),
        "sp_abstract_kripke_search": lambda: sp_abstract_kripke_search(ring_id, l1, ring),
        "from_quotient": lambda: AbstractStructure.from_quotient(
            quotient("ee", ring, ring_id), l1
        ),
        "LanguageSpec": lambda: LanguageSpec("mixed", l1.atoms + (("top", ring.space.full),)),
        "Partition.of": lambda: Partition.of(ring.space, list(Partition.identity(kpq.space))),
    }


class TestSpaceMismatch:
    """A value over another space than the model's is refused, never read
    as a set over the model's space."""

    @pytest.mark.parametrize("entry", sorted(_mismatches()))
    def test_each_entry_point_refuses_another_space(self, entry):
        with pytest.raises(SpaceMismatchError):
            _mismatches()[entry]()

    def test_matching_spaces_still_run(self):
        ring = _ring()
        lang = preset_language("L1", ring)
        assert eval_concrete(parse_formula("EX p"), ring, lang).names == ("a", "e")
        assert is_sp_domain(adp(Partition.identity(ring.space)), lang, ring)
        assert LanguageSpec("two", lang.atoms + tuple((f"!{n}", ~s) for n, s in lang.atoms))
