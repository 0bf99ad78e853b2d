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
from abspres import equivalences, lattice, shells
from abspres.languages import (
    LanguageSpec,
    _splitters,
    apply_operator,
    builtin_operator,
    const_operator,
    in_similarity_class,
    in_splitter_class,
    language_from_json,
    language_from_ops,
    operator_from_expr,
    preset_language,
)
from abspres.lattice import StateSet
from abspres.shells import (
    ad_of_language,
    coarsest_sp_partition,
    forward_complete_shell,
    semantic_closure,
    sp_abstract_kripke_search,
)
from abspres.kripke import KripkeModel, label_partition

from conftest import (
    brute_moore_close,
    domain_as_frozensets,
    exhaustive_relation_search,
    random_model,
    random_total_model,
)


def naive_shell(dom, fs, model):
    """Oracle: X := M(X ∪ F(X)) recomputed from scratch over all tuples."""
    from itertools import product as iproduct

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


def _ops(*names):
    return tuple(builtin_operator(n) for n in names)


def random_seed(rng, model, count=3):
    """M of Σ and up to ``count`` random sets; rarely partitioning."""
    masks = {model.space.full_mask}
    masks.update(rng.randrange(1 << model.n) for _ in range(count))
    return moore_close(SetFamily.of(model.space, masks))


def splitter_op_sets():
    """`not` with pre, AX, post, post~, EF[1,3], AX AX #1, !#1 | #2 and EU,
    and with AU, ER and AR beside a next operator."""
    ops = {
        name: builtin_operator(name)
        for name in (
            "not", "and", "or", "pre", "pre~", "AX", "post", "post~", "EU", "EX", "AU", "ER",
            "AR", "EF[1,2]", "EF[1,3]",
        )
    }
    ops["AXX"] = operator_from_expr("AXX", 1, "AX AX #1")
    ops["imp"] = operator_from_expr("imp", 2, "!#1 | #2")
    names = [
        ["pre"], ["AX"], ["post"], ["post~"], ["EF[1,3]"], ["AXX"], ["imp", "pre"],
        ["and", "imp", "AX", "post"], ["EU"], ["EU", "EX"], ["EU", "post"],
        ["and", "EU", "AX"], ["EX", "AU"], ["AX", "ER", "AR"], ["pre", "EU", "post"],
        ["and", "pre~", "AU", "EF[1,2]"], ["or", "EX", "AR"],
    ]
    return [[ops["not"]] + [ops[n] for n in group] for group in names]


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

    def test_capacity_guard(self, kpq, monkeypatch):
        # {or, pre~} has no `not`, so its shell is closed set by set
        monkeypatch.setattr(shells, "DEFAULT_MAX_FAMILY", 4)
        seed = moore_close(label_partition(kpq).family)
        with pytest.raises(CapacityError, match="DEFAULT_MAX_FAMILY"):
            forward_complete_shell(seed, [builtin_operator("or"), builtin_operator("pre~")], kpq)

    def test_splitter_route_trace_invariants(self, kpq, tl):
        # the seed, adp(pr(seed)) when the seed is not partitioning, then adp
        # of each pass's partition, the last one repeated
        rng = random.Random(31)
        ops = [builtin_operator("not"), builtin_operator("pre")]
        seeds = [(kpq, adp(label_partition(kpq))), (tl, adp(label_partition(tl)))]
        for _ in range(30):
            model = random_total_model(rng, max_states=6)
            seeds.append((model, random_seed(rng, model)))
        extra_steps = 0
        for model, seed in seeds:
            trace = forward_complete_shell(seed, ops, model).trace
            sizes = [len(d) for d in trace.iterations]
            assert trace.iterations[0] is seed
            assert len(trace.new_counts) == len(sizes) - 1
            assert trace.new_counts == tuple(b - a for a, b in zip(sizes, sizes[1:]))
            assert all(a < b for a, b in zip(sizes, sizes[1:-1]))
            assert trace.iterations[-1] == trace.iterations[-2]
            assert trace.new_counts[-1] == 0
            assert all(is_partitioning(d) for d in trace.iterations[1:])
            partitioning = is_partitioning(seed)
            if not partitioning:
                assert trace.iterations[1] == adp(pr(seed))
                extra_steps += 1
            # each later snapshot is one pass of the engine
            passes = list(equivalences._splitter_passes(model, pr(seed).blocks, _splitters(ops)))
            assert len(trace.iterations) == 1 + (not partitioning) + len(passes)
        assert extra_steps >= 10

    def test_splitter_route_matches_naive_shell(self):
        # `not` with additive, dual, composite and Boolean operators, from
        # seeds that are mostly not partitioning; the naive iteration and the
        # closure loop are the oracles
        rng = random.Random(3)
        not_partitioning = 0
        for _ in range(120):
            model = random_model(rng, rng.randint(1, 6))
            seed = random_seed(rng, model, rng.randint(1, 3))
            not_partitioning += not is_partitioning(seed)
            for fs in splitter_op_sets():
                got = forward_complete_shell(seed, fs, model).domain
                want = naive_shell(seed, fs, model)
                assert got.masks == want, ([op.name for op in fs], model)
                assert shells._closure_shell(seed, fs, model).domain.masks == want
        assert not_partitioning >= 60

    def test_other_operator_sets_stay_on_the_closure_route(self, kpq, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("splitter engine on a set it does not serve")

        def no_similarity(*args, **kwargs):
            raise AssertionError("similarity on a language outside its class")

        monkeypatch.setattr(equivalences, "_splitter_passes", boom)
        monkeypatch.setattr(equivalences, "_similarity", no_similarity)
        seed = moore_close(label_partition(kpq).family)
        mixed = operator_from_expr("AXEX", 1, "AX EX #1")
        for fs in (
            [builtin_operator("not"), mixed],
            [builtin_operator("or"), builtin_operator("pre~")],
            # the block test of EU does not carry over to AU or ER, and
            # without a next operator neither is a fixpoint of pre-stable sets
            [builtin_operator("not"), builtin_operator("AU")],
            [builtin_operator("not"), builtin_operator("ER")],
        ):
            got = forward_complete_shell(seed, fs, kpq).domain
            assert got.masks == naive_shell(seed, fs, kpq)
        closed_atoms = tuple(
            (name, StateSet(kpq.space, mask))
            for name, mask in (("a", 0b00011), ("!a", 0b11100), ("b", 0b01010), ("!b", 0b10101))
        )
        l1 = preset_language("L1", kpq)
        langs = [
            # complement-closed atoms, but no AX or pre~
            LanguageSpec("and-or", closed_atoms, _ops("and", "or")),
            LanguageSpec("L1+AXEX", l1.atoms, l1.operators + (mixed,)),
        ]
        for lang in langs:
            assert not in_splitter_class(lang) and not in_similarity_class(lang), lang.name
            assert ad_of_language(lang, kpq) == moore_close(semantic_closure(lang, kpq))
        # an arity-12 operator with the body pre #1 is no next operator
        high = operator_from_expr("F", 12, "pre #1")
        lang = LanguageSpec("L1+F", l1.atoms, l1.operators + (high,))
        assert _splitters(lang.operators) is None
        with pytest.raises(CapacityError, match="MAX_STAGE_TUPLES"):
            ad_of_language(lang, kpq)
        for op in ("pre", "EU"):
            with pytest.raises(AssertionError, match="splitter engine"):
                forward_complete_shell(seed, [builtin_operator("not"), builtin_operator(op)], kpq)
        for name in ("L1", "L2", "CTL"):
            with pytest.raises(AssertionError, match="splitter engine"):
                ad_of_language(preset_language(name, kpq), kpq)
        with pytest.raises(AssertionError, match="similarity"):
            ad_of_language(preset_language("L3", kpq), kpq)

    def test_worklist_matches_naive_iteration(self):
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


class TestCloseEngine:
    """``languages.close`` tries exactly the tuples over the known items that
    touch the last round's window ``known[lo:hi]``, in product order."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_window_tuples_match_filtered_product(self, k):
        from itertools import product as iproduct

        from abspres.languages import _touching

        items = ["a", "b", "c", "d", "e"]
        # empty windows, whole-list windows, and items past hi
        for lo, hi in [(0, 0), (2, 2), (5, 5), (0, 5), (0, 2), (1, 3), (3, 5), (4, 5)]:
            if k == 0:
                want = [()] if lo == 0 else []
            else:
                want = [
                    t for t in iproduct(items, repeat=k)
                    if any(lo <= items.index(x) < hi for x in t)
                ]
            assert list(_touching(items, lo, hi, k)) == want, (lo, hi)

    def test_builds_no_tuple_it_does_not_apply(self, monkeypatch):
        from abspres import languages, shells

        real_product, real_apply = languages.product, shells.apply_operator
        built = applied = 0

        def counting_product(*iterables, **kwargs):
            nonlocal built
            for t in real_product(*iterables, **kwargs):
                built += 1
                yield t

        def counting_apply(op, model, args):
            nonlocal applied
            applied += 1
            return real_apply(op, model, args)

        monkeypatch.setattr(languages, "product", counting_product)
        monkeypatch.setattr(shells, "apply_operator", counting_apply)
        model = random_total_model(random.Random(20))
        semantic_closure(preset_language("L1", model), model)
        assert 0 < built <= applied


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
        # AD_L = S_{Op_L}(M(atoms)) once ∧ is in the language.  L1 and its
        # shell both take the splitter engine, so each is compared with the
        # closure loop
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
            closed = shells._closure_shell(seed, list(lang.operators), model).domain
            assert ad_of_language(lang, model) == closed
            assert forward_complete_shell(seed, list(lang.operators), model).domain == closed

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
        # language) loses information against the partition; the presets'
        # domains are closed here, as ad_of_language answers them by adp
        for model, preset in ((kpq, "L1"), (kpq, "L2")):
            dom = moore_close(semantic_closure(preset_language(preset, model), model))
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

    def test_presets_agree_with_the_domain_route(self):
        # ad_of_language answers L1 and CTL by adp(bisimulation), L2 by
        # adp(stuttering) and L3 by add(similarity); each domain must equal
        # the closure route M(S) as an image, and its pr must be P_L
        rng = random.Random(1010)
        models = [random_model(rng, 1 + i % 7) for i in range(140)]
        assert any(0 in m.succ for m in models) and any(0 not in m.succ for m in models)
        masks = {mask for m in models for _, mask in m.label_items}
        assert {0, 1, 127} <= masks
        for model in models:
            for name in ("L1", "L2", "L3", "CTL"):
                if name == "CTL" and model.n > 6:
                    continue
                lang = preset_language(name, model)
                want = moore_close(semantic_closure(lang, model))
                assert ad_of_language(lang, model).masks == want.masks, (name, model)
                assert coarsest_sp_partition(lang, model) == pr(want), (name, model)

    def test_class_languages_agree_with_the_domain_route(self):
        # every splitter-class language is answered by the engine from the
        # atom partition, every similarity-class one by add of its
        # similarity; the domain must equal the closure route M(S)
        rng = random.Random(1313)
        models = [random_model(rng, 1 + i % 7) for i in range(140)]
        assert any(0 in m.succ for m in models) and any(0 not in m.succ for m in models)
        axx = operator_from_expr("AXX", 1, "AX AX #1")
        imp = operator_from_expr("imp", 2, "!#1 | #2")
        for model in models:
            langs = [preset_language("L1", model)] + [
                language_from_ops(model, ops)
                for ops in (
                    ["and", "not", "EX", "post"],
                    ["and", "not", "AX"],
                    ["or", "not", "EF[1,3]"],
                    ["and", "or", "not", "pre~", "post~"],
                )
            ]
            base = language_from_ops(model, ["and", "not"])
            langs += [
                LanguageSpec("AXX", base.atoms, base.operators + (axx,)),
                LanguageSpec("imp", base.atoms, base.operators + (imp, builtin_operator("EX"))),
                preset_language("L2", model),
                language_from_ops(model, ["and", "not", "EU", "EX"]),
                language_from_ops(model, ["or", "not", "EU", "AX"]),
                language_from_ops(model, ["and", "not", "EX", "AU"]),
                language_from_ops(model, ["or", "not", "AX", "ER", "AR"]),
            ]
            if model.n <= 6:
                ctl = preset_language("CTL", model)
                langs += [ctl, LanguageSpec("CTL+post", ctl.atoms, ctl.operators + _ops("post"))]
            splitter_class = len(langs)
            # atoms closed under complement that are not the labels
            masks = [rng.randrange(1 << model.n) for _ in range(rng.randint(1, 2))]
            full = model.space.full_mask
            atoms = tuple(
                (f"{sign}a{i}", StateSet(model.space, mask if sign == "" else full & ~mask))
                for i, mask in enumerate(masks)
                for sign in ("", "!")
            )
            for dual in ("AX", "pre~"):
                langs.append(LanguageSpec("sim", atoms, _ops("and", "or", dual)))
            for i, lang in enumerate(langs):
                assert in_splitter_class(lang) == (i < splitter_class), lang.name
                assert in_similarity_class(lang) == (i >= splitter_class), lang.name
                want = moore_close(semantic_closure(lang, model))
                assert ad_of_language(lang, model).masks == want.masks, (lang.name, model)
                assert coarsest_sp_partition(lang, model) == pr(want), (lang.name, model)

    def test_presets_without_atoms_have_one_block(self):
        # no atoms, no formulas; bisimulation would still split the dead state
        model = KripkeModel(StateSpace(("a", "b", "c")), (0b010, 0, 0b100), ())
        one_block = Partition.of(model.space, [["a", "b", "c"]])
        assert len(equivalences.bisim_partition(model).blocks) == 3
        for name in ("L1", "L2", "L3", "CTL"):
            lang = preset_language(name, model)
            assert ad_of_language(lang, model).masks == {model.space.full_mask}
            assert pr(ad_of_language(lang, model)) == one_block
            assert coarsest_sp_partition(lang, model) == one_block

    @pytest.mark.parametrize(
        "doc, refinement",
        [
            ({"preset": "L1", "operators": [{"name": "post"}]}, "bisim_partition"),
            ({"preset": "L2", "operators": [{"name": "EX"}]}, "dbs_partition"),
            ({"preset": "L1", "atoms": {"p": ["1"]}}, "bisim_partition"),
        ],
        ids=["L1+post", "L2+EX", "L1-atom-override"],
    )
    def test_extended_presets_take_the_domain_route(self, doc, refinement):
        # the language keeps the preset's name, but not its P_L
        rng = random.Random(2020)
        differ = 0
        for i in range(60):
            model = random_model(rng, 2 + i % 5)
            lang = language_from_json(doc, model)
            assert lang.name == doc["preset"]
            closed = moore_close(semantic_closure(lang, model))
            assert ad_of_language(lang, model).masks == closed.masks
            want = pr(closed)
            assert coarsest_sp_partition(lang, model) == want
            differ += want != getattr(equivalences, refinement)(model)
        assert differ > 0

    def test_labels_that_clash_with_a_preset(self):
        # labels p and !p: the L3 preset cannot be built on this model, and a
        # hand-built language named L3 takes the domain route without raising
        space = StateSpace(("1", "2", "3"))
        model = KripkeModel(space, (0b010, 0b100, 0b001), (("p", 0b001), ("!p", 0b011)))
        with pytest.raises(ValidationError):
            preset_language("L3", model)
        atoms = tuple((name, StateSet(space, mask)) for name, mask in model.label_items)
        ops = tuple(builtin_operator(n) for n in ("and", "or", "AX"))
        lang = LanguageSpec("L3", atoms, ops)
        # p and !p are not complements, so the language is not in L3's class
        assert not in_similarity_class(lang)
        want = moore_close(semantic_closure(lang, model))
        assert ad_of_language(lang, model) == want
        assert coarsest_sp_partition(lang, model) == pr(want)


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

    def test_boolean_steps_are_not_checked_per_candidate(self, monkeypatch):
        # a Boolean step holds for every candidate, so no block model is asked
        # for not/and/or; the hit lists, in both modes, stay those of the
        # quotient route (test_search_agrees_with_quotient_route)
        from abspres import shells
        from abspres.languages import apply_operator

        block_calls = []

        def counting(op, model, args):
            if model is not concrete and op.name in ("not", "and", "or"):
                block_calls.append(op.name)
            return apply_operator(op, model, args)

        monkeypatch.setattr(shells, "apply_operator", counting)
        rng = random.Random(71)
        searches = hits = 0
        for _ in range(12):
            concrete = random_total_model(rng, max_states=5)
            p = label_partition(concrete)
            if len(p.blocks) > 3:
                continue
            for name in ("L1", "L2", "L3", "exef"):
                lang = preset_language(name, concrete)
                found = sp_abstract_kripke_search(p, lang, concrete)
                assert sp_abstract_kripke_search(p, lang, concrete, mode="first") == found[:1]
                searches += 1
                hits += len(found)
        assert block_calls == []
        assert searches >= 30 and hits >= 30

    def test_operator_records_its_polarity(self, kpq):
        # the sign in the transition relation, the arguments fixed
        for name in ("EX", "pre", "post", "EF[0,2]", "EU", "ER"):
            assert builtin_operator(name)._polarity == 1, name
        for name in ("AX", "pre~", "post~", "AU", "AR"):
            assert builtin_operator(name)._polarity == -1, name
        for name in ("not", "and", "or"):
            assert builtin_operator(name)._polarity == 0, name
        cases = {
            "AX AX #1": -1,
            "!AX #1": 1,
            "!EX #1": -1,
            "EX !#1": 1,
            "post EF[1,3] pre #1": 1,
            "!#1 | #1 & #1": 0,
            "AX EX #1": None,
            "EX #1 & AX #1": None,
            "EX AX EX #1": None,
        }
        for expr, want in cases.items():
            assert operator_from_expr("f", 1, expr)._polarity == want, expr
        assert operator_from_expr("f", 2, "EU(#1, !EX #2)")._polarity is None
        assert operator_from_expr("f", 2, "AU(!#1, AX #2)")._polarity == -1
        assert const_operator("c", StateSet(kpq.space, 0b101))._polarity == 0

    def test_row_walk_matches_the_exhaustive_walk(self):
        # oracle: every one of the 2^(b²) relations checked in bit order, in
        # both modes.  Monotone (L1, L2, exef, post, EX !#1), antitone (L3,
        # semaforo, post~, !EX #1), both (CTL's EX and AX, EU and AU) and
        # mixed steps (AX EX #1, EX #1 & AX #1), models with dead states and
        # every block row, empty ones too.  The batch runs every fixpoint,
        # bounded reach with cycles of each length and the dual transformers
        # over L1 and L3: AU, ER, AR, EF[1,3], EF[2,5], pre~ and post~ AX.
        from abspres.equivalences import bisim_partition
        from abspres.fixtures import five_state_pqr, traffic_light

        extras = {
            "post": "post #1",
            "post~": "post~ #1",
            "EXnot": "EX !#1",
            "notEX": "!EX #1",
            "AXEX": "AX EX #1",
            "EXandAX": "EX #1 & AX #1",
        }
        batched = {
            "AU": "AU(#1, #2)",
            "ER": "ER(#1, #2)",
            "AR": "AR(#1, #2)",
            "EF13": "EF[1,3] #1",
            "EF25": "EF[2,5] #1",
            "cpre": "pre~ #1",
            "cpostAX": "post~ AX #1",
        }

        def extended(base, bodies):
            return [
                LanguageSpec(
                    f"{base.name}+{name}",
                    base.atoms,
                    base.operators + (operator_from_expr(name, expr.count("#"), expr),),
                )
                for name, expr in bodies.items()
            ]

        def languages(model):
            presets = ("L1", "L2", "L3", "CTL", "exef", "semaforo")
            l1, l3 = preset_language("L1", model), preset_language("L3", model)
            return (
                [preset_language(n, model) for n in presets]
                + extended(l1, extras)
                + extended(l1, batched)
                + extended(l3, batched)
            )

        searches = found = stuck = 0

        def agree(p, model, langs):
            nonlocal searches, found, stuck
            for lang in langs:
                want = exhaustive_relation_search(p, lang, model)
                assert sp_abstract_kripke_search(p, lang, model) == want, lang.name
                first = sp_abstract_kripke_search(p, lang, model, mode="first")
                assert first == exhaustive_relation_search(p, lang, model, "first") == want[:1]
                searches += 1
                found += bool(want)
                # hits in which a block has no successor
                stuck += sum(len({i for i, _ in rel}) < len(p.blocks) for rel in want)

        rng = random.Random(16)
        for _ in range(16):
            model = random_model(rng, rng.randint(2, 6))
            picks = [rng.randrange(3) for _ in range(model.n)]
            shuffled = Partition.from_masks(
                model.space,
                {sum(1 << s for s in range(model.n) if picks[s] == k) for k in set(picks)},
            )
            for p in (label_partition(model), bisim_partition(model), shuffled):
                if len(p.blocks) <= 3:
                    agree(p, model, languages(model))
        tl, kpqr = traffic_light(), five_state_pqr()
        agree(bisim_partition(tl), tl, [preset_language(n, tl) for n in ("L1", "semaforo")])
        agree(bisim_partition(kpqr), kpqr, [preset_language("exef", kpqr)])
        assert searches >= 500 and found >= 400 and stuck >= 1500

    def test_batches_match_the_row_walk(self):
        # oracle: the walk with one block model per node bound and per leaf,
        # in both modes, hit lists compared in order.  Four blocks batch the
        # rows below row 3 and five blocks the rows below rows 4 to 2, where
        # the 2^(b²) oracle is out of reach
        from abspres.fixtures import five_state_pq, five_state_pqr
        from conftest import row_walk_relation_search

        searches = found = 0

        def agree(p, model, names):
            nonlocal searches, found
            for name in names:
                lang = preset_language(name, model)
                want = row_walk_relation_search(p, lang, model)
                assert sp_abstract_kripke_search(p, lang, model) == want, name
                first = sp_abstract_kripke_search(p, lang, model, mode="first")
                assert first == row_walk_relation_search(p, lang, model, "first") == want[:1]
                searches += 1
                found += len(want)

        for model in (five_state_pq(), five_state_pqr()):
            agree(Partition.identity(model.space), model, ("L1", "L3", "semaforo", "CTL"))
        # label classes split at random into four blocks, so the atoms are
        # block unions and the search runs
        rng = random.Random(23)
        while searches < 8 + 18:
            model = random_total_model(rng, max_states=8)
            blocks = list(label_partition(model).blocks)
            if model.n < 4 or len(blocks) > 4:
                continue
            while len(blocks) < 4:
                block = rng.choice([m for m in blocks if m & (m - 1)])
                members = [s for s in range(model.n) if (block >> s) & 1]
                part = sum(1 << s for s in rng.sample(members, rng.randint(1, len(members) - 1)))
                blocks.remove(block)
                blocks += [part, block & ~part]
            agree(Partition.from_masks(model.space, blocks), model, ("L1", "L3", "CTL"))
        assert found >= 7000

    def test_batched_search_builds_no_block_model(self, kpqr, monkeypatch):
        # the batch decides each subtree on packed masks: no KripkeModel per
        # candidate or per leaf.  Three blocks are one batch at the root; the
        # bisimulation blocks of five_state_pqr under exef (four blocks, 384
        # strong relations) batch below row 3, under one node
        from abspres.equivalences import bisim_partition

        built = []
        real = KripkeModel.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        rng = random.Random(5)
        cases = []
        while len(cases) < 6:
            model = random_total_model(rng, max_states=5)
            p = label_partition(model)
            if len(p.blocks) == 3:
                cases += [(p, preset_language(n, model), model) for n in ("L1", "exef")]
        monkeypatch.setattr(KripkeModel, "__post_init__", counting)
        hits = sum(len(sp_abstract_kripke_search(*case)) for case in cases)
        assert built == [] and hits >= 10
        p = bisim_partition(kpqr)
        assert len(sp_abstract_kripke_search(p, preset_language("exef", kpqr), kpqr)) == 384
        assert len(built) <= 2

    def test_row_bounds_prune_the_walk(self, kpqr, monkeypatch):
        # the bisimulation blocks of five_state_pqr under L1: 2^16 relations,
        # one of them strong, found with few block models built
        from abspres.equivalences import bisim_partition

        built = []
        real = shells.KripkeModel

        def counting(*args):
            built.append(args[1])
            return real(*args)

        monkeypatch.setattr(shells, "KripkeModel", counting)
        p = bisim_partition(kpqr)
        assert len(p.blocks) == 4
        hits = sp_abstract_kripke_search(p, preset_language("L1", kpqr), kpqr)
        assert hits == [quotient("ee", kpqr, p).model.relation_pairs()]
        assert len(built) <= 1000

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


@pytest.mark.parametrize(
    "case",
    ["semantic-closure", "shell", "splitter-shell", "search", "paired", "masks", "powerset", "moore-enumeration",
     "adp", "add", "preorder-enumeration"],
)
def test_capacity_error_names_bound_value_and_size(case, kpq, monkeypatch):
    from abspres import Preorder, add, powerset_domain
    from abspres.abstraction import paired_sp_check
    from abspres.partitions import iter_preorders

    big = StateSpace(tuple(str(i) for i in range(24)))
    l1 = preset_language("L1", kpq)
    seed = moore_close(label_partition(kpq).family)
    if case == "semantic-closure":
        monkeypatch.setattr(shells, "DEFAULT_MAX_FAMILY", 3)
        call = lambda: semantic_closure(l1, kpq)
        message = "semantic closure reached 5 sets, over DEFAULT_MAX_FAMILY = 3"
    elif case == "shell":
        # {or, pre~} has no `not`, so its shell is closed set by set
        monkeypatch.setattr(shells, "DEFAULT_MAX_FAMILY", 4)
        ops = [builtin_operator("or"), builtin_operator("pre~")]
        call = lambda: forward_complete_shell(seed, ops, kpq)
        message = "shell image reached 7 sets, over DEFAULT_MAX_FAMILY = 4"
    elif case == "splitter-shell":
        # the splitter route answers adp of four blocks, refused when listed
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 4)
        ops = [builtin_operator("not"), builtin_operator("pre")]
        call = lambda: forward_complete_shell(seed, ops, kpq).domain.masks
        message = "image of 4 generators has up to 2^4 members, over DEFAULT_MAX_FAMILY = 4"
    elif case == "search":
        monkeypatch.setattr(shells, "MAX_SEARCH_CANDIDATES", 8)
        p = Partition.of(kpq.space, [["1", "2"], ["3", "4", "5"]])
        call = lambda: sp_abstract_kripke_search(p, l1, kpq)
        message = "2 blocks means 2^4 candidate relations, over MAX_SEARCH_CANDIDATES = 8"
    elif case == "paired":
        # L3 has no `not`, so its quotient check runs the paired closure
        q = quotient("ee", kpq, Partition.identity(kpq.space))
        call = lambda: paired_sp_check(kpq, q, preset_language("L3", kpq), max_pairs=4)
        message = "paired closure exceeded max_pairs = 4 (now 6 pairs)"
    elif case == "masks":
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 4)
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4", "5"]])
        call = lambda: adp(p).masks
        message = "image of 3 generators has up to 2^3 members, over DEFAULT_MAX_FAMILY = 4"
    elif case == "powerset":
        call = lambda: powerset_domain(StateSpace(big.names[:21]))
        message = "℘(Σ) would have 2^21 members, over DEFAULT_MAX_FAMILY = 1048576"
    elif case == "moore-enumeration":
        call = lambda: list(enumerate_moore_families(5))
        message = "enumeration supports 0 ≤ n ≤ MAX_ENUMERATION_STATES = 4, got 5"
    elif case == "adp":
        call = lambda: adp(Partition.identity(big)).masks
        message = "image of 24 generators has up to 2^24 members, over DEFAULT_MAX_FAMILY = 1048576"
    elif case == "add":
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 4)
        call = lambda: add(Preorder.identity(kpq.space)).masks
        message = "image of 5 generators has up to 2^5 members, over DEFAULT_MAX_FAMILY = 4"
    else:
        call = lambda: list(iter_preorders(kpq.space))
        message = "preorder enumeration supports n ≤ MAX_ENUMERATION_STATES = 4, got 5"
    with pytest.raises(CapacityError) as info:
        call()
    assert str(info.value) == message
