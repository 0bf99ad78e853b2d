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
    family_of_names,
    is_partitioning,
    moore_close,
    pr,
    quotient,
)
from abspres import equivalences, lattice, shells
from abspres.languages import (
    PRESET_NAMES,
    LanguageSpec,
    _route,
    _splitters,
    apply_operator,
    builtin_operator,
    const_operator,
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
    in_similarity_class,
    in_splitter_class,
    moore_families,
    random_model,
    random_total_model,
    similarity_class_languages,
    spelled_route,
    splitter_class_languages,
    twin_by_row,
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


def class_languages(rng, model):
    """The splitter-class languages of the class tests, then two
    similarity-class ones over random atoms closed under complement, and
    the number of splitter-class ones (CTL only up to six states)."""
    axx = operator_from_expr("AXX", 1, "AX AX #1")
    imp = operator_from_expr("imp", 2, "!#1 | #2")
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
    return langs, splitter_class


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
        domains = list(moore_families(3))
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
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 4)
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
            cuts = shells._cut_functions(model, _splitters(ops))
            passes = list(equivalences._splitter_passes(model, pr(seed).blocks, *cuts))
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

    def test_open_language_is_refused(self, kpq):
        with pytest.raises(ValidationError, match="semantic closure needs a closed language"):
            semantic_closure(preset_language("full", kpq), kpq)

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
        # (k = 0: the empty tuple has no member, and close applies 0-ary
        # operators itself)
        for lo, hi in [(0, 0), (2, 2), (5, 5), (0, 5), (0, 2), (1, 3), (3, 5), (4, 5)]:
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

    @staticmethod
    def _counting(monkeypatch, module, concrete):
        """Wrap ``module.apply_operator``; the list returned collects its
        applications on the model ``concrete`` as (operator, arguments)."""
        real, calls = module.apply_operator, []

        def counting_apply(op, model, args):
            if model is concrete:
                calls.append((op.name, tuple(args)))
            return real(op, model, args)

        monkeypatch.setattr(module, "apply_operator", counting_apply)
        return calls

    @pytest.mark.parametrize("name", ["L1", "L3", "CTL", "exef"])
    def test_recorded_closure_applies_each_tuple_once(self, name, monkeypatch):
        # identity blocks: every set of S is a block union, so the closure
        # runs to its end, and the argument masks name the tuple
        rng = random.Random(24)
        for _ in range(12):
            model = random_model(rng, rng.randint(2, 5))
            lang = preset_language(name, model)
            size = len(semantic_closure(lang, model))
            calls = self._counting(monkeypatch, shells, model)
            assert shells._recorded_steps(Partition.identity(model.space), lang, model) is not None
            assert len(set(calls)) == len(calls)
            assert len(calls) == sum(size**op.arity for op in lang.operators)
            monkeypatch.undo()

    @pytest.mark.parametrize("name", ["L1", "L3", "CTL", "exef"])
    def test_paired_closure_applies_each_tuple_once(self, name, monkeypatch):
        from abspres import abstraction
        from abspres.abstraction import AbstractStructure, paired_semantic_closure

        # the quotient is built on an equal copy of the model, so the
        # counter sees the concrete side of each application alone; every
        # tuple over the pairs must run, so the total shows none ran twice
        rng = random.Random(24)
        for _ in range(12):
            model = random_model(rng, rng.randint(2, 4))
            twin = KripkeModel(model.space, model.succ, model.label_items)
            lang = preset_language(name, model)
            structure = AbstractStructure.from_quotient(quotient("ee", twin, label_partition(model)), lang)
            calls = self._counting(monkeypatch, abstraction, model)
            closure = paired_semantic_closure(model, structure, lang)
            assert len(calls) == sum(len(closure.pairs) ** op.arity for op in lang.operators)
            monkeypatch.undo()


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
        for model in models:
            langs, splitter_class = class_languages(rng, model)
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


def split_to_four_blocks(rng, model):
    """The label classes of ``model`` split at random into four blocks, so
    the atoms are block unions and the relation search runs; None when the
    model has fewer than four states or more than four classes."""
    blocks = list(label_partition(model).blocks)
    if model.n < 4 or len(blocks) > 4:
        return None
    while len(blocks) < 4:
        block = rng.choice([m for m in blocks if m & (m - 1)])
        members = [s for s in range(model.n) if (block >> s) & 1]
        part = sum(1 << s for s in rng.sample(members, rng.randint(1, len(members) - 1)))
        blocks.remove(block)
        blocks += [part, block & ~part]
    return Partition.from_masks(model.space, blocks)


class _HitBranches:
    """Counts the batches of the searches over four or more blocks that
    ``_select`` picks hits from a ``range`` of every completion."""

    def __init__(self, monkeypatch):
        self.picks: list[str] = []
        self.wide = 0
        select = shells._select

        def logged_select(items, mask):
            self.picks.append(type(items).__name__)
            return select(items, mask)

        monkeypatch.setattr(shells, "_select", logged_select)

    def tally(self, p) -> None:
        """Count the decided batches of the searches on ``p`` since the last call."""
        picks, self.picks = self.picks, []
        if len(p.blocks) >= 4:
            self.wide += picks.count("range")


class TestRelationSearch:
    def test_traffic_light_has_no_strong_relation(self, tl):
        lang = preset_language("semaforo", tl)
        p = coarsest_sp_partition(lang, tl)
        assert sp_abstract_kripke_search(p, lang, tl) == []

    def test_unknown_mode_is_refused(self, kpq):
        lang = preset_language("L1", kpq)
        p = coarsest_sp_partition(lang, kpq)
        with pytest.raises(ValidationError, match="unknown search mode 'nope'"):
            sp_abstract_kripke_search(p, lang, kpq, mode="nope")

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

    def test_batches_match_the_row_walk(self, monkeypatch):
        # oracle: the walk with one block model per node bound and per leaf,
        # in both modes, hit lists compared in order.  Four blocks batch the
        # rows below row 3 and five blocks the rows below rows 4 to 2, where
        # the 2^(b²) oracle is out of reach
        from abspres.fixtures import five_state_pq, five_state_pqr
        from conftest import row_walk_relation_search

        searches = found = 0
        branches = _HitBranches(monkeypatch)

        def agree(p, model, names):
            nonlocal searches, found
            for name in names:
                lang = preset_language(name, model)
                want = row_walk_relation_search(p, lang, model)
                assert sp_abstract_kripke_search(p, lang, model) == want, name
                first = sp_abstract_kripke_search(p, lang, model, mode="first")
                assert first == row_walk_relation_search(p, lang, model, "first") == want[:1]
                branches.tally(p)
                searches += 1
                found += len(want)

        for model in (five_state_pq(), five_state_pqr()):
            agree(Partition.identity(model.space), model, ("L1", "L3", "semaforo", "CTL"))
        # label classes split at random into four blocks, so the atoms are
        # block unions and the search runs
        rng = random.Random(23)
        while searches < 8 + 18:
            model = random_total_model(rng, max_states=8)
            p = split_to_four_blocks(rng, model)
            if p is not None:
                agree(p, model, ("L1", "L3", "CTL"))
        assert found >= 7000
        assert branches.wide >= 1000

    def test_pair_table_entries(self):
        # entry x of the table a search reads holds pair (i, j) iff bit
        # i·b + j of x is set, for every x and every b the search allows;
        # one table per process, whose entries each search shares, and so
        # are the search's other tables
        for b in range(1, 6):
            bits = min(b, shells._BATCH_BITS // b, shells._TABLE_BITS // b) * b
            *_, low_bits, low_mask, table = shells._search_tables(b)
            assert (low_bits, low_mask) == (bits, (1 << bits) - 1)
            assert len(table) == 1 << bits <= 1 << shells._TABLE_BITS
            for x, entry in enumerate(table):
                assert entry == frozenset(divmod(k, b) for k in range(bits) if (x >> k) & 1), (b, x)
            assert shells._search_tables(b) is shells._search_tables(b)

    def test_block_unions_tested_only_where_a_value_can_leave_them(self, monkeypatch):
        # not, and and or keep block unions, so the recorded closure tests
        # the distinct atoms and the value of each non-Boolean step alone.
        # P_L holds every set of S as a block union, so no test cuts the
        # closure short, and L1's Boolean applications go untested
        rng = random.Random(41)
        calls, applied = [], []
        real_contains, real_apply = Partition.block_containing, shells.apply_operator

        def containing(self, mask):
            calls.append(mask)
            return real_contains(self, mask)

        def applying(op, model, args):
            if isinstance(model, KripkeModel):
                applied.append(op)
            return real_apply(op, model, args)

        searches = 0
        while searches < 10:
            model = random_total_model(rng, max_states=7)
            lang = preset_language("L1", model)
            p = coarsest_sp_partition(lang, model)
            if len(p.blocks) > 4:
                continue
            steps = shells._recorded_steps(p, lang, model)
            atoms = {s.mask for _, s in lang.atoms}
            calls[:], applied[:] = [], []
            monkeypatch.setattr(Partition, "block_containing", containing)
            monkeypatch.setattr(shells, "apply_operator", applying)
            sp_abstract_kripke_search(p, lang, model)
            monkeypatch.undo()
            assert len(calls) == len(atoms) + len(steps)
            assert 0 < len(steps) < len(applied)
            searches += 1

    def test_dense_exef_hit_lists_match_the_oracles(self, monkeypatch):
        # exef keeps most relations of these models: three blocks against
        # every relation checked in bit order, four blocks (batched below
        # row 3, the table covering rows 0 and 1) against the row walk, hit
        # lists compared in order in both modes
        from abspres.equivalences import bisim_partition
        from abspres.fixtures import five_state_pqr
        from conftest import row_walk_relation_search

        branches = _HitBranches(monkeypatch)

        def agree(p, model, oracle):
            lang = preset_language("exef", model)
            want = oracle(p, lang, model)
            assert sp_abstract_kripke_search(p, lang, model) == want
            first = sp_abstract_kripke_search(p, lang, model, mode="first")
            assert first == oracle(p, lang, model, "first") == want[:1]
            branches.tally(p)
            return len(want)

        rng = random.Random(3)
        found = searches = 0
        while searches < 6:
            model = random_total_model(rng, max_states=6)
            p = label_partition(model)
            if len(p.blocks) == 3:
                found += agree(p, model, exhaustive_relation_search)
                searches += 1
        assert found >= 1000
        kpqr = five_state_pqr()
        assert agree(bisim_partition(kpqr), kpqr, row_walk_relation_search) == 384
        rng = random.Random(29)
        found = searches = 0
        while searches < 6:
            model = random_total_model(rng, max_states=7)
            p = split_to_four_blocks(rng, model)
            if p is not None:
                found += agree(p, model, row_walk_relation_search)
                searches += 1
        assert found >= 1000
        assert branches.wide >= 100

    def test_first_mode_stops_after_a_later_node(self, kpqr, monkeypatch):
        # four blocks under exef: the first strong relation has row 3 = {2},
        # so the walk decides more than one node before it, and none after
        from abspres.equivalences import bisim_partition
        from conftest import row_walk_relation_search

        wide = []
        real = shells._BlockBatch

        def counting(width, rows):
            if width == 1 << 12:
                wide.append(width)
            return real(width, rows)

        monkeypatch.setattr(shells, "_BlockBatch", counting)
        p, lang = bisim_partition(kpqr), preset_language("exef", kpqr)
        want = row_walk_relation_search(p, lang, kpqr, "first")
        assert want and {j for i, j in want[0] if i == 3} == {2}
        assert sp_abstract_kripke_search(p, lang, kpqr, mode="first") == want
        first_nodes, wide[:] = len(wide), []
        sp_abstract_kripke_search(p, lang, kpqr)
        assert 1 < first_nodes < len(wide)

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


def constants_language(model):
    """The paper's {atoms} ∪ {pre} view of L1: no atoms, each label a 0-ary
    operator beside ``and``, ``not`` and ``EX``."""
    from abspres.languages import label_constants

    return LanguageSpec("k", (), tuple(label_constants(model)) + _ops("and", "not", "EX"))


def with_constant(lang, value):
    """``lang`` with one more operator, the constant ``c`` valued at ``value``."""
    return LanguageSpec(lang.name, lang.atoms, lang.operators + (const_operator("c", value),))


def with_ex_constant(lang, value):
    """``lang`` with one more operator, the constant ``c`` whose body is EX
    of ``value``, so it reads the relation."""
    from abspres.formulas import App, Const
    from abspres.languages import Operator

    return LanguageSpec(lang.name, lang.atoms, lang.operators + (Operator("c", 0, App("EX", (Const(value),))),))


class TestConstants:
    """0-ary operators run once, in the first round of the closure, and a
    quotient reads them as it reads atoms: by their existential value."""

    def test_close_applies_each_constant_once(self, kpq):
        from abspres.languages import close

        ops = (
            const_operator("c", kpq.space.set_of(["1"])),
            const_operator("d", kpq.space.set_of(["1"])),
        ) + _ops("not", "EX")
        for seeds in ([], [kpq.space.full_mask]):
            calls, known = [], set(seeds)

            def apply(op, args):
                calls.append((op.name, args))
                return apply_operator(op, kpq, args)

            def admit(fresh):
                known.update(fresh)
                return fresh

            close(seeds, ops, apply, admit)
            assert calls.count(("c", ())) == calls.count(("d", ())) == 1
            assert calls[:2] == [("c", ()), ("d", ())]
            assert {0b1, kpq.space.full_mask & ~0b1} <= known

    def test_constants_language_is_bisimulation(self, kpq):
        from abspres import is_sp_domain, top_domain
        from abspres.equivalences import bisim_partition

        lang = constants_language(kpq)
        assert semantic_closure(lang, kpq) == semantic_closure(preset_language("L1", kpq), kpq)
        assert coarsest_sp_partition(lang, kpq) == bisim_partition(kpq)
        assert coarsest_sp_partition(lang, kpq) == Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        assert not is_sp_domain(top_domain(kpq.space), lang, kpq)

    def test_constants_give_l1s_hits(self, kpq):
        from abspres.equivalences import bisim_partition

        lang, l1 = constants_language(kpq), preset_language("L1", kpq)
        counts = []
        for p in (bisim_partition(kpq), label_partition(kpq), Partition.identity(kpq.space)):
            hits = sp_abstract_kripke_search(p, lang, kpq)
            assert hits == sp_abstract_kripke_search(p, l1, kpq)
            counts.append(len(hits))
        assert counts == [1, 0, 9]

    def test_label_quotient_is_neither_under_constants(self, kpq):
        from abspres import AbstractStructure, eval_concrete
        from abspres.abstraction import paired_sp_check

        lang = constants_language(kpq)
        q = quotient("ee", kpq, label_partition(kpq))
        verdict = paired_sp_check(kpq, q, lang)
        assert verdict.verdict == "neither"
        concrete = eval_concrete(verdict.witness, kpq, lang)
        assert AbstractStructure.from_quotient(q, lang).semantics(verdict.witness) != concrete

    def test_witness_with_a_constant_parses_back(self, kpq):
        from abspres import eval_concrete, parse_formula
        from abspres.abstraction import paired_sp_check
        from abspres.formulas import MAX_DEPTH, App
        from abspres.errors import FormulaSyntaxError

        lang = constants_language(kpq)
        witness = paired_sp_check(kpq, quotient("ee", kpq, label_partition(kpq)), lang).witness
        assert repr(witness) == "EX (p())"
        parsed = parse_formula(repr(witness))
        assert parsed == witness
        assert eval_concrete(parsed, kpq, lang) == eval_concrete(witness, kpq, lang)
        assert parse_formula("p()") == App("p", ())
        # a 0-ary application is one operator deep
        parse_formula("EX " * (MAX_DEPTH - 1) + "p()")
        with pytest.raises(FormulaSyntaxError, match="deeper than"):
            parse_formula("EX " * MAX_DEPTH + "p()")

    def test_l1_with_a_constant(self, kpq):
        from abspres.abstraction import paired_sp_check
        from abspres.equivalences import bisim_partition

        l1 = preset_language("L1", kpq)
        partitions = (bisim_partition(kpq), label_partition(kpq), Partition.identity(kpq.space))
        five = with_constant(l1, kpq.space.set_of(["5"]))
        for p in partitions:
            assert sp_abstract_kripke_search(p, five, kpq) == sp_abstract_kripke_search(p, l1, kpq)
        bisim = quotient("ee", kpq, bisim_partition(kpq))
        assert paired_sp_check(kpq, bisim, five).strong
        # {1} is no union of the bisimulation's blocks
        one = with_constant(l1, kpq.space.set_of(["1"]))
        assert sp_abstract_kripke_search(bisim_partition(kpq), one, kpq) == []
        verdict = paired_sp_check(kpq, bisim, one)
        assert verdict.verdict == "neither" and str(verdict.witness) == "c()"

    def test_constant_that_reads_the_relation(self, kpq):
        # a 0-ary operator is a constant of the language even when its body
        # reads the relation: block models read EX of a fixed set by the
        # least block union holding its value, as they read an atom
        from abspres.abstraction import AbstractStructure, paired_sp_check
        from abspres.equivalences import bisim_partition

        l1 = preset_language("L1", kpq)
        ex4 = with_ex_constant(l1, kpq.space.set_of(["4"]))
        bisim, labels = bisim_partition(kpq), label_partition(kpq)
        for kind in ("ee", "ae"):
            assert paired_sp_check(kpq, quotient(kind, kpq, bisim), ex4).strong
        assert sp_abstract_kripke_search(bisim, ex4, kpq) == sp_abstract_kripke_search(bisim, l1, kpq)
        # EX{4} = {3,5} is no union of the label blocks {5} and {1,2,3,4}
        q = quotient("ee", kpq, labels)
        assert AbstractStructure.from_quotient(q, ex4).apply(ex4.operator("c"), ()) == kpq.space.full_mask
        verdict = paired_sp_check(kpq, q, ex4)
        assert verdict.verdict == "neither" and str(verdict.witness) == "c()"
        assert sp_abstract_kripke_search(labels, ex4, kpq) == []

    def test_search_agrees_with_quotient_verdicts(self):
        # oracle: paired_sp_check of the quotient by every relation on at
        # most 3 blocks, under the constants language and under L1 and exef
        # each with a random constant, and L1 with EX of one
        from abspres.abstraction import paired_sp_check
        from abspres.equivalences import bisim_partition
        from abspres.kripke import Quotient, block_name

        rng = random.Random(38)
        checked = strong = models = 0
        while models < 40:
            model = random_total_model(rng, max_states=5)
            value = StateSet(model.space, rng.randrange(model.space.full_mask + 1))
            langs = [
                constants_language(model),
                with_constant(preset_language("L1", model), value),
                with_constant(preset_language("exef", model), value),
                with_ex_constant(preset_language("L1", model), value),
            ]
            picks = [rng.randrange(3) for _ in range(model.n)]
            shuffled = Partition.from_masks(
                model.space,
                {sum(1 << s for s in range(model.n) if picks[s] == k) for k in set(picks)},
            )
            partitions = [
                p for p in {label_partition(model), bisim_partition(model), shuffled}
                if len(p.blocks) <= 3
            ]
            if not partitions:
                continue
            models += 1
            for p in partitions:
                b = len(p.blocks)
                bspace = StateSpace(tuple(block_name(model, m) for m in p.blocks))
                for lang in langs:
                    hits = set(sp_abstract_kripke_search(p, lang, model))
                    for bits in range(1 << (b * b)):
                        succ = tuple(((bits >> (i * b)) & ((1 << b) - 1)) for i in range(b))
                        q = Quotient(model, p, KripkeModel(bspace, succ, ()))
                        want = paired_sp_check(model, q, lang).strong
                        assert (q.model.relation_pairs() in hits) == want
                        checked += 1
                        strong += want
        assert checked >= 30000 and strong >= 1000


@pytest.mark.parametrize(
    "case",
    ["semantic-closure", "shell", "splitter-shell", "search", "paired", "masks", "powerset", "adp", "add"],
)
def test_capacity_error_names_bound_value_and_size(case, kpq, monkeypatch):
    from abspres import Preorder, abstraction, add, powerset_domain
    from abspres.abstraction import paired_sp_check

    big = StateSpace(tuple(str(i) for i in range(24)))
    l1 = preset_language("L1", kpq)
    seed = moore_close(label_partition(kpq).family)
    if case == "semantic-closure":
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 3)
        call = lambda: semantic_closure(l1, kpq)
        message = "semantic closure reached 5 sets, over DEFAULT_MAX_FAMILY = 3"
    elif case == "shell":
        # {or, pre~} has no `not`, so its shell is closed set by set; the
        # first new set whose meets take the image over 4 is refused
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 4)
        ops = [builtin_operator("or"), builtin_operator("pre~")]
        call = lambda: forward_complete_shell(seed, ops, kpq)
        message = "shell image reached 5 sets, over DEFAULT_MAX_FAMILY = 4"
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
        # exef is in neither class and has no `not`, so its quotient check
        # runs the full paired closure
        monkeypatch.setattr(abstraction, "DEFAULT_MAX_PAIRS", 4)
        q = quotient("ee", kpq, Partition.identity(kpq.space))
        call = lambda: paired_sp_check(kpq, q, preset_language("exef", kpq))
        message = "paired closure exceeded DEFAULT_MAX_PAIRS = 4 (now 5 pairs)"
    elif case == "masks":
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 4)
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4", "5"]])
        call = lambda: adp(p).masks
        message = "image of 3 generators has up to 2^3 members, over DEFAULT_MAX_FAMILY = 4"
    elif case == "powerset":
        # ℘(Σ) is the lazy domain of its 21 co-atoms, refused when listed
        call = lambda: powerset_domain(StateSpace(big.names[:21])).masks
        message = "image of 21 generators has up to 2^21 members, over DEFAULT_MAX_FAMILY = 1048576"
    elif case == "adp":
        call = lambda: adp(Partition.identity(big)).masks
        message = "image of 24 generators has up to 2^24 members, over DEFAULT_MAX_FAMILY = 1048576"
    else:
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 4)
        call = lambda: add(Preorder.identity(kpq.space)).masks
        message = "image of 5 generators has up to 2^5 members, over DEFAULT_MAX_FAMILY = 4"
    with pytest.raises(CapacityError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "case", ["semantic-closure", "shell", "paired", "completeness"]
)
def test_each_bound_is_set_through_its_own_module(case, kpq, monkeypatch):
    # a bound is one module constant read where it is checked: a call that
    # answers at the default is refused once the constant is set below it
    from abspres import abstraction
    from abspres.abstraction import paired_sp_check

    identity = Partition.identity(kpq.space)
    seed = moore_close(label_partition(kpq).family)
    ops = [builtin_operator("or"), builtin_operator("pre~")]
    module, name, value, call = {
        "semantic-closure": (
            lattice, "DEFAULT_MAX_FAMILY", 3,
            lambda: semantic_closure(preset_language("L1", kpq), kpq),
        ),
        "shell": (
            lattice, "DEFAULT_MAX_FAMILY", 4, lambda: forward_complete_shell(seed, ops, kpq)
        ),
        "paired": (
            abstraction, "DEFAULT_MAX_PAIRS", 4,
            lambda: paired_sp_check(kpq, quotient("ee", kpq, identity), preset_language("exef", kpq)),
        ),
        "completeness": (
            abstraction, "DEFAULT_MAX_TUPLES", 10,
            lambda: completeness_check("backward", adp(identity), [builtin_operator("EU")], kpq),
        ),
    }[case]
    call()
    monkeypatch.setattr(module, name, value)
    with pytest.raises(CapacityError, match=f"{name} = {value}\\b"):
        call()


class TestRoute:
    """`languages._route` against the two class tests it replaced and the
    spelled route it replaced (oracles in conftest), and against
    `_splitters`."""

    @staticmethod
    def check(lang):
        engine, cuts = _route(lang)
        # the spelled route's engine, and its cuts but for twins by row
        want_engine, want_cuts = spelled_route(lang)
        assert engine == want_engine, lang.name
        dropped = [op for op in want_cuts if op not in cuts]
        assert cuts == [op for op in want_cuts if op not in dropped], lang.name
        assert all(twin_by_row(op, lang.operators) for op in dropped), lang.name
        splitter, similarity = in_splitter_class(lang), in_similarity_class(lang)
        assert not (splitter and similarity), lang.name
        if splitter:
            assert engine == "splitter", lang.name
            assert cuts == _splitters(lang.operators), lang.name
        elif similarity:
            assert engine == "similarity", lang.name
            assert cuts == [op for op in lang.operators if op._chain], lang.name
        else:
            assert (engine, cuts) == (None, []), lang.name
        return engine

    def test_presets(self, kpq, tl, kpqr):
        rng = random.Random(61)
        no_labels = KripkeModel(StateSpace(("a", "b")), (0b10, 0b01), ())
        models = [kpq, tl, kpqr, no_labels] + [random_model(rng, 1 + i % 6) for i in range(30)]
        want = {"L1": "splitter", "L2": "splitter", "CTL": "splitter", "L3": "similarity"}
        for model in models:
            for name in PRESET_NAMES:
                engine = self.check(preset_language(name, model))
                assert engine == (want.get(name) if model.label_items else None), name

    def test_languages_of_the_class_tests(self, kpq):
        rng = random.Random(67)
        engines = {"splitter": 0, "similarity": 0, None: 0}
        high = operator_from_expr("F", 12, "pre #1")
        mixed = operator_from_expr("AXEX", 1, "AX EX #1")
        for i in range(40):
            model = kpq if i == 0 else random_model(rng, 1 + i % 7)
            langs, splitter_class = class_languages(rng, model)
            assert [self.check(lang) for lang in langs] == (
                ["splitter"] * splitter_class + ["similarity"] * (len(langs) - splitter_class)
            )
            l1 = preset_language("L1", model)
            full = model.space.full_mask
            m = rng.randrange(full + 1)
            closed_atoms = tuple(
                (name, StateSet(model.space, mask)) for name, mask in (("a", m), ("!a", full & ~m))
            )
            clash = tuple((name, StateSet(model.space, mask)) for name, mask in (("p", m), ("!p", m)))
            file_doc = {"operators": [{"name": "imp", "expr": "!#1 | #2"}, {"name": "EX"}]}
            langs = (
                splitter_class_languages(model)
                + similarity_class_languages(model)
                + [preset_language(n, model) for n in ("L2", "CTL", "exef", "semaforo")]
                + [
                    language_from_ops(model, ["and", "not", "EU", "EX"]),
                    language_from_ops(model, ["and", "not", "AU"]),
                    language_from_json(file_doc, model),
                    LanguageSpec("and-or", closed_atoms, _ops("and", "or")),
                    LanguageSpec("L1+AXEX", l1.atoms, l1.operators + (mixed,)),
                    LanguageSpec("L1+F", l1.atoms, l1.operators + (high,)),
                    LanguageSpec("clash", clash, _ops("and", "or", "AX")),
                ]
                + [
                    language_from_json(doc, model)
                    for doc in (
                        {"preset": "L1", "operators": [{"name": "post"}]},
                        {"preset": "L2", "operators": [{"name": "EX"}]},
                        {"preset": "L1", "atoms": {"p": ["1"]}},
                    )
                ]
            )
            for lang in langs:
                engines[self.check(lang)] += 1
        assert min(engines.values()) >= 100, engines

    def test_seeded_custom_languages(self):
        # random sets of built-ins, composite and mixed chains, atoms that
        # are and are not closed under complement, no atoms, and open
        # languages; one third draws from L3's alphabet, one third has `not`
        # and a join
        rng = random.Random(71)
        composites = [
            operator_from_expr("AXEX", 1, "AX EX #1"),
            operator_from_expr("AXX", 1, "AX AX #1"),
            operator_from_expr("EXX", 1, "EX EX #1"),
            operator_from_expr("imp", 2, "!#1 | #2"),
            operator_from_expr("AX2", 1, "pre~ #1"),
        ]
        names = ["not", "and", "or", "EX", "AX", "pre", "pre~", "post", "post~",
                 "EU", "AU", "ER", "AR", "EF[0,2]", "EF[1,3]"]
        engines = {"splitter": 0, "similarity": 0, None: 0}
        open_langs = 0
        for k in range(600):
            model = random_model(rng, 1 + k % 6)
            full = model.space.full_mask
            if k % 3 == 0:
                ops = _ops(*rng.sample(["and", "or", "AX", "pre~"], rng.randint(2, 4)))
            elif k % 3 == 1:
                picks = ["not", rng.choice(["and", "or"])] + rng.sample(names, rng.randint(0, 3))
                ops = _ops(*dict.fromkeys(picks))
            else:
                ops = _ops(*rng.sample(names, rng.randint(1, 5)))
            if rng.random() < 0.3:
                ops += tuple(rng.sample(composites, rng.randint(1, 2)))
            kind = 1 if k % 3 == 0 and rng.random() < 0.8 else rng.randrange(4)
            masks = [rng.randrange(full + 1) for _ in range(rng.randint(1, 3))]
            if kind == 0:
                atoms = tuple((n, StateSet(model.space, m)) for n, m in model.label_items)
            elif kind == 1:
                atoms = tuple(
                    (f"{sign}a{i}", StateSet(model.space, m if sign == "" else full & ~m))
                    for i, m in enumerate(masks)
                    for sign in ("", "!")
                )
            elif kind == 2:
                atoms = tuple((f"a{i}", StateSet(model.space, m)) for i, m in enumerate(masks))
            else:
                atoms = ()
            is_open = rng.random() < 0.05
            open_langs += is_open
            engines[self.check(LanguageSpec("custom", atoms, ops, is_open))] += 1
        assert open_langs >= 10
        assert engines["splitter"] >= 50 and engines["similarity"] >= 50, engines
        assert engines[None] >= 200, engines

    def test_languages_of_the_resolver_corpus(self):
        # operators of the seeded body corpus of the resolver's test, beside
        # `not`, the joins, the next operators and the fixpoints, over labels
        # or complement-closed atoms; the spelled route is the oracle
        from abspres.errors import AbspresError
        from abspres.formulas import App, Arg
        from abspres.languages import Operator
        from conftest import random_body

        rng = random.Random(38)
        space = StateSpace(tuple("12345"))
        corpus = []
        for k in range(6000):
            arity = rng.choice([0, 1, 1, 1, 2, 2, 3])
            body = random_body(rng, space, rng.randint(0, 4))
            if k % 50 == 0:
                body = App("EU", (Arg(1), Arg(2)))
            try:
                corpus.append(Operator(f"f{k}", arity, body))
            except AbspresError:
                pass
        assert len(corpus) >= 2000
        names = ["not", "and", "or", "EX", "AX", "pre", "pre~", "post", "post~", "EU", "AU", "ER", "AR"]
        engines = {"splitter": 0, "similarity": 0, None: 0}
        for k in range(3000):
            model = random_model(rng, 5)
            if k % 3 == 0:
                ops = _ops(*rng.sample(["and", "or", "AX", "pre~"], rng.randint(2, 4)))
            else:
                ops = _ops(*rng.sample(names, rng.randint(1, 5)))
            ops += tuple(rng.sample(corpus, rng.randint(0, 2)))
            full = model.space.full_mask
            if k % 2:
                atoms = tuple((n, StateSet(model.space, m)) for n, m in model.label_items)
            else:
                m = rng.randrange(full + 1)
                atoms = (("a", StateSet(model.space, m)), ("!a", StateSet(model.space, full & ~m)))
            engines[self.check(LanguageSpec("corpus", atoms, ops))] += 1
        assert min(engines.values()) >= 50, engines

    def test_twins_by_row_cut_by_one_operator(self):
        # a dual chain beside its additive twin spelled with the other name
        # of the same row adds no cut; P_L and the shells are those of the
        # closure route
        from abspres import moore_close

        rng = random.Random(41)
        for names in (["and", "not", "pre", "AX"], ["and", "not", "EX", "pre~"]):
            ops = list(_ops(*names))
            assert _splitters(ops) == [ops[2]], names
            for _ in range(40):
                model = random_model(rng, rng.randint(1, 6))
                lang = language_from_ops(model, names)
                assert _route(lang) == ("splitter", [ops[2]])
                want = pr(moore_close(semantic_closure(lang, model)))
                assert coarsest_sp_partition(lang, model) == want, names
                seed = random_seed(rng, model, rng.randint(1, 3))
                got = forward_complete_shell(seed, ops, model).domain
                assert got == shells._closure_shell(seed, ops, model).domain, names

    def test_a_next_operator_of_arity_2_leaves_the_similarity_route(self, kpq):
        # `AX #1` in an operator of arity 2 is no chain: the spelled route
        # sent L3 with it to the similarity engine, whose quotient test then
        # applied it to one argument and raised; it takes the closure route,
        # with the same A_L, and the quotient check answers
        from abspres import bisim_partition
        from abspres.abstraction import AbstractStructure, paired_semantic_closure, paired_sp_check

        l3 = preset_language("L3", kpq)
        ax2 = operator_from_expr("AX2", 2, "AX #1")
        lang = LanguageSpec("L3-AX2", l3.atoms, _ops("and", "or") + (ax2,))
        assert spelled_route(lang) == ("similarity", [ax2])
        assert _route(lang) == (None, [])
        assert ad_of_language(lang, kpq) == ad_of_language(l3, kpq)
        for p in (bisim_partition(kpq), label_partition(kpq)):
            q = quotient("ee", kpq, p)
            want = paired_semantic_closure(kpq, AbstractStructure.from_quotient(q, lang), lang).verdict
            assert paired_sp_check(kpq, q, lang).verdict == want == paired_sp_check(kpq, q, l3).verdict

    def test_splitters_runs_once_per_partition_and_once_per_block_decided_quotient_check(
        self, kpq, monkeypatch
    ):
        # one _route per coarsest_sp_partition; per quotient check, one in
        # the quotient test, and one more in the ad_of_language of its
        # fallback when P's own blocks do not decide it: the bisimulation
        # quotients are decided on their blocks, the label quotients are not
        from abspres import abstraction, bisim_partition, languages
        from abspres.abstraction import paired_sp_check

        calls, real = [], languages._splitters

        def counting(ops):
            calls.append(ops)
            return real(ops)

        monkeypatch.setattr(languages, "_splitters", counting)
        monkeypatch.setattr(shells, "_splitters", counting)
        for name in ("L1", "L2", "CTL"):
            calls.clear()
            coarsest_sp_partition(preset_language(name, kpq), kpq)
            assert len(calls) == 1, name
        for name in ("L1", "CTL"):
            lang = preset_language(name, kpq)
            for p, want in ((bisim_partition(kpq), 1), (label_partition(kpq), 2)):
                for kind in ("ee", "ae"):
                    calls.clear()
                    paired_sp_check(kpq, quotient(kind, kpq, p), lang)
                    assert len(calls) == want, (name, kind, p)
        # only languages decides a language's engine
        assert not hasattr(abstraction, "_splitters")
        assert not hasattr(languages, "in_splitter_class")
        assert not hasattr(languages, "in_similarity_class")


class TestCapacityRefusals:
    """Moore closures and meets are lazy and answer at any size; listing an
    image is refused exactly when it passes DEFAULT_MAX_FAMILY; the paired
    closure is refused at the pair that passes DEFAULT_MAX_PAIRS; and the
    splitter-route shell of a lazy seed lists no image."""

    def test_moore_closures_and_meets_refuse_past_the_bound(self, monkeypatch):
        space = StateSpace(tuple("abcd"))
        full = space.full_mask
        coatoms = [full & ~(1 << s) for s in range(4)]
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 8)
        # three co-atoms meet to the 8 sets that miss none of the fourth state
        assert len(moore_close(SetFamily.of(space, coatoms[:3]))) == 8
        low = moore_close(SetFamily.of(space, coatoms[:2]))
        high = moore_close(SetFamily.of(space, coatoms[2:]))
        # all four are ℘(Σ): building answers, listing its 16 members refuses
        for dom in (moore_close(SetFamily.of(space, coatoms)), lattice.domain_meet(low, high)):
            assert dom.closure_mask(0b0101) == 0b0101 and dom.contains(0)
            assert pr(dom) == Partition.identity(space)
            assert domain_leq(dom, low) and domain_leq(dom, high)
            with pytest.raises(CapacityError) as info:
                dom.masks
            assert str(info.value) == "image of 4 generators has up to 2^4 members, over DEFAULT_MAX_FAMILY = 8"

    def test_paired_closure_refuses_at_the_bound(self, monkeypatch):
        # the L3 ∃∃ label quotient of an 8-state model needs more than 300
        # pairs; each bound is refused at the pair that passes it, where a
        # check after each round overshot it by up to 82 %
        from abspres import abstraction
        from abspres.abstraction import paired_sp_check

        n = 8
        rng = random.Random(n)
        space = StateSpace(tuple(str(i) for i in range(n)))
        succ = tuple(sum(1 << t for t in rng.sample(range(n), 2)) for _ in range(n))
        model = KripkeModel(space, succ, (("p", rng.randrange(1 << n)), ("q", rng.randrange(1 << n))))
        q = quotient("ee", model, label_partition(model))
        for bound in (50, 100, 300):
            monkeypatch.setattr(abstraction, "DEFAULT_MAX_PAIRS", bound)
            with pytest.raises(CapacityError) as info:
                paired_sp_check(model, q, preset_language("L3", model))
            assert str(info.value) == (
                f"paired closure exceeded DEFAULT_MAX_PAIRS = {bound} (now {bound + 1} pairs)"
            )

    def test_splitter_shell_of_a_lazy_seed(self):
        # add of a chain preorder on 40 states has the 40 nested sets below
        # each state and Σ, 41 members; its shell for {not, EX} is adp of 40
        # singletons, found without listing either
        from abspres import Preorder, add

        rng = random.Random(40)
        n = 40
        space = StateSpace(tuple(str(i) for i in range(n)))
        succ = tuple((1 << rng.randrange(n)) | (1 << rng.randrange(n)) for _ in range(n))
        model = KripkeModel(space, succ, (("p", rng.randrange(1 << n)),))
        chain = Preorder(space, tuple(((1 << n) - 1) & ~((1 << s) - 1) for s in range(n)))
        seed = add(chain)
        result = forward_complete_shell(seed, _ops("not", "EX"), model)
        assert pr(result.domain) == Partition.identity(space)
        assert len(result.domain._gens) == n
        # the seed, adp(pr(seed)), and the engine's one pass, which splits
        # nothing; snapshots are compared by identity, as == lists images
        first, second, third = result.trace.iterations
        assert first is seed and third is second is result.domain
        # the counts are read off the snapshots' sizes, so reading them lists
        # each snapshot's image: the seed's 41, then adp(pr(seed))'s 2^40
        assert len(seed.masks) == 41
        with pytest.raises(CapacityError, match="image of 40 generators"):
            result.trace.new_counts
