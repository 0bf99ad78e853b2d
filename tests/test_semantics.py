"""Formula parsing, language specs and concrete evaluation."""

import random

import pytest

from abspres import (
    AbstractDomain,
    FormulaSyntaxError,
    KripkeModel,
    Partition,
    Preorder,
    ResolutionError,
    SetFamily,
    StateSpace,
    ValidationError,
    eval_concrete,
    language_from_json,
    language_from_ops,
    parse_formula,
    parse_transformer,
    preset_language,
)
from abspres.formulas import MAX_DEPTH, App, Arg, Atom, Const, max_placeholder
from abspres.languages import (
    Operator,
    apply_operator,
    builtin_operator,
    gfp,
    lfp,
    operator_from_expr,
    until_mask,
)
from abspres.lattice import StateSet
from abspres.shells import _BlockBatch

from conftest import (
    brute_greatest_fixpoint,
    brute_least_fixpoint,
    eu_path_oracle,
    random_model,
    random_total_model,
)


class TestParser:
    def test_next_conjunction(self):
        assert parse_formula("EX (p & q)") == App(
            "EX", (App("and", (Atom("p"), Atom("q"))),)
        )

    def test_bounded_reach(self):
        assert parse_formula("EF[0,2] q") == App("EF[0,2]", (Atom("q"),))

    def test_until_with_negation(self):
        assert parse_formula("EU(p, !q)") == App(
            "EU", (Atom("p"), App("not", (Atom("q"),)))
        )

    def test_precedence(self):
        # ! binds tighter than &, & tighter than |
        assert parse_formula("!p & q | r") == App(
            "or",
            (App("and", (App("not", (Atom("p"),)), Atom("q"))), Atom("r")),
        )
        # unary temporal operators bind tighter than &
        assert parse_formula("EX p & q") == App(
            "and", (App("EX", (Atom("p"),)), Atom("q"))
        )
        assert parse_formula("!EX p") == App("not", (App("EX", (Atom("p"),)),))

    def test_custom_operator_call(self):
        assert parse_formula("AXX(go)") == App("AXX", (Atom("go"),))
        assert parse_formula("f(p, q, r)") == App("f", (Atom("p"), Atom("q"), Atom("r")))

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("EX (p &")
        assert err.value.position >= 6
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p q")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("EF[2,0] p")

    @pytest.mark.parametrize(
        "parse, text, message, position",
        [
            (parse_formula, "p $ q", "unexpected character '$'", 2),
            (parse_formula, "p   \t$", "unexpected character '$'", 5),
            (parse_transformer, "pre #1 ?", "unexpected character '?'", 7),
            (parse_transformer, "pre #0", "placeholder indices are 1-based", 4),
            (parse_formula, "p & )", "unexpected token ')'", 4),
        ],
        ids=["character", "after-blanks", "transformer", "placeholder-zero", "token"],
    )
    def test_syntax_error_names_the_character_at_its_position(self, parse, text, message, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_trailing_blanks_parse(self):
        assert parse_formula("EX p  \t\n") == parse_formula("EX p")
        assert parse_transformer(" pre #1 ") == App("pre", (Arg(1),))

    def test_placeholders_rejected_in_formulas(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("EX #1")

    def test_repr_round_trips(self):
        texts = [
            "EX (p & q)",
            "EF[0,2] q",
            "EU(p, !q)",
            "!p & q | r",
            "AXX(go)",
            "AX (p | EX q)",
            "f(p, EU(q, r))",
        ]
        for text in texts:
            phi = parse_formula(text)
            assert parse_formula(repr(phi)) == phi

    @pytest.mark.parametrize(
        "make",
        [
            lambda d: "!" * d + "p",
            lambda d: " & ".join(["p"] * (d + 1)),
            lambda d: "EU(p, " * d + "q" + ")" * d,
            lambda d: "EX (" * d + "p" + ")" * d,
        ],
        ids=["negations", "conjunctions", "until", "next"],
    )
    def test_depth_bound(self, kpq, make):
        phi = parse_formula(make(MAX_DEPTH))
        assert parse_formula(repr(phi)) == phi
        eval_concrete(phi, kpq, preset_language("full", kpq))
        assert max_placeholder(phi) == 0
        with pytest.raises(FormulaSyntaxError, match="deeper than"):
            parse_formula(make(MAX_DEPTH + 1))

    def test_parentheses_bound_the_text_not_the_tree(self):
        deep = 2 * MAX_DEPTH
        assert parse_formula("(" * deep + "p" + ")" * deep) == Atom("p")
        with pytest.raises(FormulaSyntaxError, match="deeper than") as err:
            parse_formula("(" * (deep + 1) + "p" + ")" * (deep + 1))
        assert err.value.position == deep

    def test_transformer_placeholders(self):
        assert parse_transformer("AX AX #1") == App(
            "AX", (App("AX", (Arg(1),)),)
        )
        assert parse_transformer("pre~ #1 & post #2") == App(
            "and", (App("pre~", (Arg(1),)), App("post", (Arg(2),)))
        )


class TestConcreteEvaluation:
    def test_bounded_reach_of_q(self, kpq):
        lang = preset_language("exef", kpq)
        got = eval_concrete(parse_formula("EF[0,2] q"), kpq, lang)
        assert got == kpq.space.set_of(["3", "4", "5"])
        got = eval_concrete(parse_formula("p & EF[0,2] q"), kpq, lang)
        assert got == kpq.space.set_of(["3", "4"])

    def test_axx_on_traffic_light(self, tl):
        lang = preset_language("semaforo", tl)
        assert eval_concrete(parse_formula("AXX(go)"), tl, lang) == tl.space.set_of(
            ["R", "RY"]
        )
        assert eval_concrete(parse_formula("AXX(stop)"), tl, lang) == tl.space.set_of(
            ["G", "Y"]
        )

    def test_unknown_atom_and_operator(self, kpq):
        lang = preset_language("exef", kpq)
        with pytest.raises(ResolutionError):
            eval_concrete(parse_formula("zz"), kpq, lang)
        with pytest.raises(ResolutionError):
            eval_concrete(parse_formula("EX p"), kpq, lang)  # exef has no EX

    def test_wrong_argument_count_is_refused(self, kpq):
        p = kpq.label_mask("p")
        with pytest.raises(ValidationError, match="EU expects 2 arguments, got 1"):
            apply_operator(builtin_operator("EU"), kpq, (p,))
        with pytest.raises(ValidationError, match="not expects 1 arguments, got 2"):
            apply_operator(builtin_operator("not"), kpq, (p, p))

    def test_full_language_resolves_builtins(self, kpq):
        lang = preset_language("full", kpq)
        got = eval_concrete(parse_formula("AU(p, q)"), kpq, lang)
        # on every path p holds until q: states 3,4 funnel into 5, and 5 is q
        assert got == kpq.space.set_of(["3", "4", "5"])

    def test_negated_atom_resolution_in_l3(self, kpq):
        lang = preset_language("L3", kpq)
        got = eval_concrete(parse_formula("AX !p"), kpq, lang)
        assert got == kpq.space.set_of(["4"])

    def test_bounded_reach_is_iterated_pre(self, kpq):
        # oracle: the union of pre^i(S) over i in [lo, hi], one step at a
        # time; rings make pre^i(S) cycle with periods above 1
        rng = random.Random(41)
        cases = [(kpq, kpq.label_mask("q"))]
        for n in (3, 5):
            ring = KripkeModel(
                StateSpace(tuple(str(i) for i in range(n + 1))),
                tuple(1 << ((i + 1) % n) for i in range(n)) + (1,),
                (),
            )
            cases.append((ring, 1))
        for _ in range(25):
            model = random_total_model(rng, max_states=6)
            cases.append((model, rng.randrange(1 << model.n)))
        for model, s in cases:
            steps = [s]
            for _ in range(40):
                steps.append(model.pre(steps[-1]))
            for hi in range(41):
                for lo in range(hi + 1):
                    op = builtin_operator(f"EF[{lo},{hi}]")
                    want = 0
                    for m in steps[lo : hi + 1]:
                        want |= m
                    assert apply_operator(op, model, (s,)) == want, (lo, hi)

    def test_huge_reach_bounds_return_at_once(self, kpq, monkeypatch):
        ring = KripkeModel(StateSpace.of("a", "b", "c"), (0b010, 0b100, 0b001), (("p", 1),))
        calls = []
        pre = KripkeModel.pre

        def counted(model, y):
            calls.append(y)
            assert len(calls) < 100, "EF bound iterated step by step"
            return pre(model, y)

        monkeypatch.setattr(KripkeModel, "pre", counted)
        lang = preset_language("full", ring)
        # pre^i({a}) cycles {a}, {c}, {b}; 99999999 is divisible by 3
        got = eval_concrete(parse_formula("EF[0,99999999] p"), ring, lang)
        assert got.names == ("a", "b", "c")
        got = eval_concrete(parse_formula("EF[99999998,99999999] p"), ring, lang)
        assert got.names == ("a", "b")
        # from i = 3 on, pre^i({5}) alternates {1,2,4} and {1,2,3,5}
        lang = preset_language("full", kpq)
        got = eval_concrete(parse_formula("EF[99999999,99999999] q"), kpq, lang)
        assert got.names == ("1", "2", "4")
        got = eval_concrete(parse_formula("EF[99999998,99999999] q"), kpq, lang)
        assert got.names == ("1", "2", "3", "4", "5")


    def test_bounded_reach_stops_at_hi(self, monkeypatch):
        # a path 0 → 1 → … → 7, 7 a dead state: pre^i({7}) = {7 - i} never
        # repeats for i ≤ 7, so EF[lo,hi] calls pre once for each of
        # pre^1 … pre^hi, and never for pre^(hi+1)
        n = 8
        path = KripkeModel(
            StateSpace(tuple(str(i) for i in range(n))),
            tuple(1 << (i + 1) for i in range(n - 1)) + (0,),
            (),
        )
        calls = []
        pre = KripkeModel.pre

        def counted(model, y):
            calls.append(y)
            return pre(model, y)

        monkeypatch.setattr(KripkeModel, "pre", counted)
        for hi in range(n):
            for lo in range(hi + 1):
                calls.clear()
                got = apply_operator(builtin_operator(f"EF[{lo},{hi}]"), path, (1 << (n - 1),))
                assert got == ((1 << (hi - lo + 1)) - 1) << (n - 1 - hi), (lo, hi)
                assert len(calls) == hi, (lo, hi)

    def test_bounded_reach_stops_once_nothing_is_added(self, monkeypatch):
        # an 8-cycle with S = every state but 0: pre(S) = every state but
        # 7, so S ∪ pre(S) = Σ after one step and the next step adds
        # nothing, while the sets pre^i(S) first repeat after 8 steps
        n = 8
        cycle = KripkeModel(
            StateSpace(tuple(str(i) for i in range(n))),
            tuple(1 << ((i + 1) % n) for i in range(n)),
            (),
        )
        calls = []
        pre = KripkeModel.pre

        def counted(model, y):
            calls.append(y)
            return pre(model, y)

        monkeypatch.setattr(KripkeModel, "pre", counted)
        s = cycle.space.full_mask & ~1
        got = apply_operator(builtin_operator(f"EF[0,{n - 1}]"), cycle, (s,))
        assert got == cycle.space.full_mask
        assert len(calls) == 2


class TestFixpointOracles:
    def test_until_release_against_subset_scan(self):
        rng = random.Random(97)
        const_rng = random.Random(98)  # leaves the draws of rng as they were
        # composite bodies, resolved once when the operator is built
        swapped = operator_from_expr("S", 2, "EU(#2, #1)")
        twice = operator_from_expr("D", 1, "#1 & #1")
        nested = operator_from_expr("N", 2, "AX (#1 & !EX #2)")
        for _ in range(15):
            model = random_total_model(rng, max_states=4)
            n = model.n
            full = model.space.full_mask
            for _ in range(6):
                s1 = rng.randrange(1 << n)
                s2 = rng.randrange(1 << n)
                eu = apply_operator(builtin_operator("EU"), model, (s1, s2))
                au = apply_operator(builtin_operator("AU"), model, (s1, s2))
                er = apply_operator(builtin_operator("ER"), model, (s1, s2))
                ar = apply_operator(builtin_operator("AR"), model, (s1, s2))
                assert eu == brute_least_fixpoint(
                    lambda z: s2 | (s1 & model.pre(z)), n
                )
                assert au == brute_least_fixpoint(
                    lambda z: s2 | (s1 & model.cpre(z)), n
                )
                assert er == brute_greatest_fixpoint(
                    lambda z: s2 & (s1 | model.pre(z)), n
                )
                assert ar == brute_greatest_fixpoint(
                    lambda z: s2 & (s1 | model.cpre(z)), n
                )
                c = const_rng.randrange(1 << n)
                const = Operator("C", 1, App("or", (Arg(1), Const(StateSet(model.space, c)))))
                assert apply_operator(swapped, model, (s1, s2)) == brute_least_fixpoint(
                    lambda z: s1 | (s2 & model.pre(z)), n
                )
                assert apply_operator(twice, model, (s1,)) == s1
                assert apply_operator(nested, model, (s1, s2)) == model.cpre(
                    s1 & full & ~model.pre(s2)
                )
                assert apply_operator(const, model, (s1,)) == s1 | c

    def test_until_against_path_enumeration(self, kpq, tl, k3):
        rng = random.Random(11)
        models = [kpq, tl, k3] + [random_total_model(rng, max_states=5) for _ in range(10)]
        # models with stuck states, drawn apart so the draws of rng stay as they were
        stuck_rng = random.Random(12)
        for _ in range(10):
            model = random_total_model(stuck_rng, max_states=6)
            succ = list(model.succ)
            for s in stuck_rng.sample(range(model.n), stuck_rng.randint(1, model.n)):
                succ[s] = 0
            models.append(KripkeModel(model.space, tuple(succ), model.label_items))
        op = builtin_operator("EU")
        overlapping = 0
        for model in models:
            n = model.n
            for _ in range(8):
                s1 = rng.randrange(1 << n)
                s2 = rng.randrange(1 << n)
                overlapping += bool(s1 & s2)
                assert apply_operator(op, model, (s1, s2)) == eu_path_oracle(
                    model, s1, s2
                )
        assert sum(not m.is_total() for m in models) == 10
        assert overlapping >= 40

    def test_until_search_is_the_kleene_iteration(self):
        # the frontier search against the fixpoint of EU's definition, on
        # models with stuck states and S1, S2 that overlap, and slice by
        # slice on the packed masks of a relation-search batch
        rng = random.Random(23)

        def kleene(model, s1, s2):
            return lfp(lambda z: s2 | (s1 & model.pre(z)), 0)

        for i in range(60):
            n = 1 + i % 30
            full = (1 << n) - 1
            succ = [rng.randrange(full + 1) & rng.randrange(full + 1) for _ in range(n)]
            for s in rng.sample(range(n), rng.randint(0, n // 3)):
                succ[s] = 0
            model = KripkeModel(StateSpace(tuple(map(str, range(n)))), tuple(succ), ())
            for _ in range(10):
                s1, s2 = rng.randrange(full + 1), rng.randrange(full + 1)
                for args in ((s1, s2), (s1, s1 & s2), (s1 | s2, s2), (full, s2), (s1, 0)):
                    assert until_mask(model, *args) == kleene(model, *args), (model, args)
        for b, width in ((2, 3), (3, 16), (5, 64)):
            top = 1 << (b * width)
            batch = _BlockBatch(width, [rng.randrange(top) for _ in range(b)])
            for _ in range(40):
                s1, s2 = rng.randrange(top), rng.randrange(top)
                for args in ((s1, s2), (s1, s1 & s2), (s1 | s2, s2)):
                    assert until_mask(batch, *args) == kleene(batch, *args)

    def test_builtins_are_their_fixpoint_definitions(self):
        # every row of the table against its definition by pre and post, the
        # unary duals as ¬f¬ and AU, ER and AR as Kleene iterations, not by
        # De Morgan: on models with stuck states (where AX also matches
        # kripke's own cpre) and slice by slice on relation-search batches
        from abspres.languages import _BUILTIN_TABLE

        def definitions(model):
            full = model.space.full_mask
            pre, post = model.pre, model.post

            def ax(a):
                return full & ~pre(full & ~a)

            return {
                "not": lambda a: full & ~a,
                "and": lambda a, b: a & b,
                "or": lambda a, b: a | b,
                "EX": pre,
                "pre": pre,
                "post": post,
                "AX": ax,
                "pre~": ax,
                "post~": lambda a: full & ~post(full & ~a),
                "EU": lambda a, b: lfp(lambda z: b | (a & pre(z)), 0),
                "AU": lambda a, b: lfp(lambda z: b | (a & ax(z)), 0),
                "ER": lambda a, b: gfp(lambda z: b & (a | pre(z)), full),
                "AR": lambda a, b: gfp(lambda z: b & (a | ax(z)), full),
            }

        def check(model, draw):
            want = definitions(model)
            assert set(want) == set(_BUILTIN_TABLE)
            for _ in range(10):
                args = (draw(), draw())
                for name, row in _BUILTIN_TABLE.items():
                    got = apply_operator(builtin_operator(name), model, args[: row.arity])
                    assert got == want[name](*args[: row.arity]), (name, model, args)

        rng = random.Random(43)
        stuck = 0
        for i in range(60):
            model = random_model(rng, 1 + i % 8)
            stuck += not model.is_total()
            full = model.space.full_mask
            check(model, lambda: rng.randrange(full + 1))
            s = rng.randrange(full + 1)
            assert apply_operator(builtin_operator("AX"), model, (s,)) == model.cpre(s)
            assert apply_operator(builtin_operator("post~"), model, (s,)) == model.cpost(s)
        assert stuck >= 10
        for b, width in ((2, 3), (3, 16), (5, 64)):
            top = 1 << (b * width)
            batch = _BlockBatch(width, [rng.randrange(top) for _ in range(b)])
            check(batch, lambda: rng.randrange(top))

    def test_bounded_until_is_the_cut_kleene_iteration(self):
        # k steps of the search are k steps of z ↦ S2 ∪ (S1 ∩ pre z) from
        # z = S2, for every k up to past the fixpoint, and with no bound the
        # search is EU by paths
        rng = random.Random(37)
        for _ in range(40):
            model = random_total_model(rng, max_states=6)
            n = model.n
            for _ in range(6):
                s1, s2 = rng.randrange(1 << n), rng.randrange(1 << n)
                z = s2
                for k in range(n + 2):
                    assert until_mask(model, s1, s2, k) == z, (model, s1, s2, k)
                    z = s2 | (s1 & model.pre(z))
                assert until_mask(model, s1, s2) == eu_path_oracle(model, s1, s2)

    def test_builtins_read_only_full_mask_pre_and_post(self):
        # every built-in, the duals and fixpoints included, on an object
        # that has nothing but space.full_mask, pre and post, delegating to
        # a KripkeModel: the values are the model's, dead states included
        from types import SimpleNamespace

        from abspres.formulas import BINARY_KEYWORDS, UNARY_KEYWORDS

        names = ("not", "and", "or") + UNARY_KEYWORDS + BINARY_KEYWORDS + ("EF[1,3]",)
        ops = [builtin_operator(name) for name in names]
        rng = random.Random(41)
        dead = 0
        for i in range(60):
            model = random_model(rng, 1 + i % 6)
            dead += not model.is_total()
            full = model.space.full_mask
            thin = SimpleNamespace(
                space=SimpleNamespace(full_mask=full), pre=model.pre, post=model.post
            )
            for _ in range(4):
                args = (rng.randrange(full + 1), rng.randrange(full + 1))
                for op in ops:
                    got = apply_operator(op, thin, args[: op.arity])
                    assert got == apply_operator(op, model, args[: op.arity]), (op.name, model)
        assert len(ops) == 14 and dead >= 5


class TestLanguageSpecs:
    def test_preset_operator_sets(self, kpq):
        assert {op.name for op in preset_language("L1", kpq).operators} == {
            "and",
            "not",
            "EX",
        }
        assert {op.name for op in preset_language("CTL", kpq).operators} == {
            "and",
            "not",
            "AX",
            "EX",
            "AU",
            "EU",
            "AR",
            "ER",
        }
        l3 = preset_language("L3", kpq)
        assert {name for name, _ in l3.atoms} == {"p", "q", "!p", "!q"}

    def test_operator_arity_validation(self):
        with pytest.raises(ValidationError):
            operator_from_expr("bad", 1, "#1 & #2")

    def test_language_file_with_preset_extension(self, tl):
        doc = {
            "preset": "L1",
            "operators": [{"name": "AXX", "arity": 1, "expr": "AX AX #1"}],
        }
        lang = language_from_json(doc, tl)
        assert lang.has_operator("AXX") and lang.has_operator("EX")
        got = eval_concrete(parse_formula("AXX(go)"), tl, lang)
        assert got == tl.space.set_of(["R", "RY"])

    def test_language_file_atoms(self, kpq):
        doc = {
            "atoms": {"p": None, "top": ["1", "2", "3", "4", "5"]},
            "operators": [{"name": "EX"}, {"name": "EU", "arity": 2}],
        }
        lang = language_from_json(doc, kpq)
        assert lang.atom_mask("p") == kpq.label_mask("p")
        assert lang.atom_mask("top") == kpq.space.full_mask
        assert lang.has_operator("EX") and not lang.has_operator("AX")
        assert lang.operator("EU").arity == 2
        # null stands for no atoms or no operators
        lang = language_from_json({"preset": "L1", "atoms": None, "operators": None}, kpq)
        assert lang == preset_language("L1", kpq)
        assert language_from_json({"atoms": None}, kpq).atoms == ()

    def test_custom_language_from_ops(self, kpqr):
        lang = language_from_ops(kpqr, ["and", "EX"], name="pq-next")
        got = eval_concrete(parse_formula("EX r"), kpqr, lang)
        assert got == kpqr.space.set_of(["3", "5"])
        got = eval_concrete(parse_formula("EX (p & q)"), kpqr, lang)
        assert got == kpqr.space.set_of(["1", "2"])


# case: (error, words of its message, the refused call on the five-state model)
REFUSALS = {
    "lfp-not-ascending": (ValidationError, "lfp iteration is not ascending", lambda m: lfp(lambda z: z ^ 1, 0)),
    "unknown-builtin": (ResolutionError, "unknown built-in operator 'nope'", lambda m: builtin_operator("nope")),
    "placeholder-formula": (
        ResolutionError,
        "placeholders are not state formulae",
        lambda m: eval_concrete(parse_transformer("#1"), m, preset_language("L1", m)),
    ),
    "unknown-preset": (ValidationError, "unknown language preset 'nope'", lambda m: preset_language("nope", m)),
    "negative-mask": (ValidationError, "mask -0x1 is not over", lambda m: StateSet(m.space, -1)),
    "mask-past-space": (ValidationError, "mask 0x20 is not over", lambda m: StateSet(m.space, 1 << 5)),
    # a bare mask given where a set is read is refused as StateSet refuses it
    "domain-mask-past-space": (
        ValidationError,
        "mask 0xf is not over ('a', 'b', 'c')",
        lambda m: AbstractDomain(StateSpace.of("a", "b", "c"), image=[7, 15]),
    ),
    "family-mask-past-space": (
        ValidationError,
        "mask 0x20 is not over ('a', 'b', 'c')",
        lambda m: SetFamily.of(StateSpace.of("a", "b", "c"), [7, 32]),
    ),
    "family-negative-mask": (
        ValidationError, "mask -0x2 is not over", lambda m: SetFamily.of(m.space, [1, -2])
    ),
    "closure-of-mask-past-space": (
        ValidationError,
        "mask 0x20 is not over",
        lambda m: AbstractDomain(m.space, image=[m.space.full_mask]).closure_mask(1 << 5),
    ),
    "partition-mask-past-space": (
        ValidationError, "mask 0x3f is not over", lambda m: Partition.of(m.space, [0b111111])
    ),
    "gamma-of-non-member": (
        ValidationError,
        "{1} is not a member of the domain image",
        lambda m: AbstractDomain(m.space, image=[m.space.full_mask, 0b11]).gamma(StateSet(m.space, 1)),
    ),
    "preorder-rows": (
        ValidationError,
        "relation matrix width does not match the space",
        lambda m: Preorder(m.space, (m.space.full_mask,) * 4),
    ),
    "unknown-label": (ValidationError, "unknown label 'nope'", lambda m: m.label_mask("nope")),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_what_is_refused(case, kpq):
    # library calls that refuse their input raise a typed error whose
    # message names what is refused
    error, message, call = REFUSALS[case]
    with pytest.raises(error) as info:
        call(kpq)
    assert type(info.value) is error
    assert message in str(info.value)
