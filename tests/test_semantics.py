"""Formula parsing, language specs and concrete evaluation."""

import random

import pytest

from abspres import (
    FormulaSyntaxError,
    KripkeModel,
    ResolutionError,
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
from abspres.languages import Operator, apply_operator, builtin_operator, operator_from_expr
from abspres.lattice import StateSet

from conftest import (
    brute_greatest_fixpoint,
    brute_least_fixpoint,
    eu_path_oracle,
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
        op = builtin_operator("EU")
        for model in models:
            n = model.n
            for _ in range(8):
                s1 = rng.randrange(1 << n)
                s2 = rng.randrange(1 << n)
                assert apply_operator(op, model, (s1, s2)) == eu_path_oracle(
                    model, s1, s2
                )


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
            "operators": [{"name": "EX"}],
        }
        lang = language_from_json(doc, kpq)
        assert lang.atom_mask("p") == kpq.label_mask("p")
        assert lang.atom_mask("top") == kpq.space.full_mask
        assert lang.has_operator("EX") and not lang.has_operator("AX")

    def test_custom_language_from_ops(self, kpqr):
        lang = language_from_ops(kpqr, ["and", "EX"], name="pq-next")
        got = eval_concrete(parse_formula("EX r"), kpqr, lang)
        assert got == kpqr.space.set_of(["3", "5"])
        got = eval_concrete(parse_formula("EX (p & q)"), kpqr, lang)
        assert got == kpqr.space.set_of(["1", "2"])
