"""The command-line surface: exit codes, output formats, file loading."""

import json
import os
from itertools import product

import pytest

from abspres.cli import main
from abspres.kripke import load_model
from abspres.errors import ValidationError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoading:
    def test_load_fixture_models(self):
        for name in ("tl", "k5", "kf2", "k3"):
            model = load_model(fx(f"{name}.json"))
            assert model.is_total()

    def test_dangling_target_names_the_state(self):
        with pytest.raises(ValidationError, match="'zz'"):
            load_model(fx("bad_target.json"))

    def test_non_total_model_rejected(self):
        with pytest.raises(ValidationError, match="'2'"):
            load_model(fx("stuck.json"))

    def test_cli_maps_load_errors_to_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--model", fx("bad_target.json"), "--formula", "p")
        assert code == 2
        assert "zz" in err
        code, _, _ = run(capsys, "eval", "--model", fx("missing.json"), "--formula", "p")
        assert code == 2


class TestEval:
    def test_bounded_reach(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", fx("k5.json"), "--formula", "EF[0,2] q"
        )
        assert code == 0
        assert out.strip() == "{3,4,5}"

    def test_json_format_matches_text(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "eval",
            "--model",
            fx("k5.json"),
            "--formula",
            "EF[0,2] q",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"command": "eval", "result": ["3", "4", "5"]}

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--model", fx("k5.json"), "--formula", "EF[0,2"
        )
        assert code == 2 and "position" in err
        code, _, err = run(capsys, "eval", "--model", fx("k5.json"), "--formula", "p $ q")
        assert code == 2 and err == "error: unexpected character '$' (at position 2)\n"

    @pytest.mark.parametrize(
        "formula, message",
        [
            ("", "unexpected end of formula"),
            ("(p", "expected ')', found end of formula"),
            ("EF[1,", "expected an integer, found end of formula"),
            ("AU(p", "expected ',', found end of formula"),
        ],
    )
    def test_syntax_error_at_the_end_names_it(self, capsys, formula, message):
        code, _, err = run(capsys, "eval", "--model", fx("k5.json"), "--formula", formula)
        assert code == 2
        assert message in err and "None" not in err

    def test_builtin_model_names(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", "traffic_light", "--lang", "semaforo",
            "--formula", "AXX(go)",
        )
        assert code == 0 and out.strip() == "{R,RY}"


class TestSpCommands:
    def test_sp_partition(self, capsys):
        code, out, _ = run(
            capsys, "sp-partition", "--model", fx("k5.json"), "--lang", "exef"
        )
        assert code == 0
        assert out.split() == ["{5}", "{3,4}", "{1,2}"]

    def test_sp_domain(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "sp-domain",
            "--model",
            fx("k5.json"),
            "--lang",
            "exef",
        )
        assert code == 0
        doc = json.loads(out)
        got = {tuple(s) for s in doc["result"]}
        assert got == {
            (),
            ("5",),
            ("3", "4"),
            ("3", "4", "5"),
            ("1", "2", "3", "4"),
            ("1", "2", "3", "4", "5"),
        }

    def test_abs_eval_on_computed_domain(self, capsys):
        # the s.p. domain of the language evaluates formulas exactly
        code, out, _ = run(
            capsys,
            "abs-eval",
            "--model",
            fx("k5.json"),
            "--lang",
            "exef",
            "--formula",
            "p & EF[0,2] q",
            "--domain",
            "computed",
        )
        assert code == 0 and out.strip() == "{3,4}"

    def test_abs_eval_on_family_file(self, capsys):
        code, out, _ = run(
            capsys,
            "abs-eval",
            "--model",
            fx("kf2.json"),
            "--formula",
            "EX r",
            "--domain",
            fx("seven_family.json"),
        )
        assert code == 0 and out.strip() == "{1,2,3,4,5}"

    def test_shell_seeds_on_the_atoms_by_default(self, capsys):
        # the shell of the atoms for L1's operators is L1's s.p. domain
        model = fx("k5.json")
        code, out, _ = run(capsys, "shell", "--model", model, "--lang", "L1")
        assert code == 0
        assert (0, out) == run(capsys, "sp-domain", "--model", model, "--lang", "L1")[:2]
        assert len(out.split()) == 16

    def test_shell_command_with_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "shell",
            "--model",
            fx("k5.json"),
            "--lang",
            "exef",
            "--seed",
            "labels",
            "--trace",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "result", "trace"}
        assert len(doc["trace"]) >= 2
        assert doc["trace"][-1] == doc["trace"][-2]
        assert ["3", "4", "5"] in doc["result"]


class TestChecks:
    def test_partitioning_property(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("kf2.json"),
            "--property",
            "partitioning",
            "--domain",
            fx("seven_family.json"),
        )
        assert code == 1 and out.strip().startswith("false")
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--property",
            "partitioning",
            "--domain",
            "adp:1,2/3/4/5",
        )
        assert code == 0 and out.strip() == "true"

    def test_bisim_property(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--property",
            "bisim",
            "--partition",
            "1,2/3/4/5",
        )
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--property",
            "bisim",
            "--partition",
            "labels",
        )
        assert code == 1 and out.strip() == "false"

    def test_dbs_property(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--property",
            "dbs",
            "--partition",
            "labels",
        )
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--property",
            "dbs",
            "--partition",
            "1,2,3,4,5",
        )
        assert code == 1 and out.strip() == "false"

    def test_disjunctive_property(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("kf2.json"),
            "--property",
            "disjunctive",
            "--domain",
            fx("seven_family.json"),
        )
        assert code == 1 and out.strip() == "false"

    def test_sp_property(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--lang",
            "exef",
            "--property",
            "sp",
            "--domain",
            "computed",
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--lang",
            "exef",
            "--property",
            "sp",
            "--domain",
            "adp:labels",
        )
        assert code == 1

    def test_fwd_complete_property_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "check",
            "--model",
            fx("k3.json"),
            "--property",
            "fwd-complete",
            "--domain",
            "adp:1,2/3",
            "--ops",
            "pre",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["result"] is False
        assert doc["witness"]["operator"] == "pre"
        assert doc["witness"]["args"] == [["3"]]

    def test_sim_property(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--model",
            fx("k5.json"),
            "--property",
            "sim",
            "--relation",
            "1,1;2,2;3,3;4,4;5,5;1,2",
        )
        assert code == 0 and out.strip() == "true"

    def test_sim_property_checks_the_computed_relation_by_default(self, capsys):
        code, out, _ = run(capsys, "check", "--model", fx("k5.json"), "--property", "sim")
        assert code == 0 and out.strip() == "true"

    @staticmethod
    def cycle(tmp_path):
        """The 3-cycle 1 → 2 → 3 → 1 with p = {1}, which no partition but
        the identity makes complete for EX."""
        path = tmp_path / "cycle.json"
        path.write_text(
            json.dumps(
                {
                    "states": ["1", "2", "3"],
                    "transitions": [["1", "2"], ["2", "3"], ["3", "1"]],
                    "labels": {"p": ["1"]},
                }
            )
        )
        return str(path)

    @pytest.mark.parametrize("prop", ["fwd-complete", "bwd-complete"])
    def test_completeness_needs_a_closed_language(self, capsys, tmp_path, prop):
        # the open language lists no operator, so the check had none and held
        check = ["check", "--model", self.cycle(tmp_path), "--property", prop, "--domain", "labels"]
        code, _, err = run(capsys, *check, "--lang", "full")
        assert code == 2 and "closed language" in err
        # the operators of a closed language are checked
        code, out, _ = run(capsys, *check, "--lang", "L1")
        assert code == 1 and "counterexample" in out
        # --ops names the operators, whatever the language
        code, out, _ = run(capsys, *check, "--lang", "full", "--ops", "EX")
        assert code == 1 and "EX" in out

    def test_completeness_needs_an_operator(self, capsys, tmp_path):
        check = ["check", "--model", self.cycle(tmp_path), "--property", "fwd-complete"]
        code, _, err = run(capsys, *check, "--domain", "labels")
        assert code == 2 and "--ops" in err
        # the label constants alone are operators
        code, out, _ = run(capsys, *check, "--domain", "labels", "--with-atoms")
        assert code == 0 and out.strip() == "true"

    def test_shell_needs_a_closed_language(self, capsys, tmp_path):
        model = self.cycle(tmp_path)
        code, _, err = run(capsys, "shell", "--model", model, "--lang", "full", "--seed", "labels")
        assert code == 2 and "closed language" in err
        code, out, _ = run(capsys, "shell", "--model", model, "--lang", "L1", "--seed", "labels")
        assert code == 0 and len(out.split()) == 8  # ℘(Σ) of the cycle


class TestSearchAndQuotient:
    def test_search_reports_emptiness(self, capsys):
        code, out, _ = run(
            capsys,
            "search-abstract-kripke",
            "--model",
            fx("tl.json"),
            "--lang",
            "semaforo",
            "--partition",
            "computed",
        )
        assert code == 1
        assert "no strongly preserving abstract relation exists" in out

    def test_search_finds_unique_relation(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "search-abstract-kripke",
            "--model",
            fx("k5.json"),
            "--lang",
            "L1",
            "--partition",
            "1,2/3/4/5",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["relations"]) == 1
        assert len(doc["result"]["blocks"]) == 4

    def test_search_on_five_blocks(self, capsys):
        # 2^25 relations, walked row by row with bounds
        code, out, err = run(
            capsys, "--format", "json", "search-abstract-kripke", "--model", fx("k5.json"),
            "--lang", "L1", "--partition", "1/2/3/4/5",
        )
        assert code == 0, err
        assert len(json.loads(out)["result"]["relations"]) == 9

    def test_search_output_matches_per_pair_rendering(self, capsys, tmp_path):
        # oracle: each hit's pairs named and sorted one by one.  exef keeps
        # 1792 of the 2^16 relations on four blocks of k5; the renamed copy
        # lists its blocks against name order
        from abspres.kripke import block_name
        from abspres.languages import load_language
        from abspres.partitions import Partition
        from abspres.shells import sp_abstract_kripke_search

        doc = json.loads(open(fx("k5.json")).read())
        rename = dict(zip(doc["states"], "edcba"))
        doc["states"] = [rename[s] for s in doc["states"]]
        doc["transitions"] = [[rename[s], rename[t]] for s, t in doc["transitions"]]
        doc["labels"] = {k: [rename[s] for s in v] for k, v in doc["labels"].items()}
        renamed = tmp_path / "k5_renamed.json"
        renamed.write_text(json.dumps(doc))
        for path, blocks in ((fx("k5.json"), "1,2/3/4/5"), (str(renamed), "e,d/c/b/a")):
            model = load_model(path)
            lang = load_language("exef", model)
            p = Partition.of(model.space, [b.split(",") for b in blocks.split("/")])
            names = [block_name(model, m) for m in p.blocks]
            rendered = [sorted([names[i], names[j]] for i, j in hit) for hit in sp_abstract_kripke_search(p, lang, model)]
            assert len(rendered) == 1792
            payload = {
                "command": "search-abstract-kripke",
                "result": {"blocks": names, "relations": rendered},
            }
            text = "\n".join("; ".join(f"{a} -> {b}" for a, b in hit) for hit in rendered)
            argv = ("search-abstract-kripke", "--model", path, "--lang", "exef", "--partition", blocks)
            assert run(capsys, *argv) == (0, text + "\n", "")
            want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert run(capsys, "--format", "json", *argv) == (0, want, "")

    def test_search_rejects_open_language(self, capsys):
        code, _, err = run(
            capsys,
            "search-abstract-kripke",
            "--model",
            fx("k5.json"),
            "--lang",
            "full",
            "--partition",
            "labels",
        )
        assert code == 2
        assert "closed language" in err

    def test_quotient(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "quotient",
            "--model",
            fx("k5.json"),
            "--kind",
            "ee",
            "--partition",
            "1,2/3/4/5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["total"] is True
        assert sorted(map(tuple, doc["result"]["model"]["transitions"])) == sorted(
            [
                ("[1,2]", "[1,2]"),
                ("[1,2]", "[3]"),
                ("[3]", "[4]"),
                ("[4]", "[5]"),
                ("[5]", "[4]"),
            ]
        )

    def test_quotient_by_the_computed_partition(self, capsys):
        # --partition computed takes P_L of --lang: for L1 the bisimulation
        # blocks, so the quotient is the one of test_quotient
        argv = ["quotient", "--model", fx("k5.json"), "--kind", "ee", "--partition", "computed"]
        code, out, _ = run(capsys, "--format", "json", *argv, "--lang", "L1")
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["result"]["model"]["states"]) == ["[1,2]", "[3]", "[4]", "[5]"]
        assert len(doc["result"]["model"]["transitions"]) == 5
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "--partition computed needs --lang" in err

    def test_quotient_ae_flags_non_total(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "quotient",
            "--model",
            fx("k5.json"),
            "--kind",
            "ae",
            "--partition",
            "labels",
        )
        assert code == 0
        assert json.loads(out)["result"]["total"] is False


class TestEquivAndVerify:
    def test_equiv_bisim(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "equiv", "--model", fx("k5.json"),
            "--kind", "bisim",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["consistent"] is True
        assert sorted(map(tuple, doc["result"]["partition"])) == [
            ("1", "2"),
            ("3",),
            ("4",),
            ("5",),
        ]

    def test_custom_language_file(self, capsys):
        code, out, _ = run(
            capsys,
            "sp-partition",
            "--model",
            fx("tl.json"),
            "--lang",
            fx("axx_lang.json"),
        )
        assert code == 0
        assert out.split() == ["{G,Y}", "{R,RY}"]

    def test_verify_paper_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 40
        # deterministic and idempotent
        code2, out2, _ = run(capsys, "verify", "--suite", "paper")
        assert (code2, out2) == (code, out)

    def test_verify_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nightly")
        assert code == 2

    def test_usage_error_on_missing_args(self, capsys):
        code, _, _ = run(capsys, "eval", "--model", fx("k5.json"))
        assert code == 2

    def test_check_reports_missing_inputs(self, capsys):
        code, _, err = run(
            capsys, "check", "--model", fx("k5.json"), "--property", "bisim"
        )
        assert code == 2 and "--partition" in err
        code, _, err = run(
            capsys, "check", "--model", fx("k5.json"), "--property", "partitioning"
        )
        assert code == 2 and "--domain" in err
        code, _, err = run(
            capsys, "check", "--model", fx("k5.json"), "--property", "partitioning",
            "--domain", "computed",
        )
        assert code == 2 and err == "error: --domain computed needs --lang\n"
        code, _, err = run(capsys, "check", "--model", fx("k5.json"), "--property", "sp")
        assert code == 2 and err == "error: check --property sp needs --lang\n"


class TestInputErrors:
    MODEL = {"states": ["1", "2"], "transitions": [["1", "2"], ["2", "1"]]}

    @staticmethod
    def write(tmp_path, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"labels": ["p"]}, "'labels'"),
            ({"labels": {"p": "12"}}, "label 'p'"),
            ({"transitions": {"1": "2"}}, "'transitions'"),
            ({"states": "12"}, "'states' must be a list of names"),
            (
                {"transitions": [["1", "2"], ["a"]]},
                "'transitions' entry 1 must be a [source, target] pair, got ['a']",
            ),
        ],
    )
    def test_malformed_model(self, capsys, tmp_path, fields, name):
        path = self.write(tmp_path, dict(self.MODEL, **fields))
        code, _, err = run(capsys, "eval", "--model", path, "--formula", "p")
        assert code == 2
        assert name in err

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"operators": [{"arity": 1, "expr": "pre #1"}]}, "'name'"),
            ({"atoms": {"p": "12"}}, "atom 'p'"),
            ({"operators": [{"name": "F", "arity": "x", "expr": "pre #1"}]}, "'arity'"),
            (
                {"operators": [{"name": "F", "arity": 1, "expr": "foo(#1)"}]},
                "error: operator 'F': unknown built-in operator 'foo'",
            ),
            (
                {"operators": [{"name": "F", "arity": 1, "expr": "p & #1"}]},
                "error: operator 'F': atom 'p'",
            ),
            (
                {"operators": [{"name": "F", "arity": 1, "expr": "or(#1)"}]},
                "error: operator 'F': or expects 2 arguments",
            ),
            ({"operators": [{"name": "F", "arity": 1.9, "expr": "pre #1"}]}, "'arity'"),
            ({"operators": [{"name": "F", "arity": "1", "expr": "pre #1"}]}, "'arity'"),
            ({"operators": [{"name": "F", "arity": True, "expr": "pre #1"}]}, "'arity'"),
            ({"operators": [{"name": "F", "arity": -1, "expr": "pre #1"}]}, "'arity'"),
            # a built-in keeps its own arity
            ({"preset": "L1", "operators": [{"name": "EU", "arity": 7}]}, "'arity'"),
            ({"operators": [{"name": "EX", "arity": 2}]}, "'arity'"),
            ({"operators": [{"name": "EX", "arity": True}]}, "'arity'"),
            ({"operators": [{"name": "EX", "arity": "1"}]}, "'arity'"),
            ({"operators": [{"name": "EX", "arity": -1}]}, "'arity'"),
            # falsy values other than null are not an empty map or list
            ({"atoms": []}, "'atoms'"),
            ({"atoms": False}, "'atoms'"),
            ({"operators": {}}, "'operators'"),
            ({"operators": 0}, "'operators'"),
            ({"operators": [{"name": "F", "expr": 5}]}, "operator 'F' needs a string 'expr'"),
            ({"operators": [{"name": "F", "expr": ["EX #1"]}]}, "operator 'F' needs a string 'expr'"),
            ({"preset": "L9"}, "'preset' must be one of L1, L2, L3, CTL, semaforo, exef, full or null, got 'L9'"),
            ({"atoms": {"zz": None}}, "atom 'zz' is null, but the model has no label 'zz'"),
        ],
    )
    def test_malformed_language(self, capsys, tmp_path, doc, name):
        path = self.write(tmp_path, doc)
        code, _, err = run(capsys, "sp-partition", "--model", fx("k5.json"), "--lang", path)
        assert code == 2
        assert name in err

    @pytest.mark.parametrize(
        "doc", [{"sets": ["12"]}, {"sets": "x"}, {"sets": {"a": 1}}], ids=["string", "text", "map"]
    )
    def test_malformed_family_file(self, capsys, tmp_path, doc):
        # a set is a list of state names, not a string of one-letter names
        path = self.write(tmp_path, doc)
        code, out, err = run(capsys, "check", "--model", fx("k5.json"), "--property",
                             "partitioning", "--domain", path)
        assert (code, out) == (2, "")
        assert "'sets' must be a list of lists of state names" in err

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("model", "[1, 2]", "model file must contain a JSON object"),
            ("model", '{"states": ', "model file {path}: Expecting value"),
            ("language", "[1, 2]", "language file must contain a JSON object"),
            ("language", '{"preset": ', "language file {path}: Expecting value"),
            ("family", '{"sets": ', "family file {path}: Expecting value"),
        ],
        ids=["model-array", "model-cut", "language-array", "language-cut", "family-cut"],
    )
    def test_file_that_is_no_json_object(self, capsys, tmp_path, kind, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = {
            "model": ["sp-partition", "--model", str(path), "--lang", "L1"],
            "language": ["sp-partition", "--model", fx("k5.json"), "--lang", str(path)],
            "family": ["check", "--model", fx("k5.json"), "--property", "partitioning",
                       "--domain", str(path)],
        }[kind]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message.format(path=path))

    def test_malformed_relation_pair(self, capsys):
        code, out, err = run(capsys, "check", "--model", fx("k5.json"), "--property", "sim",
                             "--relation", "1,2;a,b,c")
        assert (code, out) == (2, "")
        assert err == "error: --relation pair 'a,b,c' is not of the form 's,t'\n"

    def test_bad_operator_body_rejected_at_load(self, capsys, tmp_path):
        # the formula uses no operator; the body is still checked
        path = self.write(tmp_path, {"operators": [{"name": "F", "arity": 1, "expr": "foo(#1)"}]})
        code, _, err = run(
            capsys, "eval", "--model", fx("k5.json"), "--lang", path, "--formula", "p"
        )
        assert code == 2
        assert err.startswith("error: operator 'F': ")

    @pytest.mark.parametrize(
        "formula",
        ["!" * 5000 + "p", "(" * 400 + "p" + ")" * 400, " & ".join(["p"] * 3000)],
        ids=["negations", "parentheses", "conjunctions"],
    )
    def test_deep_formula(self, capsys, formula):
        code, _, err = run(capsys, "eval", "--model", fx("k5.json"), "--formula", formula)
        assert code == 2
        assert "deeper than" in err

    def test_repeated_partition_block(self, capsys):
        code, out, err = run(
            capsys, "check", "--model", "five_state_pq", "--property", "bisim",
            "--partition", "1,2/1,2/3/4/5",
        )
        assert (code, out) == (2, "")
        assert "partition block {1,2} is repeated" in err

    def test_unreadable_model_file(self, capsys, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe")
        for path in (str(tmp_path), str(binary)):
            code, _, err = run(capsys, "eval", "--model", path, "--formula", "p")
            assert code == 2
            assert err.startswith("error: ")

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        import abspres.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_eval", broken)
        code, _, err = run(capsys, "eval", "--model", fx("k5.json"), "--formula", "p")
        assert code == 3
        assert err == "internal error: RuntimeError: boom\n"

    def test_ops_keep_bracketed_bounds(self, capsys):
        from abspres.cli import _ops_from_names

        assert [op.name for op in _ops_from_names("EF[0,2],pre")] == ["EF[0,2]", "pre"]
        code, out, _ = run(
            capsys, "check", "--model", fx("k5.json"), "--property", "fwd-complete",
            "--domain", "adp:1/2/3/4/5", "--ops", "EF[0,2],pre",
        )
        assert (code, out.strip()) == (0, "true")

    def test_ops_reject_empty_bound_range(self, capsys):
        code, _, err = run(
            capsys, "check", "--model", fx("k5.json"), "--property", "fwd-complete",
            "--domain", "labels", "--ops", "EF[3,1]",
        )
        assert code == 2
        assert "empty bound range [3,1]" in err

    def test_language_file_rejects_empty_bound_range(self, capsys, tmp_path):
        path = self.write(tmp_path, {"preset": "L1", "operators": [{"name": "EF[3,1]"}]})
        code, _, err = run(capsys, "sp-partition", "--model", fx("k5.json"), "--lang", path)
        assert code == 2
        assert "empty bound range [3,1]" in err

    def test_high_arity_operator_hits_the_stage_bound(self, tmp_path):
        # 5^12 tuples in the second round: refused before any is tried, in a
        # subprocess so that an unbounded closure fails the test, not hangs it
        import subprocess
        import sys

        import abspres

        doc = {"preset": "L1", "operators": [{"name": "F", "arity": 12, "expr": "pre #1"}]}
        path = self.write(tmp_path, doc)
        src = os.path.dirname(os.path.dirname(abspres.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "abspres", "sp-partition", "--model", fx("k5.json"),
             "--lang", path],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 2
        assert "operator 'F' of arity 12 needs 244140625 tuples" in proc.stderr
        assert "over the bound 16777216" in proc.stderr


class TestLargeModels:
    """No global state cap: polynomial commands run on models of any size,
    and exponential routes end in a CapacityError that names their bound."""

    @staticmethod
    def ring(tmp_path, n, chords=True, seed=40):
        import random

        rng = random.Random(seed)
        names = [f"s{i}" for i in range(n)]
        transitions = [[names[i], names[(i + 1) % n]] for i in range(n)]
        if chords:
            transitions += [[names[i], names[rng.randrange(n)]] for i in range(n)]
        labels = {
            "p": [s for s in names if rng.random() < 0.5],
            "q": [s for s in names if rng.random() < 0.3],
        }
        path = tmp_path / f"ring{n}.json"
        path.write_text(json.dumps({"states": names, "transitions": transitions, "labels": labels}))
        return str(path)

    def test_polynomial_commands_on_40_states(self, capsys, tmp_path):
        path = self.ring(tmp_path, 40)
        for kind in ("bisim", "dbs", "sim", "simeq"):
            code, out, err = run(capsys, "--format", "json", "equiv", "--model", path, "--kind", kind)
            assert code == 0, err
            assert json.loads(out)["result"]["consistent"] is True
        code, out, err = run(
            capsys, "--format", "json", "quotient", "--model", path, "--kind", "ee",
            "--partition", "labels",
        )
        assert code == 0, err
        assert json.loads(out)["result"]["total"] is True
        code, out, err = run(capsys, "eval", "--model", path, "--formula", "EX p & q")
        assert code == 0, err
        code, out, err = run(capsys, "sp-partition", "--model", path, "--lang", "exef")
        assert code == 0, err
        blocks = [line.strip("{}").split(",") for line in out.split()]
        assert sorted(s for b in blocks for s in b) == sorted(f"s{i}" for i in range(40))

    @pytest.mark.parametrize(
        "lang, kind", [("L1", "bisim"), ("CTL", "bisim"), ("L2", "dbs"), ("L3", "simeq")]
    )
    def test_preset_sp_partition_is_its_equivalence(self, capsys, tmp_path, lang, kind):
        path = self.ring(tmp_path, 40)
        code, want, err = run(capsys, "equiv", "--model", path, "--kind", kind)
        assert code == 0, err
        code, out, err = run(capsys, "sp-partition", "--model", path, "--lang", lang)
        assert code == 0, err
        assert out == want

    def test_exponential_routes_name_their_bound(self, capsys, tmp_path):
        path = self.ring(tmp_path, 40)
        # the shape test is A ⊑ adp(pr(A)) on the shell's generators, so the
        # 2^40 unions of 40 singletons are never listed
        code, out, err = run(capsys, "check", "--model", path, "--property", "partitioning",
                             "--domain", "adp:" + "/".join(f"s{i}" for i in range(40)))
        assert (code, out.strip()) == (0, "true"), err
        # the presets' domains are adp or add of a refinement, whose 2^b
        # members are refused before they are built
        for lang in ("L1", "L2", "L3", "CTL"):
            code, _, err = run(capsys, "sp-domain", "--model", path, "--lang", lang)
            assert code == 2 and "DEFAULT_MAX_FAMILY" in err, lang
        # a mixed chain keeps L1 out of the splitter class, so its semantic
        # closure is still built, up to the stage bound
        lang_path = tmp_path / "l1_axex.json"
        lang_path.write_text(json.dumps({
            "preset": "L1", "operators": [{"name": "AXEX", "arity": 1, "expr": "AX EX #1"}],
        }))
        code, _, err = run(capsys, "sp-domain", "--model", path, "--lang", str(lang_path))
        assert code == 2 and "MAX_STAGE_TUPLES" in err

    @pytest.mark.parametrize(
        "preset, extra",
        [("L1", "post"), ("L1", "AX"), ("L2", "EX"), ("CTL", "post")],
        ids=["post", "AX", "L2+EX", "CTL+post"],
    )
    def test_class_languages_on_40_states(self, capsys, tmp_path, preset, extra):
        # L1 + post, L1 + AX, L2 + EX and CTL + post are answered by the
        # splitter engine: the partition at once, and the domain refused
        # before its 2^b members
        import time

        from abspres import Partition
        from abspres.languages import apply_operator, language_from_json

        path = self.ring(tmp_path, 40)
        lang_path = tmp_path / f"{preset}_{extra}.json"
        lang_path.write_text(json.dumps({"preset": preset, "operators": [{"name": extra}]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "sp-partition", "--model", path, "--lang", str(lang_path))
        assert code == 0, err
        assert time.perf_counter() - start < 0.5
        start = time.perf_counter()
        code, _, err = run(capsys, "sp-domain", "--model", path, "--lang", str(lang_path))
        assert code == 2 and "DEFAULT_MAX_FAMILY" in err
        assert time.perf_counter() - start < 0.5
        # the printed blocks refine the labels, and every operator maps each
        # block, or pair of blocks, to a union of blocks
        model = load_model(path)
        lang = language_from_json(json.loads(lang_path.read_text()), model)
        p = Partition.of(model.space, [line.strip("{}").split(",") for line in out.split()])
        for _, atom in lang.atoms:
            assert p.block_containing(atom.mask) == atom.mask
        for op in lang.operators:
            if not op._boolean:
                for args in product(p.blocks, repeat=op.arity):
                    image = apply_operator(op, model, args)
                    assert p.block_containing(image) == image

    def test_stuttering_on_400_states(self, capsys, tmp_path):
        # the engine cuts by EU only across edges and the checker tests only
        # those pairs, so each command takes well under a second; over all
        # pairs of the 399 blocks the two took about 40 s.  The engine's worst
        # case, the 1000-state line 0 → 1 → … → 999 → 999 with p on the even
        # states, splits one state off per pass and searches the whole rest
        # each time, and takes about 0.4 s
        import time

        path = self.ring(tmp_path, 400)
        start = time.perf_counter()
        code, out, err = run(capsys, "--format", "json", "equiv", "--model", path, "--kind", "dbs")
        assert code == 0, err
        assert time.perf_counter() - start < 5
        result = json.loads(out)["result"]
        assert result["consistent"] is True and len(result["partition"]) == 399
        start = time.perf_counter()
        code, out, err = run(capsys, "--format", "json", "sp-partition", "--model", path,
                             "--lang", "L2")
        assert code == 0, err
        assert time.perf_counter() - start < 5
        assert json.loads(out)["result"] == result["partition"]
        names = [f"s{i}" for i in range(1000)]
        line = tmp_path / "line1000.json"
        line.write_text(json.dumps({
            "states": names,
            "transitions": [[s, t] for s, t in zip(names, names[1:] + names[-1:])],
            "labels": {"p": names[::2]},
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, "--format", "json", "equiv", "--model", str(line),
                             "--kind", "dbs")
        assert code == 0, err
        assert time.perf_counter() - start < 5
        result = json.loads(out)["result"]
        assert result["consistent"] is True and len(result["partition"]) == 1000

    def test_equivalences_on_1000_states(self, capsys, tmp_path):
        # the transformers OR the rows of their argument's members and the
        # checkers walk the members of rows, so no kind loops over every
        # state inside a per-pair loop: all four take about 0.4 s together
        path = self.ring(tmp_path, 1000)
        for kind in ("bisim", "dbs", "sim", "simeq"):
            code, out, err = run(capsys, "--format", "json", "equiv", "--model", path, "--kind", kind)
            assert code == 0, err
            assert json.loads(out)["result"]["consistent"] is True, kind

    def test_checks_and_quotients_on_10000_states(self):
        # the stuttering checker tests the pairs of blocks an edge joins,
        # each by one backward search; preorders walk and transpose their
        # rows; the quotient reads block rows off one state → block index.
        # At n = 10^4 these took 50, 20, 13, 13 and 36 s, over 2 min in all,
        # through a b² block loop, n² scans and a scan of every block per state
        import random
        import time

        from abspres import (
            KripkeModel, Partition, Preorder, StateSpace, check_dbs, dbs_partition, quotient,
        )

        n = 10_000
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        ring = KripkeModel(space, tuple(1 << (i + 1) % n for i in range(n)), (("p", 1),))
        # the family: two distinct successors per state, random labels p and q
        rng = random.Random(n)
        succ = tuple(sum(1 << t for t in rng.sample(range(n), 2)) for _ in range(n))
        labels = (("p", rng.randrange(1 << n)), ("q", rng.randrange(1 << n)))
        family = KripkeModel(space, succ, labels)
        identity = Partition.identity(space)
        start = time.perf_counter()
        p = dbs_partition(ring)
        assert len(p) == 2 and check_dbs(p, ring)
        assert check_dbs(identity, family)
        r = Preorder.from_partition(identity)
        assert r.pairs() == {(s, s) for s in space.names}
        assert r.kernel() == identity
        q = quotient("ee", family, identity).model
        # block [s] of the identity quotient is state s
        assert set(q.edges()) == {(f"[{s}]", f"[{t}]") for s, t in family.edges()}
        for (name, got), (_, want) in zip(q.label_items, family.label_items):
            assert set(q.space.names_of(got)) == {f"[{s}]" for s in space.names_of(want)}, name
        assert time.perf_counter() - start < 5

    def test_refinements_on_10000_states(self, capsys, tmp_path):
        # the splitter engine keeps its state → block index across passes,
        # walks each cut block by block and cuts stuttering by one entries
        # search per target block: bisimulation and stuttering on the 10^4
        # family take about 0.2 s and 0.5 s, and took 46 s and 145 s with
        # each cut tried on every block and one search per pair of joined
        # blocks; L1 and L2 on the 4000-state ring take 0.05 s and 0.1 s in
        # process, and took 3.2 s and 11 s
        import random
        import time

        from abspres import (
            KripkeModel, StateSpace, bisim_partition, check_bisimulation, check_dbs,
            dbs_partition,
        )

        n = 10_000
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        rng = random.Random(n)
        succ = tuple(sum(1 << t for t in rng.sample(range(n), 2)) for _ in range(n))
        labels = (("p", rng.randrange(1 << n)), ("q", rng.randrange(1 << n)))
        family = KripkeModel(space, succ, labels)
        for refine, check in ((bisim_partition, check_bisimulation), (dbs_partition, check_dbs)):
            start = time.perf_counter()
            assert check(refine(family), family), refine.__name__
            assert time.perf_counter() - start < 3, refine.__name__
        path = self.ring(tmp_path, 4000)
        for lang, blocks in (("L1", 4000), ("L2", 3997)):
            start = time.perf_counter()
            code, out, err = run(capsys, "sp-partition", "--model", path, "--lang", lang)
            assert code == 0, err
            assert time.perf_counter() - start < 2, lang
            assert len(out.split()) == blocks, lang

    def test_quotient_checks_on_4000_states(self):
        # the bisimulation's blocks are label unions and pre-stable, so its
        # quotients agree with EX on them and are shown strong on the blocks,
        # each reached through the partition's state → block index: the L1
        # and CTL checks of the ∃∃ and ∀∃ quotients on the 4000-state family
        # take about 0.04 s each, and took 11–20 s through a second splitter
        # run, A_L's generators and a scan of every block per inner.  L3 cuts
        # by AX on each Σ∖B, so inner and union must read the smaller side
        # of a near-full argument: 0.06 s, and 8–19 s when either does not
        import random
        import time

        from abspres import (
            KripkeModel, StateSpace, bisim_partition, paired_sp_check, preset_language, quotient,
        )

        n = 4000
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        rng = random.Random(n)
        succ = tuple(sum(1 << t for t in rng.sample(range(n), 2)) for _ in range(n))
        labels = (("p", rng.randrange(1 << n)), ("q", rng.randrange(1 << n)))
        family = KripkeModel(space, succ, labels)
        p = bisim_partition(family)
        for kind in ("ee", "ae"):
            q = quotient(kind, family, p)
            for name in ("L1", "CTL", "L3"):
                lang = preset_language(name, family)
                start = time.perf_counter()
                assert paired_sp_check(family, q, lang).verdict == "strong", (kind, name)
                assert time.perf_counter() - start < 1, (kind, name)

    def test_relations_checked_by_rows(self):
        # the simulation checker tests one row inclusion per state, the
        # preorder test R(R(s)) ⊆ R(s) per row, and refines each block
        # against the block holding its lowest state: the bisimulation report
        # on the 2000-state unlabeled ring, from_pairs and refines at 4000
        # states take about 0.01 s each, and took 5.3 s, 2.3 s and 2.8 s
        # over every related pair, by Warshall's closure and by block pairs
        import time

        from abspres import KripkeModel, Partition, Preorder, StateSpace, equivalence_report

        n = 2000
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        ring = KripkeModel(space, tuple(1 << (i + 1) % n for i in range(n)), ())
        start = time.perf_counter()
        report = equivalence_report("bisim", ring)
        assert report.consistent and len(report.partition) == 1
        assert time.perf_counter() - start < 1
        space = StateSpace(tuple(f"s{i}" for i in range(4000)))
        start = time.perf_counter()
        r = Preorder.from_pairs(space, [("s0", "s1")])
        assert time.perf_counter() - start < 0.5
        assert r.pairs() == {(s, s) for s in space.names} | {("s0", "s1")}
        p, q = Partition.identity(space), Partition.identity(space)
        start = time.perf_counter()
        assert p.refines(q)
        assert time.perf_counter() - start < 0.5

    def test_partitions_read_off_generators(self, capsys, tmp_path):
        # pr groups the states by the generators that hold them, and the
        # shape tests are A ⊑ shell(A) on the shell's generators: the L3
        # partition of 4000 states and pr of 10^4 singleton blocks took
        # 8.4 s and 118 s through a closure per state, and both
        # shape checks at 1000 states refused the 2^1000-set image; preord_of
        # reads its rows off the generators' complements, where a closure
        # per state took 13.5 s (L3) and 12.2 s (identity blocks) at 4000
        import time

        from abspres import Partition, StateSpace, adp, pr, preord_of, preset_language
        from abspres.shells import ad_of_language

        path = self.ring(tmp_path, 4000)
        start = time.perf_counter()
        code, out, err = run(capsys, "sp-partition", "--model", path, "--lang", "L3")
        assert code == 0, err
        assert len(out.split()) == 4000
        assert time.perf_counter() - start < 2
        model = load_model(path)
        for domain in (ad_of_language(preset_language("L3", model), model),
                       adp(Partition.identity(model.space))):
            start = time.perf_counter()
            r = preord_of(domain)
            assert time.perf_counter() - start < 0.1
            assert r.kernel() == pr(domain)
        space = StateSpace(tuple(f"s{i}" for i in range(10_000)))
        identity = Partition.identity(space)
        start = time.perf_counter()
        assert pr(adp(identity)) == identity
        assert time.perf_counter() - start < 0.5
        path = self.ring(tmp_path, 1000)
        for prop, domain, lang in (("partitioning", "adp:computed", "L1"),
                                   ("disjunctive", "computed", "L3")):
            start = time.perf_counter()
            code, out, err = run(capsys, "check", "--model", path, "--lang", lang,
                                 "--property", prop, "--domain", domain)
            assert (code, out.strip()) == (0, "true"), (prop, err)
            assert time.perf_counter() - start < 3, prop

    def test_sp_check_on_class_languages(self, capsys, tmp_path):
        # A ⊑ A_L is tested on A_L's generators, one per block of P_L or
        # class of the similarity, so no closure of S over ℘(Σ) is built:
        # that closure took 10 s and more at 12 states and stopped at
        # MAX_STAGE_TUPLES from 40 on
        import time

        from abspres import Partition
        from abspres.kripke import label_partition

        for n in (40, 200):
            path = self.ring(tmp_path, n)
            labels = label_partition(load_model(path))
            for lang in ("L1", "L3", "CTL"):
                code, out, err = run(capsys, "sp-partition", "--model", path, "--lang", lang)
                assert code == 0, err
                # the labels do not refine P_L, so adp(labels) is not strong
                p_l = Partition.of(labels.space, [line.strip("{}").split(",") for line in out.split()])
                assert not labels.refines(p_l)
                for domain, want in (("computed", (0, "true")), ("adp:labels", (1, "false"))):
                    start = time.perf_counter()
                    code, out, err = run(capsys, "check", "--model", path, "--lang", lang,
                                         "--property", "sp", "--domain", domain)
                    assert (code, out.strip()) == want, (n, lang, domain, err)
                    assert time.perf_counter() - start < 5, (n, lang, domain)

    def test_strong_l3_quotient_check(self, tmp_path):
        # the ∃∃ quotient by simulation equivalence is strong under L3, and
        # the test on A_L's generators shows it in well under a second; the
        # full paired closure it replaces took 6.2 s on the 10-state ring
        # and stopped at MAX_STAGE_TUPLES on the 40-state one
        import time

        from abspres import paired_sp_check, preset_language, quotient, simeq_partition

        for n in (40, 200):
            model = load_model(self.ring(tmp_path, n))
            lang = preset_language("L3", model)
            start = time.perf_counter()
            verdict = paired_sp_check(model, quotient("ee", model, simeq_partition(model)), lang)
            assert verdict.verdict == "strong", n
            assert time.perf_counter() - start < 1, n

    def test_ctl_cuts_as_l1_does(self, tmp_path, monkeypatch):
        # AX(Σ∖B) = Σ∖EX(B), so CTL's AX makes its twin EX's cut and the
        # splitter engine applies EX alone, as for L1
        from abspres import shells
        from abspres.languages import apply_operator, preset_language
        from abspres.shells import coarsest_sp_partition

        model = load_model(self.ring(tmp_path, 40))
        calls = []

        def counting(op, m, args):
            calls.append(op.name)
            return apply_operator(op, m, args)

        monkeypatch.setattr(shells, "apply_operator", counting)
        l1 = coarsest_sp_partition(preset_language("L1", model), model)
        l1_calls = calls[:]
        calls.clear()
        assert coarsest_sp_partition(preset_language("CTL", model), model) == l1
        assert calls == l1_calls == ["EX"] * 58

    def test_preset_sp_domain_is_the_unions_of_its_blocks(self, capsys, tmp_path):
        path = self.ring(tmp_path, 16)
        code, blocks, err = run(capsys, "equiv", "--model", path, "--kind", "bisim")
        assert code == 0, err
        masks = [frozenset(line.strip("{}").split(",")) for line in blocks.split()]
        code, out, err = run(capsys, "sp-domain", "--model", path, "--lang", "L1")
        assert code == 0, err
        got = [frozenset(line.strip("{}").split(",")) - {""} for line in out.split()]
        unions = {frozenset()}
        for b in masks:
            unions |= {u | b for u in unions}
        assert len(got) == len(unions) == 2 ** len(masks)
        assert set(got) == unions

    def test_backward_completeness_is_never_sampled(self, capsys, tmp_path):
        # 2^11 subsets, so 2^22 argument tuples for 'and': over DEFAULT_MAX_TUPLES,
        # refused before any tuple is tried instead of sampled
        path = self.ring(tmp_path, 11, chords=False)
        identity = "/".join(f"s{i}" for i in range(11))
        code, _, err = run(capsys, "check", "--model", path, "--property", "bwd-complete",
                           "--domain", f"adp:{identity}", "--ops", "and")
        assert code == 2
        assert "backward check for 'and' needs 4194304 tuples, over DEFAULT_MAX_TUPLES = 1048576" in err


class TestCapacityRefusals:
    """A --domain family file is the lazy Moore closure of its sets: checks
    that read generators answer at any size, and listing its image is
    refused only when the image passes DEFAULT_MAX_FAMILY."""

    @staticmethod
    def co_atoms(tmp_path, n):
        """An n-state ring and a family file of its n co-atoms, whose Moore
        closure is all 2^n subsets."""
        names = [f"s{i}" for i in range(n)]
        model = tmp_path / f"ring{n}.json"
        model.write_text(json.dumps({
            "states": names,
            "transitions": [[names[i], names[(i + 1) % n]] for i in range(n)],
            "labels": {"p": [names[0]]},
        }))
        family = tmp_path / f"co-atoms{n}.json"
        family.write_text(json.dumps({"sets": [[t for t in names if t != s] for s in names]}))
        return str(model), str(family)

    @staticmethod
    def subprocess_run(*argv):
        """Run the CLI in a subprocess, so its memory goes with it; returns
        the process and its wall time."""
        import subprocess
        import sys
        import time

        import abspres

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(abspres.__file__)))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "abspres", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        return proc, time.perf_counter() - start

    def test_family_file_under_a_patched_bound(self, capsys, tmp_path, monkeypatch):
        from abspres import lattice

        model, family = self.co_atoms(tmp_path, 4)
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 8)
        # the shape checks read generators, so the 16-member image is never listed
        for prop in ("partitioning", "disjunctive"):
            argv = ("check", "--property", prop, "--model", model, "--domain", family)
            assert run(capsys, *argv)[:2] == (0, "true\n"), prop
        # the completeness check lists the image: four disjoint co-atom
        # complements meet in 2^4 ways, refused before anything is built
        argv = ("check", "--property", "fwd-complete", "--ops", "pre", "--model", model, "--domain", family)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "image of 4 generators has up to 2^4 members, over DEFAULT_MAX_FAMILY = 8" in err
        # at a bound of 16 the image is listed, and ℘(Σ) is complete
        monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", 16)
        assert run(capsys, *argv)[:2] == (0, "true\n")

    def test_co_atoms_of_22_states(self, tmp_path):
        # the Moore closure of 22 co-atoms is 2^22 sets: listed at about
        # 560 MB before the closure was bounded, then refused at 2^21 sets
        # after about a second; now never built for the shape checks
        model, family = self.co_atoms(tmp_path, 22)
        for prop in ("partitioning", "disjunctive"):
            proc, seconds = self.subprocess_run(
                "check", "--property", prop, "--model", model, "--domain", family)
            assert (proc.returncode, proc.stdout) == (0, "true\n"), (prop, proc.stderr)
            assert seconds < 1, prop
        proc, seconds = self.subprocess_run(
            "check", "--property", "fwd-complete", "--ops", "pre", "--model", model, "--domain", family)
        assert proc.returncode == 2
        assert ("image of 22 generators has up to 2^22 members, "
                "over DEFAULT_MAX_FAMILY = 1048576") in proc.stderr
        assert seconds < 1

    def test_sp_domain_of_a_25_state_chain(self, capsys, tmp_path):
        # L3 on a chain where state i steps to every j < i: A_L is add of the
        # similarity, 25 generators whose complements overlap and whose image
        # has 50 sets, not 2^25
        n = 25
        names = [str(i) for i in range(n)]
        path = tmp_path / "chain25.json"
        path.write_text(json.dumps({
            "states": names,
            "transitions": [["0", "0"]] + [[names[i], names[j]] for i in range(n) for j in range(i)],
            "labels": {"p": ["0"]},
        }))
        code, out, err = run(capsys, "--format", "json", "sp-domain", "--lang", "L3", "--model", str(path))
        assert code == 0, err
        assert len(json.loads(out)["result"]) == 50


class TestBenchmarkNames:
    """The benchmark's tracer wraps library names it finds by name, so a
    deleted or renamed one must fail here, not only under ``bench/``."""

    PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")

    def test_instrumented_names_resolve(self):
        import ast
        import importlib

        if not os.path.exists(self.PATH):
            pytest.skip("no bench/ beside the tests")
        with open(self.PATH, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        (node,) = [
            n for n in tree.body
            if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["INSTRUMENTED"]
        ]
        instrumented = ast.literal_eval(node.value)
        assert instrumented
        for layer, name, _ in instrumented:
            module = importlib.import_module(f"abspres.{layer}")
            if name.startswith("KripkeModel."):
                assert name.split(".", 1)[1] in vars(module.KripkeModel), name
            else:
                assert callable(getattr(module, name, None)), (layer, name)


    def test_result_counts_read_real_results(self, kpq):
        # the tracer reads fields of some results (RESULT_COUNTS): each entry
        # is applied to a real result of the library function it names
        import importlib
        import types

        from abspres import AbstractStructure, builtin_operator, preset_language, top_domain
        from abspres.equivalences import bisim_partition

        if not os.path.exists(self.PATH):
            pytest.skip("no bench/ beside the tests")
        tracing = types.ModuleType("tracing")
        with open(self.PATH, encoding="utf-8") as handle:
            exec(compile(handle.read(), self.PATH, "exec"), vars(tracing))
        layers = {name: layer for layer, name, _ in tracing.INSTRUMENTED}
        l1 = preset_language("L1", kpq)
        ex = [builtin_operator("EX")]
        top = top_domain(kpq.space)
        calls = {
            "semantic_closure": (l1, kpq),
            "forward_complete_shell": (top, ex, kpq),
            "sp_abstract_kripke_search": (bisim_partition(kpq), l1, kpq),
            "paired_semantic_closure": (kpq, AbstractStructure.best_approximation(top, kpq, l1), l1),
            "completeness_check": ("forward", top, ex, kpq),
            "_split_once": ([kpq.space.full_mask], [0] * kpq.n, [kpq.label_mask("p")], set()),
        }
        assert tracing.RESULT_COUNTS and set(tracing.RESULT_COUNTS) <= set(calls)
        for name, count in tracing.RESULT_COUNTS.items():
            fn = getattr(importlib.import_module(f"abspres.{layers[name]}"), name)
            counts = count(fn(*calls[name]))
            assert counts, name
            for key, value in counts.items():
                assert type(value) is int, (name, key, value)


class TestReadme:
    """The README's command lines and library example run as documented."""

    PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

    @classmethod
    def fenced(cls, language):
        """The bodies of the README's fenced blocks opened with ```<language>."""
        import re

        with open(cls.PATH, encoding="utf-8") as handle:
            text = handle.read()
        blocks = re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)
        return [body for lang, body in blocks if lang == language]

    def test_command_lines(self, capsys):
        import shlex

        lines = [
            line for block in self.fenced("") for line in block.splitlines()
            if line.startswith("abspres ")
        ]
        assert len(lines) >= 10
        for line in lines:
            # model files named in the README are the test fixtures
            argv = [fx(a) if a.endswith(".json") else a for a in shlex.split(line)[1:]]
            code, _, err = run(capsys, *argv)
            assert code in (0, 1), (line, err)
            assert "internal error" not in err, line

    def test_capacity_bounds_are_bound_once(self):
        # each bound the Capacity section names is an int set in its own
        # module and copied into no other, so setting it there raises it
        import importlib
        import pkgutil
        import re

        import abspres

        with open(self.PATH, encoding="utf-8") as handle:
            section = handle.read().split("## Capacity", 1)[1].split("\n## ", 1)[0]
        bounds = set(re.findall(r"`abspres\.(\w+)\.([A-Z_]+)`", section))
        assert len(bounds) >= 6
        modules = {
            info.name: importlib.import_module(f"abspres.{info.name}")
            for info in pkgutil.iter_modules(abspres.__path__)
            if info.name != "__main__"
        }
        for home, name in bounds:
            assert isinstance(vars(modules[home])[name], int), (home, name)
            copies = [m for m, mod in modules.items() if m != home and name in vars(mod)]
            assert not copies and name not in vars(abspres), (name, copies)

    def test_duals_are_built_in_one_place(self):
        # the built-in table makes every dual from pre and post, so no
        # module but kripke defines or calls cpre/cpost (kripke keeps them
        # for callers); and the parser's keywords are the table's names
        import ast
        import pkgutil

        import abspres
        from abspres.formulas import BINARY_KEYWORDS, UNARY_KEYWORDS
        from abspres.languages import _BUILTIN_TABLE

        src = os.path.dirname(abspres.__file__)
        for info in pkgutil.iter_modules([src]):
            if info.name == "kripke":
                continue
            with open(os.path.join(src, f"{info.name}.py"), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            uses = [
                node.lineno
                for node in ast.walk(tree)
                if getattr(node, "name", None) in ("cpre", "cpost")
                or getattr(node, "attr", None) in ("cpre", "cpost")
                or getattr(node, "id", None) in ("cpre", "cpost")
            ]
            assert not uses, (info.name, uses)
        assert set(_BUILTIN_TABLE) == {"not", "and", "or", *UNARY_KEYWORDS, *BINARY_KEYWORDS}

    def test_operator_bodies_are_read_in_one_place(self):
        # an operator's routing facts are recorded when its body is resolved,
        # so no library function but these reads `.body`: the constructor,
        # the resolver and the language-file decoder (a built-in's body)
        import ast
        import pkgutil

        import abspres

        allowed = {("languages", "Operator.__init__"), ("languages", "_resolve_body"),
                   ("languages", "language_from_json")}
        src = os.path.dirname(abspres.__file__)
        reads = []

        def visit(node, module, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Attribute) and node.attr == "body":
                if not any(scope == name or scope.startswith(name + ".") for m, name in allowed if m == module):
                    reads.append((module, scope, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, module, scope)

        for info in pkgutil.iter_modules([src]):
            with open(os.path.join(src, f"{info.name}.py"), encoding="utf-8") as handle:
                visit(ast.parse(handle.read()), info.name, "")
        assert not reads, reads

    def test_library_example(self, capsys):
        (example,) = self.fenced("python")
        exec(compile(example, self.PATH, "exec"), {})
        want = [
            line.split("#", 1)[1].strip()
            for line in example.splitlines() if line.startswith("print(")
        ]
        assert capsys.readouterr().out.splitlines() == want
