"""The command-line surface: exit codes, output formats, file loading."""

import json
import os

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
        ],
    )
    def test_malformed_language(self, capsys, tmp_path, doc, name):
        path = self.write(tmp_path, doc)
        code, _, err = run(capsys, "sp-partition", "--model", fx("k5.json"), "--lang", path)
        assert code == 2
        assert name in err

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

    def test_exponential_routes_name_their_bound(self, capsys, tmp_path):
        path = self.ring(tmp_path, 40)
        code, _, err = run(capsys, "check", "--model", path, "--property", "partitioning",
                           "--domain", "adp:" + "/".join(f"s{i}" for i in range(40)))
        assert code == 2 and "DEFAULT_MAX_FAMILY" in err

    def test_backward_completeness_is_never_sampled(self, capsys, tmp_path):
        # 2^11 subsets, so 2^22 argument tuples for 'and': over max_tuples,
        # refused before any tuple is tried instead of sampled
        path = self.ring(tmp_path, 11, chords=False)
        identity = "/".join(f"s{i}" for i in range(11))
        code, _, err = run(capsys, "check", "--model", path, "--property", "bwd-complete",
                           "--domain", f"adp:{identity}", "--ops", "and")
        assert code == 2
        assert "backward check for 'and' needs 4194304 tuples, over max_tuples = 1048576" in err
