"""The library's immutable values and what it builds once per process.

Every value class compares, hashes and prints by its compared fields as a
frozen dataclass does, refuses assignment and deletion, and keeps its
constructor signature; built-in and preset operators are shared objects,
and importing the package generates no code.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abspres import languages, top_domain
from abspres.abstraction import (
    AbstractStructure,
    CompletenessCounterexample,
    CompletenessReport,
    GfpTransferReport,
    PairedClosure,
    SpVerdict,
)
from abspres.equivalences import EquivalenceReport, equivalence_report
from abspres.formulas import App, Arg, Atom, Const
from abspres.kripke import KripkeModel, Quotient, label_partition, quotient
from abspres.languages import (
    PRESET_NAMES,
    LanguageSpec,
    Operator,
    builtin_operator,
    preset_language,
)
from abspres.lattice import SetFamily, StateSet, StateSpace
from abspres.partitions import Partition, Preorder
from abspres.shells import ShellResult, ShellTrace
from abspres.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"


def space():
    return StateSpace(("a", "b"))


def model():
    return KripkeModel(space(), (2, 2), (("p", 1),))


def ex():
    return Operator("EX", 1, App("EX", (Arg(1),)))


# class -> (a builder of a fresh value, its compared fields in constructor
# order, the attributes outside the comparison)
VALUES = {
    StateSpace: (space, ("names",), ("_index", "full_mask")),
    StateSet: (lambda: StateSet(space(), 1), ("space", "mask"), ()),
    SetFamily: (lambda: SetFamily(space(), (3, 1)), ("space", "masks"), ()),
    Atom: (lambda: Atom("p"), ("name",), ()),
    Arg: (lambda: Arg(1), ("index",), ()),
    Const: (lambda: Const(StateSet(space(), 1)), ("value",), ()),
    App: (lambda: App("EX", (Atom("p"),)), ("op", "args"), ()),
    Partition: (lambda: Partition(space(), (1, 2)), ("space", "blocks"), ("_meeting",)),
    Preorder: (lambda: Preorder(space(), (3, 2)), ("space", "rows"), ()),
    KripkeModel: (model, ("space", "succ", "label_items"), ("pred",)),
    Quotient: (
        lambda: quotient("ee", model(), label_partition(model())),
        ("parent", "partition", "model"),
        (),
    ),
    Operator: (ex, ("name", "arity", "body"), ("_resolved", "_boolean", "_chain", "_polarity")),
    LanguageSpec: (
        lambda: LanguageSpec("k", (("p", StateSet(space(), 1)),), (ex(),), False),
        ("name", "atoms", "operators", "open_ops"),
        (),
    ),
    ShellTrace: (lambda: ShellTrace((top_domain(space()),)), ("iterations",), ()),
    ShellResult: (
        lambda: ShellResult(top_domain(space()), ShellTrace((top_domain(space()),))),
        ("domain", "trace"),
        (),
    ),
    PairedClosure: (
        lambda: PairedClosure(((1, 1),), (Atom("p"),), False),
        ("pairs", "formulas", "aborted"),
        (),
    ),
    SpVerdict: (lambda: SpVerdict("neither", Atom("p")), ("verdict", "witness"), ()),
    CompletenessCounterexample: (
        lambda: CompletenessCounterexample(
            "EX", (StateSet(space(), 1),), StateSet(space(), 2), StateSet(space(), 3)
        ),
        ("op", "args", "lhs", "rhs"),
        (),
    ),
    CompletenessReport: (
        lambda: CompletenessReport("forward", True, None, 4),
        ("direction", "holds", "counterexample", "checked"),
        (),
    ),
    GfpTransferReport: (
        lambda: GfpTransferReport(True, True, False, None, "vacuous"),
        ("applicable", "gfp_holds", "lfp_checked", "lfp_holds", "detail"),
        (),
    ),
    EquivalenceReport: (
        lambda: EquivalenceReport("bisim", Partition(space(), (1, 2)), None, True),
        ("kind", "partition", "preorder", "consistent"),
        (),
    ),
    CheckResult: (lambda: CheckResult("x", True, "got 1"), ("name", "ok", "detail"), ()),
}

# classes that print themselves in their own notation, not as Class(field=...)
OWN_REPRS = {StateSet, SetFamily, Atom, Arg, Const, App, Partition, Preorder}

CLASSES = list(VALUES)


def fields_of(value, fields):
    return tuple(getattr(value, f) for f in fields)


class TestValueSemantics:
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_equal_fields_give_equal_values(self, cls):
        make, fields, _ = VALUES[cls]
        x, y = make(), make()
        assert type(x) is cls and x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
        assert x != fields_of(x, fields) and x != object()

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_a_different_field_gives_a_different_value(self, cls):
        make, fields, _ = VALUES[cls]
        x = make()
        for i, name in enumerate(fields):
            y = make()
            object.__setattr__(y, name, ("changed", i))
            assert x != y and y != x

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_attributes_outside_the_comparison_are_ignored(self, cls):
        make, fields, derived = VALUES[cls]
        x, y = make(), make()
        for name in derived:
            getattr(y, name)  # set at construction, or cached on first read
            object.__setattr__(y, name, ("other", name))
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_hash_is_the_hash_of_the_compared_fields(self, cls):
        make, fields, _ = VALUES[cls]
        x = make()
        assert hash(x) == hash(fields_of(x, fields))

    @pytest.mark.parametrize("cls", [c for c in CLASSES if c not in OWN_REPRS], ids=lambda c: c.__name__)
    def test_repr_is_the_dataclass_text(self, cls):
        make, fields, _ = VALUES[cls]
        x = make()
        shown = ", ".join(f"{f}={getattr(x, f)!r}" for f in fields)
        assert repr(x) == f"{cls.__qualname__}({shown})"

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        make, fields, derived = VALUES[cls]
        x = make()
        for name in fields + derived + ("unknown",):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(x, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(x, name)
        assert x == make()

    @pytest.mark.parametrize("cls", CLASSES + [AbstractStructure], ids=lambda c: c.__name__)
    def test_constructor_takes_the_compared_fields(self, cls):
        fields = VALUES[cls][1] if cls in VALUES else ("domain", "lang", "atom_values", "apply")
        params = inspect.signature(cls).parameters.values()
        assert tuple(p.name for p in params) == fields
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

    def test_literal_reprs(self):
        assert repr(space()) == "StateSpace(names=('a', 'b'))"
        assert repr(model()) == (
            "KripkeModel(space=StateSpace(names=('a', 'b')), succ=(2, 2), label_items=(('p', 1),))"
        )
        lang = LanguageSpec("k", (("p", StateSet(space(), 1)),))
        assert repr(lang) == "LanguageSpec(name='k', atoms=(('p', {a}),), operators=(), open_ops=False)"
        assert repr(preset_language("L1", model()).operators[2]) == (
            "Operator(name='EX', arity=1, body=EX #1)"
        )
        assert repr(equivalence_report("bisim", model())) == (
            "EquivalenceReport(kind='bisim', partition={{b}, {a}}, preorder=None, consistent=True)"
        )
        assert repr(equivalence_report("sim", model())) == (
            "EquivalenceReport(kind='sim', partition=None, preorder=Preorder(a≤a, a≤b, b≤b), "
            "consistent=True)"
        )

    def test_language_spec_keywords_and_defaults(self):
        atoms = (("p", StateSet(space(), 1)),)
        lang = LanguageSpec(name="k", atoms=atoms)
        assert lang.operators == () and lang.open_ops is False
        assert lang == LanguageSpec("k", atoms, (), False)
        opened = LanguageSpec("k", atoms, open_ops=True)
        assert opened.operators == () and opened.open_ops is True
        assert LanguageSpec(atoms=atoms, operators=(ex(),), name="k").operators == (ex(),)

    def test_abstract_structures_are_equal_only_to_themselves(self):
        m = model()
        lang = preset_language("L1", m)
        domain = top_domain(m.space)
        atoms = {"p": m.space.full_mask}
        x = AbstractStructure(domain, lang, atoms, max)
        y = AbstractStructure(domain, lang, atoms, max)
        assert x == x and x != y and hash(x) == object.__hash__(x)
        assert repr(x) == (
            f"AbstractStructure(domain={domain!r}, lang={lang!r}, atom_values={atoms!r}, "
            f"apply={max!r})"
        )
        with pytest.raises(AttributeError, match="cannot assign to field 'apply'"):
            x.apply = min

    def test_model_checks_run_once_per_construction(self, monkeypatch):
        calls = []
        real = KripkeModel.__post_init__

        def counting(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(KripkeModel, "__post_init__", counting)
        m = model()
        assert calls == [m] and m.pred == (0, 3)
        q = quotient("ee", m, label_partition(m))
        assert calls == [m, q.model]
        KripkeModel.of(["s"], [("s", "s")], {})
        assert len(calls) == 3


class TestStartUp:
    def test_import_generates_no_code(self):
        # -S: no site packages, whose start-up hooks may import anything
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import abspres, abspres.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_builtin_operators_are_shared(self):
        assert builtin_operator("EX") is builtin_operator("EX")
        for name in languages._BUILTIN_TABLE:
            assert builtin_operator(name) is builtin_operator(name)

    def test_preset_operators_are_shared_across_models(self):
        m1 = model()
        m2 = KripkeModel.of(
            ["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")], {"p": ["x"], "q": []}
        )
        for name in PRESET_NAMES:
            ops1 = preset_language(name, m1).operators
            ops2 = preset_language(name, m2).operators
            assert len(ops1) == len(ops2)
            assert all(a is b for a, b in zip(ops1, ops2))
        ex_op = builtin_operator("EX")
        assert preset_language("L1", m1).operators[2] is ex_op
        assert preset_language("full", m2).operator("EX") is ex_op

    def test_bounded_reachability_is_resolved_per_call(self):
        first, second = builtin_operator("EF[1,3]"), builtin_operator("EF[1,3]")
        assert first == second and first is not second
        assert "EF[1,3]" not in languages._BUILTIN_OPERATORS
        full = preset_language("full", model())
        assert full.operator("EF[1,3]") == first and full.operator("EF[1,3]") is not first
