"""The bundled worked-example regression suite (CLI: ``verify --suite paper``).

Every check replays one published example computation on the built-in
models and compares against its frozen expected value.  The suite is
deterministic and idempotent; each entry prints one PASS/FAIL line.
"""

from __future__ import annotations

from .abstraction import (
    AbstractStructure,
    bca_apply,
    completeness_check,
    eval_abstract,
    is_sp_domain,
    paired_sp_check,
)
from .fixtures import (
    five_state_nondisjunctive_domain,
    five_state_pq,
    five_state_pqr,
    three_chain,
    traffic_light,
)
from .formulas import parse_formula
from .kripke import KripkeModel, Quotient, label_partition, quotient, transformer, validate_model
from .languages import (
    builtin_operator,
    eval_concrete,
    label_constants,
    language_from_ops,
    preset_language,
)
from .lattice import (
    AbstractDomain, SetFamily, StateSpace, _set_field, _Value, family_of_names, moore_close,
)
from .partitions import Partition, adp, is_disjunctive, is_partitioning, pr
from .shells import (
    ad_of_language,
    coarsest_sp_partition,
    forward_complete_shell,
    semantic_closure,
    sp_abstract_kripke_search,
)
from .equivalences import bisim_partition, check_bisimulation


class CheckResult(_Value):
    _fields = ("name", "ok", "detail")
    name: str
    ok: bool
    detail: str

    def __init__(self, name: str, ok: bool, detail: str):
        _set_field(self, "name", name)
        _set_field(self, "ok", ok)
        _set_field(self, "detail", detail)


def _check(name: str, got: object, want: object) -> CheckResult:
    ok = got == want
    detail = f"got {got!r}" if ok else f"got {got!r}, want {want!r}"
    return CheckResult(name, ok, detail)


def _simple_space():
    return StateSpace.of("1", "2", "3", "4")


def _mu(space, compact):
    return AbstractDomain(space, image=family_of_names(space, compact).masks)


def _mu_family(space):
    """The five sample domains over Σ = {1,2,3,4} that share pr = {12,3,4}."""
    return {
        1: _mu(space, ["", "12", "3", "4", "1234"]),
        2: _mu(space, ["", "12", "3", "4", "34", "1234"]),
        3: _mu(space, ["", "12", "3", "4", "34", "123", "124", "1234"]),
        4: _mu(space, ["12", "123", "124", "1234"]),
        5: _mu(space, ["", "12", "123", "124", "1234"]),
    }


def run_paper_suite() -> list[CheckResult]:
    results: list[CheckResult] = []
    push = results.append

    space4 = _simple_space()
    mus = _mu_family(space4)
    tl = traffic_light()
    kpqr = five_state_pqr()
    kpq = five_state_pq()
    k3 = three_chain()

    # Moore closure of a three-set seed over {1,2,3,4}.
    seed = family_of_names(space4, ["12", "123", "124"])
    push(_check("moore_close seed -> mu4", moore_close(seed), mus[4]))

    # Singleton closures in mu5.
    push(
        _check(
            "mu5 closure of {3}",
            mus[5].closure(space4.set_of(["3"])),
            space4.set_of(["1", "2", "3"]),
        )
    )
    # With {1,2,4} a member of mu5, the least member containing {4} is
    # {1,2,4}; the induced partition is {12,3,4} either way.
    push(
        _check(
            "mu5 closure of {4}",
            mus[5].closure(space4.set_of(["4"])),
            space4.set_of(["1", "2", "4"]),
        )
    )

    # Partition-domain round trips on the four-state sample.
    p123 = Partition.of(space4, [["1", "2"], ["3"], ["4"]])
    push(_check("adp({12,3,4}) = mu3", adp(p123), mus[3]))
    for i in range(1, 6):
        push(_check(f"pr(mu{i}) = {{12,3,4}}", pr(mus[i]), p123))
    push(
        _check(
            "partitioning test singles out mu3",
            tuple(is_partitioning(mus[i]) for i in range(1, 6)),
            (False, False, True, False, False),
        )
    )

    # The seven-member five-state domain is neither partitioning nor disjunctive.
    a7 = five_state_nondisjunctive_domain(kpqr)
    push(_check("seven-member domain not partitioning", is_partitioning(a7), False))
    push(_check("seven-member domain not disjunctive", is_disjunctive(a7), False))

    # The sixteen-member partitioning domain over the five-state space is
    # exactly the unions of the {12,3,4,5} blocks.
    pbis = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
    unions = {0}
    for b in pbis.blocks:
        unions |= {u | b for u in unions}
    push(
        _check(
            "adp({12,3,4,5}) is the 16 block unions",
            adp(pbis).masks,
            frozenset(unions),
        )
    )

    # Model validation and transformers.
    try:
        validate_model(kpq)
        push(CheckResult("five-state model is total", True, "validated"))
    except Exception as exc:  # pragma: no cover
        push(CheckResult("five-state model is total", False, str(exc)))
    push(
        _check(
            "pre of {3,4}",
            transformer("pre", kpqr, kpqr.space.set_of(["3", "4"])),
            kpqr.space.set_of(["1", "2", "3", "5"]),
        )
    )
    push(
        _check(
            "pre of {3}",
            transformer("pre", kpqr, kpqr.space.set_of(["3"])),
            kpqr.space.set_of(["1", "2"]),
        )
    )

    # Concrete evaluation.
    exef = preset_language("exef", kpq)
    semaforo = preset_language("semaforo", tl)
    push(
        _check(
            "bounded reach of q",
            eval_concrete_text("EF[0,2] q", kpq, exef),
            kpq.space.set_of(["3", "4", "5"]),
        )
    )
    push(
        _check(
            "p and bounded reach of q",
            eval_concrete_text("p & EF[0,2] q", kpq, exef),
            kpq.space.set_of(["3", "4"]),
        )
    )
    push(
        _check(
            "AXX go on the traffic light",
            eval_concrete_text("AXX(go)", tl, semaforo),
            tl.space.set_of(["R", "RY"]),
        )
    )

    # Label partition and the existential quotient.
    push(
        _check(
            "label partition of the five-state model",
            label_partition(kpq),
            Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]]),
        )
    )
    q = quotient("ee", kpq, pbis)
    want_edges = {
        ("[1,2]", "[1,2]"),
        ("[1,2]", "[3]"),
        ("[3]", "[4]"),
        ("[4]", "[5]"),
        ("[5]", "[4]"),
    }
    push(_check("existential quotient edges", set(q.model.edges()), want_edges))

    # Best correct approximations.
    ad_semaforo = ad_of_language(semaforo, tl)
    axx = semaforo.operator("AXX")
    stop_set = tl.space.set_of(["R", "RY"])
    go_set = tl.space.set_of(["G", "Y"])
    table = {
        tl.space.empty: tl.space.empty,
        stop_set: go_set,
        go_set: stop_set,
        tl.space.full: tl.space.full,
    }
    got_table = {
        arg: bca_apply(ad_semaforo, axx, [arg], tl) for arg in table
    }
    push(_check("AXX best approximation table", got_table, table))

    p12_3 = Partition.of(k3.space, [["1", "2"], ["3"]])
    dom_k3 = adp(p12_3)
    pre_op = builtin_operator("pre")
    push(
        _check(
            "pre best approximation fixes {1,2}",
            bca_apply(dom_k3, pre_op, [k3.space.set_of(["1", "2"])], k3),
            k3.space.set_of(["1", "2"]),
        )
    )

    # Abstract evaluation over the seven-member domain.
    lang_pqr = language_from_ops(kpqr, ["and", "EX"], name="pq-and-next")
    push(
        _check(
            "abstract EX r evaluates to top",
            eval_abstract(parse_formula("EX r"), a7, kpqr, lang_pqr),
            kpqr.space.full,
        )
    )
    push(
        _check(
            "abstract EX (p & q)",
            eval_abstract(parse_formula("EX (p & q)"), a7, kpqr, lang_pqr),
            kpqr.space.set_of(["1", "2"]),
        )
    )

    # Forward-completeness counterexample on the chain model.
    report = completeness_check("forward", dom_k3, [pre_op], k3)
    ce_ok = (
        not report.holds
        and report.counterexample is not None
        and report.counterexample.args[0].mask == k3.space.mask_of(["3"])
        and report.counterexample.lhs.mask == k3.space.mask_of(["2", "3"])
        and report.counterexample.rhs.mask == k3.space.mask_of(["1", "2", "3"])
    )
    push(
        CheckResult(
            "pre completeness fails on the chain quotient",
            ce_ok,
            f"counterexample {report.counterexample}",
        )
    )

    # Strong-preservation checks.
    push(
        _check(
            "AXX-language domain is s.p. on the traffic light",
            is_sp_domain(ad_semaforo, semaforo, tl),
            True,
        )
    )
    push(
        _check(
            "seven-member domain is not s.p.",
            is_sp_domain(a7, lang_pqr, kpqr),
            False,
        )
    )

    lang_k3 = language_from_ops(k3, ["EX"], name="p-next")
    # the two-block abstract structure [12] -> [3] -> [3] (no [12] loop)
    base_chain = quotient("ee", k3, p12_3)
    i12 = base_chain.model.space.index("[1,2]")
    i3 = base_chain.model.space.index("[3]")
    chain_succ = [0, 0]
    chain_succ[i12] = 1 << i3
    chain_succ[i3] = 1 << i3
    chain_model = KripkeModel(
        base_chain.model.space, tuple(chain_succ), base_chain.model.label_items
    )
    q_chain = Quotient(k3, p12_3, chain_model)
    push(
        _check(
            "chain abstract structure strongly preserves p/EX",
            paired_sp_check(k3, q_chain, lang_k3).verdict,
            "strong",
        )
    )
    push(
        _check(
            "chain best approximation strongly preserves p/EX",
            paired_sp_check(
                k3, AbstractStructure.best_approximation(dom_k3, k3, lang_k3), lang_k3
            ).verdict,
            "strong",
        )
    )

    p_l_tl = Partition.of(tl.space, [["R", "RY"], ["G", "Y"]])
    base_q = quotient("ee", tl, p_l_tl)
    # The candidate abstract relation B1 <-> B2 from the worked example.
    swap_rel = KripkeModel(base_q.model.space, (2, 1), base_q.model.label_items)
    swapped_q = Quotient(tl, p_l_tl, swap_rel)
    verdict = paired_sp_check(tl, swapped_q, semaforo).verdict
    push(
        _check(
            "two-block traffic-light structure is not strong",
            verdict in ("weak-only", "neither") and verdict != "strong",
            True,
        )
    )

    # Shell and language-domain computations.
    seed5 = moore_close(label_partition(kpq).family)
    shell = forward_complete_shell(seed5, [builtin_operator("EF[0,2]")], kpq)
    want_ad = moore_close(
        family_of_names(kpq.space, ["", "5", "34", "345", "1234", "12345"])
    )
    push(_check("bounded-reach shell fixpoint", shell.domain, want_ad))
    push(
        _check(
            "bounded-reach shell converges after one productive step",
            [c > 0 for c in shell.trace.new_counts],
            [True, False],
        )
    )

    closure = semantic_closure(exef, kpq)
    push(
        _check(
            "bounded-reach semantic closure",
            closure.mask_set(),
            family_of_names(
                kpq.space, ["", "5", "34", "345", "1234", "12345"]
            ).mask_set(),
        )
    )
    push(_check("traffic-light language domain", ad_semaforo.masks,
                moore_close(SetFamily.of(tl.space, [stop_set, go_set])).masks))
    push(_check("bounded-reach language domain", ad_of_language(exef, kpq), want_ad))

    push(
        _check(
            "traffic-light s.p. partition",
            coarsest_sp_partition(semaforo, tl),
            p_l_tl,
        )
    )
    p_exef = Partition.of(kpq.space, [["1", "2"], ["3", "4"], ["5"]])
    push(_check("bounded-reach s.p. partition", coarsest_sp_partition(exef, kpq), p_exef))
    l1 = preset_language("L1", kpq)
    # the closure route: coarsest_sp_partition of L1 runs the splitter engine
    # on EX, as bisim_partition does, which the check below compares with pbis
    push(_check("next-logic s.p. partition", pr(moore_close(semantic_closure(l1, kpq))), pbis))

    # A quotient under L1 is shown strong on the generators of A_L; a failing
    # one gets the paired closure's witness, whose two semantics differ.
    l1_tl = preset_language("L1", tl)
    label_q = quotient("ee", tl, label_partition(tl))
    failing = paired_sp_check(tl, label_q, l1_tl)
    separated = failing.witness is not None and (
        AbstractStructure.from_quotient(label_q, l1_tl).semantics(failing.witness)
        != eval_concrete(failing.witness, tl, l1_tl)
    )
    push(
        _check(
            "L1: bisimulation quotient strong, traffic-light label quotient not",
            (paired_sp_check(kpq, q, l1).verdict, failing.verdict, separated),
            ("strong", "neither", True),
        )
    )

    # Abstract-relation searches.
    push(
        _check(
            "no strong relation on the traffic-light blocks",
            sp_abstract_kripke_search(p_l_tl, semaforo, tl),
            [],
        )
    )
    push(
        _check(
            "no strong relation on the bounded-reach blocks",
            sp_abstract_kripke_search(p_exef, exef, kpq),
            [],
        )
    )
    hits = sp_abstract_kripke_search(pbis, l1, kpq)
    push(
        _check(
            "unique strong relation equals the existential quotient",
            (len(hits), hits[0] if hits else None),
            (1, q.model.relation_pairs()),
        )
    )

    # Behavioural equivalences.
    push(_check("bisimulation partition of the five-state model", bisim_partition(kpq), pbis))
    bisim_ops = label_constants(kpq) + [builtin_operator("pre")]
    push(
        _check(
            "computed bisimulation passes both checker routes",
            (
                check_bisimulation(pbis, kpq),
                completeness_check("forward", adp(pbis), bisim_ops, kpq).holds,
            ),
            (True, True),
        )
    )

    return results


def eval_concrete_text(text: str, model, lang):
    return eval_concrete(parse_formula(text), model, lang)


def format_results(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail if not r.ok else ''}".rstrip())
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
