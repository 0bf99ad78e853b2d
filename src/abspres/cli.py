"""Command-line surface.

Exit codes: 0 = success / property true, 1 = property false or empty
search result, 2 = usage, validation or input-file error, 3 = internal
error (any other exception, reported in one line without a traceback;
it indicates a bug).  Every command renders one
report object either as text or as JSON ({"command", "result", and
optionally "witness"/"trace"}); the JSON form is the source of truth and
the text form is a rendering of the same content.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .abstraction import completeness_check, eval_abstract, is_sp_domain
from .errors import AbspresError
from .formulas import parse_formula
from .fixtures import BUILTIN_MODELS
from .kripke import (
    KripkeModel,
    block_name,
    load_model,
    model_to_json,
    quotient,
)
from .languages import (
    LanguageSpec,
    builtin_operator,
    eval_concrete,
    label_constants,
    load_language,
)
from .lattice import AbstractDomain, SetFamily, moore_close
from .partitions import Partition, Preorder, adp, is_disjunctive, is_partitioning
from .shells import (
    ad_of_language,
    coarsest_sp_partition,
    forward_complete_shell,
    sp_abstract_kripke_search,
)
from .equivalences import (
    check_bisimulation,
    check_dbs,
    check_simulation,
    equivalence_report,
    largest_simulation,
)
from .kripke import label_partition
from .verify import format_results, run_paper_suite

PROPERTY_FALSE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _family_lists(fam: SetFamily) -> list[list[str]]:
    return [list(fam.space.names_of(m)) for m in fam.masks]


def _partition_lists(p: Partition) -> list[list[str]]:
    return [list(p.space.names_of(b)) for b in p.blocks]


def _render_sets(rows: list[list[str]]) -> str:
    return "\n".join("{" + ",".join(r) + "}" for r in rows)


def _parse_partition(model: KripkeModel, text: str, lang: Optional[LanguageSpec]) -> Partition:
    if text == "computed":
        if lang is None:
            raise AbspresError("--partition computed needs --lang")
        return coarsest_sp_partition(lang, model)
    if text == "labels":
        return label_partition(model)
    blocks = [blk.split(",") for blk in text.split("/") if blk]
    return Partition.of(model.space, blocks)


def _parse_domain(model: KripkeModel, text: str, lang: Optional[LanguageSpec]) -> AbstractDomain:
    """--domain accepts 'computed' (= the language's s.p. domain),
    'adp:<partition>', 'labels' (Moore closure of the label partition) or a
    JSON family file {"sets": [["s", ...], ...]}."""
    if text == "computed":
        if lang is None:
            raise AbspresError("--domain computed needs --lang")
        return ad_of_language(lang, model)
    if text.startswith("adp:"):
        return adp(_parse_partition(model, text[4:], lang))
    if text == "labels":
        return moore_close(label_partition(model).family)
    with open(text, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise AbspresError(f"family file {text}: {exc}") from None
    if not isinstance(doc, dict) or "sets" not in doc:
        raise AbspresError(f"family file {text} must contain a 'sets' list")
    fam = SetFamily.from_names(model.space, doc["sets"])
    return moore_close(fam)


def _parse_relation(model: KripkeModel, text: str) -> Preorder:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise AbspresError(f"bad relation pair {chunk!r} (want 's,t')")
        pairs.append((parts[0], parts[1]))
    return Preorder.from_pairs(model.space, pairs)


def _resolve_model(text: str) -> KripkeModel:
    if text in BUILTIN_MODELS:
        return BUILTIN_MODELS[text]()
    return load_model(text)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _ops_from_names(names: str) -> list:
    # commas inside brackets belong to a bound, as in EF[0,2]
    tokens = re.split(r",(?![^\[]*\])", names)
    return [builtin_operator(tok.strip()) for tok in tokens if tok.strip()]


def cmd_eval(args) -> int:
    model = _resolve_model(args.model)
    lang = load_language(args.lang, model)
    phi = parse_formula(args.formula)
    result = eval_concrete(phi, model, lang)
    payload = {
        "command": "eval",
        "result": list(result.names),
    }
    _emit(args, payload, "{" + ",".join(result.names) + "}")
    return 0


def cmd_abs_eval(args) -> int:
    model = _resolve_model(args.model)
    lang = load_language(args.lang, model)
    domain = _parse_domain(model, args.domain, lang)
    result = eval_abstract(parse_formula(args.formula), domain, model, lang)
    payload = {"command": "abs-eval", "result": list(result.names)}
    _emit(args, payload, "{" + ",".join(result.names) + "}")
    return 0


def cmd_shell(args) -> int:
    model = _resolve_model(args.model)
    lang = load_language(args.lang, model)
    if args.seed == "labels":
        seed = moore_close(label_partition(model).family)
    elif args.seed == "atoms":
        seed = moore_close(SetFamily.of(model.space, [s.mask for _, s in lang.atoms]))
    else:
        seed = _parse_domain(model, args.seed, lang)
    result = forward_complete_shell(seed, list(lang.operators), model)
    fam = result.domain.image
    payload = {"command": "shell", "result": _family_lists(fam)}
    if args.trace:
        payload["trace"] = result.trace.to_json()
    text = _render_sets(payload["result"])
    if args.trace:
        text += "\niterations: " + str(len(result.trace.iterations))
    _emit(args, payload, text)
    return 0


def cmd_sp_domain(args) -> int:
    model = _resolve_model(args.model)
    lang = load_language(args.lang, model)
    dom = ad_of_language(lang, model)
    payload = {"command": "sp-domain", "result": _family_lists(dom.image)}
    _emit(args, payload, _render_sets(payload["result"]))
    return 0


def cmd_sp_partition(args) -> int:
    model = _resolve_model(args.model)
    lang = load_language(args.lang, model)
    p = coarsest_sp_partition(lang, model)
    payload = {"command": "sp-partition", "result": _partition_lists(p)}
    _emit(args, payload, _render_sets(payload["result"]))
    return 0


def cmd_equiv(args) -> int:
    model = _resolve_model(args.model)
    report = equivalence_report(args.kind, model)
    result: dict = {"kind": args.kind, "consistent": report.consistent}
    if report.partition is not None:
        result["partition"] = _partition_lists(report.partition)
        text = _render_sets(result["partition"])
    else:
        result["pairs"] = sorted(report.preorder.pairs())
        text = "\n".join(f"{s} <= {t}" for s, t in result["pairs"])
    payload = {"command": "equiv", "result": result}
    _emit(args, payload, text)
    return 0 if report.consistent else PROPERTY_FALSE


def cmd_check(args) -> int:
    model = _resolve_model(args.model)
    lang = load_language(args.lang, model) if args.lang else None
    prop = args.property
    witness = None

    def need(value, flag):
        if value is None:
            raise AbspresError(f"check --property {prop} needs {flag}")
        return value

    if prop == "sp":
        if lang is None:
            raise AbspresError("check --property sp needs --lang")
        domain = _parse_domain(model, need(args.domain, "--domain"), lang)
        verdict = is_sp_domain(domain, lang, model)
    elif prop in ("bisim", "dbs"):
        p = _parse_partition(model, need(args.partition, "--partition"), lang)
        verdict = check_bisimulation(p, model) if prop == "bisim" else check_dbs(p, model)
    elif prop == "sim":
        if args.relation == "computed":
            r = largest_simulation(model)
        else:
            r = _parse_relation(model, args.relation)
        verdict = check_simulation(r, model)
    elif prop in ("partitioning", "disjunctive"):
        domain = _parse_domain(model, need(args.domain, "--domain"), lang)
        verdict = is_partitioning(domain) if prop == "partitioning" else is_disjunctive(domain)
    elif prop in ("fwd-complete", "bwd-complete"):
        domain = _parse_domain(model, need(args.domain, "--domain"), lang)
        ops = _ops_from_names(args.ops) if args.ops else list(lang.operators if lang else [])
        if args.with_atoms:
            ops = label_constants(model) + ops
        direction = "forward" if prop == "fwd-complete" else "backward"
        report = completeness_check(direction, domain, ops, model)
        verdict = report.holds
        if report.counterexample is not None:
            ce = report.counterexample
            witness = {
                "operator": ce.op,
                "args": [list(a.names) for a in ce.args],
                "lhs": list(ce.lhs.names),
                "rhs": list(ce.rhs.names),
            }
    else:  # pragma: no cover - argparse restricts choices
        raise AbspresError(f"unknown property {prop!r}")
    payload = {"command": "check", "result": bool(verdict)}
    if witness is not None:
        payload["witness"] = witness
    text = ("true" if verdict else "false") + (
        f"\ncounterexample: {witness}" if witness else ""
    )
    _emit(args, payload, text)
    return 0 if verdict else PROPERTY_FALSE


def cmd_search(args) -> int:
    model = _resolve_model(args.model)
    lang = load_language(args.lang, model)
    p = _parse_partition(model, args.partition, lang)
    hits = sp_abstract_kripke_search(p, lang, model, mode=args.mode)
    names = [block_name(model, b) for b in p.blocks]
    rendered = [
        sorted([names[i], names[j]] for i, j in hit) for hit in hits
    ]
    payload = {
        "command": "search-abstract-kripke",
        "result": {"blocks": names, "relations": rendered},
    }
    if hits:
        text = "\n".join(
            "; ".join(f"{a} -> {b}" for a, b in hit) for hit in rendered
        )
    else:
        text = "no strongly preserving abstract relation exists"
    _emit(args, payload, text)
    return 0 if hits else PROPERTY_FALSE


def cmd_quotient(args) -> int:
    model = _resolve_model(args.model)
    p = _parse_partition(model, args.partition, None)
    q = quotient(args.kind, model, p)
    payload = {
        "command": "quotient",
        "result": {"model": model_to_json(q.model), "total": q.total},
    }
    text = json.dumps(model_to_json(q.model), indent=2, sort_keys=True)
    if not q.total:
        text += "\nwarning: abstract relation is not total"
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    if args.suite != "paper":
        raise AbspresError(f"unknown suite {args.suite!r}")
    results = run_paper_suite()
    payload = {
        "command": "verify",
        "result": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    _emit(args, payload, format_results(results))
    return 0 if all(r.ok for r in results) else PROPERTY_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abspres",
        description="Finite-state strong-preservation toolkit: abstract "
        "domains over ℘(Σ), forward-complete shells, strongly preserving "
        "partitions and behavioural equivalences.",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", help="output rendering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lang_default=None, lang_required=False):
        p.add_argument("--model", required=True, help="model file or built-in name")
        if lang_required:
            p.add_argument("--lang", required=True, help="preset name or language file")
        else:
            p.add_argument("--lang", default=lang_default, help="preset name or language file")

    p = sub.add_parser("eval", help="concrete semantics of a formula")
    common(p, lang_default="full")
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("abs-eval", help="abstract semantics over a domain")
    common(p, lang_default="full")
    p.add_argument("--formula", required=True)
    p.add_argument("--domain", required=True)
    p.set_defaults(fn=cmd_abs_eval)

    p = sub.add_parser("shell", help="forward complete shell for the language operators")
    common(p, lang_required=True)
    p.add_argument("--seed", default="atoms", help="atoms | labels | domain spec")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_shell)

    p = sub.add_parser("sp-domain", help="most abstract strongly preserving domain")
    common(p, lang_required=True)
    p.set_defaults(fn=cmd_sp_domain)

    p = sub.add_parser("sp-partition", help="coarsest strongly preserving partition")
    common(p, lang_required=True)
    p.set_defaults(fn=cmd_sp_partition)

    p = sub.add_parser("equiv", help="behavioural equivalence computations")
    common(p)
    p.add_argument("--kind", choices=["bisim", "dbs", "sim", "simeq"], required=True)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("check", help="decide a property")
    common(p)
    p.add_argument(
        "--property",
        choices=[
            "sp",
            "bisim",
            "dbs",
            "sim",
            "partitioning",
            "disjunctive",
            "fwd-complete",
            "bwd-complete",
        ],
        required=True,
    )
    p.add_argument("--domain", help="domain spec (see README)")
    p.add_argument("--partition", help="blocks like '1,2/3/4' or 'computed'/'labels'")
    p.add_argument("--relation", default="computed", help="pairs like 's,t;u,v' or 'computed'")
    p.add_argument("--ops", help="comma-separated built-in operators")
    p.add_argument("--with-atoms", action="store_true", help="include label constants")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "search-abstract-kripke",
        help="enumerate block relations and keep the strongly preserving ones",
    )
    common(p, lang_required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--mode", choices=["all", "first"], default="all")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("quotient", help="block-level quotient model")
    common(p)
    p.add_argument("--kind", choices=["ee", "ae"], required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("verify", help="run a bundled regression suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except AbspresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, UnicodeDecodeError) as exc:  # unreadable input files
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
