"""Seeded workload corpora and the library calls each job makes.

A corpus is plain data (ints, strings, lists) drawn from ``random.Random``
seeded with the workload name and the seed, so the same seed always gives
the same corpus and its digest proves it.  Only :func:`build_jobs` touches
the library: it turns the plain data into ``KripkeModel``, ``LanguageSpec``
and ``Partition`` objects and binds one call per job.  The oracle reads the
same plain data and never imports the library; the sp-closure and
relation-search generators use its answers to spread their draws over
their distribution.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle

WHY = {
    "sp-closure": (
        "the jobs a CLI user runs on small models: all three worklist closures "
        "and apply_operator sit on the blocking path, and computing an "
        "abstraction runs beside verifying one"
    ),
    "refine": (
        "naive splitter refinement and the kripke transformers at the 24-state "
        "cap with no closure engine, so a closure change should leave it flat"
    ),
    "relation-search": (
        "2^(b^2) candidate relations, each a fresh block model and a tiny "
        "paired closure that aborts early, so per-call set-up cost shows"
    ),
}

SP_LANGUAGES = ("L1", "L2", "L3", "exef", "semaforo")
EQUIV_KINDS = ("bisim", "dbs", "sim", "simeq")
REFINE_KINDS = ("bisim", "dbs", "sim", "simeq_kernel")
SEARCH_LANGUAGES = ("L1", "exef", "semaforo")

#: Seconds of a run given to each pass of a corpus.  A run of S seconds
#: makes round(S / this) passes, a number that stays the same however fast
#: the code under test is.  At 30 s that is one pass of sp-closure, seven of
#: refine and two of relation-search, which on the seed code (Python 3.11,
#: 2-vCPU x86-64 Xeon VM) take 25-55 s with set-up and checking.
PASS_SECONDS = {"sp-closure": 22.0, "refine": 4.5, "relation-search": 15.0}

SP_CLOSURE_MODELS = 24
#: Reference draws per sp-closure model (see _like_reference).
RANKED_DRAWS = 75
REFINE_MODELS = 270
SEARCH_MODELS = 108
#: Reference draws per b=3 search.
SEARCH_DRAWS = 4
#: A pass runs each b=3 search this many times, spread over the pass, so a
#: short search is averaged over more samples than one of the b=4 ones.
SEARCH_REPEATS = 3

# Built-in models (the same data as abspres.fixtures) for the b=4 searches.
TRAFFIC_LIGHT = {
    "names": ["R", "RY", "G", "Y"],
    "succ": [0b0010, 0b0100, 0b1000, 0b0001],
    "labels": [["stop", 0b0011], ["go", 0b1100]],
}
FIVE_STATE_PQR = {
    "names": ["1", "2", "3", "4", "5"],
    "succ": [0b00110, 0b00110, 0b01000, 0b10000, 0b01000],
    "labels": [["p", 0b00111], ["q", 0b10100], ["r", 0b01000]],
}
BUILTIN_SEARCHES = (
    (TRAFFIC_LIGHT, [0b0001, 0b0010, 0b0100, 0b1000], "L1"),
    (FIVE_STATE_PQR, [0b00011, 0b00100, 0b01000, 0b10000], "exef"),
)


def random_model(rng: random.Random, n: int, labels: int) -> dict:
    """A total model: every state gets 1-3 distinct successors."""
    succ = []
    for _ in range(n):
        targets = rng.sample(range(n), rng.randint(1, 3))
        succ.append(sum(1 << t for t in targets))
    full = (1 << n) - 1
    return {
        "names": [str(i + 1) for i in range(n)],
        "succ": succ,
        "labels": [[chr(ord("p") + k), rng.randrange(1, full)] for k in range(labels)],
    }


def label_classes(model: dict) -> list[int]:
    """Blocks of states with equal label sets, as masks."""
    classes: dict[tuple[int, ...], int] = {}
    for i in range(len(model["names"])):
        key = tuple((m >> i) & 1 for _, m in model["labels"])
        classes[key] = classes.get(key, 0) | (1 << i)
    return sorted(classes.values())


def _refine_to(rng: random.Random, blocks: list[int], count: int) -> list[int]:
    """Split random blocks in two until there are ``count`` blocks."""
    blocks = list(blocks)
    while len(blocks) < count:
        splittable = [b for b in blocks if b & (b - 1)]
        block = rng.choice(splittable)
        members = [i for i in range(block.bit_length()) if (block >> i) & 1]
        rng.shuffle(members)
        cut = rng.randint(1, len(members) - 1)
        part = sum(1 << i for i in members[:cut])
        blocks.remove(block)
        blocks += [part, block & ~part]
    return sorted(blocks)


def _like_reference(rng: random.Random, name: str, draw, keys: tuple, count: int,
                    per: int) -> list:
    """``count`` draws from ``rng`` that agree on ``keys`` with ``count``
    picks spread evenly over a fixed reference draw.

    Cost follows the keys, and a handful of independent draws lands on very
    different mixes of them from seed to seed.  So this makes ``count *
    per`` draws from a generator seeded with ``name`` alone, the same for
    every seed, orders them by their keys, cuts the order into ``count``
    equal runs and takes the middle draw of each run: those picks sit at
    fixed quantiles of the keys' distribution.  Then it draws from ``rng``
    until it has one draw agreeing with each pick.  Every seed gets the
    same mix of keys, and draws of its own.  Picking from each seed's own
    draws instead let a pick near a boundary between keys land on either
    side of it.  A draw is compared one key at a time, so put cheap keys
    first.
    """
    reference = random.Random(name)
    drawn = [draw(reference) for _ in range(count * per)]
    ranked = sorted(range(len(drawn)), key=lambda i: (tuple(k(drawn[i]) for k in keys), i))
    picks = []
    for j in range(count):
        target = [k(drawn[ranked[j * per + per // 2]]) for k in keys]
        pick = draw(rng)
        while not all(k(pick) == t for k, t in zip(keys, target)):
            pick = draw(rng)
        picks.append(pick)
    return picks


def _classes(equivalence):
    """Key: the number of classes of an oracle equivalence.  The L1, L2 and
    L3 closures grow with the numbers of bisimulation, stuttering and
    simulation-equivalence classes."""
    return lambda spec: len(equivalence(oracle.model_of(spec)))


CLASS_KEYS = tuple(map(_classes, (oracle.bisimulation, oracle.stuttering,
                                  oracle.simulation_equivalence)))


def _sp_closure(rng: random.Random) -> tuple[list, list]:
    groups = [(6 + i % 3, 1 + (i // 3) % 2) for i in range(6)]
    per_group = SP_CLOSURE_MODELS // len(groups)
    picks = {
        (n, labels): _like_reference(
            rng, f"sp-closure:reference:{n}:{labels}",
            lambda r, n=n, labels=labels: random_model(r, n, labels),
            CLASS_KEYS, per_group, RANKED_DRAWS)
        for n, labels in groups
    }
    models, jobs = [], []
    for i in range(SP_CLOSURE_MODELS):
        n, labels = groups[i % len(groups)]
        models.append(picks[n, labels][i // len(groups)])
        langs = SP_LANGUAGES + (("CTL",) if n == 6 else ())
        jobs += [("sp_partition", i, lang, None) for lang in langs]
        jobs.append(("shell", i, "L1", None))
        jobs += [("equiv", i, kind, None) for kind in EQUIV_KINDS]
        jobs.append(("paired_check", i, "L1", None))
    return models, jobs


def _refine(rng: random.Random) -> tuple[list, list]:
    models, jobs = [], []
    for i in range(REFINE_MODELS):
        models.append(random_model(rng, 16 + i % 9, 1 + (i // 9) % 3))
        jobs += [("refine", i, kind, None) for kind in REFINE_KINDS]
    return models, jobs


def _search_draw(rng: random.Random, n: int, labels: int) -> tuple[dict, list[int]]:
    """A random model with at most three label classes, and a 3-block
    partition refining them, so the atom test does not end the search."""
    while True:
        model = random_model(rng, n, labels)
        classes = label_classes(model)
        if len(classes) <= 3:
            return model, _refine_to(rng, classes, 3)


def _search_keys(language: str) -> tuple:
    """Keys: the size of the semantic closure, then the number of strongly
    preserving relations.  A search's cost follows them, since every
    candidate that passes runs its paired closure to the end."""

    closures = {}

    def closure(draw):
        model = draw[0]
        key = (tuple(model["succ"]), tuple(mask for _, mask in model["labels"]))
        if key not in closures:
            closures[key] = oracle.semantic_closure(oracle.model_of(model), language)
        return closures[key]

    def hits(draw):
        m = oracle.model_of(draw[0])
        return len(oracle.strong_relations(m, draw[1], language, closure(draw)))

    return (lambda draw: len(closure(draw))), hits


def _relation_search(rng: random.Random) -> tuple[list, list]:
    """Nine b=3 searches for each (states, language) pair, spread over the
    distribution of their cost key, then the two b=4 searches on built-in
    models."""
    groups = [(5 + i % 4, 1 + i % 2, SEARCH_LANGUAGES[i % 3]) for i in range(12)]
    per_group = SEARCH_MODELS // len(groups)
    picks = {
        (n, lang): _like_reference(
            rng, f"relation-search:reference:{n}:{lang}",
            lambda r, n=n, labels=labels: _search_draw(r, n, labels),
            _search_keys(lang), per_group, SEARCH_DRAWS)
        for n, labels, lang in groups
    }
    models, jobs = [], []
    for i in range(SEARCH_MODELS):
        n, _, lang = groups[i % len(groups)]
        model, blocks = picks[n, lang][i // len(groups)]
        models.append(model)
        jobs.append(("search", i, lang, blocks))
    for model, blocks, lang in BUILTIN_SEARCHES:
        models.append(model)
        jobs.append(("search", len(models) - 1, lang, blocks))
    return models, jobs


_GENERATORS = {
    "sp-closure": _sp_closure,
    "refine": _refine,
    "relation-search": _relation_search,
}


def passes(workload: str, seconds: float) -> int:
    """How many passes a run of ``seconds`` makes."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def make_corpus(workload: str, seed: int) -> dict:
    """The workload's corpus for a seed, as JSON-ready plain data.

    Jobs are ``[kind, model index, argument, partition blocks or None]`` in
    a seeded shuffle, so any prefix of a pass mixes every job kind.
    """
    rng = random.Random(f"{workload}:{seed}")
    models, jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return {
        "workload": workload,
        "seed": seed,
        "why": WHY[workload],
        "models": models,
        "jobs": [list(job) for job in jobs],
    }


def schedule(corpus: dict) -> list[int]:
    """The job ids one pass runs, in order: every job, then the b=3 searches
    again ``SEARCH_REPEATS - 1`` times."""
    ids = list(range(len(corpus["jobs"])))
    short = [i for i, (kind, _, _, blocks) in enumerate(corpus["jobs"])
             if kind == "search" and len(blocks) == 3]
    return ids + short * (SEARCH_REPEATS - 1)


def warmup_corpus(corpus: dict) -> dict:
    """One job of each kind in the corpus, on the traffic light model.

    It is the same for every seed, so warm-up adds the same work to set-up.
    """
    kinds = sorted({(kind, arg) for kind, _, arg, _ in corpus["jobs"]})
    blocks = label_classes(TRAFFIC_LIGHT)
    return {
        "models": [TRAFFIC_LIGHT],
        "jobs": [[kind, 0, arg, blocks if kind == "search" else None] for kind, arg in kinds],
    }


def corpus_digest(corpus: dict) -> str:
    """SHA-256 of the corpus's canonical JSON encoding."""
    text = json.dumps(corpus, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Job:
    """One library call bound to its generated inputs."""

    id: int
    kind: str
    arg: str
    call: Callable[[], Any]
    summarize: Callable[[Any], Any]


def _blocks(p) -> list[int]:
    return sorted(p.blocks)


def _shell_summary(result) -> dict:
    return {"family": sorted(result.domain.masks)}


def _report_summary(report) -> dict:
    out = {"consistent": report.consistent}
    if report.partition is not None:
        out["blocks"] = _blocks(report.partition)
    if report.preorder is not None:
        out["rows"] = list(report.preorder.rows)
    return out


def _search_summary(p, hits) -> list:
    """Relations as sorted (source block, target block) mask pairs."""
    return sorted(sorted((p.blocks[i], p.blocks[j]) for i, j in rel) for rel in hits)


def build_jobs(lib, corpus: dict) -> list[Job]:
    """Build the library inputs for every job and bind its call.

    Calls go through attributes of the ``abspres`` package at call time, so
    a tracer that rebinds those attributes sees every call.
    """
    models = []
    for spec in corpus["models"]:
        space = lib.StateSpace(tuple(spec["names"]))
        labels = tuple((name, mask) for name, mask in spec["labels"])
        models.append(lib.KripkeModel(space, tuple(spec["succ"]), labels))
    languages: dict[tuple[int, str], Any] = {}

    def language(index: int, name: str):
        key = (index, name)
        if key not in languages:
            languages[key] = lib.preset_language(name, models[index])
        return languages[key]

    jobs = []
    for job_id, (kind, index, arg, blocks) in enumerate(corpus["jobs"]):
        m = models[index]
        if kind == "sp_partition":
            lang = language(index, arg)
            call = lambda lang=lang, m=m: lib.coarsest_sp_partition(lang, m)
            summarize = _blocks
        elif kind == "shell":
            lang = language(index, arg)
            seed_p = lib.Partition.from_masks(m.space, label_classes(corpus["models"][index]))

            def call(lang=lang, m=m, seed_p=seed_p):
                seed = lib.moore_close(seed_p.family)
                return lib.forward_complete_shell(seed, list(lang.operators), m)

            summarize = _shell_summary
        elif kind == "equiv":
            call = lambda arg=arg, m=m: lib.equivalence_report(arg, m)
            summarize = _report_summary
        elif kind == "paired_check":
            lang = language(index, arg)

            def call(lang=lang, m=m):
                q = lib.quotient("ee", m, lib.bisim_partition(m))
                return lib.paired_sp_check(m, q, lang)

            summarize = lambda report: report.verdict
        elif kind == "refine":
            call = {
                "bisim": lambda m=m: lib.bisim_partition(m),
                "dbs": lambda m=m: lib.dbs_partition(m),
                "sim": lambda m=m: lib.largest_simulation(m),
                "simeq_kernel": lambda m=m: lib.equivalences.equal_label_simulation(m).kernel(),
            }[arg]
            summarize = (lambda r: list(r.rows)) if arg == "sim" else _blocks
        elif kind == "search":
            lang = language(index, arg)
            p = lib.Partition.from_masks(m.space, blocks)
            call = lambda p=p, lang=lang, m=m: lib.sp_abstract_kripke_search(p, lang, m, "all")
            summarize = lambda hits, p=p: _search_summary(p, hits)
        else:
            raise ValueError(f"unknown job kind {kind!r}")
        jobs.append(Job(job_id, kind, arg, call, summarize))
    return jobs
