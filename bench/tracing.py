"""Per-layer tracing by rebinding the library's module attributes.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
instrumented function in every ``abspres`` module that holds it (so names
that ``shells`` and ``abstraction`` import from ``languages`` are covered
too) and each instrumented ``KripkeModel`` method on the class, and
:meth:`Tracer.uninstall` puts the originals back.

Public entry points record a span (name, start, end, parent span, job id)
kept in memory.  Hot calls (``apply_operator``, the four transformers,
model construction, Moore validation, the paired closure and the split
step) keep only a call count and a running time total.  Every wrapped call
adds its duration to its caller's child time, which gives each layer's
self time: its calls' durations minus the part their wrapped callees cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("kripke", "languages", "lattice", "partitions", "shells", "abstraction", "equivalences")

# (module, function, records a span).  KripkeModel methods are listed as
# "KripkeModel.<method>".
INSTRUMENTED = (
    ("kripke", "KripkeModel.pre", False),
    ("kripke", "KripkeModel.post", False),
    ("kripke", "KripkeModel.cpre", False),
    ("kripke", "KripkeModel.cpost", False),
    ("kripke", "KripkeModel.__post_init__", False),
    ("kripke", "quotient", True),
    ("kripke", "label_partition", True),
    ("languages", "apply_operator", False),
    ("lattice", "moore_close", True),
    ("lattice", "_is_moore", False),
    ("partitions", "pr", True),
    ("partitions", "adp", True),
    ("partitions", "add", True),
    ("shells", "coarsest_sp_partition", True),
    ("shells", "ad_of_language", True),
    ("shells", "semantic_closure", True),
    ("shells", "forward_complete_shell", True),
    ("shells", "sp_abstract_kripke_search", True),
    ("abstraction", "paired_semantic_closure", False),
    ("abstraction", "paired_sp_check", True),
    ("abstraction", "completeness_check", True),
    ("equivalences", "bisim_partition", True),
    ("equivalences", "dbs_partition", True),
    ("equivalences", "largest_simulation", True),
    ("equivalences", "equal_label_simulation", True),
    ("equivalences", "_split_once", False),
    ("equivalences", "check_bisimulation", True),
    ("equivalences", "check_dbs", True),
    ("equivalences", "check_simulation", True),
    ("equivalences", "bisim_shell_partition", True),
    ("equivalences", "dbs_shell_partition", True),
    ("equivalences", "simeq_shell_partition", True),
    ("equivalences", "simeq_partition", True),
    ("equivalences", "equivalence_report", True),
)

# Counts read off the result of a call: function name -> counter increments.
RESULT_COUNTS = {
    "semantic_closure": lambda r: {"semantic_closure_sets": len(r)},
    "forward_complete_shell": lambda r: {"shell_rounds": len(r.trace.new_counts)},
    "sp_abstract_kripke_search": lambda r: {"search_hits": len(r)},
    "paired_semantic_closure": lambda r: {"paired_pairs": len(r.pairs), "paired_aborted": int(r.aborted)},
    "completeness_check": lambda r: {"completeness_tuples": r.checked},
    "_split_once": lambda r: {"split_steps": int(r)},
}

REFINEMENTS = ("bisim_partition", "dbs_partition", "largest_simulation", "equal_label_simulation")
TRANSFORMERS = ("pre", "post", "cpre", "cpost")

# Per-layer metrics: name -> unit.  Values are per pass of the corpus.
METRICS = {
    "kripke.transformer_calls": "count",
    "kripke.model_builds": "count",
    "languages.apply_calls": "count",
    "languages.apply_s": "s",
    "lattice.moore_close_s": "s",
    "lattice.moore_check_calls": "count",
    "lattice.moore_check_s": "s",
    "partitions.pr_s": "s",
    "partitions.adp_calls": "count",
    "shells.semantic_closure_s": "s",
    "shells.semantic_closure_sets": "count",
    "shells.shell_s": "s",
    "shells.shell_rounds": "count",
    "shells.search_s": "s",
    "shells.search_candidates": "count",
    "shells.search_hit_ratio": "ratio",
    "abstraction.paired_closure_calls": "count",
    "abstraction.paired_closure_s": "s",
    "abstraction.paired_pairs": "count",
    "abstraction.paired_abort_ratio": "ratio",
    "abstraction.completeness_s": "s",
    "abstraction.completeness_tuples": "count",
    "equivalences.refine_s": "s",
    "equivalences.split_steps": "count",
    "equivalences.report_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Counters, time totals, self times and spans for one traced run."""

    def __init__(self, lib):
        self.lib = lib
        self.job_id = None
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list = []
        self._stack: list = []  # child-time accumulators of the open calls
        self._span = None  # index of the innermost open span
        self._restore: list = []

    def _wrap(self, fn, name: str, layer: str, span: bool):
        calls, busy, self_time, stack = self.calls, self.busy, self.self_time, self._stack
        counts, count_result = self.counts, RESULT_COUNTS.get(name)

        if not span:
            def hot(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    self_time[layer] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                    calls[name] += 1
                    busy[name] += dur
                if count_result:
                    counts.update(count_result(result))
                return result

            return hot

        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            index = len(self.spans)
            parent, self._span = self._span, index
            self.spans.append(None)
            closures_before = calls["paired_semantic_closure"]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                self._span = parent
                self.spans[index] = (f"{layer}.{name}", t0, t1, parent, self.job_id)
                self_time[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                busy[name] += dur
            if count_result:
                counts.update(count_result(result))
            if name == "sp_abstract_kripke_search":
                # The search runs one paired closure per candidate relation.
                counts["search_candidates"] += calls["paired_semantic_closure"] - closures_before
            return result

        return spanned

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "abspres" or key.startswith("abspres.")]
        for layer, qualname, span in INSTRUMENTED:
            module = getattr(self.lib, layer)
            if qualname.startswith("KripkeModel."):
                cls, attr = module.KripkeModel, qualname.split(".", 1)[1]
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, attr, layer, span))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(original, qualname, layer, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, passes: int, overhead: float) -> dict:
        """Every per-layer metric, per pass of the corpus."""
        calls, busy, c = self.calls, self.busy, self.counts
        values = {
            "kripke.transformer_calls": sum(calls[t] for t in TRANSFORMERS),
            "kripke.model_builds": calls["__post_init__"],
            "languages.apply_calls": calls["apply_operator"],
            "languages.apply_s": busy["apply_operator"],
            "lattice.moore_close_s": busy["moore_close"],
            "lattice.moore_check_calls": calls["_is_moore"],
            "lattice.moore_check_s": busy["_is_moore"],
            "partitions.pr_s": busy["pr"],
            "partitions.adp_calls": calls["adp"],
            "shells.semantic_closure_s": busy["semantic_closure"],
            "shells.semantic_closure_sets": c["semantic_closure_sets"],
            "shells.shell_s": busy["forward_complete_shell"],
            "shells.shell_rounds": c["shell_rounds"],
            "shells.search_s": busy["sp_abstract_kripke_search"],
            "shells.search_candidates": c["search_candidates"],
            "abstraction.paired_closure_calls": calls["paired_semantic_closure"],
            "abstraction.paired_closure_s": busy["paired_semantic_closure"],
            "abstraction.paired_pairs": c["paired_pairs"],
            "abstraction.completeness_s": busy["completeness_check"],
            "abstraction.completeness_tuples": c["completeness_tuples"],
            "equivalences.refine_s": sum(busy[f] for f in REFINEMENTS),
            "equivalences.split_steps": c["split_steps"],
            "equivalences.report_s": busy["equivalence_report"],
            **{f"{layer}.self_s": self.self_time[layer] for layer in LAYERS},
        }
        values = {k: v / passes for k, v in values.items()}
        values["shells.search_hit_ratio"] = _ratio(c["search_hits"], c["search_candidates"])
        values["abstraction.paired_abort_ratio"] = _ratio(
            c["paired_aborted"], calls["paired_semantic_closure"]
        )
        values["trace.overhead_ratio"] = overhead
        return {name: values[name] for name in METRICS}

    def write_spans(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for name, t0, t1, parent, job in self.spans:
                out.write(json.dumps({
                    "name": name, "start": t0 - origin, "end": t1 - origin,
                    "parent": parent, "job": job,
                }) + "\n")
