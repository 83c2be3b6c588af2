"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions and methods of the hylotab
modules with wrappers that record spans (name, start, end, parent span,
problem id) and counts; `uninstall` puts the originals back.  Spans stay
in memory until `write_spans`.  A layer's self time is its span minus
the time covered by its child spans.
"""

from __future__ import annotations

import csv
import itertools
import time
from collections import Counter

RULES = ("and", "at", "down", "Link", "box", "A", "Trans", "or", "E", "dia", "eq")

# Counts that must repeat exactly for a problem from one pass to the next.
DETERMINISTIC = ("tableau.steps", "tableau.branches", "tableau.nodes", "blocking.maps_to_calls")

# Per-layer metric name -> unit, in the order printed.
LAYER_METRICS = {
    "parser.parse_s": "s",
    "fragments.classify_s": "s",
    "fragments.rejected": "count",
    "preprocess.self_s": "s",
    "preprocess.size_ratio": "ratio",
    "formulas.nominals_calls": "count",
    "formulas.subst_var_calls": "count",
    "tableau.init_branch_s": "s",
    "tableau.step_self_s": "s",
    "tableau.steps": "count",
    "tableau.nodes": "count",
    "tableau.max_branch_nodes": "count",
    "tableau.branches": "count",
    "tableau.closed_branches": "count",
    "tableau.copy_s": "s",
    "tableau.substitutions": "count",
    "tableau.substitute_s": "s",
    "tableau.closure_s": "s",
    "tableau.trace_s": "s",
    **{"tableau.rule." + r: "count" for r in RULES + ("other",)},
    "blocking.recompute_s": "s",
    "blocking.recompute_calls": "count",
    "blocking.maps_to_calls": "count",
    "blocking.maps_to_hit_frac": "ratio",
    "blocking.direct": "count",
    "blocking.phantom": "count",
    "semantics.extract_s": "s",
    "semantics.check_s": "s",
    "trace_overhead_frac": "ratio",
}

# Time metric -> (span name, self time?)
_SPAN_TIMES = {
    "parser.parse_s": ("parser.parse", False),
    "fragments.classify_s": ("fragments.classify", False),
    "preprocess.self_s": ("preprocess.preprocess", True),
    "tableau.init_branch_s": ("tableau.init_branch", False),
    "tableau.step_self_s": ("tableau.step", True),
    "tableau.copy_s": ("tableau.copy", False),
    "tableau.substitute_s": ("tableau.substitute", False),
    "tableau.closure_s": ("tableau.closure", False),
    "tableau.trace_s": ("tableau.trace", False),
    "blocking.recompute_s": ("blocking.recompute", False),
    "semantics.extract_s": ("semantics.extract", False),
    "semantics.check_s": ("semantics.validate", True),
}


class Tracer:
    def __init__(self, hy):
        self.hy = hy
        self.spans: list = []  # (id, parent id, problem id, name, start, end)
        self.counts: Counter = Counter()
        self.max_branch_nodes = 0
        self.pid = None
        self._ids = itertools.count()
        self._stack: list = []
        self._last_blocking = None
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hy = self.hy
        branch = hy.tableau.Branch
        self._patch(hy.parser, "parse", self._span("parser.parse", hy.parser.parse))
        self._patch(hy.preprocess, "preprocess", self._span(
            "preprocess.preprocess", hy.preprocess.preprocess, self._on_preprocess))
        self._patch(hy.preprocess, "classify", self._span(
            "fragments.classify", hy.preprocess.classify, self._on_classify))
        self._patch(hy.tableau, "solve", self._span(
            "tableau.solve", hy.tableau.solve, self._on_solve))
        self._patch(hy.tableau, "init_branch", self._span(
            "tableau.init_branch", hy.tableau.init_branch, self._on_init))
        self._patch(hy.tableau, "step", self._counted_step(
            self._span("tableau.step", hy.tableau.step)))
        self._patch(hy.tableau, "recompute_blocking", self._span(
            "blocking.recompute", hy.tableau.recompute_blocking, self._on_blocking))
        self._patch(hy.blocking, "maps_to", self._counted_maps_to(hy.blocking.maps_to))
        self._patch(hy.tableau, "nominals", self._counted(
            "formulas.nominals_calls", hy.tableau.nominals))
        self._patch(hy.tableau, "subst_var", self._counted(
            "formulas.subst_var_calls", hy.tableau.subst_var))
        self._patch(branch, "closure_witness", self._span(
            "tableau.closure", branch.closure_witness))
        self._patch(branch, "copy", self._span("tableau.copy", branch.copy))
        self._patch(branch, "substitute", self._span(
            "tableau.substitute", branch.substitute, self._on_substitute))
        self._patch(branch, "trace", self._span("tableau.trace", branch.trace))
        self._patch(hy.semantics, "validate_extraction", self._span(
            "semantics.validate", hy.semantics.validate_extraction))
        self._patch(hy.semantics, "extract_model", self._span(
            "semantics.extract", hy.semantics.extract_model))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.pid, name, start, end))
            if observe is not None:
                observe(result, *args)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_maps_to(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            hit = fn(*args, **kwargs)
            counts["blocking.maps_to_calls"] += 1
            if hit:
                counts["blocking.maps_to_hits"] += 1
            return hit

        return wrapper

    def _counted_step(self, fn):
        """Rule applications are read from the growth of Branch.prov: a
        step applies at most one rule; a step that rewrites the branch
        without adding nodes is an equality merge.
        """
        counts = self.counts

        def wrapper(branch):
            before = len(branch.prov)
            status, other = out = fn(branch)
            counts["tableau.steps"] += 1
            grown = len(branch.prov) - before
            if status == "closed":
                counts["tableau.closed_branches"] += 1
            elif status == "split":
                counts["tableau.rule.or"] += 1
                grown += len(other.prov) - before
            elif status == "applied":
                rule = branch.prov[before][0] if grown else "eq"
                counts["tableau.rule." + (rule if rule in RULES else "other")] += 1
            counts["tableau.nodes"] += grown
            self.max_branch_nodes = max(self.max_branch_nodes, len(branch.prov))
            return out

        return wrapper

    def _on_preprocess(self, result, problem) -> None:
        size = self.hy.formulas.size
        self.counts["preprocess.size_in"] += size(problem.formula)
        self.counts["preprocess.size_out"] += size(result.formula)

    def _on_classify(self, verdict, problem) -> None:
        if not verdict.preprocessable:
            self.counts["fragments.rejected"] += 1

    def _on_solve(self, result, *args) -> None:
        self.counts["tableau.branches"] += result.stats["branches"]

    def _on_init(self, branch, problem) -> None:
        self.counts["tableau.nodes"] += len(branch.prov)

    def _on_blocking(self, info, *args) -> None:
        self.counts["blocking.recompute_calls"] += 1
        self._last_blocking = info

    def _on_substitute(self, result, *args) -> None:
        self.counts["tableau.substitutions"] += 1

    # -- problems -------------------------------------------------------------

    def run(self, pid, fn, *args):
        """Run fn(*args) as problem `pid` under a root span; returns its
        result and the problem's deterministic counts.
        """
        self.pid = pid
        before = {k: self.counts[k] for k in DETERMINISTIC}
        result = self._span("pipeline", fn)(*args)
        info, self._last_blocking = self._last_blocking, None
        if info is not None:
            # blocked nodes as of the last blocking computation of the problem
            self.counts["blocking.direct"] += sum(info.direct)
            self.counts["blocking.phantom"] += sum(info.phantom)
        self.pid = None
        return result, tuple(self.counts[k] - before[k] for k in DETERMINISTIC)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics for one pass over the corpus, from `passes`
        identical traced passes: times are averaged, counts divided.
        """
        total: Counter = Counter()
        covered: Counter = Counter()
        for _sid, parent, _pid, name, start, end in self.spans:
            total[name] += end - start
            if parent is not None:
                covered[parent] += end - start
        own: Counter = Counter()
        for sid, _parent, _pid, name, start, end in self.spans:
            own[name] += end - start - covered[sid]
        out = {}
        for metric, (span, self_time) in _SPAN_TIMES.items():
            out[metric] = (own if self_time else total)[span] / passes
        c = self.counts
        for metric, unit in LAYER_METRICS.items():
            if unit == "count" and metric != "tableau.max_branch_nodes":
                out[metric] = c[metric] // passes
        out["tableau.max_branch_nodes"] = self.max_branch_nodes
        out["preprocess.size_ratio"] = (
            c["preprocess.size_out"] / max(1, c["preprocess.size_in"])
        )
        out["blocking.maps_to_hit_frac"] = (
            c["blocking.maps_to_hits"] / max(1, c["blocking.maps_to_calls"])
        )
        return {m: out[m] for m in LAYER_METRICS if m in out}

    def write_spans(self, path) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "parent", "problem", "name", "start_s", "end_s"))
            for sid, parent, pid, name, start, end in self.spans:
                w.writerow((sid, "" if parent is None else parent, pid, name,
                            "%.9f" % (start - origin), "%.9f" % (end - origin)))
