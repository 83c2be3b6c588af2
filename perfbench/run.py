"""hylotab benchmark: the `hylotab validate` pipeline over fixed corpora.

    python3 perfbench/run.py --workload random-d8 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35

Run from the repository root; the package is imported from ./src.  One
process, one thread, closed loop: each problem (text -> parser.parse ->
preprocess.preprocess -> tableau.solve -> semantics.validate_extraction
when sat) starts after the previous verdict.  The loop runs whole passes
over the workload's corpus until --seconds have passed.  Times are CPU
time; a problem's latency is the median of its runs.  Every verdict is
checked, outside the timed region, against a reference that does not
come from the solver, and every repetition of a problem must give the
same verdict and counts.  With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics; with --trace 1 it has the per-layer
metrics of a separately traced run.  Per-problem rows (and, traced, the
spans) go to perfbench/results/.  The exit code is nonzero when a verdict
contradicts its reference or a run is not deterministic.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import TIMEOUT_S, WORKLOADS  # noqa: E402

MODULES = ("formulas", "parser", "fragments", "preprocess", "blocking",
           "tableau", "semantics", "corpus")
SETUP_REPEATS = 21
MIN_PROBLEMS = 100        # so that p90 over problems has ten beyond it
MIN_PASSES = 3            # samples behind each problem's median
TRACED_PASSES_MAX = 5     # bounds the spans held in memory

END_TO_END = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "decided_frac": "ratio",
    "validated_frac": "ratio",
    "peak_rss_mb": "MB",
}


# Every time is the process's CPU time.  The loop is one thread and does no
# I/O, so this is its wall time less the time the shared host gives the
# CPU to other guests (steal), which varies from run to run.
CLOCK = time.process_time


class SetupError(RuntimeError):
    pass


@dataclass(frozen=True)
class Outcome:
    verdict: str             # sat | unsat | limit | outside | error
    validated: bool | None   # extracted model validates (sat only)
    steps: int
    branches: int
    nodes: int               # nodes on the final branch
    limit: str | None        # nodes | branches | timeout
    error: str | None        # exception type


class Hylotab:
    """The hylotab modules, freshly imported from ./src."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "hylotab" / "__init__.py").is_file():
            raise SetupError("no hylotab sources under %s" % src)
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules if m == "hylotab" or m.startswith("hylotab.")]:
            del sys.modules[name]
        package = importlib.import_module("hylotab")
        if Path(package.__file__).resolve().parent != src / "hylotab":
            raise SetupError("hylotab imported from %s, not %s" % (package.__file__, src))
        for name in MODULES:
            setattr(self, name, importlib.import_module("hylotab." + name))


def run_problem(hy, limits, text) -> Outcome:
    """One problem through the user's pipeline, as `hylotab validate`."""
    try:
        problem = hy.parser.parse(text)
        try:
            prepared = hy.preprocess.preprocess(problem)
        except hy.preprocess.FragmentError:
            return Outcome("outside", None, 0, 0, 0, None, None)
        result = hy.tableau.solve(prepared, limits)
        validated = None
        if result.is_sat:
            validated, _ = hy.semantics.validate_extraction(
                result.branch, result.blocking, prepared)
        nodes = len(result.branch.labels) if result.branch else 0
        limit = None
        if result.verdict == "limit":
            if result.stats["branches"] > limits.max_branches:
                limit = "branches"
            elif nodes > limits.max_nodes:
                limit = "nodes"
            else:
                limit = "timeout"
        return Outcome(result.verdict, validated, result.stats["steps"],
                       result.stats["branches"], nodes, limit, None)
    except Exception as exc:  # noqa: BLE001 - one bad input must not end the run
        return Outcome("error", None, 0, 0, 0, None, type(exc).__name__)


class Loop:
    """Closed loop over whole passes of a workload's corpus.  Keeps each
    problem's first outcome and latencies, the time of each untraced
    pass, the set-up times, and the problems whose outcome changed.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.items = None
        self.setup_s: list = []
        self.setup()
        if len(self.items) < MIN_PROBLEMS:
            raise SetupError("workload %s has %d problems, fewer than %d"
                             % (workload.name, len(self.items), MIN_PROBLEMS))
        self.first: dict = {}
        # untraced latencies per problem; arrays keep memory flat as passes add up
        self.latency: dict = {item.pid: array.array("d") for item in self.items}
        self.pass_s: list = []           # time per untraced pass
        self.unstable: set = set()
        self.attempted = 0

    def setup(self) -> None:
        """Import hylotab afresh and generate the corpus from the seed.
        Later passes use the new modules; the corpus must not change.
        """
        gc.collect()  # free the modules of the previous set-up
        start = CLOCK()
        hy = Hylotab()
        items = self.workload.generate(hy, self.seed)
        self.setup_s.append(CLOCK() - start)
        if self.items is not None and items != self.items:
            self.unstable.add("corpus")
        self.hy, self.items = hy, items
        self.limits = hy.tableau.Limits(
            max_nodes=self.workload.max_nodes,
            max_branches=self.workload.max_branches,
            timeout=TIMEOUT_S,
        )

    def record(self, key, outcome) -> None:
        if self.first.setdefault(key, outcome) != outcome:
            self.unstable.add(key)

    def run_pass(self, tracer=None) -> float:
        """One pass over the corpus; returns its time.  Traced passes
        add no latency samples.
        """
        clock = CLOCK
        start = clock()
        for item in self.items:
            if tracer is None:
                t0 = clock()
                outcome = run_problem(self.hy, self.limits, item.text)
                self.latency[item.pid].append(clock() - t0)
            else:
                outcome, counts = tracer.run(
                    item.pid, run_problem, self.hy, self.limits, item.text)
                self.record((item.pid, "counts"), counts)
            self.record(item.pid, outcome)
            self.attempted += 1
        return clock() - start

    def run_untraced(self, seconds, min_passes=1, setups=1) -> None:
        """Whole passes until `seconds` of wall time and `min_passes` are
        reached, with `setups` set-ups in all spread over the run, so that
        the set-up median, like the other medians, spans the machine's slow
        and fast phases.
        """
        start = time.perf_counter()
        while True:
            self.pass_s.append(self.run_pass())
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(self.pass_s) >= min_passes:
                break
            if len(self.setup_s) < 1 + (setups - 1) * elapsed / seconds:
                self.setup()
        while len(self.setup_s) < setups:
            self.setup()


def check_verdicts(hy, workload, items, first):
    """Verdicts that contradict the reference, and unsat verdicts the
    oracle could not check within its budget.  The reference is the
    verdict known by construction, or bounded_sat for an unsat verdict.
    """
    wrong, unchecked = [], []
    for item in items:
        verdict = first[item.pid].verdict
        if item.expected is not None:
            if verdict in ("sat", "unsat") and verdict != item.expected:
                wrong.append((item.pid, verdict, "expected " + item.expected))
        elif verdict == "unsat" and workload.oracle_states:
            prepared = hy.preprocess.preprocess(hy.parser.parse(item.text))
            try:
                model = hy.semantics.bounded_sat(prepared, workload.oracle_states)
            except hy.semantics.BudgetError:
                unchecked.append(item.pid)
                continue
            if model is not None:
                wrong.append((item.pid, verdict, "bounded_sat found a model"))
    return wrong, unchecked


def end_to_end_metrics(loop) -> dict:
    """Every problem runs once per pass with the same outcome, so the
    fractions over problems equal those over problem runs.  A problem's
    latency is the median of its runs, so a burst of load on the shared
    machine during a few of them does not move it; the percentiles and the
    throughput are taken over these per-problem medians.
    """
    latencies = [statistics.median(loop.latency[item.pid]) for item in loop.items]
    outcomes = [loop.first[item.pid] for item in loop.items]
    sat = sum(1 for o in outcomes if o.verdict == "sat")
    unsat = sum(1 for o in outcomes if o.verdict == "unsat")
    validated = sum(1 for o in outcomes if o.validated)
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(loop.setup_s),
        "problems_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * cuts[8],
        "decided_frac": (sat + unsat) / len(outcomes),
        "validated_frac": validated / max(1, sat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def problem_rows(workload, loop) -> list:
    return [
        {
            "workload": workload.name,
            "problem": item.pid,
            **asdict(loop.first[item.pid]),
            "seconds": statistics.median(loop.latency[item.pid] or [0.0]),
            "runs": len(loop.latency[item.pid]),
        }
        for item in loop.items
    ]


def digest(rows) -> str:
    """Hash of the per-problem outcomes, timings excluded: equal for two
    runs of the same code and seed.
    """
    keep = sorted(
        json.dumps({k: v for k, v in row.items() if k not in ("seconds", "runs")},
                   sort_keys=True)
        for row in rows
    )
    return hashlib.sha256("\n".join(keep).encode()).hexdigest()[:16]


def run_workload(name, seed, seconds, trace) -> int:
    workload = WORKLOADS[name]
    loop = Loop(workload, seed)
    tracer = None
    traced_passes = 0
    if not trace:
        loop.run_untraced(seconds, MIN_PASSES, SETUP_REPEATS)
        metrics = end_to_end_metrics(loop)
        units = END_TO_END
    else:
        # Untraced and traced passes alternate, so that the overhead ratio
        # of each pair is taken in the same phase of the machine.
        tracer = Tracer(loop.hy)
        ratios = []
        start = time.perf_counter()
        while traced_passes < TRACED_PASSES_MAX and (
            traced_passes < 2 or time.perf_counter() - start < seconds
        ):
            untraced = loop.run_pass()
            loop.pass_s.append(untraced)
            tracer.install()
            try:
                ratios.append(loop.run_pass(tracer) / untraced)
            finally:
                tracer.uninstall()
            traced_passes += 1
        metrics = tracer.layer_metrics(traced_passes)
        metrics["trace_overhead_frac"] = statistics.median(ratios) - 1
        units = LAYER_METRICS

    items = loop.items
    wrong, unchecked = check_verdicts(loop.hy, workload, items, loop.first)
    timeouts = [i.pid for i in items if loop.first[i.pid].limit == "timeout"]
    unstable = sorted(str(p) for p in loop.unstable) + timeouts
    rows = problem_rows(workload, loop)
    passes = len(loop.pass_s) + traced_passes
    # every problem runs once per pass, with the same outcome each time
    bad = {r["problem"] for r in rows if r["verdict"] == "error"} | {w[0] for w in wrong}
    correct = not wrong and not unstable
    run_digest = digest(rows)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / ("%s-seed%d-trace%d" % (name, seed, trace))
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "caps": {"max_nodes": workload.max_nodes,
                 "max_branches": workload.max_branches,
                 "timeout_s": TIMEOUT_S},
        "passes": passes,
        "samples": sum(map(len, loop.latency.values())),
        "setup_s": loop.setup_s,
        "pass_s": loop.pass_s,
        "metrics": metrics,
        "wrong_verdicts": wrong,
        "unchecked_unsat": unchecked,
        "nondeterministic": unstable,
        "digest": run_digest,
        "problems": rows,
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_name(stem.name + "-spans.csv"))

    print("workload %s  seed %d  passes %d  samples %d  problems %d"
          % (name, seed, passes, report["samples"], len(items)))
    for metric, value in metrics.items():
        print("  %-28s %14.6f %s" % (metric, value, units[metric]))
    print("digest %s  results %s" % (run_digest, stem.with_suffix(".json").relative_to(ROOT)))
    for pid, verdict, why in wrong:
        print("WRONG %s: %s (%s)" % (pid, verdict, why), file=sys.stderr)
    for pid in unstable:
        print("NONDETERMINISTIC %s" % pid, file=sys.stderr)
    for pid in unchecked:
        print("UNCHECKED %s: oracle budget exceeded" % pid, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(bad) * passes,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed, seconds, trace) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        # the JSON result line is for one workload's caller; keep the table
        for line in proc.stdout.splitlines()[:-1]:
            print(line)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
