"""The benchmark's corpora: each workload turns a seed into problem texts,
fixes the count caps the solver runs under, and says how a verdict is
checked against a reference that does not come from the solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Safety net only: far above any run, so a limit always comes from a count
# cap and the verdict mix repeats exactly.  A run that reaches it is
# reported as nondeterministic.
TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Item:
    pid: str
    text: str
    expected: str | None  # "sat"/"unsat" known by construction, else None


@dataclass(frozen=True)
class Workload:
    name: str
    max_nodes: int
    max_branches: int
    # State bound of the bounded_sat check on unsat verdicts; 0 when the
    # expected verdict is known by construction instead.
    oracle_states: int
    generate: Callable  # (hylotab modules, seed) -> list[Item]


# random-d8 uses the depth-8 problems of the fixed seeds 0-99 shifted by
# (seed mod RANDOM_OFFSETS).  Larger shifts reach seeds (e.g. 144, 283)
# that take 20-40 s each before hitting the node cap, which would make
# the run length and the verdict mix depend on the seed rather than on
# the program.
RANDOM_PROBLEMS = 100
RANDOM_OFFSETS = 5

COUNTING_SHAPES = (
    "formula: <r>^{n} true & [r]^{m} false;",
    "formula: <r>^{n} p & [r]^{m} !p;",
    "trans r; r <= s; formula: <s>(<r>^{n} p & [s]^{m} !p);",
    "formula: @'a(<r->^{n} p & [r-]^{m} !p);",
)
COUNTING_N = range(5)
COUNTING_M = range(5)


def _shuffled(items, seed):
    random.Random(seed).shuffle(items)
    return items


def random_d8(hy, seed):
    offset = seed % RANDOM_OFFSETS
    items = [
        Item(
            "d8-%d" % s,
            hy.parser.print_problem(hy.corpus.random_fragment_problem(s, depth=8)),
            None,
        )
        for s in range(offset, offset + RANDOM_PROBLEMS)
    ]
    return _shuffled(items, seed)


def counting(hy, seed):
    """More than n successors satisfy the first conjunct, at most m
    successors falsify the second, and no successor satisfies both:
    satisfiable iff n < m.
    """
    items = [
        Item(
            "count-%d-%d-%d" % (k, n, m),
            shape.format(n=n, m=m),
            "sat" if n < m else "unsat",
        )
        for k, shape in enumerate(COUNTING_SHAPES)
        for n in COUNTING_N
        for m in COUNTING_M
    ]
    return _shuffled(items, seed)


def enum_small(hy, seed):
    problem = hy.parser.Problem
    items = [
        Item("enum-%d" % i, hy.parser.print_problem(problem([], f)), None)
        for i, f in enumerate(hy.corpus.enumerate_small_formulas())
    ]
    return _shuffled(items, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-d8", 2000, 300, 2, random_d8),
        # Branch cap 25: (n, m) = (4, 2) needs 21 branches and is decided;
        # (2, 3), (2, 4), (3, 3), (3, 4), (4, 3) and (4, 4) need 33 or more
        # and stay capped, 24 of the 100 problems.
        Workload("counting", 2000, 25, 0, counting),
        Workload("enum-small", 2000, 300, 3, enum_small),
    )
}
