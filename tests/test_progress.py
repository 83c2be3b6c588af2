"""The progress invariant of `tableau.step`: every "applied" step either
merges two nominals or adds a label that no node of the branch had
before, phantoms included.  A step that only re-adds existing labels
can repeat forever.
"""

import pytest

from hylotab import tableau
from hylotab.corpus import random_fragment_problem
from hylotab.fragments import FragmentError
from hylotab.parser import parse
from hylotab.preprocess import preprocess
from hylotab.semantics import saturation_violations, validate_extraction
from hylotab.tableau import Limits, solve

from test_engine_golden import COUNTING_SHAPES, LIMITS, corpus


def stalls(problems, limits, monkeypatch):
    """Solve each problem and return the applied steps that neither merge
    nor add a new label, as (problem id, first node of the step)."""
    real_step, pid, found = tableau.step, None, []

    def checked(branch):
        before, merges, old = len(branch.labels), len(branch.subst_log), set(branch.labels)
        status, other = real_step(branch)
        if status == "applied" and len(branch.subst_log) == merges:
            if set(branch.labels[before:]) <= old:
                found.append((pid, before))
        return status, other

    monkeypatch.setattr(tableau, "step", checked)
    for pid, problem in problems:
        try:
            prepared = preprocess(problem)
        except FragmentError:
            continue
        solve(prepared, limits)
    return found


def counting_problems():
    for k, shape in enumerate(COUNTING_SHAPES):
        for n in range(5):
            for m in range(5):
                yield "count-%d-%d-%d" % (k, n, m), parse(shape.format(n=n, m=m))


def test_every_step_progresses_on_the_golden_corpus(monkeypatch):
    assert stalls(corpus(), LIMITS, monkeypatch) == []


def test_every_step_progresses_on_depth_8(monkeypatch):
    problems = (("d8-%d" % s, random_fragment_problem(s, depth=8)) for s in range(100))
    assert stalls(problems, Limits(max_nodes=2000, max_branches=300), monkeypatch) == []


def test_every_step_progresses_on_counting(monkeypatch):
    limits = Limits(max_nodes=2000, max_branches=25)
    assert stalls(counting_problems(), limits, monkeypatch) == []


# Depth-10 problems that livelock the A rule if a blockable child of a
# blocked node is directly blocked instead of a phantom: its A conclusions
# are then phantoms, missing again at every step.
A_LIVELOCKS = [12, 37, 53, 83]


@pytest.mark.parametrize("seed", A_LIVELOCKS)
def test_every_step_progresses_on_depth_10_livelocks(seed, monkeypatch):
    problems = [("d10-%d" % seed, random_fragment_problem(seed, depth=10))]
    assert stalls(problems, Limits(max_nodes=300), monkeypatch) == []


@pytest.mark.parametrize("seed", A_LIVELOCKS)
def test_depth_10_livelocks_terminate_with_a_valid_model(seed):
    q = preprocess(random_fragment_problem(seed, depth=10))
    res = solve(q, Limits(max_nodes=2000, max_branches=300))
    assert res.verdict == "sat"
    assert validate_extraction(res.branch, res.blocking, q)[0]
    assert saturation_violations(res.branch, res.blocking) == []
