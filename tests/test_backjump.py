"""Backjumping against plain depth-first search.

`dfs_solve` is the search `solve` ran before backjumping: a stack of
branches driven by `tableau.step`, each split's right branch explored
once its left branch closed.  Backjumping only skips right branches that
would close, so wherever plain search decides, `solve` must give the
same verdict with no more branches, and a sat result must be the very
branch plain search returns.
"""

import time

import pytest

from hylotab import tableau
from hylotab.corpus import enumerate_small_formulas, random_fragment_problem
from hylotab.disjunction import Symmetry
from hylotab.fragments import FragmentError
from hylotab.parser import Problem, parse, parse_formula
from hylotab.preprocess import preprocess
from hylotab.semantics import bounded_sat, validate_extraction
from hylotab.tableau import Branch, Limits, Sat, init_branch, solve

from test_engine_golden import COUNTING_SHAPES, LIMITS, corpus, counting_problems
from test_semantics import EXTRACTION_FAILURES

DIFF_LIMITS = Limits(max_nodes=2000, max_branches=300)


def dfs_solve(problem, limits):
    """(verdict, final branch, its BlockInfo on sat, branches explored) of
    plain depth-first search."""
    start = time.monotonic()
    stack = [init_branch(problem)]
    branches = 0
    last = None
    while stack:
        branch = stack.pop()
        branches += 1
        while True:
            if (branches > limits.max_branches or time.monotonic() - start > limits.timeout
                    or len(branch.labels) > limits.max_nodes):
                return "limit", branch, None, branches
            status, other = tableau.step(branch)
            if status == "applied":
                continue
            if status == "split":
                stack.append(other)
                continue
            if status == "closed":
                last = branch
                break
            return "sat", branch, other, branches
    return "unsat", last, None, branches


@pytest.fixture
def recorded_merges(monkeypatch):
    """Each merge appends (node count, equality node, renamed node ids) to
    its branch's `merges` list, which `Branch.copy` copies with the rest."""
    real_substitute = Branch.substitute

    def recorded(branch, a, b, deps):
        eq, before = branch.eq, list(branch.labels)
        real_substitute(branch, a, b, deps)
        renamed = [i for i, lab in enumerate(before) if branch.labels[i] is not lab]
        vars(branch).setdefault("merges", []).append((len(before), eq, renamed))

    monkeypatch.setattr(Branch, "substitute", recorded)


def ref_deps(branch):
    """Each node's deps from scratch.  A split adds one or-left or
    or-right node to each side, so the k-th such node on a branch is a
    disjunct of its k-th split and holds bit k; every node also holds the
    bits of its premises.  A recorded merge, replayed once the nodes before
    it are in, adds the equality's bits to each node it renamed."""
    out, splits, merges = [], 0, list(getattr(branch, "merges", ()))

    def replay_merges():
        while merges and merges[0][0] == len(out):
            _, eq, renamed = merges.pop(0)
            for i in renamed:
                out[i] |= out[eq]

    for rule, premises in branch.prov:
        replay_merges()
        dep = 0
        if rule in ("or-left", "or-right"):
            dep, splits = 1 << splits, splits + 1
        for p in premises:
            dep |= out[p]
        out.append(dep)
    replay_merges()
    return out


def random_problems():
    for depth in range(3, 9):
        for seed in range(100):
            yield "d%d-%d" % (depth, seed), random_fragment_problem(seed, depth=depth)


def enumerated_problems():
    for i, f in enumerate(enumerate_small_formulas()):
        yield "enum-%d" % i, Problem([], f)


CORPORA = {
    "golden": (corpus, LIMITS),
    "random": (random_problems, DIFF_LIMITS),
    "enumerated": (enumerated_problems, DIFF_LIMITS),
    "counting": (lambda: counting_problems(4), DIFF_LIMITS),
}
KNOWN_UNVALIDATED = {"d%d-%d" % (depth, seed) for seed, depth in EXTRACTION_FAILURES}


def disagreements(problems, limits):
    """The problems where backjumping departs from plain search or a final
    branch's deps from `ref_deps`, and the number of problems each search
    decided, the number pruned at least once, and the branches pruned."""
    wrong, counts = [], {"dfs decided": 0, "decided": 0, "pruning": 0, "pruned": 0}
    for pid, problem in problems:
        try:
            prepared = preprocess(problem)
        except FragmentError:
            continue
        want, dfs_branch, _, dfs_branches = dfs_solve(prepared, limits)
        res = solve(prepared, limits)
        counts["dfs decided"] += want != "limit"
        counts["decided"] += res.verdict != "limit"
        counts["pruning"] += res.stats["pruned"] > 0
        counts["pruned"] += res.stats["pruned"]
        if any(b.deps != ref_deps(b) for b in (res.branch, dfs_branch)):
            wrong.append((pid, "deps are not their premises' and split bits"))
        if want == "limit":
            continue
        if res.verdict != want:
            wrong.append((pid, "verdict %s, plain search %s" % (res.verdict, want)))
        elif res.stats["branches"] > dfs_branches:
            wrong.append((pid, "%d branches, plain search %d" % (res.stats["branches"], dfs_branches)))
        elif want == "sat":
            if res.trace != dfs_branch.trace():
                wrong.append((pid, "sat trace differs"))
            elif pid not in KNOWN_UNVALIDATED and not validate_extraction(
                    res.branch, res.blocking, prepared)[0]:
                wrong.append((pid, "model does not validate"))
    return wrong, counts


@pytest.mark.parametrize("name", list(CORPORA))
def test_backjumping_agrees_with_plain_search(name, recorded_merges):
    problems, limits = CORPORA[name]
    wrong, counts = disagreements(problems(), limits)
    assert wrong == []
    assert counts["decided"] >= counts["dfs decided"] > 0
    if name in ("golden", "random"):  # enumerated is too small to split twice,
        assert counts["pruning"] > 0, counts  # and counting splits once


@pytest.mark.parametrize(
    "text, verdict, branches, pruned",
    [
        # both sides of the second split close by its disjuncts alone, so the
        # first split's right branch is skipped (plain search: 4 branches);
        # each disjunct is refuted only once its witness takes the box
        ("formula: (p | q) & (<r> t | <r> u) & [r] !t & [r] !u;", "unsat", 2, 1),
        # the second split's right side closes without its disjunct and
        # without the first split, whose right branch is skipped too
        ("formula: ([r] !t | b) & (<r> t | v) & <r> <r> s & [r] [r] !s;", "unsat", 2, 1),
        # the left side of the second split used the first split, so the
        # first split's right branch is explored, and it is open
        ("formula: ([r] !t | u) & (<r> t | <r> v) & [r] !v;", "sat", 3, 0),
    ],
)
def test_backjumping_over_two_splits(text, verdict, branches, pruned):
    q = preprocess(parse(text))
    res = solve(q, Limits(timeout=15))
    assert (res.verdict, res.stats["branches"], res.stats["pruned"]) == (verdict, branches, pruned)
    assert dfs_solve(q, Limits(timeout=15))[0] == verdict


# -- the problems backjumping decides that plain search does not --------------

def test_depth_9_seed_6_is_sat():
    q = preprocess(random_fragment_problem(6, depth=9))
    assert dfs_solve(q, Limits(max_branches=300))[0] == "limit"
    res = solve(q, Limits(max_branches=300))
    assert res.verdict == "sat"
    assert validate_extraction(res.branch, res.blocking, q)[0]


@pytest.mark.parametrize("shape", COUNTING_SHAPES)
@pytest.mark.parametrize("n, m", [(2, 3), (2, 4)])
def test_counting_decides_under_the_benchmark_cap(shape, n, m):
    """The counting workload's caps: 2,000 nodes, 25 branches."""
    res = solve(preprocess(parse(shape.format(n=n, m=m))), Limits(max_nodes=2000, max_branches=25))
    assert res.verdict == "sat"


@pytest.mark.parametrize("shape", COUNTING_SHAPES)
def test_counting_4_4_is_unsat_within_500_branches(shape):
    res = solve(preprocess(parse(shape.format(n=4, m=4))), Limits(max_nodes=2000, max_branches=500))
    assert res.verdict == "unsat"


# -- what the exact merge rule prunes ------------------------------------------
# A renamed label rests on the equality that renamed it, and a clash on its
# pair's deps alone, so a split that only a merge touched can still be skipped.

@pytest.mark.parametrize("seed, depth, most", [(141, 6, 1), (234, 8, 1), (106, 7, 58)])
def test_exact_merge_deps_prune_more(seed, depth, most):
    q = preprocess(random_fragment_problem(seed, depth=depth))
    res = solve(q, DIFF_LIMITS)
    assert res.verdict == "unsat" and res.stats["branches"] <= most
    assert dfs_solve(q, Limits(max_nodes=2000, max_branches=1500))[0] == "unsat"


@pytest.mark.parametrize("seed, depth, most", [(290, 10, 40), (229, 11, 14)])
def test_exact_merge_deps_decide_the_hard_tail(seed, depth, most):
    q = preprocess(random_fragment_problem(seed, depth=depth))
    res = solve(q, Limits(max_branches=300))
    assert res.verdict == "sat" and res.stats["branches"] <= most
    assert validate_extraction(res.branch, res.blocking, q)[0]


# -- graded pigeonholes: the split phase's implied, refuted and symmetric sides --

UNCAPPED = Limits(max_nodes=100_000, max_branches=10_000, timeout=60)


@pytest.mark.parametrize("shape", COUNTING_SHAPES)
def test_counting_up_to_6_is_decided_in_a_few_branches(shape):
    """Sat iff n < m, as the construction says, in at most 3 branches,
    where plain splitting needed 14,251 for (6, 6); plain search, which
    shares `step`, agrees."""
    wrong = []
    for n in range(7):
        for m in range(7):
            q = preprocess(parse(shape.format(n=n, m=m)))
            res = solve(q, UNCAPPED)
            want = "sat" if n < m else "unsat"
            if (res.verdict, dfs_solve(q, UNCAPPED)[0]) != (want, want) or res.stats["branches"] > 3:
                wrong.append((n, m, res.verdict, res.stats["branches"]))
    assert wrong == []


@pytest.mark.parametrize("shape", [COUNTING_SHAPES[k] for k in (0, 1, 3)])
def test_counting_agrees_with_the_bounded_oracle(shape):
    for n in range(2):
        for m in range(2):
            q = preprocess(parse(shape.format(n=n, m=m)))
            assert solve(q).is_sat == (bounded_sat(q, 3) is not None), (n, m)


@pytest.mark.parametrize("extra, branches", [
    ("", 1),                            # 'c and 'd are interchangeable
    (" & @'c q", 2),                    # one label tells them apart
    (" & @'w [r] !q & @'c <r> q", 2),   # so does one edge's witness
])
def test_only_interchangeable_nominals_are_dropped(extra, branches):
    """'w: 'd is dropped only when (c d) keeps the branch; otherwise 'w: 'c
    closes and 'w: 'd is the open side."""
    q = preprocess(parse("formula: @'w ('c | 'd) & @'w !q%s;" % extra))
    res = solve(q)
    assert (res.verdict, res.stats["branches"]) == ("sat", branches)
    assert validate_extraction(res.branch, res.blocking, q)[0]
    rules = [rule for rule, _ in res.branch.prov]
    assert ("or-right" in rules, "or-unit" in rules) == ((True, False) if extra else (False, True))


@pytest.mark.parametrize("texts, swaps", [
    (["'w: 'c | 'd", "'c: q", "'d: q"], True),
    (["'w: 'd | ('e | 'c)", "'c: q", "'d: q"], True),      # or-chains are sets
    (["'w: 'c | 'd", "'c: q", "'d: q", "'d: <r> q"], False),
    (["'w: 'c | 'd", "'c: q", "'d: q", "'w: @'c q"], True),      # implied by 'c: q
    (["'w: 'c | 'd", "'c: q", "'d: q", "'w: <r> 'c"], False),    # an edge
    (["'w: 'c | 'd", "'c: q & p", "'c: q", "'c: p", "'d: q"], False),
    (["'w: 'c | 'd", "'c: q & p", "'c: q", "'c: p", "'d: q", "'d: p"], True),  # implied
])
def test_near_symmetric_nominals_do_not_swap(texts, swaps):
    """Nominals that differ by one label, other than one that smaller
    labels imply, are not interchangeable."""
    b = Branch()
    for text in texts:
        nom, body = text.split(": ", 1)
        b.add(Sat(nom[1:], parse_formula(body)), None, "init", ())
    b.blocking()
    assert Symmetry(b, {"c", "d"}).swaps("c", "d") == swaps


def test_unit_and_implied_sides_rest_on_their_premises(monkeypatch):
    """An or-unit or or-sat node gets no split bit of its own: its deps
    are exactly those of its premises."""
    real_add, seen = Branch.add, {"or-unit": 0, "or-sat": 0}

    def checked(branch, lab, parent, rule, premises, split=0):
        i = real_add(branch, lab, parent, rule, premises, split)
        if rule in seen:
            want = 0
            for p in premises:
                want |= branch.deps[p]
            assert split == 0 and branch.deps[i] == want
            seen[rule] += 1
        return i

    monkeypatch.setattr(Branch, "add", checked)
    for _pid, problem in [*counting_problems(5), *corpus()]:
        try:
            solve(preprocess(problem), DIFF_LIMITS)
        except FragmentError:
            pass
    assert seen["or-unit"] > 100 and seen["or-sat"] > 100, seen


def test_only_splits_hold_split_bits(recorded_merges):
    """`ref_deps` gives a bit to or-left and or-right nodes only; on
    branches full of or-unit and or-sat nodes the deps still match it,
    with one bit per split disjunct on the branch."""
    units = 0
    for _pid, problem in counting_problems(5):
        res = solve(preprocess(problem), DIFF_LIMITS)
        b = res.branch
        rules = [rule for rule, _ in b.prov]
        units += rules.count("or-unit") + rules.count("or-sat")
        every = 0
        for d in b.deps:
            every |= d
        assert b.deps == ref_deps(b)
        assert bin(every).count("1") == rules.count("or-left") + rules.count("or-right")
    assert units > 100
