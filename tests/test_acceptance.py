"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION line; the pytest verdict for the
test is the pass/fail status of the criterion.
"""

import time

import pytest

from hylotab.corpus import (
    default_tiles,
    enumerate_small_formulas,
    functionality_formula,
    random_fragment_problem,
    tiling_at,
)
from hylotab.formulas import (
    A,
    And,
    At,
    Box,
    Diamond,
    Down,
    Neg,
    Nom,
    Or,
    Prop,
    Var,
    bwd,
    children,
    fwd,
    nnf,
    shape,
    size,
)
from hylotab.fragments import classify
from hylotab.parser import Problem, parse, parse_formula
from hylotab.preprocess import (
    FragmentError,
    FreshNames,
    expand_graded_box,
    expand_graded_diamond,
    preprocess,
    tau,
)
from hylotab.semantics import (
    Interpretation,
    bounded_sat,
    evaluate,
    saturation_violations,
    validate_extraction,
)
from hylotab.tableau import Limits, solve


def report(n, name, ok, detail=""):
    print("CRITERION %d (%s): %s%s" % (n, name, "PASS" if ok else "FAIL",
                                       " -- " + detail if detail else ""))
    assert ok, "criterion %d failed: %s" % (n, detail)


# -- 1: the worked refutation with assertion interplay ----------------------

def test_criterion_1_refutation_regression():
    problem = parse("trans r; r <= s; s <= r; formula: <s> <s> p & [s] !p;")
    start = time.monotonic()
    res = solve(preprocess(problem), Limits(timeout=10))
    elapsed = time.monotonic() - start
    rules = [res.branch.prov[i][0] for i in range(len(res.branch.labels))]
    setup = ("init", "assert", "Rel0", "Rel")
    ok = (
        res.verdict == "unsat"
        and elapsed < 1.0
        and rules.count("Link") >= 1
        and rules.count("Trans") >= 1
        and max(i for i, r in enumerate(rules) if r in setup)
        < min(i for i, r in enumerate(rules) if r not in setup)
    )
    report(1, "refutation regression", ok,
           "verdict=%s elapsed=%.3fs" % (res.verdict, elapsed))


# -- 2: the binder-skolemizing translation ----------------------------------

def equal_mod_fresh(got, want, placeholders):
    (want_skeleton, want_names), (got_skeleton, got_names) = shape(want), shape(got)
    if want_skeleton != got_skeleton:
        return False
    ren = {}
    for w, g in zip(want_names, got_names):
        if w in placeholders:
            if ren.setdefault(w, g) != g:
                return False
            if not g.startswith("_"):
                return False
        elif w != g:
            return False
    return len(set(ren.values())) == len(ren)


def test_criterion_2_translation_regression():
    f = nnf(parse_formula("[A] down x . <r> x & (down y . [r] y | down z . [A] z)"))
    got = tau(f, FreshNames())
    want = And(
        A(Down("x", Diamond(fwd("r"), Var("x")))),
        Or(
            And(Nom("B1"), Box(fwd("r"), Nom("B1"))),
            And(Nom("B2"), A(Nom("B2"))),
        ),
    )
    ok = equal_mod_fresh(got, want, {"B1", "B2"})
    report(2, "translation regression", ok)


# -- 3: graded modality rewrites --------------------------------------------

def test_criterion_3_graded_rewrites():
    r, p = fwd("r"), Prop("p")
    x, y1, y2 = Var("_v1"), Var("_v2"), Var("_v3")

    dia_want = {
        0: Diamond(r, p),
        1: Down("_v1", Diamond(r, And(p, Down("_v2", At(x, Diamond(r, And(p, Neg(y1)))))))),
        2: Down("_v1", Diamond(r, And(p, Down("_v2", At(x, Diamond(r, And(
            And(p, Neg(y1)),
            Down("_v3", At(x, Diamond(r, And(And(p, Neg(y1)), Neg(y2)))))))))))),
    }
    box_want = {
        0: Box(r, p),
        1: Or(Box(r, p), Down("_v1", Diamond(r, Down("_v2", At(x, Box(r, Or(p, y1))))))),
        2: Or(Box(r, p), Down("_v1", Diamond(r, Down("_v2", At(x, Diamond(r, Down(
            "_v3", At(x, Box(r, Or(p, Or(y1, y2))))))))))),
    }
    ok = True
    detail = []
    for n in (0, 1, 2):
        if expand_graded_diamond(r, n, p, FreshNames()) != dia_want[n]:
            ok = False
            detail.append("diamond n=%d" % n)
        if expand_graded_box(r, n, p, FreshNames()) != box_want[n]:
            ok = False
            detail.append("box n=%d" % n)
    report(3, "graded rewrites", ok, ", ".join(detail))


# -- 4: exhaustive agreement with the bounded oracle ------------------------

def test_criterion_4_oracle_agreement():
    start = time.monotonic()
    formulas = enumerate_small_formulas()
    disagreements = []
    solved = 0
    for f in formulas:
        try:
            q = preprocess(Problem([], f))
        except FragmentError:
            continue
        res = solve(q, Limits(timeout=10, max_nodes=20_000))
        solved += 1
        if res.verdict == "limit":
            disagreements.append(("limit", f))
        elif res.verdict == "unsat" and bounded_sat(q, 3) is not None:
            disagreements.append(("oracle found a model", f))
    elapsed = time.monotonic() - start
    ok = not disagreements and solved >= 800 and elapsed < 600
    report(4, "oracle agreement", ok,
           "%d formulas, %d disagreements, %.1fs" % (solved, len(disagreements), elapsed))


# -- 5 and 6: random problems, model validation, branch saturation ----------

def _run_random_corpus():
    sat_branches = []
    fails = []
    for seed in range(200):
        q = preprocess(random_fragment_problem(seed, depth=5))
        res = solve(q, Limits(timeout=20, max_nodes=50_000))
        if res.verdict != "sat":
            continue
        ok, ex = validate_extraction(res.branch, res.blocking, q)
        sat_branches.append((seed, res, q))
        if not ok:
            fails.append(seed)
    return sat_branches, fails


@pytest.fixture(scope="module")
def random_corpus():
    return _run_random_corpus()


def test_criterion_5_model_validation(random_corpus):
    sat_branches, fails = random_corpus
    rate = len(fails) / max(1, len(sat_branches))
    ok = len(sat_branches) >= 100 and rate < 0.20
    report(5, "model validation", ok,
           "%d satisfiable, %d unvalidated (%.1f%%): %s"
           % (len(sat_branches), len(fails), 100 * rate, fails))


def test_criterion_6_branch_saturation(random_corpus):
    sat_branches, _ = random_corpus
    bad = []
    for seed, res, q in sat_branches:
        v = saturation_violations(res.branch, res.blocking)
        if v:
            bad.append((seed, v[0]))
    report(6, "branch saturation", not bad, str(bad[:3]) if bad else "")


# -- 7: termination under caps, graded equivalence --------------------------

def test_criterion_7_termination_and_graded_equivalence():
    limits = Limits(timeout=20, max_nodes=50_000)
    hit_limit = []
    for seed in range(200):
        q = preprocess(random_fragment_problem(seed, depth=5))
        if solve(q, limits).verdict == "limit":
            hit_limit.append(seed)

    import random as _random

    rng = _random.Random(20240824)
    counterexamples = []
    bodies = [Prop("p"), Neg(Prop("p")), Or(Prop("p"), Prop("q")), And(Prop("p"), Prop("q"))]
    for n in (0, 1, 2):
        for body in bodies:
            for shape in ("dia", "box"):
                if shape == "dia":
                    f = Diamond(fwd("r"), body, grade=n)
                    g = expand_graded_diamond(fwd("r"), n, body, FreshNames())
                else:
                    f = Box(fwd("r"), body, grade=n)
                    g = expand_graded_box(fwd("r"), n, body, FreshNames())
                for _ in range(40):
                    k = rng.randrange(1, 4)
                    m = Interpretation(
                        frozenset(range(k)),
                        {"r": {(i, j) for i in range(k) for j in range(k)
                               if rng.random() < 0.5}},
                        {},
                        {w: frozenset(q for q in ("p", "q") if rng.random() < 0.5)
                         for w in range(k)},
                    )
                    for w in m.states:
                        if evaluate(m, w, f) != evaluate(m, w, g):
                            counterexamples.append((n, shape, body))
    ok = not hit_limit and not counterexamples
    report(7, "termination and graded equivalence", ok,
           "limits=%s counterexamples=%d" % (hit_limit, len(counterexamples)))


# -- 8: the subformula set bound --------------------------------------------

def subformula_closure(f, rels):
    """Subformulas of f, closed under relation renaming of boxes: for each
    subformula Box_R G, every Box_S G with S a forward or backward
    relation over `rels` is included.  Size is at most 2 * |rels| * size(f).
    """
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, Box):
            for s in rels:
                out.add(Box(fwd(s), g.sub, g.grade))
                out.add(Box(bwd(s), g.sub, g.grade))
        stack.extend(children(g))
    return frozenset(out)


def test_subformula_closure_renames_boxes():
    f = Box(fwd("r"), Prop("p"))
    cl = subformula_closure(f, {"r", "s"})
    assert Box(fwd("s"), Prop("p")) in cl
    assert Box(bwd("r"), Prop("p")) in cl
    assert Prop("p") in cl


def test_closure_bound():
    f = And(Box(fwd("r"), Diamond(fwd("s"), Prop("p"))), Box(bwd("s"), Prop("q")))
    rels = {"r", "s"}
    assert len(subformula_closure(f, rels)) <= 2 * len(rels) * size(f)


def test_criterion_8_closure_bound():
    violations = []
    for seed in range(100):
        p = random_fragment_problem(seed, depth=5)
        f = nnf(p.formula)
        rels = p.declared_rels
        bound = 2 * len(rels) * size(f)
        got = len(subformula_closure(f, rels))
        if got > bound:
            violations.append((seed, got, bound))
    report(8, "subformula bound", not violations, str(violations[:3]))


# -- 9: fragment gates on the stress formulas -------------------------------

def test_criterion_9_fragment_gates():
    tiling = tiling_at(default_tiles())
    verdict = classify(tiling)
    rejected = not verdict.preprocessable and any(
        "1a" in name for name, _ in verdict.witnesses
    )
    no_bdb = not verdict.has_box_down_box
    flagged = classify(Problem([], functionality_formula())).has_box_down_box
    ok = rejected and no_bdb and flagged
    report(9, "fragment gates", ok,
           "tiling rejected=%s, tiling free of critical nesting=%s, "
           "functionality flagged=%s" % (rejected, no_bdb, flagged))
