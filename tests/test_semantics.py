import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab import semantics
from hylotab.formulas import (
    A,
    And,
    At,
    Bot,
    Box,
    Diamond,
    Down,
    E,
    Incl,
    Neg,
    Nom,
    Or,
    Prop,
    Top,
    Trans,
    Var,
    bwd,
    fwd,
)
from hylotab.corpus import random_fragment_problem
from hylotab.parser import parse
from hylotab.preprocess import preprocess
from hylotab.semantics import (
    BudgetError,
    EvalError,
    Evaluator,
    Interpretation,
    bounded_sat,
    check_assertions,
    close,
    evaluate,
    format_model,
    parse_model,
    saturation_violations,
    validate_extraction,
)
from hylotab.tableau import Limits, solve


@pytest.fixture
def chain():
    # 0 -r-> 1 -r-> 2, with p at 1 and 2, nominal a at 0
    return Interpretation(
        frozenset({0, 1, 2}),
        {"r": {(0, 1), (1, 2)}},
        {"a": 0},
        {1: frozenset({"p"}), 2: frozenset({"p"})},
    )


def test_eval_atoms(chain):
    assert evaluate(chain, 1, Prop("p"))
    assert not evaluate(chain, 0, Prop("p"))
    assert evaluate(chain, 0, Nom("a"))
    assert not evaluate(chain, 1, Nom("a"))
    assert evaluate(chain, 0, Top())
    assert evaluate(chain, 0, Neg(Prop("p")))


def test_eval_modalities(chain):
    assert evaluate(chain, 0, Diamond(fwd("r"), Prop("p")))
    assert not evaluate(chain, 2, Diamond(fwd("r"), Prop("p")))
    assert evaluate(chain, 1, Diamond(bwd("r"), Nom("a")))
    assert evaluate(chain, 0, Box(fwd("r"), Prop("p")))
    assert evaluate(chain, 2, Box(fwd("r"), Prop("p")))  # vacuous


def test_eval_graded(chain):
    two = Interpretation(
        frozenset({0, 1, 2}),
        {"r": {(0, 1), (0, 2)}},
        {},
        {1: frozenset({"p"}), 2: frozenset({"p"})},
    )
    assert evaluate(two, 0, Diamond(fwd("r"), Prop("p"), grade=1))
    assert not evaluate(two, 0, Diamond(fwd("r"), Prop("p"), grade=2))
    assert evaluate(two, 0, Box(fwd("r"), Neg(Prop("p")), grade=2))
    assert not evaluate(two, 0, Box(fwd("r"), Neg(Prop("p")), grade=1))


def test_eval_global_and_binder(chain):
    assert evaluate(chain, 0, E(Prop("p")))
    assert not evaluate(chain, 0, A(Prop("p")))
    assert evaluate(chain, 2, At(Nom("a"), Neg(Prop("p"))))
    assert evaluate(chain, 1, Down("x", Diamond(bwd("r"), Diamond(fwd("r"), Var("x")))))


def test_eval_unbound_variable_raises(chain):
    with pytest.raises(EvalError):
        evaluate(chain, 0, Var("x"))
    with pytest.raises(EvalError):
        evaluate(chain, 0, Nom("zzz"))


def test_check_assertions():
    m = Interpretation(frozenset({0, 1, 2}), {"r": {(0, 1), (1, 2)}}, {}, {})
    assert not check_assertions(m, [Trans("r")])
    m2 = Interpretation(
        frozenset({0, 1, 2}), {"r": {(0, 1), (1, 2), (0, 2)}}, {}, {}
    )
    assert check_assertions(m2, [Trans("r")])
    m3 = Interpretation(
        frozenset({0, 1}), {"r": {(0, 1)}, "s": {(0, 1), (1, 1)}}, {}, {}
    )
    assert check_assertions(m3, [Incl(fwd("r"), "s")])
    assert not check_assertions(m3, [Incl(fwd("s"), "r")])
    # backward containment compares reversed pairs
    m4 = Interpretation(frozenset({0, 1}), {"r": {(0, 1)}, "s": {(1, 0)}}, {}, {})
    assert check_assertions(m4, [Incl(bwd("r"), "s")])


def naive_close(rho, incls, trans):
    """Add one implied pair at a time until nothing changes."""
    out = {r: set(pairs) for r, pairs in rho.items()}

    def implied():
        for inc in incls:
            for (u, v) in out.get(inc.left.sym, ()):
                yield inc.right, ((u, v) if inc.left.is_forward else (v, u))
        for s in trans:
            for (u, v) in out.get(s, ()):
                for (y, z) in out.get(s, ()):
                    if v == y:
                        yield s, (u, z)

    while True:
        missing = next(((r, p) for r, p in implied() if p not in out.get(r, ())), None)
        if missing is None:
            return out
        out.setdefault(missing[0], set()).add(missing[1])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_close_is_the_least_closure(seed):
    """Random relations over 1-3 states under random forward and
    backward inclusions and transitivity assertions."""
    rng = random.Random(seed)
    k = rng.randrange(1, 4)
    syms = "rst"
    rho = {r: {(u, v) for u in range(k) for v in range(k) if rng.random() < 0.3}
           for r in syms if rng.random() < 0.8}
    incls = [Incl(rng.choice([fwd, bwd])(r), s) for r in syms for s in syms
             if rng.random() < 0.3]
    trans = [s for s in syms if rng.random() < 0.4]
    out = close(rho, incls, trans)
    m = Interpretation(frozenset(range(k)), out, {}, {})
    assert check_assertions(m, incls + [Trans(s) for s in trans])

    def nonempty(rels):
        return {r: pairs for r, pairs in rels.items() if pairs}

    assert nonempty(out) == nonempty(naive_close(rho, incls, trans))


def test_bounded_sat_finds_models():
    m = bounded_sat(parse("formula: <r> p & [r] q;"))
    assert m is not None
    assert check_assertions(m, [])
    assert bounded_sat(parse("formula: p & !p;")) is None
    assert bounded_sat(parse("trans r; formula: <r> <r> p & [r] !p;")) is None


def test_bounded_sat_respects_assertions():
    m = bounded_sat(parse("trans r; formula: <r> <r> p;"))
    assert m is not None
    assert check_assertions(m, [Trans("r")])


@pytest.mark.parametrize("max_states", [0, -1])
def test_bounded_sat_rejects_an_empty_bound(max_states):
    with pytest.raises(ValueError, match="max_states must be at least 1"):
        bounded_sat(parse("formula: p;"), max_states=max_states)


def test_bounded_sat_budget():
    p = parse("formula: <r> <s> <t> (p & q & 'a & 'b);")
    with pytest.raises(BudgetError):
        bounded_sat(p, max_states=3, budget=10)


def test_model_serialization_round_trip(chain):
    text = format_model(chain)
    back = parse_model(text)
    assert back.states == chain.states
    assert back.rho == chain.rho
    assert back.nom == chain.nom
    assert {w: ps for w, ps in back.val.items() if ps} == chain.val


def sat_branch_of(q):
    res = solve(q, Limits(timeout=15))
    assert res.verdict == "sat"
    return res


def sat_branch(text):
    q = preprocess(parse(text))
    return sat_branch_of(q), q


def test_extraction_simple():
    res, q = sat_branch("formula: <r> p & [r] q;")
    ok, model = validate_extraction(res.branch, res.blocking, q)
    assert ok
    assert model.rho["r"]


def test_extraction_transitive_closure():
    res, q = sat_branch("trans r; formula: <r> <r> p & @'a true;")
    ok, model = validate_extraction(res.branch, res.blocking, q)
    assert ok
    pairs = model.rho["r"]
    for (a, b) in pairs:
        for (c, d) in pairs:
            if b == c:
                assert (a, d) in pairs


def test_extraction_containment():
    res, q = sat_branch("r <= s; formula: <r> p;")
    ok, model = validate_extraction(res.branch, res.blocking, q)
    assert ok
    assert model.rho["r"] <= model.rho["s"]


def test_extraction_after_merge():
    res, q = sat_branch("formula: @'a 'b & @'a p;")
    ok, _ = validate_extraction(res.branch, res.blocking, q)
    assert ok


# The smallest random problems whose extracted model fails to validate
# (depths 3-5, seeds 0-299): `r <= s; [A] down x0 . <r-> !x0` and
# `trans r; trans s; [A] [A] down x0 . <s> !x0`.  Both are sat.
EXTRACTION_FAILURES = [(27, 3), (63, 4)]


@pytest.mark.parametrize("seed, depth", EXTRACTION_FAILURES)
def test_extraction_failures_are_sat(seed, depth):
    q = preprocess(random_fragment_problem(seed, depth=depth))
    assert bounded_sat(q, max_states=3) is not None
    sat_branch_of(q)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="extract_model: the extracted model of a sat branch fails to validate")
@pytest.mark.parametrize("seed, depth", EXTRACTION_FAILURES)
def test_extraction_validates_on_small_random_problems(seed, depth):
    q = preprocess(random_fragment_problem(seed, depth=depth))
    res = sat_branch_of(q)
    ok, _ = validate_extraction(res.branch, res.blocking, q)
    assert ok


# A chain of 400 diamonds is sat and solves in milliseconds, but the
# recursive `Evaluator` runs out of stack validating its model (ROADMAP
# item 4).  Chains of 240 validate on every Python from 3.10 to 3.13;
# 250 fail from 3.10 to 3.11 and 335 from 3.12 on.
DEEP_CHAIN = "formula: " + "<r> " * 400 + "p;"


def test_deep_diamond_chain_is_sat():
    sat_branch(DEEP_CHAIN)


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="semantics.Evaluator recurses once per nesting level")
def test_deep_diamond_chain_validates():
    res, q = sat_branch(DEEP_CHAIN)
    ok, _ = validate_extraction(res.branch, res.blocking, q)
    assert ok


def test_saturation_clean_branches():
    for text in [
        "formula: <r> p & [r] q;",
        "formula: [A] <r> true;",
        "trans r; r <= s; formula: <r> <r> p & @'a <s> 'b;",
        "formula: <E> p & [A] (p | q);",
    ]:
        res, q = sat_branch(text)
        assert saturation_violations(res.branch, res.blocking) == []


def test_saturation_detects_missing_expansion():
    from hylotab.tableau import init_branch

    b = init_branch(parse("formula: p & q;"))
    info = b.blocking()
    bad = saturation_violations(b, info)
    assert any("conjunction" in v for v in bad)


# ---------------------------------------------------------------------------
# The memoized evaluator against the direct recursion it replaced

def direct_ev(m, w, f, sigma):
    """Truth of f at w by direct recursion: every operand is evaluated
    afresh at each state it is needed, and successor sets are read off
    `Interpretation.pairs` at each use."""
    if isinstance(f, Prop):
        return f.name in m.val.get(w, frozenset())
    if isinstance(f, Nom):
        if f.name not in m.nom:
            raise EvalError("nominal %r not interpreted" % f.name)
        return m.nom[f.name] == w
    if isinstance(f, Var):
        if f.name not in sigma:
            raise EvalError("unbound variable %r" % f.name)
        return sigma[f.name] == w
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not direct_ev(m, w, f.sub, sigma)
    if isinstance(f, And):
        return direct_ev(m, w, f.left, sigma) and direct_ev(m, w, f.right, sigma)
    if isinstance(f, Or):
        return direct_ev(m, w, f.left, sigma) or direct_ev(m, w, f.right, sigma)
    if isinstance(f, Diamond):
        succs = {v for (u, v) in m.pairs(f.rel) if u == w}
        if f.grade is None:
            return any(direct_ev(m, v, f.sub, sigma) for v in succs)
        return sum(1 for v in succs if direct_ev(m, v, f.sub, sigma)) >= f.grade + 1
    if isinstance(f, Box):
        succs = {v for (u, v) in m.pairs(f.rel) if u == w}
        if f.grade is None:
            return all(direct_ev(m, v, f.sub, sigma) for v in succs)
        return sum(1 for v in succs if not direct_ev(m, v, f.sub, sigma)) <= f.grade
    if isinstance(f, E):
        return any(direct_ev(m, v, f.sub, sigma) for v in m.states)
    if isinstance(f, A):
        return all(direct_ev(m, v, f.sub, sigma) for v in m.states)
    if isinstance(f, At):
        if isinstance(f.at, Nom):
            if f.at.name not in m.nom:
                raise EvalError("nominal %r not interpreted" % f.at.name)
            return direct_ev(m, m.nom[f.at.name], f.sub, sigma)
        if f.at.name not in sigma:
            raise EvalError("unbound variable %r" % f.at.name)
        return direct_ev(m, sigma[f.at.name], f.sub, sigma)
    if isinstance(f, Down):
        return direct_ev(m, w, f.sub, {**sigma, f.var: w})
    raise TypeError(f)


def outcome(thunk):
    """The truth value, or "EvalError" when evaluation raises it."""
    try:
        return thunk()
    except EvalError:
        return "EvalError"


def random_eval_formula(rng, depth):
    """Binders, @-prefixes (nominal or variable), graded and converse
    modalities, A and E over p, q, the nominals a and b and the
    variables x and y.  Binders are rare, so a variable is often unbound
    where it is reached."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Prop("p"), Prop("q"), Nom("a"), Nom("b"), Var("x"),
                           Var("y"), Top(), Bot()])
    sub = lambda: random_eval_formula(rng, depth - 1)
    op = rng.randrange(10)
    if op == 0:
        return Neg(sub())
    if op in (1, 2, 3):
        return rng.choice([And, Or])(sub(), sub())
    if op in (4, 5, 6):
        grade = rng.choice([None, None, None, 0, 1, 2])
        return rng.choice([Diamond, Box])(rng.choice([fwd("r"), bwd("r")]), sub(), grade)
    if op == 7:
        return rng.choice([E, A])(sub())
    if op == 8:
        return At(rng.choice([Nom("a"), Nom("b"), Var("x"), Var("y")]), sub())
    return Down(rng.choice("xy"), sub())


def random_model(rng):
    """1-4 states, one relation, p and q at random; each of the nominals
    a and b is left uninterpreted one time in three."""
    k = rng.randrange(1, 5)
    rho = {"r": {(u, v) for u in range(k) for v in range(k) if rng.random() < 0.4}}
    nom = {a: rng.randrange(k) for a in "ab" if rng.random() < 2 / 3}
    val = {w: frozenset(p for p in "pq" if rng.random() < 0.5) for w in range(k)}
    return Interpretation(frozenset(range(k)), rho, nom, val)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=400, deadline=None)
def test_evaluate_agrees_with_direct_recursion(seed):
    """Same value, or EvalError from both.  One shared Evaluator serves
    every state, as in bounded_sat."""
    rng = random.Random(seed)
    f = random_eval_formula(rng, rng.randrange(1, 7))
    m = random_model(rng)
    sigma = rng.choice([{}, {"x": rng.randrange(len(m.states))}])
    shared = Evaluator(m)
    for w in sorted(m.states):
        want = outcome(lambda: direct_ev(m, w, f, sigma))
        assert outcome(lambda: evaluate(m, w, f, sigma)) == want
        assert outcome(lambda: shared.holds(w, f, sigma)) == want


# 0 -r-> 1 and 0 -r-> 2, p at 1 only; x is unbound and b uninterpreted,
# so each formula raises EvalError iff evaluation reaches x or b.
FORK = Interpretation(frozenset({0, 1, 2}), {"r": {(0, 1), (0, 2)}}, {"a": 0},
                      {1: frozenset({"p"})})
P, X, B = Prop("p"), Var("x"), Nom("b")
LAZY = [
    (Diamond(fwd("r"), Or(P, X)), 0, True),
    (Diamond(fwd("r"), And(Neg(P), X)), 0, "EvalError"),
    (Box(fwd("r"), And(Neg(P), X)), 0, False),
    (Box(fwd("r"), Or(P, X)), 0, "EvalError"),
    (Diamond(fwd("r"), Or(P, X), grade=0), 0, "EvalError"),
    (E(Or(Neg(P), X)), 1, True),
    (A(And(Neg(P), X)), 1, "EvalError"),
    (A(And(P, X)), 1, False),
    (And(P, B), 0, False),
    (Or(Neg(P), B), 0, True),
    (At(Nom("a"), Diamond(fwd("r"), Or(P, B))), 2, True),
    (Diamond(bwd("r"), Or(Nom("a"), X)), 1, True),
]


@pytest.mark.parametrize("f, w, want", LAZY)
def test_evaluate_raises_only_where_reached(f, w, want):
    assert outcome(lambda: direct_ev(FORK, w, f, {})) == want
    assert outcome(lambda: evaluate(FORK, w, f)) == want


def test_shared_evaluator_after_an_error():
    shared = Evaluator(FORK)
    for f, w, want in LAZY + LAZY:
        assert outcome(lambda: shared.holds(w, f)) == want


@pytest.mark.parametrize("seed", [11, 53])
def test_validation_work_is_bounded(seed, monkeypatch):
    """The two random-d8 problems whose check cost 25,673 and 11,818
    evaluation calls by direct recursion (8 and 28 states)."""
    q = preprocess(random_fragment_problem(seed, depth=8))
    res = sat_branch_of(q)
    calls = 0
    inner = Evaluator._ev

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(Evaluator, "_ev", counted)
    ok, _ = validate_extraction(res.branch, res.blocking, q)
    assert ok and 0 < calls < 1000, calls


def test_extraction_checks_match_direct_recursion(monkeypatch):
    sat = 0
    for seed in range(100):
        q = preprocess(random_fragment_problem(seed, depth=8))
        res = solve(q, Limits(timeout=20))
        if res.verdict != "sat":
            continue
        sat += 1
        ok, _ = validate_extraction(res.branch, res.blocking, q)
        with monkeypatch.context() as patched:
            patched.setattr(semantics, "evaluate", lambda m, w, f: direct_ev(m, w, f, {}))
            want, _ = validate_extraction(res.branch, res.blocking, q)
        assert ok == want, seed
    assert sat >= 90
