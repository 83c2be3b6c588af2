import pytest

from hylotab.formulas import (
    A,
    And,
    At,
    Box,
    Diamond,
    Down,
    E,
    Incl,
    Neg,
    Nom,
    Prop,
    Top,
    Trans,
    Var,
    bwd,
    fwd,
)
from hylotab.corpus import random_fragment_problem
from hylotab.parser import Problem, parse, parse_formula
from hylotab.preprocess import preprocess
from hylotab.semantics import (
    BudgetError,
    EvalError,
    Interpretation,
    bounded_sat,
    check_assertions,
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
    ok, ex = validate_extraction(res.branch, res.blocking, q)
    assert ok
    assert ex.model.rho["r"]


def test_extraction_transitive_closure():
    res, q = sat_branch("trans r; formula: <r> <r> p & @'a true;")
    ok, ex = validate_extraction(res.branch, res.blocking, q)
    assert ok
    pairs = ex.model.rho["r"]
    for (a, b) in pairs:
        for (c, d) in pairs:
            if b == c:
                assert (a, d) in pairs


def test_extraction_containment():
    res, q = sat_branch("r <= s; formula: <r> p;")
    ok, ex = validate_extraction(res.branch, res.blocking, q)
    assert ok
    assert ex.model.rho["r"] <= ex.model.rho["s"]


def test_extraction_after_merge():
    res, q = sat_branch("formula: @'a 'b & @'a p;")
    ok, ex = validate_extraction(res.branch, res.blocking, q)
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
