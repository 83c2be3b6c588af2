import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab.corpus import functionality_formula, tiling_at, tiling_conv, default_tiles
from hylotab.formulas import (
    A,
    And,
    At,
    Box,
    Diamond,
    Down,
    E,
    Neg,
    Nom,
    Or,
    Prop,
    Var,
    bwd,
    children,
    fwd,
    nnf,
)
from hylotab.fragments import classify, scan
from hylotab.parser import Problem, parse_formula


def f(text):
    return nnf(parse_formula(text))


def test_down_box_detection():
    assert scan(f("down x . [r] !x")).down_box
    assert not scan(f("down x . <r> x")).down_box
    # the global box counts as a universal operator
    assert scan(f("down x . [A] x")).down_box


def test_box_down_box_detection():
    assert scan(f("[r] down x . [r] x")).box_down_box
    assert not scan(f("down x . [r] x")).box_down_box
    assert not scan(f("[r] down x . <r> x")).box_down_box
    # scope is tree dominance, not intermediated by @
    assert scan(f("[A] down x . @'a [r] p")).box_down_box


def test_box_down_box_through_negation():
    # NNF turns the negated diamond into a box
    assert scan(f("! <r> down x . <r> !x")).box_down_box


def test_graded_restrictions():
    assert not scan(f("[r]^1 p")).graded
    w = scan(f("[s] [r]^1 p")).graded
    assert w and any("1a" in name for name, _ in w)
    w = scan(f("[r]^1 down x . [r] x")).graded
    assert w and any("1b" in name for name, _ in w)
    w = scan(f("[s] <r>^2 [r] p")).graded
    assert w and any("(2)" in name for name, _ in w)
    assert not scan(f("[s] <r>^2 p")).graded
    assert not scan(f("<r>^2 [r] p")).graded


def test_classify_tilings():
    v = classify(tiling_at(default_tiles()))
    assert not v.has_box_down_box
    assert not v.graded_ok
    assert not v.preprocessable

    v = classify(tiling_conv(default_tiles()))
    assert not v.has_box_down_box
    assert not v.graded_ok


def test_classify_functionality():
    v = classify(Problem([], functionality_formula()))
    assert v.has_box_down_box
    assert not v.preprocessable


def test_classify_plain_fragment():
    v = classify(Problem([], f("down x . <r> (x & p) & [r] q")))
    assert v.preprocessable
    assert not v.has_down_box


BDB, DB = "box-down-box", "down-box"
G1A = "graded-box-under-universal (1a)"
G1B = "graded-box-body-has-down-box (1b)"
G2 = "graded-diamond-under-universal-with-universal-body (2)"


def witnesses(text):
    return classify(Problem([], parse_formula(text))).witnesses


def test_witnesses_nested_binders_under_universals():
    assert witnesses("[r] down x . [r] down y . [r] p") == [
        (BDB, (0,)), (BDB, (0, 0, 0)), (DB, (0,)), (DB, (0, 0, 0)),
    ]
    assert witnesses("[r] down x . (down y . [r] y | @x [A] p)") == [
        (BDB, (0,)), (BDB, (0, 0, 0)), (DB, (0,)), (DB, (0, 0, 0)),
    ]
    assert witnesses("down x . (<r> down y . [r] y & [A] down z . <r> z)") == [
        (DB, ()), (DB, (0, 0, 0)),
    ]
    assert witnesses("([r] down x . [r] p) & [A] down y . [r] q") == [
        (BDB, (0, 0)), (BDB, (1, 0)), (DB, (0, 0)), (DB, (1, 0)),
    ]


def test_witnesses_binder_with_two_universal_ancestors():
    assert witnesses("[A] [r] down x . [r] x") == [(BDB, (0, 0)), (DB, (0, 0))]


def test_witnesses_graded_restrictions_in_order():
    assert witnesses("[s] ([r]^1 down x . [r] x & <r>^2 [r] p)") == [
        (BDB, (0, 0, 0)), (DB, (0, 0, 0)),
        (G1A, (0, 0)), (G1B, (0, 0)), (G2, (0, 1)),
    ]
    assert witnesses("[s] [r]^1 [r]^2 down x . [r] x") == [
        (BDB, (0, 0, 0)), (DB, (0, 0, 0)),
        (G1A, (0,)), (G1B, (0,)), (G1A, (0, 0)), (G1B, (0, 0)),
    ]
    assert witnesses("[A] <r>^1 (<r>^2 [r] p & [A] p)") == [(G2, (0,)), (G2, (0, 0, 0))]


def test_witnesses_tilings():
    assert classify(tiling_at(default_tiles())).witnesses == [
        (G1A, (0, 0, 1, 0, 1, 0)), (G1A, (0, 0, 1, 1, 0)),
    ]
    assert classify(tiling_conv(default_tiles())).witnesses == [
        (G1A, (0, 0, 0, 1, 0, 1, 0)), (G1A, (0, 0, 0, 1, 1, 0)),
        (G1A, (0, 0, 1, 0, 0)), (G1A, (0, 0, 1, 1, 0)),
    ]


def random_hybrid(rng, depth):
    """A formula over variables x and y with negations anywhere, graded
    modalities (also under negation), @-prefixes that are variables, and
    binders that may shadow an enclosing binder of the same variable."""
    if depth == 0:
        return rng.choice([Prop("p"), Nom("a"), Var("x"), Var("y")])
    sub = lambda: random_hybrid(rng, depth - 1)
    op = rng.randrange(9)
    if op == 0:
        return Neg(sub())
    if op == 1:
        return rng.choice([And, Or])(sub(), sub())
    if op in (2, 3):
        grade = rng.choice([None, None, 0, 1, 2])
        return rng.choice([Diamond, Box])(rng.choice([fwd("r"), bwd("r")]), sub(), grade)
    if op == 4:
        return rng.choice([E, A])(sub())
    if op == 5:
        return At(rng.choice([Nom("a"), Var("x"), Var("y")]), sub())
    return Down(rng.choice("xy"), sub())


def ref_free(f, bound=frozenset()):
    if isinstance(f, Var):
        return set() if f.name in bound else {f.name}
    if isinstance(f, Down):
        return ref_free(f.sub, bound | {f.var})
    if isinstance(f, At):
        return ref_free(f.at, bound) | ref_free(f.sub, bound)
    return set().union(*(ref_free(g, bound) for g in children(f)))


def ref_grades(f):
    return getattr(f, "grade", None) is not None or any(map(ref_grades, children(f)))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_scan_grades_and_free_match_reference(seed):
    f = random_hybrid(random.Random(seed), 5)
    for g in (f, nnf(f)):
        found = scan(g)
        assert found.grades == ref_grades(f)
        assert found.free == ref_free(f)


def test_scan_free_variables_by_example():
    assert scan(Down("x", And(Var("x"), Var("y")))).free == {"y"}
    # an @-prefix counts, and an inner binder shadows the outer one
    assert scan(At(Var("z"), Prop("p"))).free == {"z"}
    assert scan(Down("x", At(Var("x"), Down("x", Var("x"))))).free == set()
    assert scan(And(Var("x"), Down("x", Var("x")))).free == {"x"}
    # grades count under negation and inside @
    assert scan(Neg(At(Nom("a"), Diamond(fwd("r"), Prop("p"), 0)))).grades
    assert not scan(parse_formula("[r] <r> p")).grades
