import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab import fragments, parser, preprocess, tableau
from hylotab.corpus import functionality_formula, tiling_at, tiling_conv, default_tiles
from hylotab.formulas import (
    A,
    And,
    At,
    Bot,
    Box,
    Diamond,
    Down,
    E,
    Neg,
    Nom,
    Or,
    Prop,
    Top,
    Var,
    bwd,
    children,
    fwd,
    nnf,
    rel_syms,
)
from hylotab.fragments import FragmentError, classify, scan
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


NAMES = [Prop("p"), Nom("a"), Var("x"), Top(), Bot()]


@st.composite
def hybrid_formulas(draw, depth=4):
    """Like `random_hybrid`, with true and false too and two relation symbols."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(NAMES))
    sub = lambda: draw(hybrid_formulas(depth - 1))
    op = draw(st.integers(0, 6))
    if op == 0:
        return Neg(sub())
    if op == 1:
        return draw(st.sampled_from([And, Or]))(sub(), sub())
    if op == 2:
        rel = draw(st.sampled_from([fwd("r"), bwd("r"), fwd("s")]))
        grade = draw(st.sampled_from([None, 0, 2]))
        return draw(st.sampled_from([Diamond, Box]))(rel, sub(), grade)
    if op == 3:
        return draw(st.sampled_from([E, A]))(sub())
    if op == 4:
        return At(draw(st.sampled_from([Nom("a"), Var("x")])), sub())
    return Down(draw(st.sampled_from("xy")), sub())


@given(hybrid_formulas())
@settings(max_examples=300, deadline=None)
def test_scan_nnf_and_rels_match_reference(g):
    found = scan(g)
    assert found.nnf == (nnf(g) is g)
    assert found.rels == rel_syms(g)


def test_scan_nnf_and_rels_by_example():
    for text, in_nnf in [
        ("!true", False), ("!false", False), ("!!p", False), ("<r> ! <s> p", False),
        ("down x . @x !!x", False), ("!p & !'a", True), ("down x . @x !x", True),
    ]:
        assert scan(parse_formula(text)).nnf is in_nnf, text
    assert scan(f("[r-]^1 p & @'a <s> <E> q")).rels == {"r", "s"}
    assert scan(f("@'a [A] p")).rels == frozenset()


def test_scan_is_kept_on_the_node_and_immutable():
    g = f("[r] down x . [r] x & [s] <r>^2 [r] !'a")
    found = scan(g)
    assert scan(g) is found
    for name in ("box_down_box", "down_box", "graded"):
        assert isinstance(getattr(found, name), tuple) and getattr(found, name)
    assert isinstance(found.free, frozenset) and isinstance(found.rels, frozenset)
    # classify and FragmentError still hand out lists
    witnesses = found.box_down_box + found.down_box + found.graded
    assert classify(Problem([], g)).witnesses == list(witnesses)
    assert FragmentError("outside", found.graded).witnesses == list(found.graded)


def count_walks(monkeypatch, text):
    """Root calls of the whole-formula walks of parse, preprocess and solve."""
    counts = Counter()

    def counted(key, fn):
        depth = [0]

        def wrapper(*args):
            counts[key] += not depth[0]
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapper

    for module, name in [(fragments, "_scan"), (fragments, "nnf"), (tableau, "nnf"),
                         (preprocess, "expand_grades"), (preprocess, "_tau")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    result = tableau.solve(preprocess.preprocess(parser.parse(text)))
    assert result.verdict in ("sat", "unsat")
    return counts


def test_one_scan_and_no_other_walk_on_plain_input(monkeypatch):
    # grade-free, in NNF, and its one binder scopes over no universal: the
    # formula's facts answer every scan, so not even the witness walk runs
    text = "trans r; r <= s; formula: <r> p & [s] (q | down x . <r-> x) & @'a !p;"
    assert count_walks(monkeypatch, text) == {}


def test_graded_input_scans_at_most_three_times(monkeypatch):
    counts = count_walks(monkeypatch, "formula: <r>^2 p & [r]^3 !p;")
    assert counts["_scan"] <= 3
    assert counts["expand_grades"] == counts["_tau"] == 1
