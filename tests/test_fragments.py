from collections import Counter

import pytest

from hylotab import fragments, parser, preprocess, tableau
from hylotab.corpus import functionality_formula, tiling_at, tiling_conv, default_tiles
from hylotab.formulas import (
    GRADED,
    NOT_NNF,
    And,
    At,
    Diamond,
    Down,
    Neg,
    Nom,
    Prop,
    Var,
    fwd,
    nnf,
    rel_syms,
)
from hylotab.fragments import FragmentError, classify
from hylotab.parser import Problem, parse_formula


def f(text):
    return nnf(parse_formula(text))


def verdict(text):
    return classify(Problem([], parse_formula(text)))


def test_down_box_detection():
    assert verdict("down x . [r] !x").has_down_box
    assert not verdict("down x . <r> x").has_down_box
    # the global box counts as a universal operator
    assert verdict("down x . [A] x").has_down_box


def test_box_down_box_detection():
    assert verdict("[r] down x . [r] x").has_box_down_box
    assert not verdict("down x . [r] x").has_box_down_box
    assert not verdict("[r] down x . <r> x").has_box_down_box
    # scope is tree dominance, not intermediated by @
    assert verdict("[A] down x . @'a [r] p").has_box_down_box


def test_box_down_box_through_negation():
    # NNF turns the negated diamond into a box
    assert verdict("! <r> down x . <r> !x").has_box_down_box


def test_graded_restrictions():
    assert verdict("[r]^1 p").graded_ok
    for text, kind in [("[s] [r]^1 p", "1a"), ("[r]^1 down x . [r] x", "1b"),
                       ("[s] <r>^2 [r] p", "(2)")]:
        assert not verdict(text).graded_ok
        assert any(kind in name for name, _ in witnesses(text)), text
    assert verdict("[s] <r>^2 p").graded_ok
    assert verdict("<r>^2 [r] p").graded_ok


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


def test_free_variables_by_example():
    assert Down("x", And(Var("x"), Var("y"))).facts[1] == {"y"}
    # an @-prefix counts, and an inner binder shadows the outer one
    assert At(Var("z"), Prop("p")).facts[1] == {"z"}
    assert Down("x", At(Var("x"), Down("x", Var("x")))).facts[1] == set()
    assert And(Var("x"), Down("x", Var("x"))).facts[1] == {"x"}
    # grades count under negation and inside @
    assert Neg(At(Nom("a"), Diamond(fwd("r"), Prop("p"), 0))).facts[3] & GRADED
    assert not parse_formula("[r] <r> p").facts[3] & GRADED


def test_nnf_and_rels_by_example():
    for text, in_nnf in [
        ("!true", False), ("!false", False), ("!!p", False), ("<r> ! <s> p", False),
        ("down x . @x !!x", False), ("!p & !'a", True), ("down x . @x !x", True),
    ]:
        assert (not parse_formula(text).facts[3] & NOT_NNF) is in_nnf, text
    assert rel_syms(f("[r-]^1 p & @'a <s> <E> q")) == {"r", "s"}
    assert rel_syms(f("@'a [A] p")) == frozenset()


def count_walks(monkeypatch, text):
    """Root calls of the whole-formula walks of parse, preprocess and solve.
    `expand_grades` and `_tau` recurse through the patched globals, so a
    root call counts when it re-enters, that is when it walks.  `nnf`
    recurses inside `formulas`, so a call counts when it rewrites: an NNF
    input is returned itself, from its facts.  `witnesses` counts always."""
    counts = Counter()

    def counted(key, fn, walked):
        depth, entries = [0], [0]

        def wrapper(*args):
            if not depth[0]:
                entries[0] = 0
            depth[0] += 1
            entries[0] += 1
            try:
                out = fn(*args)
            finally:
                depth[0] -= 1
            if not depth[0] and walked(args[0], out, entries[0]):
                counts[key] += 1
            return out

        return wrapper

    always = lambda f, out, entries: True
    rewrote = lambda f, out, entries: out is not f
    reentered = lambda f, out, entries: entries > 1
    for module, name, walked in [(fragments, "witnesses", always), (fragments, "nnf", rewrote),
                                 (tableau, "nnf", rewrote),
                                 (preprocess, "expand_grades", reentered),
                                 (preprocess, "_tau", reentered)]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name), walked))
    result = tableau.solve(preprocess.preprocess(parser.parse(text)))
    assert result.verdict in ("sat", "unsat")
    return counts


def test_one_scan_and_no_other_walk_on_plain_input(monkeypatch):
    # grade-free, in NNF, and its one binder scopes over no universal: the
    # formula's facts answer every check, so no walk runs
    text = "trans r; r <= s; formula: <r> p & [s] (q | down x . <r-> x) & @'a !p;"
    assert count_walks(monkeypatch, text) == {}


def test_graded_input_scans_at_most_three_times(monkeypatch):
    # valid input: its facts say where to rewrite, so no position is walked for
    counts = count_walks(monkeypatch, "formula: <r>^2 p & [r]^3 !p;")
    assert counts == {"expand_grades": 1, "_tau": 1}


def test_classify_walks_only_the_nnf(monkeypatch):
    problem = parser.parse("formula: !(<r> down x . <r> [r] x) & [s] down y . [s] y;")
    walked = []
    walk = fragments.witnesses
    monkeypatch.setattr(fragments, "witnesses", lambda g: walked.append(g) or walk(g))
    v = classify(problem)
    assert (v.has_box_down_box, v.has_down_box, v.graded_ok) == (True, True, True)
    assert walked == []  # the flags come from the bits
    assert v.witnesses == [(BDB, (0, 0)), (BDB, (1, 0)), (DB, (0, 0)), (DB, (1, 0))]
    with pytest.raises(FragmentError) as exc:
        preprocess.preprocess(problem)
    assert exc.value.witnesses == [(BDB, (0, 0)), (BDB, (1, 0))]
    assert walked == [nnf(problem.formula)] * 2
