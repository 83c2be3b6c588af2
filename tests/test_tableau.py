import pytest

from hylotab.formulas import Box, Diamond, Incl, Nom, Prop, Trans, bwd, fwd
from hylotab.parser import parse
from hylotab.preprocess import preprocess
from hylotab.tableau import (
    Branch,
    Limits,
    Sat,
    edge_label,
    edge_readings,
    init_branch,
    is_blockable,
    is_relational,
    solve,
)

REFUTATION = "trans r; r <= s; s <= r; formula: <s> <s> p & [s] !p;"


def decide(text, **kw):
    return solve(preprocess(parse(text)), Limits(timeout=15, **kw))


def test_relational_labels():
    lab = Sat("a", Diamond(fwd("r"), Nom("b")))
    assert is_relational(lab)
    assert not is_blockable(lab)
    assert edge_readings(lab) == (("a", fwd("r"), "b"), ("b", bwd("r"), "a"))
    assert edge_label("a", bwd("r"), "b") == Sat("b", Diamond(fwd("r"), Nom("a")))


def test_backward_diamond_is_blockable():
    assert is_blockable(Sat("a", Diamond(bwd("r"), Nom("b"))))
    assert is_blockable(Sat("a", Diamond(fwd("r"), Prop("p"))))


def test_init_branch_assertion_closure():
    b = init_branch(parse("trans r; r <= s; s <= r; formula: p;"))
    assert Incl(fwd("r"), "r") in b.incls
    assert Incl(fwd("s"), "s") in b.incls
    assert Incl(fwd("r"), "s") in b.incls
    assert Incl(fwd("s"), "r") in b.incls
    assert b.trans.keys() == {"r"}


def test_init_branch_mixed_sign_closure():
    b = init_branch(parse("r- <= s; s <= t; formula: p;"))
    assert Incl(bwd("r"), "t") in b.incls
    b = init_branch(parse("r <= s; s- <= t; formula: p;"))
    # r <= s means r- <= s-, which chains with s- <= t
    assert Incl(bwd("r"), "t") in b.incls


def test_refutation_regression():
    res = decide(REFUTATION)
    assert res.verdict == "unsat"
    rules = [res.branch.prov[i][0] for i in range(len(res.branch.labels))]
    assert "Link" in rules
    assert "Trans" in rules
    assert "Rel0" in rules


def test_refutation_rel0_precede_expansion():
    res = decide(REFUTATION)
    rules = [res.branch.prov[i][0] for i in range(len(res.branch.labels))]
    last_setup = max(
        i for i, r in enumerate(rules) if r in ("init", "assert", "Rel0", "Rel")
    )
    first_expansion = min(
        i for i, r in enumerate(rules) if r not in ("init", "assert", "Rel0", "Rel")
    )
    assert last_setup < first_expansion


def test_offspring_bookkeeping():
    res = decide("formula: <r> (p & <r> q);")
    assert res.verdict == "sat"
    b = res.branch
    for i, lab in enumerate(b.labels):
        rule, prem = b.prov[i]
        if rule == "dia":
            # witness rules create children of the expanded node
            assert b.prec[i] == prem[0]
        elif rule == "and":
            # other rules create siblings of a premise
            assert b.prec[i] == b.prec[prem[0]]


def test_deterministic_traces():
    a = decide(REFUTATION).trace
    b = decide(REFUTATION).trace
    assert a == b


@pytest.mark.parametrize(
    "text,want",
    [
        ("formula: <r> p & [r] q;", "sat"),
        ("formula: p & !p;", "unsat"),
        ("formula: <E> (p & !p);", "unsat"),
        ("formula: [A] <r> true;", "sat"),
        ("formula: 'a & <r> 'a & [A] <r> true;", "sat"),
        ("trans r; formula: 'a & <r> <r> 'b & @'b [r-] !'a;", "unsat"),
        ("formula: @'a <r> 'b & @'b <r-> 'a;", "sat"),
        ("formula: @'a 'b & @'a p & @'b !p;", "unsat"),
        ("r <= s; formula: @'a <r> 'b & @'a [s] p & @'b !p;", "unsat"),
        ("formula: down x . <r> !x;", "sat"),
        ("formula: <r>^2 true & [r]^1 false;", "unsat"),
        ("formula: <r>^1 true & [r]^2 false;", "sat"),
        ("trans r; formula: <r> <r> p & [r] !p;", "unsat"),
        ("formula: <r> <r> p & [r] !p;", "sat"),
        ("r- <= r; formula: @'a <r> 'b & @'b [r] !'a;", "unsat"),
        ("formula: [A] false;", "unsat"),
        ("formula: <E> down x . [A] x & <E> p & <E> !p;", "unsat"),
    ],
)
def test_known_verdicts(text, want):
    assert decide(text).verdict == want


def test_equality_merges_nominals():
    res = decide("formula: @'a 'b & @'a p;")
    assert res.verdict == "sat"
    assert ("a", "b") in res.branch.subst_log or ("b", "a") in res.branch.subst_log


def test_limits_report_resource_exhaustion():
    res = solve(
        preprocess(parse("formula: [A] <r> true;")),
        Limits(max_nodes=3, timeout=15),
    )
    assert res.verdict == "limit"


def test_rejects_graded_input():
    with pytest.raises(ValueError):
        solve(parse("formula: <r>^1 p;"))


@pytest.mark.parametrize("text", ["[A] <r> down x . [r-] !x", "down x . [r] !x"])
def test_rejects_binder_over_universal(text):
    from hylotab.fragments import FragmentError

    with pytest.raises(FragmentError) as exc:
        solve(parse("formula: %s;" % text), Limits(timeout=5))
    assert exc.value.witnesses


def test_rejects_open_formula():
    from hylotab.formulas import Var
    from hylotab.parser import Problem

    with pytest.raises(ValueError):
        solve(Problem([], Var("x")))
