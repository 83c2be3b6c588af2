import pytest

from hylotab import tableau
from hylotab.blocking import BlockInfo, recompute_blocking
from hylotab.corpus import random_fragment_problem
from hylotab.formulas import (
    A, And, At, Bot, Box, Diamond, Down, Incl, Neg, Nom, Or, Prop, Var, bwd, fwd, nominals,
    subst_nom,
)
from hylotab.fragments import FragmentError
from hylotab.parser import Problem, parse, parse_formula
from hylotab.preprocess import preprocess
from hylotab.semantics import validate_extraction
from hylotab.tableau import (
    Branch,
    Limits,
    Sat,
    conclusions,
    edge_label,
    edge_readings,
    init_branch,
    is_blockable,
    is_relational,
    solve,
)

from test_blocking import nominal_profiles
from test_engine_golden import LIMITS, corpus, counting_problems

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
        # Link skips r <= r on forward readings only: here r- <= r must fire on
        # the backward reading of 'a <r> 'b to give 'b <r> 'a
        ("r- <= r; formula: @'a <r> 'b & @'b [r] !p & @'a p;", "unsat"),
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


@pytest.mark.parametrize("text", ["<r>^80 p", "[r]^141 p"])
def test_deep_graded_input_is_decided(text):
    """Comparing and hashing labels walks no formula, so the deep expansion
    of a small graded input is solved and its model validates."""
    q = preprocess(parse("formula: %s;" % text))
    res = solve(q)
    assert res.verdict == "sat"
    assert validate_extraction(res.branch, res.blocking, q)[0]


def test_rejects_graded_input():
    with pytest.raises(ValueError):
        solve(parse("formula: <r>^1 p;"))


@pytest.mark.parametrize("text", ["[A] <r> down x . [r-] !x", "down x . [r] !x"])
def test_rejects_binder_over_universal(text):
    from hylotab.fragments import FragmentError

    with pytest.raises(FragmentError) as exc:
        solve(parse("formula: %s;" % text), Limits(timeout=5))
    assert exc.value.witnesses


def init_error(formula):
    with pytest.raises(ValueError) as exc:
        init_branch(Problem([], formula))
    return type(exc.value).__name__, str(exc.value), getattr(exc.value, "witnesses", None)


def test_init_branch_error_messages():
    graded = ("ValueError", "graded operators must be eliminated before solving", None)
    ground = ("ValueError", "input formula must be ground", None)
    over = parse_formula("down x . [r] x")
    assert init_error(parse_formula("<r>^1 p")) == graded
    # checked in order: grades, then free variables, then binders over universals
    assert init_error(And(Var("y"), parse_formula("<r>^1 p & down x . [r] x"))) == graded
    assert init_error(And(Var("y"), over)) == ground
    assert init_error(At(Var("y"), parse_formula("p"))) == ground
    assert init_error(Down("y", And(over, Var("y")))) == (
        "FragmentError",
        "binder scoping over a universal operator; preprocess first",
        [("down-box", ()), ("down-box", (0, 0))],
    )


def test_rejects_open_formula():
    with pytest.raises(ValueError):
        solve(Problem([], Var("x")))


@pytest.mark.parametrize(
    "limits,want",
    [
        (Limits(max_nodes=3, timeout=15), "nodes"),
        (Limits(max_branches=1, timeout=15), "branches"),
        (Limits(timeout=-1.0), "timeout"),
        (Limits(timeout=15), None),
    ],
)
def test_stats_name_the_limit_that_fired(limits, want):
    # the left disjunct closes, so a second branch is needed
    res = solve(preprocess(parse("formula: [A] <r> true & ((p & !p) | q);")), limits)
    assert res.stats["limit"] == want
    assert res.verdict == ("sat" if want is None else "limit")


@pytest.mark.parametrize(
    "kw", [{"max_nodes": 0}, {"max_branches": 0}, {"max_branches": -1}, {"timeout": float("nan")}])
def test_limits_reject_caps_that_cannot_hold(kw):
    with pytest.raises(ValueError):
        Limits(**kw)


# -- the branch views against from-scratch views ------------------------------

def ref_closure(labels):
    """The first contradictory pair in node order, by a full scan."""
    pos, neg = {}, {}
    for i, lab in enumerate(labels):
        if not isinstance(lab, Sat):
            continue
        f = lab.body
        if isinstance(f, Bot) or (isinstance(f, Neg) and f.sub == Nom(lab.nom)):
            return (i, i)
        if isinstance(f, Prop):
            if (lab.nom, f.name) in neg:
                return (i, neg[(lab.nom, f.name)])
            pos.setdefault((lab.nom, f.name), i)
        elif isinstance(f, Neg) and isinstance(f.sub, Prop):
            if (lab.nom, f.sub.name) in pos:
                return (pos[(lab.nom, f.sub.name)], i)
            neg.setdefault((lab.nom, f.sub.name), i)
    return None


def scratch_blocking(labels, prec):
    """The BlockInfo of all nodes, computed from empty."""
    return recompute_blocking(
        labels,
        prec,
        [is_blockable(lab) for lab in labels],
        nominal_profiles([lab for lab in labels if isinstance(lab, Sat)]),
        {labels[0].nom} | nominals(labels[0].body),
    )


def scratch_lits(labels):
    """(nominal, prop, positive?) -> first node, computed from empty."""
    lits = {}
    for i, lab in enumerate(labels):
        if isinstance(lab, Sat) and isinstance(lab.body, Prop):
            lits.setdefault((lab.nom, lab.body.name, True), i)
        elif isinstance(lab, Sat) and isinstance(lab.body, Neg) and isinstance(lab.body.sub, Prop):
            lits.setdefault((lab.nom, lab.body.sub.name, False), i)
    return lits


def check_index(branch):
    """Compare the branch's views with from-scratch ones; call `branch.blocking()`
    first, so that the live views cover every node.
    """
    labels = branch.labels
    assert branch.closure_witness() == ref_closure(labels)
    assert branch.blockable == [is_blockable(lab) for lab in labels]
    boxes = {}
    for i, lab in enumerate(labels):
        if isinstance(lab, Sat) and isinstance(lab.body, Box):
            boxes.setdefault(lab.nom, []).append(i)
    assert branch.boxes == {a: tuple(ids) for a, ids in boxes.items()}
    assert branch.a_nodes == tuple(
        i for i, lab in enumerate(labels) if isinstance(lab, Sat) and isinstance(lab.body, A)
    )
    assert branch.lits == scratch_lits(labels)
    assert branch.profiles == nominal_profiles([lab for lab in labels if isinstance(lab, Sat)])
    assert branch.top_noms == {labels[0].nom} | nominals(labels[0].body)
    assert branch.seen == len(labels) and not branch.copied
    # decisions, skeleton groups and compared nominals
    info = scratch_blocking(labels, branch.prec)
    assert branch.info == info
    live = [i for i, lab in enumerate(labels) if isinstance(lab, Sat) and not info.phantom[i]]
    npl = {labels[i] for i in live}
    assert branch.live == live
    assert branch.npl == npl
    assert branch.readings == [
        (m,) + r for m in live if is_relational(labels[m]) for r in edge_readings(labels[m])
    ]
    eqs = [i for i in live if isinstance(labels[i].body, Nom) and labels[i].body.name != labels[i].nom]
    assert branch.eq == (eqs[0] if eqs else None)
    first_at = {}
    for i in live:
        for a in [labels[i].nom] + sorted(nominals(labels[i].body)):
            first_at.setdefault(a, i)
    assert list(branch.first_occurrences().items()) == list(first_at.items())
    # the cursors only pass nodes whose rule has nothing left to add
    for i in live[: branch.concl]:
        assert set(conclusions(labels[i])) <= npl or isinstance(labels[i].body, Or)
    for _m, x, rel, y in branch.readings[: branch.link]:
        assert all(edge_label(x, fwd(c.right), y) in npl for c in branch.incls if c.left == rel)
    for i in live[: branch.split]:
        if isinstance(labels[i].body, Or):
            assert set(conclusions(labels[i])) & npl
    for i in live[: branch.witness]:
        assert not branch.blockable[i] or i in branch.expanded or branch.info.direct[i]
    # box, A and Trans instances marked done have their conclusion in npl;
    # an A mark of a nominal merged away since names no instance any more
    for key in branch.done:
        if key[0] == "A":
            _rule, j, nom = key
            assert nom not in first_at or Sat(nom, labels[j].body.sub) in npl
            continue
        rule, p, j = key
        _m, x, rel, y = branch.readings[p]
        g = labels[j].body
        assert labels[j].nom == x and isinstance(g, Box)
        if rule == "box":
            assert g.rel == rel and Sat(y, g.sub) in npl
        else:
            assert rule == "Trans" and rel.sym in branch.trans and branch.has_incl(rel, g.rel)
            assert Sat(y, Box(rel, g.sub)) in npl


def test_closure_keeps_the_first_clash():
    b = Branch()
    for lab in [Sat("a", Prop("p")), Sat("a", Prop("q")), Sat("b", Neg(Prop("p")))]:
        b.add(lab, None, "init", ())
    assert b.closure_witness() is None
    b.add(Sat("a", Neg(Prop("q"))), None, "init", ())
    b.add(Sat("a", Neg(Prop("p"))), None, "init", ())
    assert b.closure_witness() == (1, 3)
    b.add(Sat("a", Bot()), None, "init", ())
    assert b.closure_witness() == (1, 3)
    # a substitution patches the tables: 'b: !p becomes 'a: !p
    b.substitute("b", "a", 0)
    assert b.closure_witness() == ref_closure(b.labels) == (0, 2)


def test_substitution_moves_the_clash_to_the_first_literal():
    b = Branch()
    for lab in [Sat("a", Prop("p")), Sat("b", Prop("p")), Sat("b", Neg(Prop("p")))]:
        b.add(lab, None, "init", ())
    assert b.closure_witness() == (1, 2)
    # after a -> b, node 2 still closes the branch, now against node 0
    b.substitute("a", "b", 0)
    assert b.closure_witness() == ref_closure(b.labels) == (0, 2)
    # a's literal moves to b without displacing b's earlier first node
    b = Branch()
    for lab in [Sat("b", Prop("p")), Sat("a", Prop("p"))]:
        b.add(lab, None, "init", ())
    b.substitute("a", "b", 0)
    b.add(Sat("b", Neg(Prop("p"))), None, "init", ())
    assert b.closure_witness() == ref_closure(b.labels) == (0, 2)
    # 'c: !'d becomes 'c: !'c, which closes the branch alone
    b = Branch()
    for lab in [Sat("c", Prop("p")), Sat("d", Neg(Prop("q"))), Sat("c", Neg(Nom("d")))]:
        b.add(lab, None, "init", ())
    b.substitute("d", "c", 0)
    assert b.closure_witness() == ref_closure(b.labels) == (2, 2)


def test_profile_change_recomputes_blocking():
    b = Branch()
    dia = Diamond(fwd("r"), Prop("p"))
    for lab in [Sat("_0", Prop("t")), Sat("a", dia), Sat("b", dia)]:
        b.add(lab, None, "init", ())
    assert b.blocking().blocker == [None, None, 1]
    # 'a: [r] q gives a and b different profiles, so b is no longer blocked
    b.add(Sat("a", Box(fwd("r"), Prop("q"))), None, "init", ())
    assert b.blocking().blocker == [None, None, None, None]
    check_index(b)
    # 'b: [r] q makes them equal again, so b is blocked again
    b.add(Sat("b", Box(fwd("r"), Prop("q"))), None, "init", ())
    assert b.blocking().blocker == [None, None, 1, None, None]
    check_index(b)


def test_events_away_from_blocking_keep_the_blockinfo():
    b = Branch()
    dia = Diamond(fwd("r"), Prop("p"))
    for lab in [Sat("_0", Prop("t")), Sat("a", dia), Sat("c", dia), Sat("d", Prop("q")),
                Sat("e", Prop("s")), Sat("f", Diamond(fwd("r"), Prop("q")))]:
        b.add(lab, None, "init", ())
    info = b.blocking()
    decisions = (list(info.direct), list(info.phantom), list(info.blocker))
    assert info.blocker[2] == 1
    # a merge and Prop labels on nominals that no two nodes of one
    # skeleton mention: 'f: <r> q is alone in its skeleton class
    b.substitute("e", "d", 0)
    b.add(Sat("d", Prop("u")), None, "init", ())
    b.add(Sat("f", Prop("u")), None, "init", ())
    assert b.blocking() is info
    assert (info.direct[:6], info.phantom[:6], info.blocker[:6]) == decisions
    assert b.profiles["d"] == (frozenset({"q", "s", "u"}), frozenset())
    check_index(b)


@pytest.mark.parametrize(
    "extra,merge",
    [
        # after a -> d, the profile of d (was a) equals that of c
        ([Sat("c", Prop("q")), Sat("d", Prop("q"))], ("a", "d")),
        # after x -> y, the Box labels of a and c agree; neither a nor c
        # is merged, so the owners of renamed Box labels must count
        ([Sat("a", Box(fwd("r"), Nom("x"))), Sat("c", Box(fwd("r"), Nom("y")))], ("x", "y")),
    ],
)
def test_merge_that_equalizes_profiles_blocks_as_from_scratch(extra, merge):
    b = Branch()
    dia = Diamond(fwd("r"), Prop("p"))
    for lab in [Sat("_0", Prop("t")), Sat("a", dia), Sat("c", dia)] + extra:
        b.add(lab, None, "init", ())
    assert not any(b.blocking().direct)  # a and c have different profiles
    b.substitute(*merge, 0)
    after = b.blocking()
    assert after.direct == [False, False, True, False, False]
    assert after == scratch_blocking(b.labels, b.prec)
    check_index(b)


def test_every_blockinfo_comes_from_recompute_blocking(monkeypatch):
    """The benchmark's tracer reads the blocked-node counts from the last
    BlockInfo that `tableau.recompute_blocking` returned; every BlockInfo a
    branch uses must be such an object, changed in place since.
    """
    real_recompute, real_blocking = tableau.recompute_blocking, Branch.blocking
    made, last = {}, []  # id -> returned object, kept alive; the last one
    sat = checks = 0

    def recording(*args):
        info = real_recompute(*args)
        made[id(info)] = info
        last[:] = [info]
        return info

    def checked(branch):
        nonlocal checks
        info = real_blocking(branch)
        assert made.get(id(info)) is info
        checks += 1
        return info

    monkeypatch.setattr(tableau, "recompute_blocking", recording)
    monkeypatch.setattr(Branch, "blocking", checked)
    for _pid, problem in corpus():
        try:
            prepared = preprocess(problem)
        except FragmentError:
            continue
        res = solve(prepared, LIMITS)
        if res.is_sat:
            assert res.blocking is last[0]
            sat += 1
    assert sat > 200 and checks > 1500


def test_merges_rewrite_labels_as_one_call_per_label(monkeypatch):
    """Each merge's shared memo gives every label the memo-free rewrite."""
    real_substitute, merges = Branch.substitute, 0

    def checked(branch, a, b, deps):
        nonlocal merges
        want = [Sat(b if lab.nom == a else lab.nom, subst_nom(lab.body, a, b))
                if isinstance(lab, Sat) else lab for lab in branch.labels]
        real_substitute(branch, a, b, deps)
        assert branch.labels == want
        merges += 1

    monkeypatch.setattr(Branch, "substitute", checked)
    for _pid, problem in [*corpus(), *deep_random_corpus()]:
        try:
            prepared = preprocess(problem)
        except FragmentError:
            continue
        solve(prepared, LIMITS)
    assert merges > 200


def deep_random_corpus():
    """Random fragment problems 0-39 at depths 8-10.  They still split and
    merge, where the counting problems now split once and merge little."""
    for depth in (8, 9, 10):
        for s in range(40):
            yield "d%d-%d" % (depth, s), random_fragment_problem(s, depth=depth)


def wider_corpus():
    """The golden corpus, the counting problems with n, m <= 3 it leaves
    out, and the deep random corpus."""
    golden = dict(corpus())
    return list(golden.items()) + [
        (pid, problem) for pid, problem in counting_problems(4) if pid not in golden
    ] + list(deep_random_corpus())


def compared_branch():
    """'a: <r>p and 'c: <r>p are compared (c is blocked by a); 'd: <r>q is
    alone in its skeleton group, so d is never compared."""
    b = Branch()
    for lab in [Sat("_0", Prop("q")), Sat("a", Diamond(fwd("r"), Prop("p"))),
                Sat("c", Diamond(fwd("r"), Prop("p"))), Sat("d", Diamond(fwd("r"), Prop("q")))]:
        b.add(lab, None, "init", ())
    info = b.blocking()
    assert info.consulted == {"a", "c"} and info.direct == [False, False, True, False]
    return b, info


@pytest.mark.parametrize("event", [
    lambda b, a: b.add(Sat(a, Prop("s")), None, "init", ()),
    lambda b, a: b.add(Sat(a, Box(fwd("r"), Prop("s"))), None, "init", ()),
    lambda b, a: b.substitute(a, "e", 0),
], ids=["prop", "box", "merge"])
@pytest.mark.parametrize("nom, kept", [("d", True), ("a", False), ("c", False)])
def test_views_reset_exactly_when_a_consulted_nominal_changes(event, nom, kept):
    b, info = compared_branch()
    event(b, nom)
    if kept:
        assert b.info is info
    else:
        assert b.info is None
    b.blocking()
    check_index(b)


def test_index_matches_from_scratch_views(monkeypatch):
    real_step = tableau.step
    seen = {"steps": 0, "kept merges": 0, "reset merges": 0, "kept splits": 0, "marks": 0}

    def checked(branch):
        merges = len(branch.subst_log)
        status, other = real_step(branch)
        if len(branch.subst_log) > merges:
            seen["kept merges" if branch.info else "reset merges"] += 1
        if branch.info is None:  # the step reset the live views
            assert not branch.done
        seen["marks"] += len(branch.done)
        # the next step's blocking() then extends over nothing
        branch.blocking()
        check_index(branch)
        if status == "split":
            seen["kept splits"] += other.copied
            other.blocking()
            check_index(other)
        seen["steps"] += 1
        return status, other

    monkeypatch.setattr(tableau, "step", checked)
    for _pid, problem in wider_corpus():
        try:
            prepared = preprocess(problem)
        except FragmentError:
            continue
        solve(prepared, LIMITS)
    assert seen["steps"] > 2000 and seen["kept merges"] > 200 and seen["kept splits"] > 200
    assert seen["reset merges"] > 0 and seen["marks"] > 1000


def mutable_parts(value, out):
    """Add to `out` the ids of the lists, dicts and sets reachable from
    `value` through them, tuples and BlockInfo fields; labels are
    immutable and not entered."""
    if isinstance(value, BlockInfo):
        value = tuple(vars(value).values())
    elif isinstance(value, (list, dict, set)):
        out.add(id(value))
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            mutable_parts(item, out)
    return out


def test_split_copy_shares_no_mutable_state(monkeypatch):
    """Checked at every split of the golden and deep random corpora: the
    copy's containers, its BlockInfo's lists and skeleton groups included,
    are its own."""
    real_copy, splits = Branch.copy, 0

    def checked(branch):
        nonlocal splits
        other = real_copy(branch)
        assert vars(other).keys() == vars(branch).keys()
        mine = mutable_parts(tuple(vars(branch).values()), set())
        assert mine and not mine & mutable_parts(tuple(vars(other).values()), set())
        splits += 1
        return other

    monkeypatch.setattr(Branch, "copy", checked)
    for _pid, problem in [*corpus(), *deep_random_corpus()]:
        try:
            prepared = preprocess(problem)
        except FragmentError:
            continue
        solve(prepared, LIMITS)
    assert splits > 200
