import gc
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab import formulas
from hylotab.formulas import (
    BACKWARD,
    FORWARD,
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
    Relation,
    Top,
    Trans,
    Var,
    bwd,
    children,
    fwd,
    nnf,
    nominals,
    props,
    rel_syms,
    shape,
    size,
    subst_nom,
    subst_var,
    walk,
)
from hylotab.parser import parse
from hylotab.preprocess import preprocess
from hylotab.semantics import Interpretation, evaluate
from hylotab.tableau import Branch, Sat, solve

from test_blocking import ref_align


def random_formula(rng, depth, bound=()):
    """Ground formula with negations allowed anywhere, for testing the
    normal form translation."""
    if depth == 0:
        if bound and rng.random() < 0.3:
            return Var(rng.choice(bound))
        return rng.choice([Prop("p"), Prop("q"), Nom("a"), Top(), Bot()])
    op = rng.randrange(9)
    sub = lambda: random_formula(rng, depth - 1, bound)
    if op == 0:
        return Neg(sub())
    if op == 1:
        return And(sub(), sub())
    if op == 2:
        return Or(sub(), sub())
    if op == 3:
        return Diamond(fwd("r"), sub())
    if op == 4:
        return Box(rng.choice([fwd("r"), bwd("r")]), sub())
    if op == 5:
        return E(sub())
    if op == 6:
        return A(sub())
    if op == 7:
        return At(Nom("a"), sub())
    return Down("x", random_formula(rng, depth - 1, bound + ("x",)))


def random_model(rng, k=3):
    states = frozenset(range(k))
    rho = {"r": {(i, j) for i in range(k) for j in range(k) if rng.random() < 0.4}}
    nom = {"a": rng.randrange(k)}
    val = {
        w: frozenset(p for p in ("p", "q") if rng.random() < 0.5) for w in range(k)
    }
    return Interpretation(states, rho, nom, val)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_nnf_preserves_truth(seed):
    rng = random.Random(seed)
    f = random_formula(rng, 4)
    g = nnf(f)
    assert ref_is_nnf(g)
    for _ in range(3):
        m = random_model(rng)
        for w in m.states:
            assert evaluate(m, w, f) == evaluate(m, w, g)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_nnf_idempotent(seed):
    f = random_formula(random.Random(seed), 4)
    g = nnf(f)
    assert nnf(g) is g


def test_nnf_graded_duality():
    f = Neg(Diamond(fwd("r"), Prop("p"), grade=2))
    assert nnf(f) == Box(fwd("r"), Neg(Prop("p")), grade=2)
    f = Neg(Box(bwd("r"), Prop("p"), grade=1))
    assert nnf(f) == Diamond(bwd("r"), Neg(Prop("p")), grade=1)


def test_subst_var_respects_binding():
    f = And(Var("x"), Down("x", Var("x")))
    assert subst_var(f, "x", "a") == And(Nom("a"), Down("x", Var("x")))


def test_subst_nom_everywhere():
    f = At(Nom("a"), Diamond(fwd("r"), Nom("a")))
    assert subst_nom(f, "a", "b") == At(Nom("b"), Diamond(fwd("r"), Nom("b")))


def test_free_vars_and_nominals():
    f = Down("x", And(Var("x"), And(Var("y"), Nom("a"))))
    assert f.facts[1] == {"y"}
    assert nominals(f) == {"a"}


def test_size_counts_at_prefix_as_two():
    assert size(Prop("p")) == 1
    assert size(At(Nom("a"), Prop("p"))) == 3
    assert size(And(Prop("p"), Prop("q"))) == 3


def test_walk_is_preorder_with_at_prefix_first():
    f = And(At(Nom("a"), Prop("p")), Diamond(fwd("r"), Var("x")))
    assert list(walk(f)) == [
        f, f.left, Nom("a"), Prop("p"), f.right, Var("x")
    ]


def ref_size(f):
    if isinstance(f, At):
        return 2 + ref_size(f.sub)
    return 1 + sum(ref_size(g) for g in children(f))


def ref_is_nnf(f):
    if isinstance(f, Neg):
        return isinstance(f.sub, (Prop, Nom, Var))
    return all(ref_is_nnf(g) for g in children(f))


@pytest.mark.parametrize("seed", range(100))
def test_walk_views_agree_with_recursive_definitions(seed):
    rng = random.Random(seed)
    f = random_formula(rng, 5)
    if rng.random() < 0.3:
        f = And(f, Box(fwd("s"), Prop("t"), grade=1))
    nodes = [f]
    for g in nodes:
        nodes.extend(children(g))
    assert size(f) == ref_size(f)
    assert rel_syms(f) == {g.rel.sym for g in nodes if isinstance(g, (Diamond, Box))}
    assert props(f) == {g.name for g in nodes if isinstance(g, Prop)}


def test_walk_views_on_deep_chain():
    """5,000 nested diamonds, built without the parser, exceed the
    recursion limit of a recursive traversal."""
    f = Box(fwd("t"), Prop("p"), grade=1)
    for i in range(5000):
        f = Diamond(fwd("r" if i % 2 else "s"), f)
    assert size(f) == 5002
    assert rel_syms(f) == {"r", "s", "t"}
    assert props(f) == {"p"}


# -- memoized facts: shape, sharing, hashes ---------------------------------

NAMES = ("a", "b", "c")


def named_formula(rng, depth, bound=()):
    """Formula over a few nominals, with @-prefixes that are nominals or
    variables, graded modalities and binders; not necessarily in NNF.
    """
    if depth == 0 or rng.random() < 0.2:
        atoms = [Prop("p"), Nom(rng.choice(NAMES)), Top()] + [Var(x) for x in bound]
        return rng.choice(atoms)
    sub = lambda: named_formula(rng, depth - 1, bound)
    op = rng.randrange(8)
    if op == 0:
        return Neg(sub())
    if op == 1:
        return rng.choice([And, Or])(sub(), sub())
    if op == 2:
        return rng.choice([Diamond, Box])(
            rng.choice([fwd("r"), bwd("r")]), sub(), rng.choice([None, 1])
        )
    if op == 3:
        return rng.choice([E, A])(sub())
    if op in (4, 5):
        prefix = [Nom(rng.choice(NAMES))] + [Var(x) for x in bound]
        return At(rng.choice(prefix), sub())
    return Down("x", named_formula(rng, depth - 1, bound + ("x",)))


def kids(f):
    return (f.at, f.sub) if isinstance(f, At) else children(f)


def with_kids(f, new):
    if isinstance(f, At):
        return At(*new)
    if isinstance(f, (Diamond, Box)):
        return type(f)(f.rel, new[0], f.grade)
    if isinstance(f, Down):
        return Down(f.var, new[0])
    return type(f)(*new) if new else f


def rename(f, ren):
    """Rename the nominals of f by the dict ren (not necessarily injective)."""
    if isinstance(f, Nom):
        return Nom(ren.get(f.name, f.name))
    return with_kids(f, [rename(g, ren) for g in kids(f)])


def variants(f):
    """Formulas that differ from f at one node, other than in a nominal name."""
    if isinstance(f, (Prop, Nom)):
        yield Prop("q")
    if isinstance(f, (And, Or)):
        yield (Or if isinstance(f, And) else And)(f.left, f.right)
    if isinstance(f, (Diamond, Box)):
        yield type(f)(f.rel.inv(), f.sub, f.grade)
        yield type(f)(f.rel, f.sub, 1 if f.grade is None else None)
    if isinstance(f, Down):
        yield Down("y", f.sub)
    for i, g in enumerate(kids(f)):
        for h in variants(g):
            yield with_kids(f, kids(f)[:i] + (h,) + kids(f)[i + 1:])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_shape_agrees_with_reference_alignment(seed):
    rng = random.Random(seed)
    f = named_formula(rng, 3)
    renamed = rename(f, {a: rng.choice(NAMES + ("d",)) for a in NAMES})
    near = list(variants(renamed))
    others = rng.sample(near, min(3, len(near))) + [named_formula(rng, 3), named_formula(rng, 1)]
    for g in [f, renamed] + others:
        pairs = []
        aligned = ref_align(f, g, pairs)
        (skel_f, names_f), (skel_g, names_g) = shape(f), shape(g)
        assert (skel_f == skel_g) == aligned
        if aligned:
            assert list(zip(names_f, names_g)) == pairs
            assert len(names_f) == len(names_g)
        assert not nominals(skel_f) - {""}


def test_shape_names_in_alignment_preorder():
    f = At(Nom("a"), And(Diamond(fwd("r"), Nom("b")), Neg(Nom("a"))))
    skeleton, names = shape(f)
    assert names == ("a", "b", "a")
    assert skeleton == shape(rename(f, {"a": "c", "b": "d"}))[0]
    assert shape(Prop("p")) == (Prop("p"), ())


def test_subst_nom_shares_untouched_subtrees():
    left = Diamond(fwd("r"), And(Prop("p"), Nom("b")))
    f = And(left, At(Nom("a"), Prop("q")))
    assert subst_nom(f, "c", "d") is f
    g = subst_nom(f, "a", "d")
    assert g == And(left, At(Nom("d"), Prop("q")))
    assert g.left is left


def test_subst_nom_sets_the_nominals_of_rebuilt_nodes():
    rng = random.Random(7)
    for _ in range(200):
        g = subst_nom(subst_nom(random_formula(rng, 4), "a", "b"), "b", "c")
        for h in walk(g):
            assert nominals(h) == {n.name for n in walk(h) if isinstance(n, Nom)}


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_subst_nom_memo_rewrites_each_subterm_once(seed):
    """One memo over several formulas gives each formula its memo-free
    result, and equal rewritten subterms are one object."""
    rng = random.Random(seed)
    a, b = rng.sample(NAMES, 2)
    # repeated subterms, also across formulas, as on a branch's labels
    common = named_formula(rng, 3)
    fs = [And(named_formula(rng, 3), common) if rng.random() < 0.5 else named_formula(rng, 4)
          for _ in range(4)]
    memo = {}
    outs = [subst_nom(f, a, b, memo) for f in fs]
    assert outs == [subst_nom(f, a, b) for f in fs]
    assert all(a not in nominals(g) for g in outs)
    old = {id(h) for f in fs for h in walk(f)}
    rebuilt = {}
    for g in outs:
        for h in walk(g):
            if id(h) not in old:
                assert rebuilt.setdefault(h, h) is h


def test_branch_substitute_keeps_untouched_labels():
    b = Branch()
    b.add(Sat("a", Diamond(fwd("r"), Nom("c"))), None, "init", ())
    b.add(Sat("b", Prop("p")), None, "init", ())
    b.add(Trans("r"), None, "assert", ())
    b.add(Sat("c", Box(fwd("r"), Prop("q"))), None, "init", ())
    before = list(b.labels)
    b.substitute("a", "b", 0)
    assert b.labels[0] == Sat("b", Diamond(fwd("r"), Nom("c")))
    assert all(b.labels[i] is before[i] for i in (1, 2, 3))
    b.substitute("c", "b", 0)
    assert b.labels[1] is before[1] and b.labels[2] is before[2]
    assert b.labels[3] == Sat("b", Box(fwd("r"), Prop("q")))


def test_equal_builds_are_one_object():
    r, p = fwd("r"), Prop("p")
    builds = [
        lambda: Prop("p"), lambda: Nom("a"), lambda: Var("x"), lambda: Top(), lambda: Bot(),
        lambda: Neg(p), lambda: And(p, Nom("a")), lambda: Or(p, Nom("a")),
        lambda: Diamond(r, p, 2), lambda: Box(bwd("r"), p), lambda: E(p), lambda: A(p),
        lambda: At(Nom("a"), p), lambda: Down("x", Var("x")),
        lambda: Sat("a", Down("x", Box(fwd("r"), Or(Var("x"), p), 1))),
    ]
    for build in builds:
        f = build()
        assert build() is f and f == build() and hash(f) == hash(build())
    for op in (Diamond, Box):
        assert op(r, p) is op(r, p, None) is op(r, p, grade=None) is op(rel=r, sub=p)
        assert op(r, p, 1) is op(r, p, grade=1) is not op(r, p)
    assert And(p, Nom("a")) != Or(p, Nom("a")) and Nom("p") is not p
    assert Sat("a", p) is Sat(nom="a", body=p) is not Sat("b", p)


def test_fields_by_keyword_and_default_build_the_same_node():
    r, p = fwd("r"), Prop("p")
    assert Diamond(rel=r, sub=p) is Diamond(r, p, None) is Diamond(sub=p, rel=r, grade=None)
    assert Diamond(r, sub=p, grade=2) is Diamond(r, p, 2)
    assert fwd("r") is Relation("r") is Relation(sym="r", direction=FORWARD)
    assert repr(Diamond(r, p)) == (
        "Diamond(rel=Relation(sym='r', direction='forward'), sub=Prop(name='p'), grade=None)")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Diamond(fwd("r"), Prop("p"), wrong=1),            # unknown
        lambda: Diamond(fwd("r")),                                # missing
        lambda: Diamond(sub=Prop("p")),                           # missing
        lambda: Diamond(fwd("r"), Prop("p"), rel=fwd("s")),       # duplicate
        lambda: Diamond(fwd("r"), Prop("p"), None, None),         # surplus
        lambda: Top(Prop("p")),                                   # surplus
        lambda: Incl(fwd("r")),                                   # missing
    ],
)
def test_bad_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_relations_and_assertions_are_interned():
    assert fwd("r") is fwd("r") is bwd("r").inv() and fwd("r") is not fwd("s")
    assert bwd("r") is Relation("r", BACKWARD) is not fwd("r")
    assert Incl(bwd("r"), "s") is Incl(left=bwd("r"), right="s")
    assert Trans("r") is Trans(sym="r") is not Trans("s")


@given(st.integers(0, 40), st.integers(0, 40))  # few seeds, so some pairs are equal
@settings(max_examples=200, deadline=None)
def test_identity_is_structural_equality(seed1, seed2):
    f, g = random_formula(random.Random(seed1), 2), random_formula(random.Random(seed2), 2)
    assert (f is g) == (f == g) == (repr(f) == repr(g))


def test_intern_table_keeps_only_live_nodes():
    problem = preprocess(parse("trans r; formula: <r>^3 p & [r] (q | down x. <r-> x) & @'a <s> 'a;"))
    gc.collect()
    before = len(formulas._TABLE)
    result = solve(problem)
    assert result.verdict == "sat" and len(formulas._TABLE) > before
    del result
    gc.collect()
    assert len(formulas._TABLE) == before


def test_nodes_stay_frozen():
    f = And(Prop("p"), Nom("a"))
    hash(f), nominals(f)
    with pytest.raises(FrozenInstanceError):
        f.left = Prop("q")
    with pytest.raises(FrozenInstanceError):
        Sat("a", f).nom = "b"
    with pytest.raises(FrozenInstanceError):
        del fwd("r").sym
    assert nominals(f) == frozenset({"a"})
