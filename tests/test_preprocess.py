import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab.formulas import (
    DOWN_BOX,
    GRADED,
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
    fwd,
    nnf,
)
from hylotab.corpus import random_fragment_problem
from hylotab.parser import Problem, parse, parse_formula
from hylotab.preprocess import (
    FragmentError,
    FreshNames,
    expand_graded_box,
    expand_graded_diamond,
    expand_grades,
    preprocess,
    tau,
)
from hylotab.semantics import Interpretation, evaluate
from hylotab.tableau import init_branch

from test_formulas import random_formula, ref_is_nnf

r = fwd("r")
p = Prop("p")


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


def test_graded_diamond_shapes():
    assert expand_graded_diamond(r, 0, p, FreshNames()) == Diamond(r, p)
    got = expand_graded_diamond(r, 1, p, FreshNames())
    want = Down(
        "_v1",
        Diamond(
            r,
            And(p, Down("_v2", At(Var("_v1"), Diamond(r, And(p, Neg(Var("_v2"))))))),
        ),
    )
    assert got == want


def test_graded_diamond_n2():
    got = expand_graded_diamond(r, 2, p, FreshNames())
    x, y1, y2 = Var("_v1"), Var("_v2"), Var("_v3")
    inner2 = Down("_v3", At(x, Diamond(r, And(And(p, Neg(y1)), Neg(y2)))))
    inner1 = Down("_v2", At(x, Diamond(r, And(And(p, Neg(y1)), inner2))))
    want = Down("_v1", Diamond(r, And(p, inner1)))
    assert got == want


def ref_graded_diamond(rel, n, f, fresh):
    """The docstring's definition of `expand_graded_diamond`, nested by recursion."""
    if n == 0:
        return Diamond(rel, f)
    x = fresh.variable()
    ys = [fresh.variable() for _ in range(n)]

    def chain(i):
        body = f
        for y in ys[:i]:
            body = And(body, Neg(Var(y)))
        if i < n:
            body = And(body, Down(ys[i], At(Var(x), Diamond(rel, chain(i + 1)))))
        return body

    return Down(x, Diamond(rel, chain(0)))


def test_graded_diamond_matches_the_recursive_definition():
    for n in range(7):
        for rel, body in [(r, p), (bwd("s"), And(p, Box(r, Var("z"))))]:
            fresh, ref_fresh = FreshNames(), FreshNames()
            fresh.counter = ref_fresh.counter = 5
            got = expand_graded_diamond(rel, n, body, fresh)
            assert got is ref_graded_diamond(rel, n, body, ref_fresh), n
            assert fresh.counter == ref_fresh.counter


def test_high_grade_diamond_preprocesses():
    """The binder chain is built in a loop, so its length is not bounded
    by the recursion limit."""
    f = preprocess(parse("formula: <r>^3000 p;")).formula
    assert isinstance(f, Down) and f.var == "_v1"
    assert not f.facts[1] and not f.facts[3] & (GRADED | DOWN_BOX)


def test_graded_box_shapes():
    assert expand_graded_box(r, 0, p, FreshNames()) == Box(r, p)
    got = expand_graded_box(r, 1, p, FreshNames())
    want = Or(
        Box(r, p),
        Down("_v1", Diamond(r, Down("_v2", At(Var("_v1"), Box(r, Or(p, Var("_v2"))))))),
    )
    assert got == want


def test_graded_box_n2():
    got = expand_graded_box(r, 2, p, FreshNames())
    x = Var("_v1")
    final = Box(r, Or(p, Or(Var("_v2"), Var("_v3"))))
    body = Diamond(r, Down("_v2", At(x, Diamond(r, Down("_v3", At(x, final))))))
    want = Or(Box(r, p), Down("_v1", body))
    assert got == want


def all_models(k, rel_syms=("r",), props=("p",), noms=()):
    states = list(range(k))
    pairs = list(itertools.product(states, states))
    for nom_map in itertools.product(states, repeat=len(noms)):
        for val_bits in itertools.product([0, 1], repeat=k * len(props)):
            val = {
                w: frozenset(
                    q for j, q in enumerate(props) if val_bits[w * len(props) + j]
                )
                for w in states
            }
            for bits in itertools.product([0, 1], repeat=len(pairs) * len(rel_syms)):
                rho = {
                    s: {
                        pairs[j]
                        for j in range(len(pairs))
                        if bits[i * len(pairs) + j]
                    }
                    for i, s in enumerate(rel_syms)
                }
                yield Interpretation(
                    frozenset(states), rho, dict(zip(noms, nom_map)), val
                )


@pytest.mark.parametrize("n", [0, 1, 2])
def test_graded_diamond_equivalent_on_small_models(n):
    f = Diamond(r, p, grade=n)
    g = expand_graded_diamond(r, n, p, FreshNames())
    for k in (1, 2, 3):
        for m in all_models(k):
            for w in m.states:
                assert evaluate(m, w, f) == evaluate(m, w, g), (n, k, m)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_graded_box_equivalent_on_small_models(n):
    f = Box(r, p, grade=n)
    g = expand_graded_box(r, n, p, FreshNames())
    for k in (1, 2, 3):
        for m in all_models(k):
            for w in m.states:
                assert evaluate(m, w, f) == evaluate(m, w, g), (n, k, m)


def test_expand_grades_nested():
    f = Diamond(r, Diamond(r, p, grade=1), grade=1)
    g = expand_grades(f, FreshNames())
    assert not g.facts[3] & GRADED


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_expand_grades_keeps_nnf(seed):
    """preprocess normalizes once, before the expansion."""
    f = nnf(random_hybrid(random.Random(seed), 5))
    g = expand_grades(f, FreshNames())
    assert ref_is_nnf(g)
    assert nnf(g) is g


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_rewrites_return_unchanged_input_itself(seed):
    """A grade-free input leaves the expansion unchanged, and one without
    a binder over a universal leaves tau unchanged: the node itself comes
    back, with its cached hash, nominals and shape."""
    f = nnf(random_formula(random.Random(seed), 4))
    fresh = FreshNames()
    assert expand_grades(f, fresh) is f
    if not f.facts[3] & DOWN_BOX:
        assert tau(f, fresh) is f


def test_init_branch_keeps_the_preprocessed_formula():
    for seed in range(20):
        q = preprocess(random_fragment_problem(seed, depth=5))
        assert init_branch(q).input_formula is q.formula


def tau_error(text):
    with pytest.raises(FragmentError) as exc:
        tau(nnf(parse_formula(text)), FreshNames())
    return str(exc.value), exc.value.witnesses


def test_tau_error_messages():
    graded = ("graded operator in input to the translation", [])
    assert tau_error("<r>^1 p") == graded
    # the grade check comes first
    assert tau_error("[r] down x . [r] <r>^1 x") == graded
    assert tau_error("[r] down x . [r] x") == (
        "input contains a universal-binder-universal nesting", [("box-down-box", (0,))]
    )
    # a binder over a universal alone is translated, and open input passes
    assert isinstance(tau(nnf(parse_formula("down x . [r] x")), FreshNames()), And)
    assert tau(At(Var("x"), p), FreshNames()) == At(Var("x"), p)


def test_tau_regression():
    f = parse_formula("[A] down x . <r> x & (down y . [r] y | down z . [A] z)")
    got = tau(nnf(f), FreshNames())
    # the binder under the global box survives; the two critical binders
    # become fresh-nominal conjunctions with distinct nominals
    assert isinstance(got, And)
    assert got.left == parse_formula("[A] down x . <r> x")
    left, right = got.right.left, got.right.right
    assert isinstance(left, And) and isinstance(left.left, Nom)
    assert isinstance(right, And) and isinstance(right.left, Nom)
    b1, b2 = left.left.name, right.left.name
    assert b1 != b2
    assert left.right == Box(r, Nom(b1))
    assert right.right == A(Nom(b2))


def test_tau_leaves_harmless_binder_alone():
    f = nnf(parse_formula("down x . <r> (x & p)"))
    assert tau(f, FreshNames()) == f


def test_tau_rejects_box_down_box():
    with pytest.raises(FragmentError):
        tau(nnf(parse_formula("[r] down x . [r] x")), FreshNames())


def test_preprocess_pipeline():
    q = preprocess(Problem([], parse_formula("<r>^1 p & down x . [r] x")))
    assert not q.formula.facts[3] & (GRADED | DOWN_BOX)


def test_preprocess_rejects_outside_fragment():
    with pytest.raises(FragmentError):
        preprocess(Problem([], parse_formula("[r] down x . [r] x")))
    with pytest.raises(FragmentError):
        preprocess(Problem([], parse_formula("[s] [r]^1 p")))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_graded_equivalence_random_bodies(seed):
    rng = random.Random(seed)
    body = rng.choice([p, Neg(p), Or(p, Prop("q")), And(p, Prop("q"))])
    n = rng.randrange(3)
    shape = rng.choice(["dia", "box"])
    if shape == "dia":
        f = Diamond(r, body, grade=n)
        g = expand_graded_diamond(r, n, body, FreshNames())
    else:
        f = Box(r, body, grade=n)
        g = expand_graded_box(r, n, body, FreshNames())
    for _ in range(20):
        k = rng.randrange(1, 4)
        states = frozenset(range(k))
        rho = {"r": {(i, j) for i in range(k) for j in range(k) if rng.random() < 0.5}}
        val = {
            w: frozenset(q for q in ("p", "q") if rng.random() < 0.5) for w in range(k)
        }
        m = Interpretation(states, rho, {}, val)
        for w in states:
            assert evaluate(m, w, f) == evaluate(m, w, g)
