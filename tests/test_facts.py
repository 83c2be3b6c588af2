"""The facts a formula node derives when it is built (`Formula.facts`),
against reference recursive definitions; the fragment verdict read from
the facts, and the witness positions, against the reference positional
walk; and the deep terms that the facts keep clear of recursion."""

import random

from hylotab.corpus import (
    enumerate_small_formulas,
    frame_property,
    functionality_formula,
    random_fragment_problem,
)
from hylotab.formulas import (
    BOX_DOWN_BOX,
    DOWN_BOX,
    GRADED,
    GRADED_1A,
    GRADED_1B,
    GRADED_2,
    NOT_NNF,
    UNIVERSAL,
    WITNESSES,
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
    nominals,
    rel_syms,
    shape,
    subst_var,
)
from hylotab.fragments import FragmentVerdict, witnesses
from hylotab.parser import parse
from hylotab.preprocess import FreshNames, expand_grades, preprocess, tau

from test_engine_golden import COUNTING_SHAPES

KIND_BITS = {
    "down-box": DOWN_BOX,
    "box-down-box": BOX_DOWN_BOX,
    "graded-box-under-universal (1a)": GRADED_1A,
    "graded-box-body-has-down-box (1b)": GRADED_1B,
    "graded-diamond-under-universal-with-universal-body (2)": GRADED_2,
}


def any_formula(rng, depth, bound=()):
    """A formula over every operator: negations anywhere, grades, converse,
    @-prefixes that are nominals or variables, free and bound variables,
    and binders over universals."""
    if depth == 0 or rng.random() < 0.15:
        return rng.choice([Prop("p"), Prop("q"), Nom("a"), Nom("b"), Top(), Bot(), Var("y"),
                           *map(Var, bound)])
    sub = lambda: any_formula(rng, depth - 1, bound)
    rel, grade = rng.choice([fwd("r"), bwd("r"), fwd("s")]), rng.choice([None, None, 0, 2])
    op = rng.randrange(10)
    if op == 0:
        return Neg(sub())
    if op in (1, 2):
        return (And, Or)[op - 1](sub(), sub())
    if op in (3, 4):
        return (Diamond, Box)[op - 3](rel, sub(), grade)
    if op in (5, 6):
        return (E, A)[op - 5](sub())
    if op == 7:
        return At(rng.choice([Nom("a"), Var("y"), *map(Var, bound)]), sub())
    x = rng.choice("xz")
    return Down(x, any_formula(rng, depth - 1, bound + (x,)))


def named(f):
    return (f.at, f.sub) if isinstance(f, At) else children(f)


def ref_nominals(f):
    return {f.name} if isinstance(f, Nom) else set().union(*map(ref_nominals, named(f)))


def ref_free(f, bound=frozenset()):
    if isinstance(f, Var):
        return set() if f.name in bound else {f.name}
    bound = bound | {f.var} if isinstance(f, Down) else bound
    return set().union(*(ref_free(g, bound) for g in named(f)))


def ref_rels(f):
    own = {f.rel.sym} if isinstance(f, (Diamond, Box)) else set()
    return own.union(*map(ref_rels, children(f)))


def ref_nnf(f):
    if isinstance(f, Neg):
        return isinstance(f.sub, (Prop, Nom, Var))
    return all(map(ref_nnf, children(f)))


def ref_grades(f):
    return getattr(f, "grade", None) is not None or any(map(ref_grades, children(f)))


def ref_witnesses(f, path=(), under=False, out=None):
    """(f has a universal, f has a binder over one, the witnesses by kind)
    by the positional definition: scope is AST dominance."""
    out = {kind: [] for kind in KIND_BITS} if out is None else out
    universal = isinstance(f, (Box, A))
    has_u = has_d = False
    for i, g in enumerate(children(f)):
        u, d, _ = ref_witnesses(g, path + (i,), under or universal, out)
        has_u, has_d = has_u or u, has_d or d
    if isinstance(f, Down) and has_u:
        has_d = True
        out["down-box"].append(path)
        if under:
            out["box-down-box"].append(path)
    elif getattr(f, "grade", None) is not None:
        if universal and under:
            out["graded-box-under-universal (1a)"].append(path)
        if universal and has_d:
            out["graded-box-body-has-down-box (1b)"].append(path)
        if not universal and under and has_u:
            out["graded-diamond-under-universal-with-universal-body (2)"].append(path)
    return has_u or universal, has_d, out


def ref_verdict(f):
    """The flags of `FragmentVerdict(f)` and `witnesses(f)`, from the
    reference definitions."""
    _, _, out = ref_witnesses(f)
    ordered = lambda kinds: sorted(((k, p) for k in kinds for p in out[k]), key=lambda w: w[1])
    graded = ordered([k for k in KIND_BITS if k.startswith("graded")])
    return (bool(out["box-down-box"]), bool(out["down-box"]), not graded,
            ordered(["box-down-box"]) + ordered(["down-box"]) + graded)


def verdict_fields(f):
    v = FragmentVerdict(f)
    return v.has_box_down_box, v.has_down_box, v.graded_ok, witnesses(f)


def test_facts_agree_with_recursive_definitions():
    rng = random.Random(0)
    witnessed = 0
    for _ in range(10_000):
        f = any_formula(rng, rng.randrange(1, 7))
        noms, free, rels, bits, skeleton_hash = f.facts
        assert noms == ref_nominals(f) and nominals(f) is noms
        assert free == ref_free(f)
        assert rels == ref_rels(f) and rel_syms(f) is rels
        assert (not bits & NOT_NNF) == ref_nnf(f)
        assert bool(bits & GRADED) == ref_grades(f)
        # classify and init_branch read free variables and grades after nnf
        g = nnf(f)
        assert g.facts[1] == free and bool(g.facts[3] & GRADED) == ref_grades(f)
        has_u, has_d, out = ref_witnesses(f)
        assert bool(bits & UNIVERSAL) == has_u and bool(bits & DOWN_BOX) == has_d
        assert {k for k, bit in KIND_BITS.items() if bits & bit} == {k for k in out if out[k]}
        assert bool(bits & WITNESSES) == any(out.values())
        assert skeleton_hash == shape(f)[0].facts[4]
        assert verdict_fields(f) == ref_verdict(f)
        witnessed += any(out.values())
    assert 1000 < witnessed < 9000


def corpora():
    yield from enumerate_small_formulas()
    for depth in range(3, 9):
        for seed in range(30):
            yield random_fragment_problem(seed, depth).formula
    for text in COUNTING_SHAPES:
        for n in range(4):
            for m in range(4):
                problem = parse(text.format(n=n, m=m))
                yield problem.formula
                yield preprocess(problem).formula
    for name in ("reflexivity", "sibling", "at_most_n", "at_least_n_successors"):
        yield frame_property(name, n=3)
    yield functionality_formula()


def test_scan_from_facts_matches_the_walk_on_the_corpora():
    plain = 0
    for f in corpora():
        _, free, rels, bits, _ = f.facts
        assert (free, rels, not bits & NOT_NNF, bool(bits & GRADED)) == (
            ref_free(f), ref_rels(f), ref_nnf(f), ref_grades(f))
        assert verdict_fields(f) == ref_verdict(f)
        plain += not f.facts[3] & WITNESSES
    assert plain > 1000


def test_deep_chain_needs_no_recursion():
    """20,000 nested modalities exceed the recursion limit of a recursive
    walk; the facts answer without one."""
    f = And(Nom("a"), Var("y"))
    for i in range(20_000):
        f = (Box if i % 2 else Diamond)(fwd("r"), f)
    assert nominals(f) == {"a"} and f.facts[1] == {"y"} and rel_syms(f) == {"r"}
    assert not f.facts[3] & DOWN_BOX and witnesses(f) == []
    assert subst_var(f, "x", "b") is f
    # the preprocessing steps return a chain with nothing to rewrite as it is
    d = Var("y")
    for _ in range(20_000):
        d = Diamond(fwd("r"), d)
    fresh = FreshNames()
    assert expand_grades(d, fresh) is d and tau(d, fresh) is d
    # a binder over the chain is a witness at the root, found without entering the chain
    g = Down("y", f)
    assert witnesses(g) == [("down-box", ())] and not g.facts[1]
    assert subst_var(g, "y", "b") is g
