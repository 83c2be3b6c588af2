"""Preprocessing pipeline: eliminate graded modalities through their
binder definitions, then skolemize binders that scope over universal
operators.  Output problems are ungraded, in NNF, and contain no binder
with a universal operator in its scope.  Each step reads the formula's
facts, so it returns a subtree it would not change as it is, without a
walk.
"""

from __future__ import annotations

from .formulas import (
    BOX_DOWN_BOX,
    DOWN_BOX,
    And,
    At,
    Box,
    Diamond,
    Down,
    E,
    FRESH_PREFIX,
    GRADED,
    UNIVERSAL,
    Formula,
    Neg,
    Nom,
    Or,
    Relation,
    Var,
    children,
    subst_vars,
    _rebuild,
)
from .fragments import FragmentError, classify, witnesses
from .parser import Problem


class FreshNames:
    """Source of reserved-prefix names, distinct within one run."""

    def __init__(self):
        self.counter = 0

    def nominal(self) -> str:
        self.counter += 1
        return "%s%d" % (FRESH_PREFIX, self.counter)

    def variable(self) -> str:
        self.counter += 1
        return "%sv%d" % (FRESH_PREFIX, self.counter)


# Checked before the names are built, so an absurd grade allocates nothing.
MAX_GRADE = 10_000


def expand_graded_diamond(rel: Relation, n: int, f: Formula, fresh: FreshNames) -> Formula:
    """(at least n+1 successors satisfying f), written with the binder:

        n=0:  <R> f
        n=1:  down x . <R> (f & down y1 . @x <R> (f & !y1))
        n=2:  down x . <R> (f & down y1 . @x <R> (f & !y1 &
                              down y2 . @x <R> (f & !y1 & !y2)))
    """
    if not 0 <= n <= MAX_GRADE:
        raise ValueError("grade must be between 0 and %d, not %d" % (MAX_GRADE, n))
    if n == 0:
        return Diamond(rel, f, None)
    x = fresh.variable()
    ys = [fresh.variable() for _ in range(n)]

    # conjs[i] is f & !y1 & ... & !y_i; the chain is built inside out
    conjs = [f]
    for y in ys:
        conjs.append(And(conjs[-1], Neg(Var(y))))
    body = conjs[n]
    for i in reversed(range(n)):
        body = And(conjs[i], Down(ys[i], At(Var(x), Diamond(rel, body, None))))
    return Down(x, Diamond(rel, body, None))


def expand_graded_box(rel: Relation, n: int, f: Formula, fresh: FreshNames) -> Formula:
    """(at most n exceptions), avoiding a box over the binder chain:

        n=0:  [R] f
        n=1:  [R] f | down x . <R> (down y1 . @x [R] (f | y1))
        n=2:  [R] f | down x . <R> (down y1 . @x <R> (down y2 .
                              @x [R] (f | (y1 | y2))))
    The exceptions nest to the right, as the parser reads `|`: a split
    tries one disjunct at a time, and each side is a subformula."""
    if not 0 <= n <= MAX_GRADE:
        raise ValueError("grade must be between 0 and %d, not %d" % (MAX_GRADE, n))
    if n == 0:
        return Box(rel, f, None)
    x = fresh.variable()
    ys = [fresh.variable() for _ in range(n)]

    exceptions: Formula = Var(ys[-1])
    for y in reversed(ys[:-1]):
        exceptions = Or(Var(y), exceptions)
    body = At(Var(x), Box(rel, Or(f, exceptions), None))
    for j in reversed(range(n)):
        body = Diamond(rel, Down(ys[j], body), None)
        body = At(Var(x), body) if j else body
    return Or(Box(rel, f, None), Down(x, body))


def expand_grades(f: Formula, fresh: FreshNames) -> Formula:
    """Replace every graded modality by its binder definition, innermost
    first so expanded bodies are already grade-free.  The definitions
    negate only variables, so an NNF input gives an NNF output.  A
    grade-free subtree is returned itself, without a walk.
    """
    if not f.facts[3] & GRADED:
        return f
    subs = [expand_grades(g, fresh) for g in children(f)]
    if isinstance(f, Diamond) and f.grade is not None:
        return expand_graded_diamond(f.rel, f.grade, subs[0], fresh)
    if isinstance(f, Box) and f.grade is not None:
        return expand_graded_box(f.rel, f.grade, subs[0], fresh)
    return _rebuild(f, subs)


def tau(f: Formula, fresh: FreshNames) -> Formula:
    """Skolemizing translation: a binder whose body contains a universal
    operator (its body's UNIVERSAL bit) is replaced by a fresh nominal
    naming the bound state, one per occurrence.  Homomorphic on
    conjunction, disjunction, @, diamonds and E; the identity elsewhere,
    and a subtree without such a binder is returned itself.  Input must be
    ungraded NNF without the pattern of a binder nested between two
    universal operators.
    """
    bits = f.facts[3]
    if bits & GRADED:
        raise FragmentError("graded operator in input to the translation")
    if bits & BOX_DOWN_BOX:
        raise FragmentError("input contains a universal-binder-universal nesting",
                            [w for w in witnesses(f) if w[0] == "box-down-box"])
    return _tau(f, fresh, {})


def _tau(f: Formula, fresh: FreshNames, env: dict) -> Formula:
    """`env` maps the variables of the binders skolemized above f to their nominals,
    substituted in one pass where the translation stops."""
    if isinstance(f, Down) and f.sub.facts[3] & UNIVERSAL:
        b = fresh.nominal()
        return And(Nom(b), _tau(f.sub, fresh, {**env, f.var: b}))
    if f.facts[3] & DOWN_BOX and isinstance(f, (At, And, Or, Diamond, E)):
        subs = [_tau(g, fresh, env) for g in children(f)]
        return At(subst_vars(f.at, env, {}), subs[0]) if isinstance(f, At) else _rebuild(f, subs)
    return subst_vars(f, env, {})


def preprocess(problem: Problem) -> Problem:
    """nnf (classify's) -> graded expansion -> tau.  Expanding an NNF
    formula gives NNF, so no second normalization is needed.  Raises
    FragmentError when the problem lies outside the accepted fragment;
    assertions pass through unchanged.
    """
    verdict = classify(problem)
    if not verdict.preprocessable:
        raise FragmentError(
            "problem outside the decidable fragment",
            [w for w in verdict.witnesses if w[0] != "down-box"],
        )
    fresh = FreshNames()
    f = tau(expand_grades(verdict.formula, fresh), fresh)
    return Problem(list(problem.assertions), f, set(problem.declared_rels))
