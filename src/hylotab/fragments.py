"""Syntactic fragment detection: the binder/universal-operator patterns
that govern decidability, and the restrictions on graded modalities.

The detection expects NNF input; "scope" is plain AST dominance (an
@-jump does not cut scope).  Universal operators are [R], [A] and the
graded [R]^n.  Every formula node knows from construction which of these
patterns it holds (the bits of `formulas.Formula.facts`), so `classify`
reads them.  Only a report of where the patterns occur walks the
formula: `witnesses`, called for a FragmentError, for
`FragmentVerdict.witnesses` and for `hylotab check-fragment`.
"""

from __future__ import annotations

from .formulas import (A, BOX_DOWN_BOX, DOWN_BOX, GRADED, GRADED_1A, GRADED_1B, GRADED_2,
                       UNIVERSAL, Box, Diamond, Down, Formula, children, nnf)


class FragmentError(ValueError):
    """The input lies outside the decidable fragment."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = list(witnesses or ())


def witnesses(f: Formula) -> list:
    """Each witness in f as (kind, position), meaningful on NNF input only;
    a position is a tuple of child indices from the root.  The kinds come
    in this order, each in preorder: box-down-box, a binder under a
    universal that scopes over one (the undecidability trigger); down-box,
    a binder that scopes over a universal (`tau` skolemizes these); and the
    violations of the restrictions under which graded modalities stay
    decidable:
        1a. no graded box occurs in the scope of a universal operator,
        1b. no graded box body contains a binder scoping over a universal,
        2.  every graded diamond either occurs under no universal operator
            or has a body free of universal operators.
    The walk enters only subtrees whose bits hold a binder over a universal
    or a graded operator, and keeps its own stack, so it is safe at any depth."""
    box_down_box, down_box, graded = [], [], []
    stack = [(f, (), False)]  # (node, its position, under a universal?)
    while stack:
        g, path, under = stack.pop()
        body = g.sub.facts[3] if isinstance(g, (Down, Box, Diamond)) else 0
        if isinstance(g, Down) and body & UNIVERSAL:
            down_box.append(("down-box", path))
            if under:
                box_down_box.append(("box-down-box", path))
        elif isinstance(g, Box) and g.grade is not None:
            if under:
                graded.append(("graded-box-under-universal (1a)", path))
            if body & DOWN_BOX:
                graded.append(("graded-box-body-has-down-box (1b)", path))
        elif isinstance(g, Diamond) and g.grade is not None and under and body & UNIVERSAL:
            graded.append(("graded-diamond-under-universal-with-universal-body (2)", path))
        under = under or isinstance(g, (Box, A))
        stack.extend((h, path + (i,), under) for i, h in reversed(list(enumerate(children(g))))
                     if h.facts[3] & (DOWN_BOX | GRADED))
    return box_down_box + down_box + graded


class FragmentVerdict:
    """The fragment flags of an NNF formula, read from its bits."""

    def __init__(self, formula: Formula):
        bits = formula.facts[3]
        self.has_box_down_box = bool(bits & BOX_DOWN_BOX)
        self.has_down_box = bool(bits & DOWN_BOX)
        self.graded_ok = not bits & (GRADED_1A | GRADED_1B | GRADED_2)
        self.formula = formula  # the NNF that was classified

    @property
    def preprocessable(self) -> bool:
        return not self.has_box_down_box and self.graded_ok

    @property
    def witnesses(self) -> list:
        """The positions of the patterns, walked for on each call."""
        return witnesses(self.formula)


def classify(problem) -> FragmentVerdict:
    """The verdict on the NNF of the problem's formula."""
    return FragmentVerdict(nnf(problem.formula))
