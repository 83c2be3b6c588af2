"""Syntactic fragment detection: the binder/universal-operator patterns
that govern decidability, and the restrictions on graded modalities.

The detection expects NNF input; "scope" is plain AST dominance (an
@-jump does not cut scope).  Universal operators are [R], [A] and the
graded [R]^n.  Every formula node knows from construction whether it
has a witness, a graded operator, free variables or a negation outside
NNF, and which relation symbols occur (`formulas.Formula.facts`), so
`scan` reads those facts.  Only a formula with a witness is walked, once,
to find each witness's position: the error report and `tau`'s critical
binders need them.  `scan` is kept on the node, and `classify` is a
view on it.
"""

from __future__ import annotations

from .formulas import (A, DOWN_BOX, GRADED, NOT_NNF, UNIVERSAL, WITNESSES, Box, Diamond, Down,
                       Formula, children, nnf)

# A position is a tuple of child indices from the root.
Path = tuple


class FragmentError(ValueError):
    """The input lies outside the decidable fragment."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = list(witnesses or ())


class Scan:
    """Witnesses of one formula, each tuple in preorder of its nodes.  It
    is kept on the node and shared by every caller, so it is immutable."""

    __slots__ = ("box_down_box", "down_box", "graded", "grades", "free", "rels", "nnf")

    def __init__(self, f: Formula):
        _, free, rels, bits, _ = f.facts
        self.free = free                   # free variables, @x prefixes included
        self.rels = rels                   # relation symbols of the modalities
        self.grades = bool(bits & GRADED)  # a graded operator occurs
        self.nnf = not bits & NOT_NNF      # nnf(f) is f: each ! is on a p, 'a or x
        # The undecidability trigger: binders that lie under a universal and
        # scope over one.
        self.box_down_box = ()
        # Binders that scope over a universal (`tau` skolemizes these).
        self.down_box = ()
        # Violations of the restrictions under which graded modalities stay
        # decidable:
        #   1a. no graded box occurs in the scope of a universal operator,
        #   1b. no graded box body contains a binder scoping over a universal,
        #   2.  every graded diamond either occurs under no universal operator
        #       or has a body free of universal operators.
        self.graded = ()


def scan(f: Formula) -> Scan:
    """The facts of f and the positions of its witnesses (meaningful on
    NNF input only); computed once per node and kept on it."""
    try:
        return f._scan
    except AttributeError:
        out = Scan(f)
        if f.facts[3] & WITNESSES:
            _scan(f, out)
        object.__setattr__(f, "_scan", out)
        return out


def _scan(f: Formula, out: Scan) -> None:
    """Append each witness in f to `out`, in preorder.  A node's bits say
    whether its body holds a universal or a down-box; the walk enters only
    subtrees that hold a binder over a universal or a graded operator, and
    keeps its own stack, so it is safe at any depth."""
    stack = [(f, (), False)]  # (node, its path, under a universal?)
    while stack:
        g, path, under = stack.pop()
        body = g.sub.facts[3] if isinstance(g, (Down, Box, Diamond)) else 0
        if isinstance(g, Down) and body & UNIVERSAL:
            out.down_box += (("down-box", path),)
            if under:
                out.box_down_box += (("box-down-box", path),)
        elif isinstance(g, Box) and g.grade is not None:
            if under:
                out.graded += (("graded-box-under-universal (1a)", path),)
            if body & DOWN_BOX:
                out.graded += (("graded-box-body-has-down-box (1b)", path),)
        elif isinstance(g, Diamond) and g.grade is not None and under and body & UNIVERSAL:
            out.graded += (("graded-diamond-under-universal-with-universal-body (2)", path),)
        under = under or isinstance(g, (Box, A))
        stack.extend((h, path + (i,), under) for i, h in reversed(list(enumerate(children(g))))
                     if h.facts[3] & (DOWN_BOX | GRADED))


class FragmentVerdict:
    def __init__(self, has_box_down_box: bool, has_down_box: bool, graded_ok: bool,
                 witnesses: list, formula: Formula):
        self.has_box_down_box = has_box_down_box
        self.has_down_box = has_down_box
        self.graded_ok = graded_ok
        self.witnesses = witnesses
        self.formula = formula  # the NNF that was scanned

    @property
    def preprocessable(self) -> bool:
        return not self.has_box_down_box and self.graded_ok


def classify(problem) -> FragmentVerdict:
    """Scan the NNF of the problem's formula."""
    f = problem.formula if scan(problem.formula).nnf else nnf(problem.formula)
    s = scan(f)
    return FragmentVerdict(
        bool(s.box_down_box),
        bool(s.down_box),
        not s.graded,
        [*s.box_down_box, *s.down_box, *s.graded],
        f,
    )
