"""Syntactic fragment detection: the binder/universal-operator patterns
that govern decidability, and the restrictions on graded modalities.

The detection expects NNF input; "scope" is plain AST dominance (an
@-jump does not cut scope).  Universal operators are [R], [A] and the
graded [R]^n.  One preorder pass (`scan`) finds every witness, and also
whether a graded operator occurs, which variables are free, which
relation symbols occur and whether the formula is in NNF: it is the one
syntactic check of every pipeline stage, runs once per formula node,
and `classify` is a view on it.
"""

from __future__ import annotations

from .formulas import A, At, Box, Diamond, Down, Formula, Neg, Nom, Prop, Var, children, nnf

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

    def __init__(self):
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
        self.grades = False          # a graded operator occurs
        self.free = frozenset()      # free variables, @x prefixes included
        self.rels = frozenset()      # relation symbols of the modalities
        self.nnf = True              # nnf(f) is f: each ! is on a p, 'a or x


def scan(f: Formula) -> Scan:
    """Visit each node of f once and collect all witnesses (meaningful on
    NNF input only); computed once per node and kept on it."""
    try:
        return f._scan
    except AttributeError:
        out = Scan()
        _scan(f, (), False, frozenset(), out)
        # preorder is the order of paths; the sort is stable, so 1a stays before 1b
        for name in ("box_down_box", "down_box", "graded"):
            setattr(out, name, tuple(sorted(getattr(out, name), key=lambda w: w[1])))
        object.__setattr__(f, "_scan", out)
        return out


def _scan(f: Formula, path: Path, under: bool, bound: frozenset, out: Scan) -> tuple[bool, bool]:
    """Returns whether f contains a universal operator, and whether it
    contains a binder scoping over one.  A node's witnesses are known
    only after its subtree, so they are appended in postorder and
    `scan` sorts them.  `bound` holds the variables of the binders
    above f.
    """
    name = f.at if isinstance(f, At) else f  # a variable may occur as an @-prefix
    if isinstance(name, Var) and name.name not in bound and name.name not in out.free:
        out.free = out.free | {name.name}
    subs = children(f)
    if not subs:
        return False, False
    if isinstance(f, Neg):
        if not isinstance(f.sub, (Prop, Nom, Var)):
            out.nnf = False
    elif isinstance(f, (Box, Diamond)) and f.rel.sym not in out.rels:
        out.rels = out.rels | {f.rel.sym}
    elif isinstance(f, Down):
        bound = bound | {f.var}
    universal = isinstance(f, (Box, A))
    has_universal = has_down_box = False
    for i, g in enumerate(subs):
        u, d = _scan(g, path + (i,), under or universal, bound, out)
        has_universal |= u
        has_down_box |= d
    if isinstance(f, Down) and has_universal:
        has_down_box = True
        out.down_box += (("down-box", path),)
        if under:
            out.box_down_box += (("box-down-box", path),)
    elif isinstance(f, (Box, Diamond)) and f.grade is not None:
        out.grades = True
        if universal and under:
            out.graded += (("graded-box-under-universal (1a)", path),)
        if universal and has_down_box:
            out.graded += (("graded-box-body-has-down-box (1b)", path),)
        if not universal and under and has_universal:
            out.graded += (("graded-diamond-under-universal-with-universal-body (2)", path),)
    return has_universal or universal, has_down_box


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
