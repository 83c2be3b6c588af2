"""Formula and assertion ASTs, negation normal form, substitutions and
subformula closure for multi-modal hybrid logic.

Formulas are immutable trees with structural equality, so they can be
used freely as dict keys and set members (label comparison is pervasive
in the tableau engine and in blocking).  Each node keeps its hash, its
nominals and its nominal-erased shape once computed.
"""

from __future__ import annotations

from dataclasses import dataclass

FRESH_PREFIX = "_"


# ---------------------------------------------------------------------------
# Relations and assertions

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class Relation:
    """A relation symbol used forward (r) or backward (r-)."""

    sym: str
    direction: str = FORWARD

    def inv(self) -> "Relation":
        return Relation(self.sym, BACKWARD if self.direction == FORWARD else FORWARD)

    @property
    def is_forward(self) -> bool:
        return self.direction == FORWARD

    def __str__(self) -> str:
        return self.sym if self.is_forward else self.sym + "-"


def fwd(sym: str) -> Relation:
    return Relation(sym, FORWARD)


def bwd(sym: str) -> Relation:
    return Relation(sym, BACKWARD)


@dataclass(frozen=True)
class Trans:
    """Transitivity assertion for a relation symbol."""

    sym: str

    def __str__(self) -> str:
        return "trans %s" % self.sym


@dataclass(frozen=True)
class Incl:
    """Normalized inclusion: left side may be backward, right side is a
    forward symbol (r- <= s- is spelled r <= s, r <= s- is spelled r- <= s).
    """

    left: Relation
    right: str

    def __str__(self) -> str:
        return "%s <= %s" % (self.left, self.right)


# ---------------------------------------------------------------------------
# Formulas

class Node:
    """Base of the immutable tree classes.  Structural facts (hash,
    `nominals`, `shape`) are computed on first use and kept on the node,
    outside the compared fields.
    """

    __slots__ = ("_hash", "_noms", "_shape")


def node(cls):
    """Make a Node subclass a frozen, slotted dataclass whose structural
    hash is computed once.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    structural = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", structural(self))
            return self._hash

    cls.__hash__ = __hash__
    return cls


@node
class Prop(Node):
    name: str


@node
class Nom(Node):
    name: str


@node
class Var(Node):
    name: str


@node
class Top(Node):
    pass


@node
class Bot(Node):
    pass


@node
class Neg(Node):
    sub: "Formula"


@node
class And(Node):
    left: "Formula"
    right: "Formula"


@node
class Or(Node):
    left: "Formula"
    right: "Formula"


@node
class Diamond(Node):
    rel: Relation
    sub: "Formula"
    grade: int | None = None


@node
class Box(Node):
    rel: Relation
    sub: "Formula"
    grade: int | None = None


@node
class E(Node):
    sub: "Formula"


@node
class A(Node):
    sub: "Formula"


@node
class At(Node):
    """Satisfaction statement u:F, with u a nominal or a variable."""

    at: "Formula"  # Nom or Var
    sub: "Formula"


@node
class Down(Node):
    var: str
    sub: "Formula"


Formula = (
    Prop | Nom | Var | Top | Bot | Neg | And | Or | Diamond | Box | E | A | At | Down
)

ATOMS = (Prop, Nom, Var, Top, Bot)


# ---------------------------------------------------------------------------
# Negation normal form

# The operator a negation turns each operator into.
_DUAL = {And: Or, Or: And, Diamond: Box, Box: Diamond, E: A, A: E, At: At, Down: Down}


def nnf(f: Formula) -> Formula:
    """Push negations down to atoms.

    Graded modalities are handled by duality with the same grade.  The
    binder and @ are self-dual, so a negation simply moves inside them.
    Idempotent; preserves truth on every interpretation.
    """
    if isinstance(f, ATOMS):
        return f
    if not isinstance(f, Neg):
        return _rebuild(f, [nnf(g) for g in children(f)])
    g = f.sub
    if isinstance(g, (Prop, Nom, Var)):
        return f
    if isinstance(g, Top):
        return Bot()
    if isinstance(g, Bot):
        return Top()
    if isinstance(g, Neg):
        return nnf(g.sub)
    return _rebuild(g, [nnf(Neg(h)) for h in children(g)], _DUAL.get(type(g)))


def is_nnf(f: Formula) -> bool:
    """True iff negation appears only on propositions, nominals, variables."""
    return all(isinstance(g.sub, (Prop, Nom, Var)) for g in walk(f) if isinstance(g, Neg))


def children(f: Formula) -> tuple:
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, (Neg, Diamond, Box, E, A, At, Down)):
        return (f.sub,)
    return ()


# ---------------------------------------------------------------------------
# Substitutions

def subst_var(f: Formula, x: str, a: str) -> Formula:
    """Replace every free occurrence of variable x with nominal a."""
    if isinstance(f, Var):
        return Nom(a) if f.name == x else f
    if isinstance(f, ATOMS):
        return f
    if isinstance(f, Down):
        if f.var == x:
            return f
        return Down(f.var, subst_var(f.sub, x, a))
    if isinstance(f, At):
        at = subst_var(f.at, x, a)
        return At(at, subst_var(f.sub, x, a))
    return _rebuild(f, [subst_var(g, x, a) for g in children(f)])


def subst_nom(f: Formula, a: str, b: str) -> Formula:
    """Replace every occurrence of nominal a with b; subtrees without a
    are kept, not rebuilt, and rebuilt nodes get their nominals set."""
    noms = nominals(f)
    if a not in noms:
        return f
    if isinstance(f, Nom):
        return Nom(b)
    if isinstance(f, At):
        out = At(subst_nom(f.at, a, b), subst_nom(f.sub, a, b))
    else:
        out = _rebuild(f, [subst_nom(g, a, b) for g in children(f)])
    object.__setattr__(out, "_noms", noms - {a} | {b})
    return out


def _rebuild(f: Formula, subs: list, op: type | None = None) -> Formula:
    """A node of class `op` (default: f's own) with f's relation, grade,
    prefix or variable, over the children `subs`.
    """
    op = op or type(f)
    if op is And or op is Or:
        return op(subs[0], subs[1])
    if op is Neg:
        return Neg(subs[0])
    if op is Diamond or op is Box:
        return op(f.rel, subs[0], f.grade)
    if op is E or op is A:
        return op(subs[0])
    if op is At:
        return At(f.at, subs[0])
    if op is Down:
        return Down(f.var, subs[0])
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# Inspection helpers

def free_vars(f: Formula, bound: frozenset = frozenset()) -> set:
    if isinstance(f, Var):
        return set() if f.name in bound else {f.name}
    if isinstance(f, ATOMS):
        return set()
    if isinstance(f, Down):
        return free_vars(f.sub, bound | {f.var})
    if isinstance(f, At):
        return free_vars(f.at, bound) | free_vars(f.sub, bound)
    out: set = set()
    for g in children(f):
        out |= free_vars(g, bound)
    return out


def is_ground(f: Formula) -> bool:
    return not free_vars(f)


def nominals(f: Formula) -> frozenset:
    try:
        return f._noms
    except AttributeError:
        parts = [frozenset((f.name,))] if isinstance(f, Nom) else map(nominals, _named(f))
        object.__setattr__(f, "_noms", frozenset().union(*parts))
        return f._noms


_ERASED = Nom("")


def shape(f: Formula) -> tuple:
    """(skeleton, names): f with every nominal renamed to the empty name,
    and the erased names in preorder (an @-prefix before its body).  Two
    formulas differ at most in their nominals iff their skeletons are
    equal; their name tuples then zip into the induced nominal pairs.
    """
    if not nominals(f):
        return f, ()
    try:
        return f._shape
    except AttributeError:
        if isinstance(f, Nom):
            out = (_ERASED, (f.name,))
        else:
            skeletons, names = zip(*map(shape, _named(f)))
            skeleton = At(*skeletons) if isinstance(f, At) else _rebuild(f, skeletons)
            out = (skeleton, sum(names, ()))
        object.__setattr__(f, "_shape", out)
        return out


def _named(f: Formula) -> tuple:
    """The children of f, and the prefix of an @ before its body."""
    return (f.at, f.sub) if isinstance(f, At) else children(f)


def walk(f: Formula):
    """Every node of f in preorder, an @-prefix before its body.  Iterative,
    so it is safe at any nesting depth.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_named(g)))


def rel_syms(f: Formula) -> set:
    return {g.rel.sym for g in walk(f) if isinstance(g, (Diamond, Box))}


def props(f: Formula) -> set:
    return {g.name for g in walk(f) if isinstance(g, Prop)}


def has_grades(f: Formula) -> bool:
    return any(isinstance(g, (Diamond, Box)) and g.grade is not None for g in walk(f))


def size(f: Formula) -> int:
    """Node count of the tree.  @-prefixes count the @ node and the name
    node separately (u:F has size 2 + size(F)); this is the convention
    the subformula-bound tests rely on.
    """
    return sum(1 for _ in walk(f))


# ---------------------------------------------------------------------------
# Subformula closure w.r.t. a relation vocabulary

def subformula_closure(f: Formula, rels: frozenset | set) -> frozenset:
    """Subformulas of f, closed under relation renaming of boxes: for each
    subformula Box_R G, every Box_S G with S a forward or backward
    relation over `rels` is included.  Size is at most 2 * |rels| * size(f).
    """
    rels = frozenset(rels)
    out: set = set()
    _closure(f, rels, out)
    return frozenset(out)


def _closure(f: Formula, rels: frozenset, out: set) -> None:
    if f in out:
        return
    out.add(f)
    if isinstance(f, Box):
        for s in rels:
            out.add(Box(fwd(s), f.sub, f.grade))
            out.add(Box(bwd(s), f.sub, f.grade))
    for g in children(f):
        _closure(g, rels, out)


def is_instance_of(g: Formula, f: Formula) -> bool:
    """True iff g can be obtained from f by uniformly replacing the free
    variables of f with nominals.
    """
    assignment: dict = {}
    return _match_instance(g, f, frozenset(), assignment)


def _match_instance(g, f, bound, assignment) -> bool:
    if isinstance(f, Var) and f.name not in bound:
        if not isinstance(g, Nom):
            return False
        if f.name in assignment:
            return assignment[f.name] == g.name
        assignment[f.name] = g.name
        return True
    if type(f) is not type(g):
        return False
    if isinstance(f, ATOMS):
        return f == g
    if isinstance(f, Down):
        return f.var == g.var and _match_instance(g.sub, f.sub, bound | {f.var}, assignment)
    if isinstance(f, At):
        return _match_instance(g.at, f.at, bound, assignment) and _match_instance(
            g.sub, f.sub, bound, assignment
        )
    if isinstance(f, (Diamond, Box)):
        if f.rel != g.rel or f.grade != g.grade:
            return False
        return _match_instance(g.sub, f.sub, bound, assignment)
    return all(
        _match_instance(gc, fc, bound, assignment)
        for gc, fc in zip(children(g), children(f))
    )
