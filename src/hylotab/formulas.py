"""Formula and assertion ASTs, negation normal form, substitutions and
inspection helpers for multi-modal hybrid logic.

Formulas, relations and assertions are immutable, interned terms: equal
terms are one object, so `==` and `hash` are identity and never walk a
tree (label comparison is pervasive in the tableau engine and in
blocking).  Each formula node keeps its nominals, its nominal-erased
shape and its `fragments.scan` once computed.
"""

from __future__ import annotations

import weakref

FRESH_PREFIX = "_"


# ---------------------------------------------------------------------------
# Interned nodes

# (class, *fields) -> weak reference to the one live node with them
_TABLE: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    """Drop a dead node's entry, unless a newer node has taken its key."""
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class Node:
    """Base of the immutable term classes.  Building a node returns the
    live node with the same class and fields; derived facts (`nominals`,
    `shape`, `fragments.scan`, `tableau.conclusions`) are kept on it."""

    __slots__ = ("__weakref__", "_noms", "_shape", "_scan", "_concl")
    __match_args__: tuple = ()  # the field names, in order
    _defaults: dict = {}        # field name -> default value

    @classmethod
    def live(cls, *fields):
        """The live node with all of these fields, or None; builds none."""
        return (ref := _TABLE.get((cls, *fields))) and ref()

    def __new__(cls, *args, **kw):
        names = cls.__match_args__
        if kw or len(args) != len(names):
            args = cls._complete(args, kw)
        key = (cls, *args)
        f = (ref := _TABLE.get(key)) and ref()
        if f is None:
            f = object.__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(f, name, value)
            ref = _TABLE[key] = _Ref(f, _forget)
            ref.key = key
        return f

    @classmethod
    def _complete(cls, args: tuple, kw: dict) -> tuple:
        """All the fields, in order: `args`, then those named in `kw`, then
        the defaults.  A field that is unknown, missing or given twice, or
        one field too many, is a TypeError."""
        names, rest = cls.__match_args__, cls.__match_args__[len(args):]
        if len(args) > len(names) or not kw.keys() <= set(rest):
            raise TypeError("%s takes the fields %s, not %d by position and %s by name"
                            % (cls.__name__, names, len(args), sorted(kw)))
        values = {**cls._defaults, **kw}
        try:
            return args + tuple(values[name] for name in rest)
        except KeyError as missing:
            raise TypeError("%s is missing the field %s" % (cls.__name__, missing)) from None

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # on this error path only

        raise FrozenInstanceError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__match_args__))


def node(cls):
    """Rebuild a Node subclass as a slotted class whose fields are its
    annotations, in order; a class attribute named like a field is its
    default."""
    ns = dict(vars(cls))
    names = tuple(ns.get("__annotations__", ()))
    ns["_defaults"] = {name: ns.pop(name) for name in names if name in ns}
    ns["__slots__"] = ns["__match_args__"] = names
    ns.pop("__dict__", None)
    return type(cls.__name__, cls.__bases__, ns)


class Record:
    """Base of the mutable records that are compared: equal when of one
    class with equal attributes."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)


# ---------------------------------------------------------------------------
# Relations and assertions

FORWARD = "forward"
BACKWARD = "backward"


@node
class Relation(Node):
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


@node
class Trans(Node):
    """Transitivity assertion for a relation symbol."""

    sym: str

    def __str__(self) -> str:
        return "trans %s" % self.sym


@node
class Incl(Node):
    """Normalized inclusion: left side may be backward, right side is a
    forward symbol (r- <= s- is spelled r <= s, r <= s- is spelled r- <= s).
    """

    left: Relation
    right: str

    def __str__(self) -> str:
        return "%s <= %s" % (self.left, self.right)


# ---------------------------------------------------------------------------
# Formulas

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
_DUAL = {Top: Bot, Bot: Top, And: Or, Or: And, Diamond: Box, Box: Diamond, E: A, A: E,
         At: At, Down: Down}


def nnf(f: Formula) -> Formula:
    """Push negations down to atoms.

    Graded modalities are handled by duality with the same grade.  The
    binder and @ are self-dual, so a negation simply moves inside them.
    Preserves truth on every interpretation.  An NNF input is returned
    itself, so `nnf(nnf(f)) is nnf(f)`.
    """
    if isinstance(f, ATOMS):
        return f
    if not isinstance(f, Neg):
        return _rebuild(f, [nnf(g) for g in children(f)])
    g = f.sub
    if isinstance(g, (Prop, Nom, Var)):
        return f
    if isinstance(g, Neg):
        return nnf(g.sub)
    return _rebuild(g, [nnf(Neg(h)) for h in children(g)], _DUAL[type(g)])


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
    return subst_vars(f, {x: a}, {})


def subst_vars(f: Formula, env: dict, memo: dict) -> Formula:
    """Replace every free occurrence of each variable in `env` with the nominal it maps
    to; `memo` maps the subterms rewritten under `env`, so each is walked once."""
    if isinstance(f, ATOMS) or not env:
        return Nom(env[f.name]) if isinstance(f, Var) and f.name in env else f
    out = memo.get(f)
    if out is None:
        if isinstance(f, Down) and f.var in env:
            out = Down(f.var, subst_vars(f.sub, {y: b for y, b in env.items() if y != f.var}, {}))
        elif isinstance(f, At):
            out = At(subst_vars(f.at, env, memo), subst_vars(f.sub, env, memo))
        else:  # one frame per level
            out = _rebuild(f, list(map(subst_vars, children(f), (env, env), (memo, memo))))
        memo[f] = out
    return out


def subst_nom(f: Formula, a: str, b: str, memo: dict | None = None) -> Formula:
    """Replace every occurrence of nominal a with b; subtrees without a
    are kept, not rebuilt, and rebuilt nodes get their nominals set.
    `memo` maps the subterms already renamed for this one (a, b), so calls
    that share it walk each distinct subterm once."""
    noms = nominals(f)
    if a not in noms:
        return f
    memo = {} if memo is None else memo
    out = memo.get(f)
    if out is None:
        if isinstance(f, Nom):
            out = Nom(b)
        elif isinstance(f, At):
            out = At(subst_nom(f.at, a, b, memo), subst_nom(f.sub, a, b, memo))
        else:
            out = _rebuild(f, [subst_nom(g, a, b, memo) for g in children(f)])
        object.__setattr__(out, "_noms", noms - {a} | {b})
        memo[f] = out
    return out


def _rebuild(f: Formula, subs: list, op: type | None = None) -> Formula:
    """The node of class `op` (default: f's own) with f's relation, grade,
    prefix or variable, over the children `subs`; f itself, with its cached
    facts, when `op` is f's class and every child is unchanged.
    """
    op = op or type(f)
    if op is Diamond or op is Box:
        return op(f.rel, subs[0], f.grade)
    if op is At:
        return At(f.at, subs[0])
    if op is Down:
        return Down(f.var, subs[0])
    return op(*subs)  # Top, Bot, Neg, And, Or, E, A


# ---------------------------------------------------------------------------
# Inspection helpers

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


def size(f: Formula) -> int:
    """Node count of the tree.  @-prefixes count the @ node and the name
    node separately (u:F has size 2 + size(F)); this is the convention
    the subformula-bound tests rely on.
    """
    return sum(1 for _ in walk(f))

