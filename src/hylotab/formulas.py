"""Formula and assertion ASTs, negation normal form, substitutions and
inspection helpers for multi-modal hybrid logic.

Formulas, relations and assertions are immutable, interned terms: equal
terms are one object, so `==` and `hash` are identity and never walk a
tree (label comparison is pervasive in the tableau engine and in
blocking).  A formula node also knows its syntactic facts from the
moment it is built, each derived in O(1) from its children's
(`Formula.facts`): its nominals, its free variables, the relation
symbols of its modalities, bits for NNF, grades and the fragment
witnesses, and a nominal-blind skeleton hash.  So no question about a
term walks it, at any depth: the fragment checks read the bits, and only
a report of where a witness occurs walks for it.  Its nominal-erased
shape is kept on it once computed.
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
    live node with the same class and fields.  A new formula node also
    derives its facts from its children's (`Formula.facts`: nominals, free
    variables, relation symbols, NNF/grade/witness bits, skeleton hash),
    and `tableau.conclusions` is kept on a label."""

    __slots__ = ("__weakref__", "_concl")
    __match_args__: tuple = ()  # the field names, in order
    _defaults: dict = {}        # field name -> default value
    _derive = None              # formulas: the facts of a node from its fields

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
            if cls._derive is not None:
                object.__setattr__(f, "facts", cls._derive(*args))
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

# The bits of `Formula.facts`.  A universal operator is [R], [R]^n or [A]; a
# down-box is a binder that scopes over one.  Under a universal operator, the
# patterns of UNDER_UNIVERSAL are the witnesses three bits up.  Any witness
# kind that `fragments.witnesses` lists implies a bit of WITNESSES.
UNIVERSAL, GRADED, NOT_NNF, GRADED_1B = 1, 2, 4, 8
DOWN_BOX, GRADED_BOX, GRADED_DIAMOND_OVER_UNIVERSAL = 16, 32, 64
BOX_DOWN_BOX, GRADED_1A, GRADED_2 = 128, 256, 512
UNDER_UNIVERSAL = DOWN_BOX | GRADED_BOX | GRADED_DIAMOND_OVER_UNIVERSAL
WITNESSES = DOWN_BOX | GRADED_1A | GRADED_2

_NONE = frozenset()
_NOM_HASH = hash("'")  # every nominal's: the skeleton hash erases names


class Formula(Node):
    """Base of the formula classes.  `facts` is derived when a node is
    built, from its fields and its children's facts: (nominals, free
    variables with @x prefixes included, relation symbols of the
    modalities, bits, skeleton hash); the fragment checks read the bits.
    Formulas with equal nominal-erased skeletons (`shape`) have equal skeleton hashes."""

    __slots__ = ("facts", "_shape")


def _join(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing a or b when it holds the other."""
    return a if b <= a else b if a <= b else a | b


def _pair(tag: str, a: tuple, b: tuple) -> tuple:
    """The facts of a binary node over children with facts a and b."""
    return _join(a[0], b[0]), _join(a[1], b[1]), _join(a[2], b[2]), a[3] | b[3], hash((tag, a[4], b[4]))


def _unary(tag: str, sub: Formula, bits: int = 0) -> tuple:
    """The facts of a node over `sub` that adds `bits` to its bits."""
    noms, free, rels, below, h = sub.facts
    return noms, free, rels, below | bits, hash((tag, h))


def _modal(tag: str, rel: Relation, sub: Formula, grade, bits: int) -> tuple:
    """The facts of a modality over `sub` with the bits `bits`."""
    noms, free, rels, _, h = sub.facts
    return noms, free, rels if rel.sym in rels else rels | {rel.sym}, bits, hash((tag, rel, grade, h))


@node
class Prop(Formula):
    name: str
    _derive = staticmethod(lambda name: (_NONE, _NONE, _NONE, 0, hash(("p", name))))


@node
class Nom(Formula):
    name: str
    _derive = staticmethod(lambda name: (frozenset((name,)), _NONE, _NONE, 0, _NOM_HASH))


@node
class Var(Formula):
    name: str
    _derive = staticmethod(lambda name: (_NONE, frozenset((name,)), _NONE, 0, hash(("x", name))))


@node
class Top(Formula):
    _derive = staticmethod(lambda: (_NONE, _NONE, _NONE, 0, hash("true")))


@node
class Bot(Formula):
    _derive = staticmethod(lambda: (_NONE, _NONE, _NONE, 0, hash("false")))


@node
class Neg(Formula):
    sub: Formula
    _derive = staticmethod(
        lambda sub: _unary("!", sub, 0 if isinstance(sub, (Prop, Nom, Var)) else NOT_NNF))


@node
class And(Formula):
    left: Formula
    right: Formula
    _derive = staticmethod(lambda left, right: _pair("&", left.facts, right.facts))


@node
class Or(Formula):
    left: Formula
    right: Formula
    _derive = staticmethod(lambda left, right: _pair("|", left.facts, right.facts))


@node
class Diamond(Formula):
    rel: Relation
    sub: Formula
    grade: int | None = None

    @staticmethod
    def _derive(rel, sub, grade):
        bits = sub.facts[3]
        if grade is not None:
            bits |= GRADED | (GRADED_DIAMOND_OVER_UNIVERSAL if bits & UNIVERSAL else 0)
        return _modal("<>", rel, sub, grade, bits)


@node
class Box(Formula):
    rel: Relation
    sub: Formula
    grade: int | None = None

    @staticmethod
    def _derive(rel, sub, grade):
        body = sub.facts[3]
        bits = body | UNIVERSAL | (body & UNDER_UNIVERSAL) << 3
        if grade is not None:
            bits |= GRADED | GRADED_BOX | (GRADED_1B if body & DOWN_BOX else 0)
        return _modal("[]", rel, sub, grade, bits)


@node
class E(Formula):
    sub: Formula
    _derive = staticmethod(lambda sub: _unary("E", sub))


@node
class A(Formula):
    sub: Formula
    _derive = staticmethod(lambda sub: _unary("A", sub, UNIVERSAL | (sub.facts[3] & UNDER_UNIVERSAL) << 3))


@node
class At(Formula):
    """Satisfaction statement u:F, with u a nominal or a variable."""

    at: Formula  # Nom or Var
    sub: Formula
    _derive = staticmethod(lambda at, sub: _pair("@", at.facts, sub.facts))


@node
class Down(Formula):
    var: str
    sub: Formula

    @staticmethod
    def _derive(var, sub):
        noms, free, rels, bits, h = sub.facts
        if bits & UNIVERSAL:
            bits |= DOWN_BOX
        return noms, free - {var} if var in free else free, rels, bits, hash(("down", var, h))


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
    Preserves truth on every interpretation.  An NNF input, or subtree, is
    returned itself without a walk, so `nnf(nnf(f)) is nnf(f)`.
    """
    if not f.facts[3] & NOT_NNF:
        return f
    if not isinstance(f, Neg):
        return _rebuild(f, [nnf(g) for g in children(f)])
    g = f.sub
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
    to; a subtree with none of them free is returned itself.  `memo` maps the subterms
    rewritten under `env`, so each is walked once."""
    if f.facts[1].isdisjoint(env):
        return f
    if isinstance(f, Var):
        return Nom(env[f.name])
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
    are kept, not rebuilt.  `memo` maps the subterms already renamed for
    this one (a, b), so calls that share it walk each distinct subterm once."""
    if a not in f.facts[0]:
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
    return f.facts[0]


_ERASED = Nom("")


def shape(f: Formula) -> tuple:
    """(skeleton, names): f with every nominal renamed to the empty name,
    and the erased names in preorder (an @-prefix before its body).  Two
    formulas differ at most in their nominals iff their skeletons are
    equal; their name tuples then zip into the induced nominal pairs.
    """
    if not f.facts[0]:
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


def rel_syms(f: Formula) -> frozenset:
    return f.facts[2]


def props(f: Formula) -> set:
    return {g.name for g in walk(f) if isinstance(g, Prop)}


def size(f: Formula) -> int:
    """Node count of the tree.  @-prefixes count the @ node and the name
    node separately (u:F has size 2 + size(F)); this is the convention
    the subformula-bound tests rely on.
    """
    return sum(1 for _ in walk(f))

