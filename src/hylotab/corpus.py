"""Problem generators: named frame properties, tiling-style stress
formulas, a deterministic random generator for the binder fragment, and
an exhaustive enumerator of small formulas for cross-checking against
the bounded semantic oracle.
"""

from __future__ import annotations

import functools
import itertools
import random

from .formulas import (
    A,
    And,
    At,
    Bot,
    Box,
    Diamond,
    Down,
    E,
    Formula,
    Incl,
    Neg,
    Node,
    Nom,
    Or,
    Prop,
    Top,
    Trans,
    Var,
    bwd,
    fwd,
    node,
)
from .parser import Problem


def conj(fs) -> Formula:
    return functools.reduce(And, fs)


def disj(fs) -> Formula:
    return functools.reduce(Or, fs)


# ---------------------------------------------------------------------------
# Frame properties

# Far above the largest at_most_n count whose formula stays within Python's
# recursion limit; checked before the n names are built.
MAX_FRAME_COUNT = 10_000


def frame_property(name: str, rel: str = "r", n: int = 2):
    """Assertions or formulas forcing well-known frame conditions.
    Returns an assertion for conditions expressible as such, otherwise
    a formula to be conjoined with the input.  The count n of
    at_most_n and at_least_n_successors lies in 1..MAX_FRAME_COUNT.
    """
    if not 1 <= n <= MAX_FRAME_COUNT:
        raise ValueError("frame property count must be at least 1 and at most %d, not %d"
                         % (MAX_FRAME_COUNT, n))
    r = fwd(rel)
    if name == "transitivity":
        return Trans(rel)
    if name == "symmetry":
        return Incl(bwd(rel), rel)
    if name == "reflexivity":
        return A(Down("x", Diamond(r, Var("x"))))
    if name == "sibling":
        # every state sees, through a predecessor, a state other than itself
        return A(Down("x", Diamond(bwd(rel), Diamond(r, Neg(Var("x"))))))
    if name == "at_most_n":
        # the whole frame has at most n states
        xs = ["x%d" % i for i in range(1, n + 1)]
        body: Formula = A(disj(Var(x) for x in xs))
        for x in reversed(xs):
            body = E(Down(x, body))
        return body
    if name == "at_least_n_successors":
        return Diamond(r, Top(), grade=n - 1)
    raise ValueError("unknown frame property %r" % name)


# ---------------------------------------------------------------------------
# Tiling-style stress formulas

@node
class Tile(Node):
    name: str
    left: str
    right: str
    top: str
    bottom: str


def _spypoint(a: Nom, g, inner_rel) -> Formula:
    # every inner_rel successor of a g-successor is seen again from a
    return Box(g, Box(inner_rel, Down("x", Diamond(g, And(a, Diamond(g, Var("x")))))))


def _tile_constraints(tiles, r, u, g) -> Formula:
    def p(t):
        return Prop("tile_" + t.name)

    one = disj(
        conj([p(t)] + [Neg(p(t2)) for t2 in tiles if t2 != t]) for t in tiles
    )
    horiz = conj(
        Or(Neg(p(t)), Box(r, disj(p(t2) for t2 in tiles if t2.left == t.right)))
        for t in tiles
        if any(t2.left == t.right for t2 in tiles)
    )
    vert = conj(
        Or(Neg(p(t)), Box(u, disj(p(t2) for t2 in tiles if t2.bottom == t.top)))
        for t in tiles
        if any(t2.bottom == t.top for t2 in tiles)
    )
    return Box(g, conj([one, horiz, vert]))


_R, _U, _G = fwd("r"), fwd("u"), fwd("g")  # grid right, grid up, spy point's reach


def _grid_tiling(tiles, extra: list) -> Problem:
    """The tiling problem both encodings share: the spy point (alpha),
    grid successors (beta), the encoding's `extra` conjuncts for grid
    confluence, and the tile constraints (delta).
    """
    r, u, g = _R, _U, _G
    a = Nom("spy")
    alpha = conj(
        [a, Diamond(g, a), Box(g, Diamond(g, a)), _spypoint(a, g, u), _spypoint(a, g, r)]
    )
    beta = conj(
        [
            Box(g, Diamond(u, Top())),
            Box(g, Diamond(r, Top())),
            Box(g, Box(u, Bot(), grade=1)),
            Box(g, Box(r, Bot(), grade=1)),
        ]
    )
    delta = _tile_constraints(tiles, r, u, g)
    return Problem([], conj([alpha, beta] + extra + [delta]))


def tiling_at(tiles) -> Problem:
    """Grid tiling encoded with a spy point and the satisfaction
    prefix; lies outside the graded restrictions (a graded box occurs
    under a universal operator).
    """
    r, u, g = _R, _U, _G
    gamma = Box(
        g,
        Down(
            "x",
            Diamond(u, Diamond(r, Down("y", At(Var("x"), Diamond(r, Diamond(u, Var("y"))))))),
        ),
    )
    return _grid_tiling(tiles, [gamma])


def tiling_conv(tiles) -> Problem:
    """Grid tiling variant using converse modalities for grid
    confluence instead of the satisfaction prefix."""
    r, u, g = _R, _U, _G
    beta2 = conj([Box(g, Box(bwd("u"), Bot(), grade=1)), Box(g, Box(bwd("r"), Bot(), grade=1))])
    back = Diamond(bwd("r"), Diamond(bwd("u"), Diamond(r, Diamond(u, Var("x")))))
    gamma = Box(g, Box(u, Box(r, Down("x", back))))
    return _grid_tiling(tiles, [beta2, gamma])


def default_tiles():
    return [
        Tile("wb", "w", "b", "w", "b"),
        Tile("bw", "b", "w", "b", "w"),
    ]


def functionality_formula() -> Formula:
    """Successor functionality forced through a binder nested between
    universal operators; the textbook trigger for undecidability."""
    g, u = fwd("g"), fwd("u")
    inner = Box(
        g,
        Or(
            Neg(Prop("s")),
            Box(g, Or(Box(u, Neg(Var("x"))), Box(u, Var("x")))),
        ),
    )
    return And(Box(g, Diamond(u, Top())), Box(g, Down("x", inner)))


# ---------------------------------------------------------------------------
# Deterministic random problems in the binder fragment

# The random problems' vocabulary and largest depth; a depth-d formula has up to 2^d nodes.
RELS, PROPS, NOMS = ("r", "s"), ("p", "q"), ("a", "b")
MAX_DEPTH = 16


def random_fragment_problem(seed: int, depth: int = 5) -> Problem:
    """A random ground NNF problem over RELS, PROPS and NOMS where no
    binder scopes over a universal operator, with random transitivity
    and containment assertions.  Fully determined by the seed.  Raises
    ValueError unless 0 <= depth <= MAX_DEPTH.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError("depth must be nonnegative and at most %d, not %d" % (MAX_DEPTH, depth))
    rng = random.Random(seed)

    def atom():
        kind = rng.randrange(6)
        if kind == 0:
            return Prop(rng.choice(PROPS))
        if kind == 1:
            return Neg(Prop(rng.choice(PROPS)))
        if kind == 2:
            return Nom(rng.choice(NOMS))
        if kind == 3:
            return Neg(Nom(rng.choice(NOMS)))
        if kind == 4:
            return Top()
        return Prop(rng.choice(PROPS))

    def rel():
        base = rng.choice(RELS)
        return bwd(base) if rng.random() < 0.3 else fwd(base)

    def build(d, bound, universal_ok):
        if d == 0:
            if bound and rng.random() < 0.4:
                x = rng.choice(sorted(bound))
                return Neg(Var(x)) if rng.random() < 0.5 else Var(x)
            return atom()
        ops = ["and", "or", "dia", "at", "down", "e"]
        if universal_ok:
            ops += ["box", "a"]
        op = rng.choice(ops)
        if op == "down":
            x = "x%d" % len(bound)
            return Down(x, build(d - 1, bound | {x}, False))
        sub = functools.partial(build, d - 1, bound, universal_ok)
        if op in ("and", "or"):
            return (And if op == "and" else Or)(sub(), sub())
        if op in ("dia", "box"):
            return (Diamond if op == "dia" else Box)(rel(), sub())
        if op == "at":
            return At(Nom(rng.choice(NOMS)), sub())
        return (E if op == "e" else A)(sub())

    f = build(depth, frozenset(), True)
    assertions = []
    for r in RELS:
        if rng.random() < 0.3:
            assertions.append(Trans(r))
    for r, s in itertools.permutations(RELS, 2):
        if rng.random() < 0.25:
            assertions.append(Incl(fwd(r), s))
        if rng.random() < 0.15:
            assertions.append(Incl(bwd(r), s))
    return Problem(assertions, f, set(RELS))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small formulas

def enumerate_small_formulas():
    """All ground NNF formulas over proposition p, nominal a and
    variable x, one relation r, built from atoms and negated atoms by
    one optional binary connective at the core and up to two unary
    operators on top.  Deduplicated, deterministic order.
    """
    r = fwd("r")
    atoms = [Prop("p"), Neg(Prop("p")), Nom("a"), Var("x")]

    def unaries(f):
        yield Diamond(r, f)
        yield Box(r, f)
        yield E(f)
        yield A(f)
        yield At(Nom("a"), f)
        yield Down("x", f)

    level1 = list(atoms)
    for f, g in itertools.product(atoms, atoms):
        level1.append(And(f, g))
        level1.append(Or(f, g))
    level2 = [u for f in level1 for u in unaries(f)]
    level3 = [u for f in level2 for u in unaries(f)]

    # first occurrences, in order
    return list(dict.fromkeys(f for f in itertools.chain(level1, level2, level3) if not f.facts[1]))
