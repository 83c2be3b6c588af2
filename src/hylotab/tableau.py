"""The tableau engine: branch representation, expansion rules with
their application restrictions, and the depth-first search over
branches.

A branch is a sequence of nodes, each labelled by an assertion or a
ground satisfaction statement 'a: F in NNF.  Relation edges are
ordinary nodes labelled 'a: <r> 'b (r forward, b a nominal); such a
node is read both as an r-edge from a to b and as an r--edge from b
to a.  Disjunctions split the branch; everything else extends it.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from functools import cached_property

from .blocking import BlockInfo, recompute_blocking
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
    Relation,
    Trans,
    bwd,
    fwd,
    has_grades,
    is_ground,
    nnf,
    node,
    nominals,
    subst_nom,
    subst_var,
)
from .fragments import FragmentError, scan
from .parser import Problem, print_formula

TOP_NOMINAL = "_0"
BRANCH_FRESH = "_b"


@node
class Sat(Node):
    """Satisfaction statement: nominal `nom` labels formula `body`."""

    nom: str
    body: Formula


def is_relational(lab) -> bool:
    return (
        isinstance(lab, Sat)
        and isinstance(lab.body, Diamond)
        and lab.body.rel.is_forward
        and lab.body.grade is None
        and isinstance(lab.body.sub, Nom)
    )


def is_blockable(lab) -> bool:
    if not isinstance(lab, Sat):
        return False
    if isinstance(lab.body, E):
        return True
    return isinstance(lab.body, Diamond) and not is_relational(lab)


def edge_label(a: str, rel: Relation, b: str) -> Sat:
    """The node label recording an edge from a to b along rel."""
    if rel.is_forward:
        return Sat(a, Diamond(rel, Nom(b)))
    return Sat(b, Diamond(fwd(rel.sym), Nom(a)))


def edge_readings(lab: Sat):
    """Both readings of a relational node: forward and converse."""
    a, r, b = lab.nom, lab.body.rel, lab.body.sub.name
    return ((a, r, b), (b, r.inv(), a))


def format_label(lab) -> str:
    if isinstance(lab, Sat):
        return "'%s: %s" % (lab.nom, print_formula(lab.body))
    return str(lab)


class Branch:
    """Mutable branch state.  Node order is creation order; `prec` holds
    each node's offspring parent (None for root nodes).
    """

    def __init__(self):
        self.labels: list = []
        self.prec: list = []
        self.prov: list = []          # (rule name, premise node ids)
        self.expanded: set = set()    # blockable nodes already expanded
        self.incls: dict = {}         # Incl -> node id
        self.trans: dict = {}         # transitive sym -> node id
        self.rels: tuple = ()
        self.subst_log: list = []     # (a, b) applied replacements
        self.fresh_counter: int = 0
        self.input_formula: Formula | None = None

    def copy(self) -> "Branch":
        c = copy.copy(self)
        c.labels = list(self.labels)
        c.prec = list(self.prec)
        c.prov = list(self.prov)
        c.expanded = set(self.expanded)
        c.subst_log = list(self.subst_log)
        return c

    def add(self, lab, parent, rule, premises) -> int:
        self.labels.append(lab)
        self.prec.append(parent)
        self.prov.append((rule, tuple(premises)))
        return len(self.labels) - 1

    def fresh_nominal(self) -> str:
        self.fresh_counter += 1
        return "%s%d" % (BRANCH_FRESH, self.fresh_counter)

    @property
    def top_noms(self) -> set:
        top = self.labels[0]
        return {top.nom} | nominals(top.body)

    def has_incl(self, left: Relation, right: Relation) -> bool:
        """Is the containment left <= right recorded?  A backward right
        side is normalized by flipping both sides.
        """
        if right.is_forward:
            return Incl(left, right.sym) in self.incls
        return Incl(left.inv(), right.sym) in self.incls

    def substitute(self, a: str, b: str) -> None:
        """Replace nominal a by b in every node label; labels without a
        stay the same objects.
        """
        out = []
        for lab in self.labels:
            if isinstance(lab, Sat):
                body = subst_nom(lab.body, a, b)
                if body is not lab.body or lab.nom == a:
                    lab = Sat(b if lab.nom == a else lab.nom, body)
            out.append(lab)
        self.labels = out
        self.subst_log.append((a, b))

    # -- derived views, recomputed per scheduling step ----------------------

    def blocking(self) -> BlockInfo:
        blockable = [is_blockable(lab) for lab in self.labels]
        sat_labels = [lab for lab in self.labels if isinstance(lab, Sat)]
        return recompute_blocking(
            self.labels, self.prec, blockable, self.top_noms, sat_labels
        )

    def closure_witness(self):
        """A pair of contradictory labels, or None if the branch is open.
        A label 'a: false also closes the branch.
        """
        pos: dict = {}
        neg: dict = {}
        for i, lab in enumerate(self.labels):
            if not isinstance(lab, Sat):
                continue
            f = lab.body
            if isinstance(f, Bot):
                return (i, i)
            if isinstance(f, Neg) and isinstance(f.sub, Nom) and f.sub.name == lab.nom:
                return (i, i)
            if isinstance(f, Prop):
                key = (lab.nom, f.name)
                if key in neg:
                    return (i, neg[key])
                pos.setdefault(key, i)
            elif isinstance(f, Neg) and isinstance(f.sub, Prop):
                key = (lab.nom, f.sub.name)
                if key in pos:
                    return (pos[key], i)
                neg.setdefault(key, i)
        return None

    def trace(self) -> list:
        lines = []
        for i, lab in enumerate(self.labels):
            rule, prem = self.prov[i]
            src = rule if not prem else "%s %s" % (rule, ",".join(map(str, prem)))
            lines.append("(%d) %s  [%s]" % (i, format_label(lab), src))
        lines.extend("subst '%s -> '%s" % ab for ab in self.subst_log)
        return lines


# ---------------------------------------------------------------------------
# Initialization

def init_branch(problem: Problem) -> Branch:
    f = nnf(problem.formula)
    if has_grades(f):
        raise ValueError("graded operators must be eliminated before solving")
    if not is_ground(f):
        raise ValueError("input formula must be ground")
    critical = scan(f).down_box
    if critical:
        raise FragmentError(
            "binder scoping over a universal operator; preprocess first", critical
        )
    b = Branch()
    b.input_formula = f
    b.add(Sat(TOP_NOMINAL, f), None, "init", ())
    b.rels = tuple(sorted(problem.declared_rels))

    incls, trans = b.incls, b.trans
    for a in problem.assertions:
        if isinstance(a, Trans):
            if a.sym not in trans:
                trans[a.sym] = b.add(a, None, "assert", ())
        elif isinstance(a, Incl):
            if a not in incls:
                incls[a] = b.add(a, None, "assert", ())
    for r in b.rels:
        refl = Incl(fwd(r), r)
        if refl not in incls:
            incls[refl] = b.add(refl, None, "Rel0", ())
    # transitive closure of the containment order, with sign flipping
    changed = True
    while changed:
        changed = False
        for i1 in list(incls):
            for i2 in list(incls):
                if i2.left == fwd(i1.right):
                    derived = Incl(i1.left, i2.right)
                elif i2.left == bwd(i1.right):
                    derived = Incl(i1.left.inv(), i2.right)
                else:
                    continue
                if derived not in incls:
                    incls[derived] = b.add(derived, None, "Rel", (incls[i1], incls[i2]))
                    changed = True
    return b


# ---------------------------------------------------------------------------
# One expansion step

def step(branch: Branch):
    """Apply the first applicable rule under the scheduling priority:
    equality merge, the rules of `_extensions` in its order, the
    disjunction split, then the witness rules.

    Returns one of:
        ("closed", None)   the branch is closed
        ("applied", None)  a rule extended or rewrote the branch
        ("split", other)   a disjunction split; `other` is the new branch
        ("done", info)     no rule applies: branch complete and open;
                           `info` is its BlockInfo
    """
    if branch.closure_witness() is not None:
        return ("closed", None)

    info = branch.blocking()
    labels = branch.labels
    live = [
        i for i, lab in enumerate(labels) if isinstance(lab, Sat) and not info.phantom[i]
    ]
    npl = {labels[i] for i in live}

    # equality: a non-phantom node 'a: 'b merges the two nominals
    for i in live:
        lab = labels[i]
        if isinstance(lab.body, Nom) and lab.body.name != lab.nom:
            branch.substitute(lab.nom, lab.body.name)
            return ("applied", None)

    for conclusions, k, rule, premises in _extensions(branch, live):
        missing = [c for c in conclusions if c not in npl]
        if missing:
            for c in missing:
                branch.add(c, branch.prec[k], rule, premises)
            return ("applied", None)

    # disjunction: split
    for i in live:
        lab = labels[i]
        f = lab.body
        if isinstance(f, Or):
            left = Sat(lab.nom, f.left)
            right = Sat(lab.nom, f.right)
            if left in npl or right in npl:
                continue
            other = branch.copy()
            branch.add(left, branch.prec[i], "or-left", (i,))
            other.add(right, other.prec[i], "or-right", (i,))
            return ("split", other)

    # witness rules, subject to single expansion and direct blocking
    for i in live:
        lab = labels[i]
        if not is_blockable(lab) or i in branch.expanded or info.direct[i]:
            continue
        branch.expanded.add(i)
        f = lab.body
        w = branch.fresh_nominal()
        if isinstance(f, E):
            branch.add(Sat(w, f.sub), i, "E", (i,))
        else:
            branch.add(edge_label(lab.nom, f.rel, w), i, "dia", (i,))
            branch.add(Sat(w, f.sub), i, "dia", (i,))
        return ("applied", None)

    return ("done", info)


def _extensions(branch: Branch, live: list):
    """The instances of the non-branching, non-witness rules, lazily and
    in priority order: and/at/down, Link, box, A, Trans.  Each is
    (conclusions, k, rule, premises); `step` adds the conclusions not yet
    on the branch as offspring of `branch.prec[k]`.  Premises are `live`
    nodes, except the major premise of box, A and Trans (the Box or A
    node), which may be a phantom.
    """
    labels = branch.labels
    for i in live:
        lab = labels[i]
        f = lab.body
        if isinstance(f, And):
            yield (Sat(lab.nom, f.left), Sat(lab.nom, f.right)), i, "and", (i,)
        elif isinstance(f, At):
            yield (Sat(f.at.name, f.sub),), i, "at", (i,)
        elif isinstance(f, Down):
            yield (Sat(lab.nom, subst_var(f.sub, f.var, lab.nom)),), i, "down", (i,)

    # containment propagation along edges
    readings = [
        (m, x, rel, y)
        for m in live
        if is_relational(labels[m])
        for (x, rel, y) in edge_readings(labels[m])
    ]
    for m, x, rel, y in readings:
        for inc, k in branch.incls.items():
            if inc.left == rel:
                yield (edge_label(x, fwd(inc.right), y),), m, "Link", (m, k)

    # box along matching edges
    boxes: dict = {}      # nominal -> Box node ids
    global_nodes = []     # A node ids
    for j, lab in enumerate(labels):
        if isinstance(lab, Sat):
            if isinstance(lab.body, Box):
                boxes.setdefault(lab.nom, []).append(j)
            elif isinstance(lab.body, A):
                global_nodes.append(j)
    for m, x, rel, y in readings:
        for j in boxes.get(x, ()):
            g = labels[j].body
            if g.rel == rel:
                yield (Sat(y, g.sub),), m, "box", (j, m)

    # global box: focus on each nominal of a live node in turn, minor
    # premise the first live node it occurs in
    if global_nodes:
        first_at: dict = {}
        for i in live:
            lab = labels[i]
            for nom in [lab.nom] + sorted(nominals(lab.body)):
                first_at.setdefault(nom, i)
        for j in global_nodes:
            for nom, k in first_at.items():
                yield (Sat(nom, labels[j].body.sub),), k, "A", (j, k)

    # transitivity propagation: push boxes along edges of transitive
    # subrelations
    for m, x, rel, y in readings:
        if rel.sym in branch.trans:
            for j in boxes.get(x, ()):
                g = labels[j].body
                if branch.has_incl(rel, g.rel):
                    yield (Sat(y, Box(rel, g.sub)),), m, "Trans", (j, m, branch.trans[rel.sym])


# ---------------------------------------------------------------------------
# Search

@dataclass
class Limits:
    max_nodes: int = 100_000
    max_branches: int = 10_000
    timeout: float = 60.0


@dataclass
class Result:
    verdict: str                 # "sat" | "unsat" | "limit"
    branch: Branch | None = None
    blocking: BlockInfo | None = None
    stats: dict = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.verdict == "sat"

    @cached_property
    def trace(self) -> list:
        """The derivation of `branch`, formatted on first access; [] on a limit."""
        if self.verdict == "limit" or self.branch is None:
            return []
        return self.branch.trace()


def solve(problem: Problem, limits: Limits | None = None) -> Result:
    """Decide satisfiability of an ungraded ground problem.

    The input must already be free of binders scoping over universal
    operators (run the preprocessing pipeline first if needed); such
    input raises FragmentError, and graded or open input ValueError.
    On "sat" the result carries the complete open branch; on "unsat"
    the trace of the last refuted branch.
    """
    limits = limits or Limits()
    start = time.monotonic()
    stack = [init_branch(problem)]
    branches = 0
    steps = 0
    last = None
    while stack:
        branch = stack.pop()
        branches += 1
        if branches > limits.max_branches:
            return Result("limit", branch, stats=_stats(branches, steps, start))
        while True:
            if time.monotonic() - start > limits.timeout:
                return Result("limit", branch, stats=_stats(branches, steps, start))
            if len(branch.labels) > limits.max_nodes:
                return Result("limit", branch, stats=_stats(branches, steps, start))
            status, other = step(branch)
            steps += 1
            if status == "applied":
                continue
            if status == "split":
                stack.append(other)
                continue
            if status == "closed":
                last = branch
                break
            return Result("sat", branch, other, _stats(branches, steps, start))
    return Result("unsat", last, None, _stats(branches, steps, start))


def _stats(branches, steps, start):
    return {
        "branches": branches,
        "steps": steps,
        "seconds": time.monotonic() - start,
    }
