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

# The benchmark's tracer (perfbench/tracing.py) patches recompute_blocking,
# nominals and subst_var in this module by name; call them as module globals.
from .blocking import BlockInfo, nominal_profiles, recompute_blocking
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
    shape,
    subst_nom,
    subst_var,
)
from .fragments import FragmentError, scan
from .parser import Problem, print_formula

TOP_NOMINAL = "_0"
BRANCH_FRESH = "_b"


class Label(Node):
    """Node base with a slot that keeps `conclusions`."""

    __slots__ = ("_concl",)


@node
class Sat(Label):
    """Satisfaction statement: nominal `nom` labels formula `body`."""

    nom: str
    body: Formula


_RULE = {And: "and", At: "at", Down: "down"}


def conclusions(lab: Sat) -> tuple:
    """The conclusions of an and/at/down label or the disjuncts of an or
    label, built once per label; () for any other label.
    """
    try:
        return lab._concl
    except AttributeError:
        pass
    f = lab.body
    if isinstance(f, (And, Or)):
        out = (Sat(lab.nom, f.left), Sat(lab.nom, f.right))
    elif isinstance(f, At):
        out = (Sat(f.at.name, f.sub),)
    elif isinstance(f, Down):
        out = (Sat(lab.nom, subst_var(f.sub, f.var, lab.nom)),)
    else:
        out = ()
    object.__setattr__(lab, "_concl", out)
    return out


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


def _literal(f):
    """(prop, positive?) of a body p or !p; None for other bodies."""
    positive = isinstance(f, Prop)
    if positive or (isinstance(f, Neg) and isinstance(f.sub, Prop)):
        return (f if positive else f.sub).name, positive


def _self_clash(lab) -> bool:
    return isinstance(lab.body, Bot) or (isinstance(lab.body, Neg) and lab.body.sub == Nom(lab.nom))


def _is_eq(lab) -> bool:
    return isinstance(lab.body, Nom) and lab.body.name != lab.nom


class Index:
    """The views of a branch that `step` reads, kept up to date instead of
    rebuilt on every step.  The label views depend on the labels alone:
    `add` extends them and `rename` patches them after a substitution.
    The live views depend on blocking too: `Branch.blocking` extends them.
    A substitution or a new Prop or Box label keeps them unless a blocking
    decision may change (`keeps`); a split copy takes a copy of them.
    """

    def __init__(self):
        self.clash = None          # first contradictory pair
        self.lits: dict = {}       # (nominal, prop, positive?) -> first node
        self.blockable: list = []
        self.classes: dict = {}    # skeleton -> blockable node ids, phantoms included
        self.boxes: dict = {}      # nominal -> Box node ids, phantoms included
        self.a_nodes: tuple = ()   # A node ids, phantoms included
        self.reset_live(None)

    def reset_live(self, info) -> None:
        self.info = info           # BlockInfo of the first `seen` nodes
        self.copied = False        # info is a split copy's snapshot
        self.stale = False         # info's profiles and `npl` are out of date
        self.live: list = []       # non-phantom Sat node ids
        self.npl: set = set()      # their labels
        self.readings: list = []   # (m, x, rel, y) of live relational nodes
        self.eq = None             # first live node 'a: 'b with a != b
        self.first_at: dict = {}   # nominal -> first live node it occurs in
        # `seen` and `first` count the nodes taken into `live` and
        # `first_at`.  Before the rule cursors `concl`, `link`, `split` and
        # `witness`, live nodes (readings, for Link) have nothing left to
        # add, as `npl` only grows and renaming commutes with those rules.
        self.seen = self.concl = self.link = self.split = self.witness = self.first = 0

    def copy(self) -> "Index":
        """A split copy's index, with its own views, cursors and BlockInfo
        (whose profiles and top nominals are replaced, never changed)."""
        c = copy.copy(self)
        c.lits, c.blockable, c.boxes, c.classes = (
            dict(self.lits), list(self.blockable), dict(self.boxes), dict(self.classes))
        c.live, c.npl, c.readings, c.first_at = (
            list(self.live), set(self.npl), list(self.readings), dict(self.first_at))
        if self.info is not None:
            c.copied, i = True, self.info
            c.info = BlockInfo(i.direct[:], i.phantom[:], i.blocker[:], i.profiles, i.top_noms,
                               {k: v[:] for k, v in i.groups.items()})
        return c

    def add(self, labels, i) -> None:
        lab = labels[i]
        self.blockable.append(is_blockable(lab))
        if self.blockable[i]:
            skeleton = shape(lab.body)[0]
            self.classes[skeleton] = self.classes.get(skeleton, ()) + (i,)
        if not isinstance(lab, Sat):
            return
        f, lit = lab.body, _literal(lab.body)
        if _self_clash(lab):
            self.clash = self.clash or (i, i)
        elif lit is not None:
            j = self.lits.get((lab.nom, lit[0], not lit[1]))
            if j is not None and self.clash is None:
                self.clash = (i, j) if lit[1] else (j, i)
            self.lits.setdefault((lab.nom,) + lit, i)
        if isinstance(f, (Prop, Box)):
            self.keeps(labels, {lab.nom})
        if isinstance(f, Box):
            self.boxes[lab.nom] = self.boxes.get(lab.nom, ()) + (i,)
        elif isinstance(f, A):
            self.a_nodes += (i,)

    def keeps(self, labels, noms) -> bool:
        """Keep the live views when the profiles or top status of `noms`
        change?  Blocks are decided by `maps_to` between blockable nodes of
        one skeleton; if two such nodes exist and one mentions `noms`, reset."""
        if self.info is None or any(len(ids) > 1 and any(
                labels[i].nom in noms or not noms.isdisjoint(nominals(labels[i].body))
                for i in ids) for ids in self.classes.values()):
            self.reset_live(None)
            return False
        self.stale = True
        return True

    def rename(self, labels, renamed, a, b) -> None:
        """Patch the views after `Branch.substitute` renamed a to b in the
        labels of the nodes `renamed`: a's literal and Box entries move to b,
        and the clash may move to b's literal pairs or a renamed label."""
        lits, props, owners = self.lits, set(), {a, b}
        closers = [self.clash] if self.clash else []
        for i in renamed:
            lab, lit = labels[i], _literal(labels[i].body)
            if _self_clash(lab):
                closers.append((i, i))
            elif lit is not None:
                j = lits.pop((a,) + lit, None)
                if j is not None:
                    lits[(b,) + lit] = min(j, lits.get((b,) + lit, j))
                    props.add(lit[0])
            elif isinstance(lab.body, Box):
                owners.add(lab.nom)  # its profile changes
        closers += [(lits[(b, p, True)], lits[(b, p, False)]) for p in props
                    if (b, p, True) in lits and (b, p, False) in lits]
        # at a tie (one closing node), b's merged pair has the earlier nodes
        self.clash = min(closers, key=lambda pair: (max(pair), pair), default=None)
        if a in self.boxes:
            self.boxes[b] = tuple(sorted(self.boxes.pop(a) + self.boxes.get(b, ())))
        if self.keeps(labels, owners):
            if a in self.info.top_noms:
                self.info.top_noms = self.info.top_noms - {a} | {b}
            self.readings = [
                (m, b if x == a else x, r, b if y == a else y) for m, x, r, y in self.readings]
            self.eq = next((i for i in self.live if _is_eq(labels[i])), None)
            self.first_at, self.first = {}, 0

    def add_live(self, labels) -> None:
        """Append the non-phantom Sat nodes added since the last call."""
        for i in range(self.seen, len(labels)):
            lab = labels[i]
            if isinstance(lab, Sat) and not self.info.phantom[i]:
                self.live.append(i)
                self.npl.add(lab)
                if is_relational(lab):
                    self.readings.extend((i,) + r for r in edge_readings(lab))
                elif self.eq is None and _is_eq(lab):
                    self.eq = i
        self.seen = len(labels)

    def first_occurrences(self, labels) -> dict:
        """`first_at`, the label's nominal before its body's sorted ones."""
        for i in self.live[self.first:]:
            for nom in [labels[i].nom] + sorted(nominals(labels[i].body)):
                self.first_at.setdefault(nom, i)
        self.first = len(self.live)
        return self.first_at


class Branch:
    """Mutable branch state.  Node order is creation order; `prec` holds
    each node's offspring parent (None for root nodes).

    `closure_witness`, `copy`, `substitute` and `trace` are wrapped by
    name by the benchmark's tracer (`perfbench/tracing.py`).
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
        self.index = Index()

    def copy(self) -> "Branch":
        c = copy.copy(self)
        c.labels, c.prec, c.prov = list(self.labels), list(self.prec), list(self.prov)
        c.expanded, c.subst_log = set(self.expanded), list(self.subst_log)
        c.index = self.index.copy()
        return c

    def add(self, lab, parent, rule, premises) -> int:
        i = len(self.labels)
        self.labels.append(lab)
        self.prec.append(parent)
        self.prov.append((rule, tuple(premises)))
        self.index.add(self.labels, i)
        return i

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
        """Replace nominal a by b in the labels that hold it, and patch the
        index over them; the other labels stay the same objects.
        """
        labels, renamed = self.labels, []
        for i, lab in enumerate(labels):
            if isinstance(lab, Sat):
                body = subst_nom(lab.body, a, b)
                if body is not lab.body or lab.nom == a:
                    labels[i] = Sat(b if lab.nom == a else lab.nom, body)
                    renamed.append(i)
        self.subst_log.append((a, b))
        self.index.rename(labels, renamed, a, b)

    def blocking(self) -> BlockInfo:
        """The BlockInfo of the current labels: the last one extended over
        the new nodes, or recomputed once the live views were reset.  A
        split copy's snapshot is extended by `recompute_blocking` too: the
        benchmark's tracer reads the blocked-node counts from the last
        BlockInfo that function returned.  The live views follow.
        """
        ix, labels = self.index, self.labels
        if ix.stale:  # after a merge or a Prop or Box label that kept the live views
            ix.info.profiles = nominal_profiles([lab for lab in labels if isinstance(lab, Sat)])
            ix.npl, ix.stale = {labels[i] for i in ix.live}, False
        if ix.info is None:
            sat_labels = [lab for lab in labels if isinstance(lab, Sat)]
            ix.reset_live(recompute_blocking(labels, self.prec, ix.blockable, self.top_noms, sat_labels))
        elif ix.copied:
            recompute_blocking(labels, self.prec, ix.blockable, None, None, ix.info)
            ix.copied = False
        else:
            ix.info.extend(labels, self.prec, ix.blockable)
        ix.add_live(labels)
        return ix.info

    def closure_witness(self):
        """A pair of contradictory labels, or None if the branch is open.
        A label 'a: false also closes the branch.
        """
        return self.index.clash

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
    ix = branch.index
    labels = branch.labels
    live, npl = ix.live, ix.npl

    # equality: a non-phantom node 'a: 'b merges the two nominals
    if ix.eq is not None:
        lab = labels[ix.eq]
        branch.substitute(lab.nom, lab.body.name)
        return ("applied", None)

    for concl, k, rule, premises in _extensions(branch):
        missing = [c for c in concl if c not in npl]
        if missing:
            for c in missing:
                branch.add(c, branch.prec[k], rule, premises)
            return ("applied", None)

    # disjunction: split
    for p in range(ix.split, len(live)):
        ix.split = p
        i = live[p]
        if isinstance(labels[i].body, Or):
            left, right = conclusions(labels[i])
            if left in npl or right in npl:
                continue
            other = branch.copy()
            branch.add(left, branch.prec[i], "or-left", (i,))
            other.add(right, other.prec[i], "or-right", (i,))
            return ("split", other)
    ix.split = len(live)

    # witness rules, subject to single expansion and direct blocking
    for p in range(ix.witness, len(live)):
        ix.witness = p
        i = live[p]
        if not ix.blockable[i] or i in branch.expanded or info.direct[i]:
            continue
        branch.expanded.add(i)
        lab = labels[i]
        f = lab.body
        w = branch.fresh_nominal()
        if isinstance(f, E):
            branch.add(Sat(w, f.sub), i, "E", (i,))
        else:
            branch.add(edge_label(lab.nom, f.rel, w), i, "dia", (i,))
            branch.add(Sat(w, f.sub), i, "dia", (i,))
        return ("applied", None)
    ix.witness = len(live)

    return ("done", info)


def _extensions(branch: Branch):
    """The instances of the non-branching, non-witness rules, lazily and
    in priority order: and/at/down, Link, box, A, Trans.  Each is
    (conclusions, k, rule, premises); `step` adds the conclusions not yet
    on the branch as offspring of `branch.prec[k]`.  Premises are live
    nodes, except the major premise of box, A and Trans (the Box or A
    node), which may be a phantom.  The and/at/down and Link instances
    start at their index cursors.
    """
    ix = branch.index
    labels = branch.labels
    live, readings = ix.live, ix.readings
    for p in range(ix.concl, len(live)):
        ix.concl = p
        i = live[p]
        rule = _RULE.get(type(labels[i].body))
        if rule is not None:
            yield conclusions(labels[i]), i, rule, (i,)
    ix.concl = len(live)

    # containment propagation along edges
    for p in range(ix.link, len(readings)):
        ix.link = p
        m, x, rel, y = readings[p]
        for inc, k in branch.incls.items():
            if inc.left == rel:
                yield (edge_label(x, fwd(inc.right), y),), m, "Link", (m, k)
    ix.link = len(readings)

    # box along matching edges
    boxes = ix.boxes
    for m, x, rel, y in readings:
        for j in boxes.get(x, ()):
            g = labels[j].body
            if g.rel == rel:
                yield (Sat(y, g.sub),), m, "box", (j, m)

    # global box: focus on each nominal of a live node in turn, minor
    # premise the first live node it occurs in
    if ix.a_nodes:
        first_at = ix.first_occurrences(labels)
        for j in ix.a_nodes:
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
        while True:
            limit = (
                "branches" if branches > limits.max_branches
                else "timeout" if time.monotonic() - start > limits.timeout
                else "nodes" if len(branch.labels) > limits.max_nodes
                else None
            )
            if limit is not None:
                return Result("limit", branch, stats=_stats(branches, steps, start, limit))
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


def _stats(branches, steps, start, limit=None):
    """`limit` names the cap that stopped the search: "nodes", "branches"
    or "timeout"; None when the search finished.
    """
    return {
        "branches": branches,
        "steps": steps,
        "seconds": time.monotonic() - start,
        "limit": limit,
    }
