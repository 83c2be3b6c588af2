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
import math
import time
from functools import cached_property

from . import disjunction
# The benchmark's tracer (perfbench/tracing.py) patches recompute_blocking,
# nominals and subst_var in this module by name; call them as module globals.
from .blocking import EMPTY_PROFILE, BlockInfo, recompute_blocking
from .formulas import (
    BACKWARD,
    DOWN_BOX,
    GRADED,
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
    fwd,
    nnf,
    node,
    nominals,
    subst_nom,
    subst_var,
)
from .fragments import FragmentError, witnesses
from .parser import Problem, print_formula

TOP_NOMINAL = "_0"
BRANCH_FRESH = "_b"


@node
class Sat(Node):
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
        return Sat(a, Diamond(rel, Nom(b), None))
    return Sat(b, Diamond(fwd(rel.sym), Nom(a), None))


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
    return isinstance(lab.body, Bot) or (isinstance(lab.body, Neg) and lab.body.sub is Nom.live(lab.nom))


def _is_eq(lab) -> bool:
    return isinstance(lab.body, Nom) and lab.body.name != lab.nom


class Branch:
    """Mutable branch state.  Node order is creation order; `prec` holds
    each node's offspring parent (None for root nodes).

    The views that `step` reads are kept up to date instead of rebuilt on
    every step.  The label views, blocking's profiles and top nominals
    among them, depend on the labels alone: `_index` takes a Sat node into
    them, from `add` and, for every node, from `substitute`.  The live
    views depend on blocking too: `blocking` extends them.  A substitution
    or a new Prop or Box label keeps them unless it touches a nominal that
    blocking compared (`keeps`); a split copy takes a copy of them.

    `deps` gives each node the splits it rests on, as a bitmask: bit k
    for the k-th split on the path, set on that split's disjunct and
    passed on from premises to conclusions.  A merge adds the merged
    equality's deps to each label it renames (`substitute`), so a clash
    rests on its clashing pair's deps alone (`clash_deps`).

    `closure_witness`, `copy`, `substitute` and `trace` are wrapped by
    name by the benchmark's tracer (`perfbench/tracing.py`).
    """

    def __init__(self):
        self.labels: list = []
        self.prec: list = []
        self.prov: list = []          # (rule name, premise node ids)
        self.deps: list = []          # bitmask of the splits each node rests on
        self.depth: int = 0           # splits on the path; the next split's bit
        self.expanded: set = set()    # blockable nodes already expanded
        self.incls: dict = {}         # Incl -> node id
        self.trans: dict = {}         # transitive sym -> node id
        self.rels: tuple = ()
        self.subst_log: list = []     # (a, b) applied replacements
        self.fresh_counter: int = 0
        self.input_formula: Formula | None = None
        self.blockable: list = []
        self.reset_labels()
        self.reset_live(None)

    def reset_labels(self) -> None:
        self.clash = None             # first contradictory pair
        self.lits: dict = {}          # (nominal, prop, positive?) -> first node
        self.boxes: dict = {}         # nominal -> Box node ids, phantoms included
        self.a_nodes: tuple = ()      # A node ids, phantoms included
        self.profiles: dict = {}      # nominal -> (props, box forms), phantoms included
        self.top_noms = frozenset()   # the nominals of node 0

    def reset_live(self, info) -> None:
        self.info = info           # BlockInfo of the first `seen` nodes
        self.copied = False        # info is a split copy's snapshot
        self.live: list = []       # non-phantom Sat node ids
        self.npl: set = set()      # their labels
        self.readings: list = []   # (m, x, rel, y) of live relational nodes
        self.eq = None             # first live node 'a: 'b with a != b
        self.first_at: dict = {}   # nominal -> first live node it occurs in
        # box, A and Trans instances whose conclusion is in `npl`: ("box" or
        # "Trans", reading position, Box node) and ("A", A node, nominal).
        # They stay concluded until a reset, as for the cursors below.
        self.done: set = set()
        # `seen` and `first` count the nodes taken into `live` and
        # `first_at`.  Before the rule cursors `concl`, `link`, `split` and
        # `witness`, live nodes (readings, for Link) have nothing left to
        # add, as `npl` only grows and renaming commutes with those rules.
        self.seen = self.concl = self.link = self.split = self.witness = self.first = 0

    def copy(self) -> "Branch":
        """A split copy.  Every list, dict and set is its own, and so is
        its BlockInfo; what they hold is immutable."""
        c = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, (list, dict, set)):
                setattr(c, name, value.copy())
        if self.info is not None:
            c.info, c.copied = self.info.copy(), True
        return c

    def add(self, lab, parent, rule, premises, split=0) -> int:
        """Add a node; its deps are its premises' and the bit `split` of
        the split whose disjunct it is."""
        i = len(self.labels)
        self.labels.append(lab)
        self.prec.append(parent)
        self.prov.append((rule, tuple(premises)))
        deps = self.deps
        for p in premises:
            split |= deps[p]
        deps.append(split)
        self.blockable.append(is_blockable(lab))
        if isinstance(lab, Sat):
            self._index(i, lab)
            if isinstance(lab.body, (Prop, Box)):
                self.keeps({lab.nom})
        return i

    def _index(self, i, lab) -> None:
        """Take Sat node i, labelled `lab`, into the label views."""
        f, lit = lab.body, _literal(lab.body)
        if i == 0:
            self.top_noms = nominals(f) | {lab.nom}
        if _self_clash(lab):
            self.clash = self.clash or (i, i)
        elif lit is not None:
            j = self.lits.get((lab.nom, lit[0], not lit[1]))
            if j is not None and self.clash is None:
                self.clash = (i, j) if lit[1] else (j, i)
            self.lits.setdefault((lab.nom,) + lit, i)
        if isinstance(f, (Prop, Box)):
            props, forms = self.profiles.get(lab.nom, EMPTY_PROFILE)
            self.profiles[lab.nom] = ((props | {f.name}, forms) if isinstance(f, Prop)
                                      else (props, forms | {(f.rel, f.grade, f.sub)}))
        if isinstance(f, Box):
            self.boxes[lab.nom] = self.boxes.get(lab.nom, ()) + (i,)
        elif isinstance(f, A):
            self.a_nodes += (i,)

    def keeps(self, noms) -> bool:
        """Keep the live views and BlockInfo when the profiles, top status
        or names of `noms` change?  Only if blocking compared no label that
        mentions them (`BlockInfo.consulted`); otherwise reset."""
        if self.info is None or not noms.isdisjoint(self.info.consulted):
            self.reset_live(None)
            return False
        return True

    def fresh_nominal(self) -> str:
        self.fresh_counter += 1
        return "%s%d" % (BRANCH_FRESH, self.fresh_counter)

    def has_incl(self, left: Relation, right: Relation) -> bool:
        """Is the containment left <= right recorded?  A backward right
        side is normalized by flipping both sides.
        """
        if right.is_forward:
            return Incl.live(left, right.sym) in self.incls
        return Incl.live(left.inv(), right.sym) in self.incls

    def substitute(self, a: str, b: str, deps: int) -> None:
        """Replace nominal a by b in the labels that hold it; the other
        labels stay the same objects.  Each renamed label then also rests
        on `deps`, the merged equality's.  One memo serves the whole merge,
        so each distinct subterm is walked once.  The label views start
        again from empty and take in every label, renamed or not, in node
        order, in the same pass.
        """
        labels, memo, owners = self.labels, {}, {a, b}
        self.reset_labels()
        for i, lab in enumerate(labels):
            if isinstance(lab, Sat):
                body = subst_nom(lab.body, a, b, memo)
                if body is not lab.body or lab.nom == a:
                    lab = labels[i] = Sat(b if lab.nom == a else lab.nom, body)
                    self.deps[i] |= deps
                    if isinstance(body, Box):
                        owners.add(lab.nom)  # its profile changes
                self._index(i, lab)
        self.subst_log.append((a, b))
        if self.keeps(owners):
            self.npl = {labels[i] for i in self.live}
            self.readings = [
                (m, b if x == a else x, r, b if y == a else y) for m, x, r, y in self.readings]
            self.eq = next((i for i in self.live if _is_eq(labels[i])), None)
            self.first_at, self.first = {}, 0

    def blocking(self) -> BlockInfo:
        """The BlockInfo of the current label views: the last one extended
        over the new nodes, or recomputed once the live views were reset.
        A split copy's snapshot is extended by `recompute_blocking` too:
        the benchmark's tracer reads the blocked-node counts from the last
        BlockInfo that function returned.  The live views then take in
        the non-phantom Sat nodes added since the last call.
        """
        labels = self.labels
        args = (labels, self.prec, self.blockable, self.profiles, self.top_noms)
        if self.info is None:
            self.reset_live(recompute_blocking(*args))
        elif self.copied:
            recompute_blocking(*args, self.info)
            self.copied = False
        else:
            self.info.extend(*args)
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
        return self.info

    def first_occurrences(self) -> dict:
        """`first_at`, the label's nominal before its body's sorted ones."""
        labels = self.labels
        for i in self.live[self.first:]:
            for nom in [labels[i].nom] + sorted(nominals(labels[i].body)):
                self.first_at.setdefault(nom, i)
        self.first = len(self.live)
        return self.first_at

    def closure_witness(self):
        """A pair of contradictory labels, or None if the branch is open.
        A label 'a: false also closes the branch.
        """
        return self.clash

    def refuters(self, d: Sat):
        """The nodes refuting disjunct d = 'w: g: none for false or !'w, the
        complement of a literal, 'w: !'c or 'c: !'w for g = 'c; else None."""
        if _self_clash(d):
            return ()
        g, lit, j = d.body, _literal(d.body), None
        if lit is not None:
            j = self.lits.get((d.nom, lit[0], not lit[1]))
        elif isinstance(g, Nom):
            labs = (Sat.live(d.nom, Neg.live(g)), Sat.live(g.name, Neg.live(Nom.live(d.nom))))
            j = next((self.labels.index(lab) for lab in labs if lab in self.npl), None)
        return None if j is None else (j,)

    def clash_deps(self) -> int:
        """The splits the clash rests on: the clashing nodes' deps, which
        hold those of the equalities that renamed them."""
        i, j = self.clash
        return self.deps[i] | self.deps[j]

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
    _, free, _, bits, _ = f.facts
    if bits & GRADED:
        raise ValueError("graded operators must be eliminated before solving")
    if free:
        raise ValueError("input formula must be ground")
    if bits & DOWN_BOX:
        raise FragmentError("binder scoping over a universal operator; preprocess first",
                            [w for w in witnesses(f) if w[0] == "down-box"])
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
            right, flipped = fwd(i1.right), Relation.live(i1.right, BACKWARD)
            for i2 in list(incls):
                if i2.left is right:
                    derived = Incl(i1.left, i2.right)
                elif i2.left is flipped:
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

    A split of 'w: L | R reads each side as its chain of disjuncts (`disjunction`).  A
    side whose chain holds a label of the branch is added (rule or-sat).  A side whose
    disjuncts are all refuted at w is dropped and the other added (or-unit); so is R
    when its other disjuncts are nominals interchangeable with a nominal one of L.

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
    live, npl = branch.live, branch.npl

    # equality: a non-phantom node 'a: 'b merges the two nominals
    if branch.eq is not None:
        lab = labels[branch.eq]
        branch.substitute(lab.nom, lab.body.name, branch.deps[branch.eq])
        return ("applied", None)

    for concl, k, rule, premises, key in _extensions(branch):
        missing = [c for c in concl if c not in npl]
        if missing:
            for c in missing:
                branch.add(c, branch.prec[k], rule, premises)
            return ("applied", None)
        if key is not None:
            branch.done.add(key)

    # disjunction: add the one side that matters, or split
    for p in range(branch.split, len(live)):
        branch.split = p
        i = live[p]
        if isinstance(labels[i].body, Or):
            sides = conclusions(labels[i])
            if sides[0] in npl or sides[1] in npl:
                continue
            one = disjunction.one_side(branch, i, sides)
            if one is not None:
                branch.add(sides[one[0]], branch.prec[i], one[1], one[2])
                return ("applied", None)
            bit = 1 << branch.depth
            branch.depth += 1
            other = branch.copy()
            branch.add(sides[0], branch.prec[i], "or-left", (i,), bit)
            other.add(sides[1], other.prec[i], "or-right", (i,), bit)
            return ("split", other)
    branch.split = len(live)

    # witness rules, subject to single expansion and direct blocking
    for p in range(branch.witness, len(live)):
        branch.witness = p
        i = live[p]
        if not branch.blockable[i] or i in branch.expanded or info.direct[i]:
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
    branch.witness = len(live)

    return ("done", info)


def _extensions(branch: Branch):
    """The instances of the non-branching, non-witness rules, lazily and
    in priority order: and/at/down, Link, box, A, Trans.  Each is
    (conclusions, k, rule, premises, key); `step` adds the conclusions not
    yet on the branch as offspring of `branch.prec[k]`, or else marks the
    key done.  Premises are live nodes, except the major premise of box, A
    and Trans (the Box or A node), which may be a phantom.  The and/at/down
    and Link instances start at their cursors (key None); box, A and
    Trans instances marked done are skipped.
    """
    labels = branch.labels
    live, readings, done = branch.live, branch.readings, branch.done
    for p in range(branch.concl, len(live)):
        branch.concl = p
        i = live[p]
        rule = _RULE.get(type(labels[i].body))
        if rule is not None:
            yield conclusions(labels[i]), i, rule, (i,), None
    branch.concl = len(live)

    # containment propagation along edges; on a forward reading, r <= r
    # (rule Rel0) would only rebuild the reading's own edge
    for p in range(branch.link, len(readings)):
        branch.link = p
        m, x, rel, y = readings[p]
        for inc, k in branch.incls.items():
            if inc.left is rel and (inc.right != rel.sym or not rel.is_forward):
                yield (edge_label(x, fwd(inc.right), y),), m, "Link", (m, k), None
    branch.link = len(readings)

    # box along matching edges
    boxes = branch.boxes
    for p, (m, x, rel, y) in enumerate(readings):
        for j in boxes.get(x, ()):
            g = labels[j].body
            if g.rel == rel and ("box", p, j) not in done:
                yield (Sat(y, g.sub),), m, "box", (j, m), ("box", p, j)

    # global box: focus on each nominal of a live node in turn, minor
    # premise the first live node it occurs in
    if branch.a_nodes:
        first_at = branch.first_occurrences()
        for j in branch.a_nodes:
            for nom, k in first_at.items():
                if ("A", j, nom) not in done:
                    yield (Sat(nom, labels[j].body.sub),), k, "A", (j, k), ("A", j, nom)

    # transitivity propagation: push boxes along edges of transitive
    # subrelations
    for p, (m, x, rel, y) in enumerate(readings):
        if rel.sym in branch.trans:
            for j in boxes.get(x, ()):
                g = labels[j].body
                if ("Trans", p, j) not in done and branch.has_incl(rel, g.rel):
                    yield ((Sat(y, Box(rel, g.sub, None)),), m, "Trans",
                           (j, m, branch.trans[rel.sym]), ("Trans", p, j))


# ---------------------------------------------------------------------------
# Search

class Limits:
    def __init__(self, max_nodes: int = 100_000, max_branches: int = 10_000,
                 timeout: float = 60.0):
        for name, value in (("max_nodes", max_nodes), ("max_branches", max_branches)):
            if value < 1:
                raise ValueError("%s must be at least 1, not %r" % (name, value))
        if math.isnan(timeout):
            raise ValueError("timeout must be a number, not nan")
        self.max_nodes = max_nodes
        self.max_branches = max_branches
        self.timeout = timeout    # seconds; a negative one fires at the first step


class Result:
    def __init__(self, verdict: str, branch: Branch | None, blocking: BlockInfo | None,
                 stats: dict):
        self.verdict = verdict    # "sat" | "unsat" | "limit"
        self.branch = branch
        self.blocking = blocking
        self.stats = stats

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

    The search is depth first with backjumping.  A closed branch yields
    the splits its clash rests on (`Branch.clash_deps`).  Each label
    follows from its premises, its split's disjunct and the equalities
    that renamed it, and its deps hold all of theirs; a witness rule only
    adds a fresh nominal, and blocking decides which conclusions are
    drawn, never what they say.  So a clash whose deps lack split k makes
    the labels before k, with the disjuncts in those deps, unsatisfiable
    whatever merges or Prop and Box disjuncts did to nominal profiles,
    and the right side of k is skipped.  A closed split rests on the
    splits of both its sides, less its own, or on those of one side that
    did not use its disjunct.  Only closed subtrees are skipped, so a
    "sat" result is the branch that plain depth-first search returns.
    An or-unit node that drops a nominal disjunct by symmetry does not follow from
    the branch, but a model with the dropped disjunct gives one with the kept one, so
    the kept side closes only if the dropped one would; every split disjunct is a premise.
    """
    limits = limits or Limits()
    start = time.monotonic()
    branch = init_branch(problem)
    # one frame per pending split, innermost last: (right branch, or None
    # once it is explored; the split's bit; the deps of the closed left side)
    frames = []
    branches = steps = pruned = 0
    while True:
        branches += 1
        while True:
            limit = (
                "branches" if branches > limits.max_branches
                else "timeout" if time.monotonic() - start > limits.timeout
                else "nodes" if len(branch.labels) > limits.max_nodes
                else None
            )
            if limit is not None:
                return Result("limit", branch, None, _stats(branches, steps, pruned, start, limit))
            status, other = step(branch)
            steps += 1
            if status == "applied":
                continue
            if status == "split":
                frames.append((other, 1 << (branch.depth - 1), 0))
                continue
            if status == "done":
                return Result("sat", branch, other, _stats(branches, steps, pruned, start))
            break
        deps = branch.clash_deps()
        while frames:
            right, bit, left = frames.pop()
            if not deps & bit:      # the closed side did not use its disjunct,
                if right is not None:   # so the right side would close alike
                    pruned += 1
            elif right is None:     # both sides closed, each using its disjunct
                deps = (deps | left) & ~bit
            else:                   # the left side used its disjunct: try the right
                frames.append((None, bit, deps))
                branch = right
                break
        else:
            return Result("unsat", branch, None, _stats(branches, steps, pruned, start))


def _stats(branches, steps, pruned, start, limit=None):
    """`branches` counts the branches explored and `pruned` the right
    branches that backjumping skipped.  `limit` names the cap that
    stopped the search: "nodes", "branches" or "timeout"; None when the
    search finished.
    """
    return {
        "branches": branches,
        "steps": steps,
        "pruned": pruned,
        "seconds": time.monotonic() - start,
        "limit": limit,
    }
