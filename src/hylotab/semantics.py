"""Kripke-style interpretations, the semantic evaluator, assertion
checking, and an exhaustive bounded model search.

The bounded search is the independent oracle the tableau engine is
validated against: it enumerates every interpretation up to a state
bound, with no shortcuts, so its verdicts are trivially trustworthy on
tiny vocabularies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    Nom,
    Or,
    Prop,
    Top,
    Trans,
    Var,
    bwd,
    fwd,
    nominals,
    props,
    rel_syms,
    subst_var,
)
from .parser import Problem


class EvalError(ValueError):
    pass


class BudgetError(RuntimeError):
    """The enumeration space exceeds the configured budget."""


@dataclass
class Interpretation:
    states: frozenset
    rho: dict          # rel symbol -> set of (w, w') pairs
    nom: dict          # nominal -> state
    val: dict          # state -> frozenset of propositions

    def pairs(self, rel) -> set:
        base = self.rho.get(rel.sym, set())
        if rel.is_forward:
            return base
        return {(v, w) for (w, v) in base}

    def successors(self, rel, w):
        return {v for (u, v) in self.pairs(rel) if u == w}


def evaluate(model: Interpretation, w, f: Formula, sigma: dict | None = None) -> bool:
    """Truth of f at state w under variable assignment sigma."""
    sigma = sigma or {}
    return _ev(model, w, f, sigma)


def _ev(m, w, f, sigma):
    if isinstance(f, Prop):
        return f.name in m.val.get(w, frozenset())
    if isinstance(f, Nom):
        if f.name not in m.nom:
            raise EvalError("nominal %r not interpreted" % f.name)
        return m.nom[f.name] == w
    if isinstance(f, Var):
        if f.name not in sigma:
            raise EvalError("unbound variable %r" % f.name)
        return sigma[f.name] == w
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not _ev(m, w, f.sub, sigma)
    if isinstance(f, And):
        return _ev(m, w, f.left, sigma) and _ev(m, w, f.right, sigma)
    if isinstance(f, Or):
        return _ev(m, w, f.left, sigma) or _ev(m, w, f.right, sigma)
    if isinstance(f, Diamond):
        succs = m.successors(f.rel, w)
        if f.grade is None:
            return any(_ev(m, v, f.sub, sigma) for v in succs)
        hits = sum(1 for v in succs if _ev(m, v, f.sub, sigma))
        return hits >= f.grade + 1
    if isinstance(f, Box):
        succs = m.successors(f.rel, w)
        if f.grade is None:
            return all(_ev(m, v, f.sub, sigma) for v in succs)
        misses = sum(1 for v in succs if not _ev(m, v, f.sub, sigma))
        return misses <= f.grade
    if isinstance(f, E):
        return any(_ev(m, v, f.sub, sigma) for v in m.states)
    if isinstance(f, A):
        return all(_ev(m, v, f.sub, sigma) for v in m.states)
    if isinstance(f, At):
        if isinstance(f.at, Nom):
            if f.at.name not in m.nom:
                raise EvalError("nominal %r not interpreted" % f.at.name)
            return _ev(m, m.nom[f.at.name], f.sub, sigma)
        if f.at.name not in sigma:
            raise EvalError("unbound variable %r" % f.at.name)
        return _ev(m, sigma[f.at.name], f.sub, sigma)
    if isinstance(f, Down):
        return _ev(m, w, f.sub, {**sigma, f.var: w})
    raise TypeError(f)


def check_assertions(model: Interpretation, assertions) -> bool:
    for a in assertions:
        if isinstance(a, Trans):
            pairs = model.rho.get(a.sym, set())
            for (u, v) in pairs:
                for (v2, z) in pairs:
                    if v2 == v and (u, z) not in pairs:
                        return False
        elif isinstance(a, Incl):
            left = model.pairs(a.left)
            right = model.rho.get(a.right, set())
            if not left <= right:
                return False
    return True


def bounded_sat(
    problem: Problem,
    max_states: int = 3,
    budget: int = 20_000_000,
) -> Interpretation | None:
    """Exhaustively search for a model with at most max_states states.

    Returns the lexicographically first model found, or None when every
    candidate fails.  None means only that no model exists within the
    bound.  Raises BudgetError instead of silently truncating when the
    candidate space is too large.
    """
    f = problem.formula
    noms = sorted(nominals(f))
    ps = sorted(props(f))
    rels = sorted(problem.declared_rels | rel_syms(f))

    for k in range(1, max_states + 1):
        states = list(range(k))
        all_pairs = list(itertools.product(states, states))
        n_models = (
            (k ** len(noms))
            * (2 ** (len(all_pairs) * len(rels)))
            * (2 ** (k * len(ps)))
        )
        if n_models > budget:
            raise BudgetError(
                "bound %d needs %d candidate models (budget %d)" % (k, n_models, budget)
            )
        for nom_map in itertools.product(states, repeat=len(noms)):
            nom = dict(zip(noms, nom_map))
            for val_bits in itertools.product([False, True], repeat=k * len(ps)):
                val = {
                    w: frozenset(
                        p for j, p in enumerate(ps) if val_bits[w * len(ps) + j]
                    )
                    for w in states
                }
                for rel_bits in itertools.product(
                    [False, True], repeat=len(all_pairs) * len(rels)
                ):
                    rho = {}
                    for i, r in enumerate(rels):
                        rho[r] = {
                            all_pairs[j]
                            for j in range(len(all_pairs))
                            if rel_bits[i * len(all_pairs) + j]
                        }
                    m = Interpretation(frozenset(states), rho, nom, val)
                    if not check_assertions(m, problem.assertions):
                        continue
                    if any(evaluate(m, w, f) for w in states):
                        return m
    return None


# ---------------------------------------------------------------------------
# Model extraction from a complete open branch

def _transitive_closure(pairs: set) -> set:
    out = set(pairs)
    while True:
        new = {(a, d) for (a, b) in out for (c, d) in out if b == c} - out
        if not new:
            return out
        out |= new


def _orient(pairs: set, rel) -> set:
    if rel.is_forward:
        return set(pairs)
    return {(b, a) for (a, b) in pairs}


@dataclass
class Extraction:
    model: Interpretation
    resolve: dict        # original nominal -> representative after merges
    redirects: int       # edges added for blocked witness nodes


def extract_model(branch, blocking) -> Extraction:
    """Read an interpretation off a complete open branch.

    States are the nominals of non-phantom nodes.  Edges come from
    non-phantom relational nodes, propagated down the containment order
    and closed transitively where asserted.  A directly blocked witness
    node borrows its blocker's witness edge; with nominal renaming in
    play this is an approximation, so extracted models are validated
    rather than trusted.
    """
    from .tableau import Sat, edge_label, edge_readings, is_relational

    labels = branch.labels
    n = len(labels)
    nonph = [not blocking.phantom[i] for i in range(n)]

    # witness edges for directly blocked diamond nodes, borrowed from
    # the blocker's expansion
    extra = []
    redirects = 0
    for i in range(n):
        lab = labels[i]
        if not (nonph[i] and blocking.direct[i] and isinstance(lab, Sat)):
            continue
        if not isinstance(lab.body, Diamond):
            continue
        m = blocking.blocker[i]
        for c in range(n):
            if branch.prec[c] == m and is_relational(labels[c]):
                for (x, rel, y) in edge_readings(labels[c]):
                    if x == labels[m].nom and rel == labels[m].body.rel:
                        extra.append(edge_label(lab.nom, lab.body.rel, y))
                        redirects += 1
                        break
                break

    relational = [
        labels[i] for i in range(n) if nonph[i] and is_relational(labels[i])
    ] + extra

    base: dict = {r: set() for r in branch.rels}
    for lab in relational:
        s = lab.body.rel.sym
        x, y = lab.nom, lab.body.sub.name
        for inc in branch.incls:
            if inc.left == fwd(s):
                base.setdefault(inc.right, set()).add((x, y))
            elif inc.left == bwd(s):
                base.setdefault(inc.right, set()).add((y, x))

    rho: dict = {}
    for r in base:
        pairs = set(base[r])
        for inc in branch.incls:
            if inc.right == r and inc.left.sym in branch.trans:
                pairs |= _transitive_closure(
                    _orient(base.get(inc.left.sym, set()), inc.left)
                )
        rho[r] = pairs

    states: set = set()
    val: dict = {}
    for i in range(n):
        lab = labels[i]
        if not (nonph[i] and isinstance(lab, Sat)):
            continue
        states.add(lab.nom)
        states |= nominals(lab.body)
        if isinstance(lab.body, Prop):
            val.setdefault(lab.nom, set()).add(lab.body.name)
    for pairs in rho.values():
        for (a, b) in pairs:
            states.add(a)
            states.add(b)

    resolve: dict = {}
    for (a, b) in branch.subst_log:
        resolve = {k: (b if v == a else v) for k, v in resolve.items()}
        resolve[a] = b
    nom = {a: a for a in states}
    for a, b in resolve.items():
        nom[a] = b

    model = Interpretation(
        frozenset(states),
        rho,
        nom,
        {w: frozenset(ps) for w, ps in val.items()},
    )
    return Extraction(model, resolve, redirects)


def validate_extraction(branch, blocking, problem) -> tuple[bool, Extraction]:
    """Extract a model and confirm that it satisfies both the branch's
    input formula (at the top nominal's state) and the assertions.
    """
    from .tableau import TOP_NOMINAL

    ex = extract_model(branch, blocking)
    m = ex.model
    if not check_assertions(m, problem.assertions):
        return False, ex
    w = m.nom.get(ex.resolve.get(TOP_NOMINAL, TOP_NOMINAL))
    try:
        ok = w in m.states and evaluate(m, w, branch.input_formula)
    except EvalError:
        ok = False
    return ok, ex


# ---------------------------------------------------------------------------
# Saturation validation

def saturation_violations(branch, blocking) -> list:
    """Check a complete open branch against the saturation properties a
    correct engine must establish.  Returns a list of human-readable
    violation descriptions (empty on success).

    The node set inspected is the non-phantom nodes plus phantom nodes
    whose label is 'a: p or 'a: [R] F with the nominal a occurring in
    some non-phantom node.
    """
    from .tableau import Sat, edge_label, edge_readings, format_label, is_relational

    labels = branch.labels
    n = len(labels)
    nonph = [not blocking.phantom[i] for i in range(n)]
    nonph_noms = {x for i in range(n) if nonph[i] and isinstance(labels[i], Sat)
                  for x in (labels[i].nom, *nominals(labels[i].body))}

    core = [
        i for i, lab in enumerate(labels)
        if nonph[i] or (
            isinstance(lab, Sat) and lab.nom in nonph_noms and isinstance(lab.body, (Prop, Box))
        )
    ]
    present = {labels[i] for i in core}
    noms = {x for i in core if isinstance(labels[i], Sat)
            for x in (labels[i].nom, *nominals(labels[i].body))}

    edges = {e for i in core if is_relational(labels[i]) for e in edge_readings(labels[i])}

    bad: list = []

    def miss(clause, lab):
        bad.append("%s: missing %s" % (clause, format_label(lab)))

    for i in core:
        lab = labels[i]
        if not isinstance(lab, Sat):
            continue
        f = lab.body
        if isinstance(f, Neg) and isinstance(f.sub, Nom) and f.sub.name == lab.nom:
            bad.append("consistency: %s" % format_label(lab))
        if isinstance(f, Prop) and Sat(lab.nom, Neg(f)) in present:
            bad.append("consistency: '%s: %s and its negation" % (lab.nom, f.name))
        if isinstance(f, Nom) and f.name != lab.nom:
            bad.append("equality: %s" % format_label(lab))
        if isinstance(f, And):
            for g in (f.left, f.right):
                if Sat(lab.nom, g) not in present:
                    miss("conjunction", Sat(lab.nom, g))
        if isinstance(f, Or):
            if Sat(lab.nom, f.left) not in present and Sat(lab.nom, f.right) not in present:
                bad.append("disjunction: neither side of %s" % format_label(lab))
        if isinstance(f, At):
            if Sat(f.at.name, f.sub) not in present:
                miss("satisfaction prefix", Sat(f.at.name, f.sub))
        if isinstance(f, Down):
            inst = Sat(lab.nom, subst_var(f.sub, f.var, lab.nom))
            if inst not in present:
                miss("binder", inst)
        if isinstance(f, Diamond) and not is_relational(lab):
            if nonph[i] and not blocking.direct[i]:
                if not any(
                    (lab.nom, f.rel, d) in edges and Sat(d, f.sub) in present
                    for d in noms
                ):
                    bad.append("diamond witness: %s" % format_label(lab))
        if isinstance(f, Box):
            for (x, rel, y) in edges:
                if x == lab.nom and rel == f.rel and Sat(y, f.sub) not in present:
                    miss("box", Sat(y, f.sub))
        if isinstance(f, E):
            if nonph[i] and not blocking.direct[i]:
                if not any(Sat(d, f.sub) in present for d in noms):
                    bad.append("global witness: %s" % format_label(lab))
        if isinstance(f, A):
            for d in sorted(noms):
                if Sat(d, f.sub) not in present:
                    miss("global box", Sat(d, f.sub))

    for r in branch.rels:
        if Incl(fwd(r), r) not in branch.incls:
            bad.append("containment reflexivity: %s" % r)
    for i1 in branch.incls:
        for i2 in branch.incls:
            if i2.left == fwd(i1.right) and Incl(i1.left, i2.right) not in branch.incls:
                bad.append("containment transitivity: %s / %s" % (i1, i2))
            if i2.left == bwd(i1.right) and Incl(i1.left.inv(), i2.right) not in branch.incls:
                bad.append("containment transitivity: %s / %s" % (i1, i2))

    for (x, rel, y) in edges:
        for inc in branch.incls:
            if inc.left == rel and edge_label(x, fwd(inc.right), y) not in present:
                miss("containment edge", edge_label(x, fwd(inc.right), y))

    for i in core:
        lab = labels[i]
        if not (isinstance(lab, Sat) and isinstance(lab.body, Box)):
            continue
        for (x, rel, y) in edges:
            if (
                x == lab.nom
                and rel.sym in branch.trans
                and branch.has_incl(rel, lab.body.rel)
            ):
                if Sat(y, Box(rel, lab.body.sub)) not in present:
                    miss("transitive box", Sat(y, Box(rel, lab.body.sub)))
    return bad


# ---------------------------------------------------------------------------
# Serialization

def format_model(model: Interpretation) -> str:
    lines = ["states %d" % len(model.states)]
    for a in sorted(model.nom):
        lines.append("nominal %s %s" % (a, model.nom[a]))
    for w in sorted(model.states):
        for p in sorted(model.val.get(w, frozenset())):
            lines.append("label %s %s" % (w, p))
    for r in sorted(model.rho):
        for (u, v) in sorted(model.rho[r]):
            lines.append("edge %s %s %s" % (r, u, v))
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> Interpretation:
    states: frozenset = frozenset()
    rho: dict = {}
    nom: dict = {}
    val: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "states":
            states = frozenset(range(int(parts[1])))
        elif parts[0] == "nominal":
            nom[parts[1]] = int(parts[2])
        elif parts[0] == "label":
            w = int(parts[1])
            val[w] = val.get(w, frozenset()) | {parts[2]}
        elif parts[0] == "edge":
            rho.setdefault(parts[1], set()).add((int(parts[2]), int(parts[3])))
        else:
            raise ValueError("bad model line: %r" % raw)
    return Interpretation(states, rho, nom, val)
