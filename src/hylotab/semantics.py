"""Kripke-style interpretations, the semantic evaluator, assertion
checking, and an exhaustive bounded model search.

The bounded search is the independent oracle the tableau engine is
validated against: it enumerates every interpretation up to a state
bound, with no shortcuts, so its verdicts are trivially trustworthy on
tiny vocabularies.
"""

from __future__ import annotations

from itertools import compress, product

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
    Record,
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
from .tableau import TOP_NOMINAL, Sat, edge_label, edge_readings, format_label, is_relational


class EvalError(ValueError):
    pass


class BudgetError(RuntimeError):
    """The enumeration space exceeds the configured budget."""


class Interpretation(Record):
    def __init__(self, states: frozenset, rho: dict, nom: dict, val: dict):
        self.states = states
        self.rho = rho      # rel symbol -> set of (w, w') pairs
        self.nom = nom      # nominal -> state
        self.val = val      # state -> frozenset of propositions

    def pairs(self, rel) -> set:
        base = self.rho.get(rel.sym, set())
        if rel.is_forward:
            return base
        return {(v, w) for (w, v) in base}


def evaluate(model: Interpretation, w, f: Formula, sigma: dict | None = None) -> bool:
    """Truth of f at state w under variable assignment sigma.  To check
    f at several states of one model, share one `Evaluator` instead.
    """
    return Evaluator(model).holds(w, f, sigma)


class Evaluator:
    """Truth of formulas in one model.  Successor sets are built once per
    relation, in one pass over `Interpretation.pairs`, in its order; the
    truth of each modal, global and @ operand is kept per (operand,
    state, assignment), the assignment a sorted tuple built when a binder
    binds.  Operators short-circuit as in a direct recursion, so EvalError
    is raised in the same cases.  Nothing is cached on the model, which
    may change after this evaluator is dropped.
    """

    def __init__(self, model: Interpretation):
        self.model = model
        self._succ: dict = {}    # relation -> state -> successor set
        self._memo: dict = {}    # (operand, state, assignment) -> truth

    def holds(self, w, f: Formula, sigma: dict | None = None) -> bool:
        sigma = sigma or {}
        return self._ev(w, f, sigma, tuple(sorted(sigma.items())))

    def _successors(self, rel, w):
        table = self._succ.get(rel)
        if table is None:
            table = self._succ[rel] = {}
            for (u, v) in self.model.pairs(rel):
                table.setdefault(u, set()).add(v)
        return table.get(w, ())

    def _sub(self, w, f, sigma, key) -> bool:
        k = (f, w, key)
        out = self._memo.get(k)
        if out is None:
            out = self._memo[k] = self._ev(w, f, sigma, key)
        return out

    def _ev(self, w, f, sigma, key) -> bool:
        m = self.model
        t = type(f)
        if t is Prop:
            return f.name in m.val.get(w, frozenset())
        if t is Nom:
            if f.name not in m.nom:
                raise EvalError("nominal %r not interpreted" % f.name)
            return m.nom[f.name] == w
        if t is Var:
            if f.name not in sigma:
                raise EvalError("unbound variable %r" % f.name)
            return sigma[f.name] == w
        if t is Top:
            return True
        if t is Bot:
            return False
        if t is Neg:
            return not self._ev(w, f.sub, sigma, key)
        if t is And:
            return self._ev(w, f.left, sigma, key) and self._ev(w, f.right, sigma, key)
        if t is Or:
            return self._ev(w, f.left, sigma, key) or self._ev(w, f.right, sigma, key)
        if t is Diamond:
            succs = self._successors(f.rel, w)
            if f.grade is None:
                return any(self._sub(v, f.sub, sigma, key) for v in succs)
            hits = sum(1 for v in succs if self._sub(v, f.sub, sigma, key))
            return hits >= f.grade + 1
        if t is Box:
            succs = self._successors(f.rel, w)
            if f.grade is None:
                return all(self._sub(v, f.sub, sigma, key) for v in succs)
            misses = sum(1 for v in succs if not self._sub(v, f.sub, sigma, key))
            return misses <= f.grade
        if t is E:
            return any(self._sub(v, f.sub, sigma, key) for v in m.states)
        if t is A:
            return all(self._sub(v, f.sub, sigma, key) for v in m.states)
        if t is At:
            if isinstance(f.at, Nom):
                if f.at.name not in m.nom:
                    raise EvalError("nominal %r not interpreted" % f.at.name)
                return self._sub(m.nom[f.at.name], f.sub, sigma, key)
            if f.at.name not in sigma:
                raise EvalError("unbound variable %r" % f.at.name)
            return self._sub(sigma[f.at.name], f.sub, sigma, key)
        if t is Down:
            sigma = {**sigma, f.var: w}
            return self._ev(w, f.sub, sigma, tuple(sorted(sigma.items())))
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
    candidate space is too large, and ValueError when max_states < 1.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1, not %d" % max_states)
    f = problem.formula
    noms = sorted(nominals(f))
    ps = sorted(props(f))
    rels = sorted(problem.declared_rels | rel_syms(f))

    for k in range(1, max_states + 1):
        states = list(range(k))
        all_pairs = list(product(states, states))
        n_models = (
            (k ** len(noms))
            * (2 ** (len(all_pairs) * len(rels)))
            * (2 ** (k * len(ps)))
        )
        if n_models > budget:
            raise BudgetError(
                "bound %d needs %d candidate models (budget %d)" % (k, n_models, budget)
            )
        # Candidates in bit order: nominal map, then labels state by state,
        # then edges relation by relation, the last choice varying fastest.
        # The assertions constrain only the edges, so each edge tuple is
        # checked once per bound.
        ws = frozenset(states)
        edge_sets = [frozenset(compress(all_pairs, bits))
                     for bits in product((False, True), repeat=len(all_pairs))]
        label_sets = [frozenset(compress(ps, bits))
                      for bits in product((False, True), repeat=len(ps))]
        ok = bytearray(
            check_assertions(Interpretation(ws, dict(zip(rels, edges)), {}, {}),
                             problem.assertions)
            for edges in product(edge_sets, repeat=len(rels))
        )
        for nom_map in product(states, repeat=len(noms)):
            nom = dict(zip(noms, nom_map))
            for labels in product(label_sets, repeat=k):
                val = dict(zip(states, labels))
                for edges in compress(product(edge_sets, repeat=len(rels)), ok):
                    m = Interpretation(ws, dict(zip(rels, edges)), nom, val)
                    ev = Evaluator(m)
                    if any(ev.holds(w, f) for w in states):
                        return m
    return None


# ---------------------------------------------------------------------------
# Model extraction from a complete open branch

def close(rho: dict, incls, trans) -> dict:
    """The least relations that contain rho, contain the left side of each
    inclusion in its right side (a backward left side reversed), and are
    transitive on each symbol in trans.
    """
    out = {r: set(pairs) for r, pairs in rho.items()}
    while True:
        implied = {
            (inc.right, p if inc.left.is_forward else p[::-1])
            for inc in incls for p in out.get(inc.left.sym, ())
        }
        for s in trans:
            pairs = out.get(s, ())
            implied |= {(s, (u, z)) for (u, v) in pairs for (y, z) in pairs if v == y}
        new = [(r, p) for (r, p) in implied if p not in out.get(r, ())]
        if not new:
            return out
        for r, p in new:
            out.setdefault(r, set()).add(p)


def extract_model(branch, blocking) -> Interpretation:
    """Read an interpretation off a complete open branch.

    States are the nominals of non-phantom nodes.  The relations are the
    `close` of the edges of non-phantom relational nodes under the
    branch's inclusions and transitivity assertions.  A directly blocked
    witness node borrows its blocker's witness edge; with nominal renaming
    in play this is an approximation, so extracted models are validated
    rather than trusted.  Each merged nominal names the state of its
    final representative.
    """
    labels = branch.labels
    n = len(labels)
    nonph = [not blocking.phantom[i] for i in range(n)]

    relational = [lab for i, lab in enumerate(labels) if nonph[i] and is_relational(lab)]
    # witness edges for directly blocked diamond nodes, borrowed from
    # the blocker's expansion
    for i in range(n):
        lab = labels[i]
        if not (blocking.direct[i] and isinstance(lab.body, Diamond)):  # direct: a live Sat
            continue
        m = blocking.blocker[i]
        for c in range(n):
            if branch.prec[c] == m and is_relational(labels[c]):
                for (x, rel, y) in edge_readings(labels[c]):
                    if x == labels[m].nom and rel == labels[m].body.rel:
                        relational.append(edge_label(lab.nom, lab.body.rel, y))
                        break
                break

    rho: dict = {r: set() for r in branch.rels}
    for lab in relational:
        rho.setdefault(lab.body.rel.sym, set()).add((lab.nom, lab.body.sub.name))
    rho = close(rho, branch.incls, branch.trans)

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
    states.update(w for pairs in rho.values() for pair in pairs for w in pair)

    nom = {a: a for a in states}
    for (a, b) in reversed(branch.subst_log):
        nom[a] = nom.get(b, b)
    val = {w: frozenset(ps) for w, ps in val.items()}
    return Interpretation(frozenset(states), rho, nom, val)


def validate_extraction(branch, blocking, problem) -> tuple[bool, Interpretation]:
    """Extract a model and confirm that it satisfies both the branch's
    input formula (at the top nominal's state) and the assertions.
    """
    m = extract_model(branch, blocking)
    if not check_assertions(m, problem.assertions):
        return False, m
    w = m.nom.get(TOP_NOMINAL)
    try:
        ok = w in m.states and evaluate(m, w, branch.input_formula)
    except EvalError:
        ok = False
    return ok, m


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
                if x != lab.nom:
                    continue
                if rel == f.rel and Sat(y, f.sub) not in present:
                    miss("box", Sat(y, f.sub))
                pushed = Sat(y, Box(rel, f.sub))
                if rel.sym in branch.trans and branch.has_incl(rel, f.rel) and pushed not in present:
                    miss("transitive box", pushed)
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
    return bad


# ---------------------------------------------------------------------------
# Serialization

def format_model(model: Interpretation) -> str:
    """The model in the format `parse_model` reads: each state written as
    its position in sorted order, so states 0..N-1 keep their numbers."""
    pos = {w: n for n, w in enumerate(sorted(model.states))}
    lines = ["states %d" % len(model.states)]
    for a in sorted(model.nom):
        lines.append("nominal %s %d" % (a, pos[model.nom[a]]))
    for w in sorted(model.states):
        for p in sorted(model.val.get(w, frozenset())):
            lines.append("label %d %s" % (pos[w], p))
    for r in sorted(model.rho):
        for (u, v) in sorted(model.rho[r]):
            lines.append("edge %s %d %d" % (r, pos[u], pos[v]))
    return "\n".join(lines) + "\n"


# Checking even a one-letter formula in a model of 10**6 states takes about
# 160 MB, so a model above this bound would not fit in memory; it is refused
# before its states are built.
MAX_STATES = 10**7
# Fields after the keyword of each model line, as written by format_model.
_MODEL_FIELDS = {"states": 1, "nominal": 2, "label": 2, "edge": 3}


def parse_model(text: str) -> Interpretation:
    """The inverse of format_model.  Raises ValueError on a malformed
    line, on more than MAX_STATES states or on a state outside 0..N-1, N
    the `states` count.
    """
    states: frozenset = frozenset()
    rho: dict = {}
    nom: dict = {}
    val: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if _MODEL_FIELDS.get(parts[0]) != len(parts) - 1:
            raise ValueError("bad model line: %r" % raw)
        if parts[0] == "states":
            if int(parts[1]) > MAX_STATES:
                raise ValueError("model state count must be at most %d, not %s" % (MAX_STATES, parts[1]))
            states = frozenset(range(int(parts[1])))
        elif parts[0] == "nominal":
            nom[parts[1]] = int(parts[2])
        elif parts[0] == "label":
            w = int(parts[1])
            val[w] = val.get(w, frozenset()) | {parts[2]}
        else:
            rho.setdefault(parts[1], set()).add((int(parts[2]), int(parts[3])))
    used = {*nom.values(), *val, *(w for pairs in rho.values() for pair in pairs for w in pair)}
    if used - states:
        raise ValueError("model state %d is not among the %d states" % (min(used - states), len(states)))
    return Interpretation(states, rho, nom, val)
