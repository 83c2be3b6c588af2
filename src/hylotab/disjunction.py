"""The side of a disjunction that `tableau.step` adds without a split.
`tableau` imports this module, so its names are read at call time."""

from . import tableau
from .formulas import And, At, Bot, Diamond, Down, E, Formula, Neg, Nom, Or, Prop, _named, nominals


def disjuncts(lab) -> list:
    """The labels of the disjuncts of lab's or-chain, left to right."""
    if not isinstance(lab.body, Or):
        return [lab]
    return [d for side in tableau.conclusions(lab) for d in disjuncts(side)]


def one_side(branch, i: int, sides: tuple):
    """(k, rule, premises) when `tableau.step` adds side k of Or node i alone.  A model
    with a dropped nominal 'd is one with 'c, swapped: the branch decides it, so every
    split disjunct on it is a premise."""
    if not any(isinstance(side.body, (Or, Bot, Prop, Neg, Nom)) for side in sides):
        return None  # neither side can be implied beyond itself or refuted
    chains = [disjuncts(side) for side in sides]
    held = next(((k, d) for k in (0, 1) for d in chains[k] if d in branch.npl), None)
    if held is not None:
        return held[0], "or-sat", (i, branch.labels.index(held[1]))
    refuted = [[branch.refuters(d) for d in chain] for chain in chains]
    for k in (0, 1):
        if None not in refuted[k]:
            return 1 - k, "or-unit", tuple(dict.fromkeys((i,) + sum(refuted[k], ())))
    names = [[d.body.name if isinstance(d.body, Nom) and d.body.name != d.nom else None
              for d, r in zip(chain, found) if r is None] for chain, found in zip(chains, refuted)]
    if not any(names[0]) or None in names[1]:
        return None
    sym = Symmetry(branch, set(names[0] + names[1]) - {None})
    if not all(any(c and sym.swaps(c, d) for c in names[0]) for d in names[1]):
        return None
    splits = [j for j, (rule, _) in enumerate(branch.prov) if rule in ("or-left", "or-right")]
    return 0, "or-unit", tuple(dict.fromkeys((i,) + sum(filter(None, refuted[1]), ()) + tuple(splits)))


class Symmetry:
    """Whether a transposition (c d) of two of the nominals `names` maps the
    labels of a branch that mention them, less those that smaller labels on
    the branch imply, onto themselves; compared by keys (`_key`)."""

    def __init__(self, branch, names: set):
        self.branch, self.present = branch, set(branch.labels)
        self.kept = [lab for lab in self.present if isinstance(lab, tableau.Sat) and (
            lab.nom in names or not names.isdisjoint(nominals(lab.body))) and not self._implied(lab)]
        self.same, memo = {a: a for a in names}, {}
        self.keys = {(lab.nom, _key(lab.body, self.same, memo)) for lab in self.kept}

    def swaps(self, c: str, d: str) -> bool:
        ren, memo = {**self.same, c: d, d: c}, {}
        return all((ren.get(lab.nom, lab.nom), _key(lab.body, ren, memo)) in self.keys
                   for lab in self.kept
                   if lab.nom in (c, d) or c in nominals(lab.body) or d in nominals(lab.body))

    def _implied(self, lab) -> bool:
        """Do smaller labels on the branch imply lab?"""
        f, present = lab.body, self.present
        if isinstance(f, (And, At, Down)):
            return all(c in present for c in tableau.conclusions(lab))
        if isinstance(f, Or):
            return any(d in present for d in disjuncts(lab))
        if isinstance(f, Diamond) and not tableau.is_relational(lab):
            return any(tableau.Sat.live(y, f.sub) in present for _, x, rel, y in self.branch.readings
                       if x == lab.nom and rel == f.rel)
        if isinstance(f, E):
            return any(tableau.Sat.live(g.nom, f.sub) in present for g in present
                       if isinstance(g, tableau.Sat))
        return isinstance(f, Nom) and f.name == lab.nom


def _key(f: Formula, ren: dict, memo: dict):
    """f's key with the nominals `ren` maps renamed, built without formulas: f if it has
    none, else a tuple, or for an or-chain the set of its disjuncts' keys (`memo` caches)."""
    if not isinstance(f, Or) and nominals(f).isdisjoint(ren):
        return f
    k = memo.get(f)
    if k is None:
        parts = list(map(_key, _named(f), (ren, ren), (memo, memo)))  # one frame per level
        if isinstance(f, Nom):
            k = ren[f.name]
        elif isinstance(f, Or):
            k = frozenset().union(*[p if isinstance(p, frozenset) else (p,) for p in parts])
        else:
            k = (type(f), getattr(f, "rel", None), getattr(f, "var", None), *parts)
        memo[f] = k
    return k
