"""Node blocking: nominal compatibility, label mappings, and the
computation of directly blocked and phantom nodes.

Direct blocking identifies a node whose label is a nominal renaming of
an earlier unblocked node's label; descendants of blocked nodes (along
the offspring relation) become phantoms.  Both sets are recomputed on
demand from the current branch state, in a single pass over the nodes
in creation order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .formulas import ATOMS, At, Box, Diamond, Down, Nom, Prop, children


def nominal_profiles(sat_labels) -> dict:
    """For each nominal: the propositions and box-form bodies it labels.
    Two nominals are compatible when their profiles are equal.
    """
    props: dict = defaultdict(set)
    boxes: dict = defaultdict(set)
    for lab in sat_labels:
        if isinstance(lab.body, Prop):
            props[lab.nom].add(lab.body.name)
        elif isinstance(lab.body, Box):
            boxes[lab.nom].add((lab.body.rel, lab.body.grade, lab.body.sub))
    out: dict = {}
    for a in set(props) | set(boxes):
        out[a] = (frozenset(props[a]), frozenset(boxes[a]))
    return out


_EMPTY = (frozenset(), frozenset())


def _align(f, g, pairs) -> bool:
    """Structural alignment of two formulas that may differ only in
    their nominals; collects the induced nominal pairs.
    """
    if type(f) is not type(g):
        return False
    if isinstance(f, Nom):
        pairs.append((f.name, g.name))
        return True
    if isinstance(f, ATOMS):
        return f == g
    if isinstance(f, At):
        return _align(f.at, g.at, pairs) and _align(f.sub, g.sub, pairs)
    if isinstance(f, (Diamond, Box)):
        if f.rel != g.rel or f.grade != g.grade:
            return False
        return _align(f.sub, g.sub, pairs)
    if isinstance(f, Down):
        return f.var == g.var and _align(f.sub, g.sub, pairs)
    return all(_align(fc, gc, pairs) for fc, gc in zip(children(f), children(g)))


def maps_to(lab_m, lab_n, top_noms, profiles) -> bool:
    """True iff lab_m can be turned into lab_n by an injective renaming
    of non-top nominals where each nominal is renamed to a compatible
    one (top nominals must stay fixed).
    """
    pairs = [(lab_m.nom, lab_n.nom)]
    if not _align(lab_m.body, lab_n.body, pairs):
        return False
    pi: dict = {}
    for d, e in pairs:
        if d in top_noms or e in top_noms:
            if d != e:
                return False
            continue
        if pi.setdefault(d, e) != e:
            return False
    if len(set(pi.values())) != len(pi):
        return False
    for d, e in pi.items():
        if d != e and profiles.get(d, _EMPTY) != profiles.get(e, _EMPTY):
            return False
    return True


@dataclass
class BlockInfo:
    direct: list      # node id -> directly blocked?
    phantom: list     # node id -> phantom (indirectly blocked)?
    blocker: list     # node id -> blocking node id, or None


def recompute_blocking(labels, prec, blockable, top_noms, sat_labels) -> BlockInfo:
    """One pass in node order: a node is directly blocked by the least
    earlier unblocked node whose label maps to its own; a phantom is a
    non-directly-blocked node with a blocked offspring ancestor.
    """
    profiles = nominal_profiles(sat_labels)
    n = len(labels)
    direct = [False] * n
    phantom = [False] * n
    blocker = [None] * n
    for i in range(n):
        if blockable[i]:
            for m in range(i):
                if direct[m] or phantom[m]:
                    continue
                if not blockable[m]:
                    continue
                if maps_to(labels[m], labels[i], top_noms, profiles):
                    direct[i] = True
                    blocker[i] = m
                    break
        if not direct[i]:
            a = prec[i]
            while a is not None:
                if direct[a] or phantom[a]:
                    phantom[i] = True
                    break
                a = prec[a]
    return BlockInfo(direct, phantom, blocker)
