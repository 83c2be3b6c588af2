"""Node blocking: nominal compatibility, label mappings, and the
computation of directly blocked and phantom nodes.

Direct blocking identifies a node whose label is a nominal renaming of
an earlier unblocked node's label; descendants of blocked nodes (along
the offspring relation) become phantoms.  Both sets are recomputed on
demand from the current branch state, in a single pass over the nodes
in creation order.

A renaming can only exist between labels whose bodies have the same
nominal-erased skeleton (`formulas.shape`).  The pass therefore keeps
the candidate blockers grouped by skeleton and tries `maps_to` only
within a node's own group, instead of against every earlier node; the
groups keep node order, so the least blocker found is the same.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .formulas import Box, Prop, shape


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


def maps_to(lab_m, lab_n, top_noms, profiles) -> bool:
    """True iff lab_m can be turned into lab_n by an injective renaming
    of non-top nominals where each nominal is renamed to a compatible
    one (top nominals must stay fixed).
    """
    skel_m, names_m = shape(lab_m.body)
    skel_n, names_n = shape(lab_n.body)
    if skel_m != skel_n:
        return False
    pi: dict = {}
    for d, e in zip((lab_m.nom,) + names_m, (lab_n.nom,) + names_n):
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
    groups: dict = {}  # skeleton -> earlier unblocked blockable nodes
    for i in range(n):
        if blockable[i]:
            group = groups.setdefault(shape(labels[i].body)[0], [])
            for m in group:
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
            if blockable[i] and not phantom[i]:
                group.append(i)
    return BlockInfo(direct, phantom, blocker)
