"""Node blocking: nominal compatibility, label mappings, and the
computation of directly blocked and phantom nodes.

Direct blocking identifies a node whose label is a nominal renaming of
an earlier unblocked node's label; descendants of blocked nodes (along
the offspring relation) become phantoms.  Both sets come from one pass
over the nodes in creation order (`BlockInfo.extend`).  A node depends
only on earlier nodes, the nominal profiles and the top nominals, so
while those stay the same the pass continues over new nodes instead of
starting again.

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


# The benchmark's tracer (perfbench/tracing.py) patches and counts
# `maps_to` by name, so `BlockInfo.extend` calls it as a module global.
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
    """Blocking of the first len(direct) nodes of a branch under the
    current nominal profiles and top nominals (both are replaced, never
    changed in place).  Node i depends only on the nodes before it, so
    `extend` decides new nodes without revisiting old ones."""

    direct: list      # node id -> directly blocked?
    phantom: list     # node id -> phantom (indirectly blocked)?
    blocker: list     # node id -> blocking node id, or None
    profiles: dict    # nominal -> profile
    top_noms: set
    groups: dict      # skeleton -> unblocked blockable nodes, in node order

    def extend(self, labels, prec, blockable) -> None:
        """Decide the nodes from len(direct) on, in node order: a node is
        directly blocked by the least earlier unblocked node whose label
        maps to its own; a phantom is a non-directly-blocked node whose
        offspring parent is blocked or a phantom.
        """
        direct, phantom, blocker = self.direct, self.phantom, self.blocker
        for i in range(len(direct), len(labels)):
            hit = None
            if blockable[i]:
                group = self.groups.setdefault(shape(labels[i].body)[0], [])
                for m in group:
                    if maps_to(labels[m], labels[i], self.top_noms, self.profiles):
                        hit = m
                        break
            a = prec[i]
            phantom_i = hit is None and a is not None and (direct[a] or phantom[a])
            direct.append(hit is not None)
            phantom.append(phantom_i)
            blocker.append(hit)
            if blockable[i] and hit is None and not phantom_i:
                group.append(i)


def recompute_blocking(labels, prec, blockable, top_noms, sat_labels, start=None) -> BlockInfo:
    """Blocking of all nodes: `BlockInfo.extend` from the empty state, or
    from `start`, a private copy of the blocking of a prefix of the nodes
    under the current profiles and top nominals.
    """
    info = start or BlockInfo([], [], [], nominal_profiles(sat_labels), top_noms, {})
    info.extend(labels, prec, blockable)
    return info
