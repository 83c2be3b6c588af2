"""Node blocking: nominal compatibility, label mappings, and the
computation of directly blocked and phantom nodes.

Following the source paper's definitions, the offspring of blocked
nodes are phantoms, and a node that is not a phantom is directly blocked
when its label is a nominal renaming of an earlier unblocked node's
label.  Both sets come from one pass over the nodes in creation order
(`BlockInfo.extend`), which decides phantom status first: a phantom is
never also directly blocked, and the offspring parent of every
non-phantom node is itself unblocked.  A node depends
only on earlier nodes, the nominal profiles and the top nominals, so
while those stay the same the pass continues over new nodes instead of
starting again.  The pass also records the nominals of the labels it
compared (`BlockInfo.consulted`); a change to any other nominal leaves
every decision made so far as it is.

A renaming can only exist between labels whose bodies have the same
nominal-erased skeleton (`formulas.shape`).  The pass therefore keeps
the candidate blockers grouped by skeleton and tries `maps_to` only
within a node's own group, instead of against every earlier node; the
groups keep node order, so the least blocker found is the same.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .formulas import Box, Prop, nominals, shape


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
    return {a: (frozenset(props[a]), frozenset(boxes[a])) for a in props.keys() | boxes.keys()}


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
    consulted: set    # the nominals of both labels of every pair given to maps_to

    def copy(self) -> "BlockInfo":
        """A copy with its own lists and `consulted`; it shares the profiles
        and top nominals.  A decision reads only the profiles, the top
        status and the names of the two labels it compared, and phantom
        status follows decisions, so a change to nominals outside
        `consulted` changes no decided node."""
        return BlockInfo(self.direct[:], self.phantom[:], self.blocker[:], self.profiles,
                         self.top_noms, {k: v[:] for k, v in self.groups.items()},
                         set(self.consulted))

    def extend(self, labels, prec, blockable) -> None:
        """Decide the nodes from len(direct) on, in node order.  Phantom
        status comes first: as in the source paper, the phantoms are the
        offspring of blocked nodes, so a node whose offspring parent is
        blocked or a phantom is a phantom and is never itself directly
        blocked.  Any other blockable node is directly blocked by the
        least earlier unblocked node whose label maps to its own.
        """
        direct, phantom, blocker = self.direct, self.phantom, self.blocker
        for i in range(len(direct), len(labels)):
            a = prec[i]
            phantom_i = a is not None and (direct[a] or phantom[a])
            hit = None
            if blockable[i] and not phantom_i:
                group = self.groups.setdefault(shape(labels[i].body)[0], [])
                for m in group:
                    self.consulted.update((labels[m].nom, labels[i].nom), nominals(labels[m].body),
                                          nominals(labels[i].body))
                    if maps_to(labels[m], labels[i], self.top_noms, self.profiles):
                        hit = m
                        break
                else:
                    group.append(i)
            direct.append(hit is not None)
            phantom.append(phantom_i)
            blocker.append(hit)


def recompute_blocking(labels, prec, blockable, top_noms, sat_labels, start=None) -> BlockInfo:
    """Blocking of all nodes: `BlockInfo.extend` from the empty state, or
    from `start`, a private copy of the blocking of a prefix of the nodes
    under the current profiles and top nominals.
    """
    info = start or BlockInfo([], [], [], nominal_profiles(sat_labels), top_noms, {}, set())
    info.extend(labels, prec, blockable)
    return info
