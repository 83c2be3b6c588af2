"""Node blocking: nominal compatibility, label mappings, and the
computation of directly blocked and phantom nodes.

Following the source paper's definitions, the offspring of blocked
nodes are phantoms, and a node that is not a phantom is directly blocked
when its label is a nominal renaming of an earlier unblocked node's
label.  Both sets come from one pass over the nodes in creation order
(`BlockInfo.extend`), which decides phantom status first: a phantom is
never also directly blocked, and the offspring parent of every
non-phantom node is itself unblocked.  A node depends
only on earlier nodes, the nominal profiles and the top nominals, which
the branch keeps; a `BlockInfo` holds only decisions, and the pass
continues over new nodes instead of starting again.  The pass also
records the nominals of the labels it compared (`BlockInfo.consulted`);
a change to any other nominal leaves every decision made so far as it is.

A renaming can only exist between labels whose bodies have the same
nominal-erased skeleton (`formulas.shape`).  The pass therefore keeps
the candidate blockers grouped by the skeleton hash each body knows from
construction, and tries only the members of a node's own group whose
skeleton is exactly the node's, instead of every earlier node; the
groups keep node order, so the least blocker found is the same, and a
hash collision changes nothing.  Skeletons are built only for the pairs
compared.
"""

from __future__ import annotations

from .formulas import Record, nominals, shape


# A nominal's profile: the propositions and box-form bodies it labels.
EMPTY_PROFILE = (frozenset(), frozenset())


# The benchmark's tracer (perfbench/tracing.py) patches and counts
# `maps_to` by name, so `BlockInfo.extend` calls it as a module global.
def maps_to(lab_m, lab_n, top_noms, profiles) -> bool:
    """True iff lab_m can be turned into lab_n by an injective renaming
    of non-top nominals, each to a compatible one: one with an equal
    profile (top nominals must stay fixed).
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
        if d != e and profiles.get(d, EMPTY_PROFILE) != profiles.get(e, EMPTY_PROFILE):
            return False
    return True


class BlockInfo(Record):
    """The blocking decisions for the first len(direct) nodes of a branch.
    Node i depends only on the nodes before it and on the profiles and top
    nominals that the branch keeps, so `extend` decides new nodes without
    revisiting old ones."""

    def __init__(self, direct, phantom, blocker, groups, consulted):
        self.direct = direct        # node id -> directly blocked?
        self.phantom = phantom      # node id -> phantom (indirectly blocked)?
        self.blocker = blocker      # node id -> blocking node id, or None
        self.groups = groups        # skeleton hash -> unblocked blockable nodes, in node order
        self.consulted = consulted  # the nominals of both labels of every pair given to maps_to

    def copy(self) -> "BlockInfo":
        """A copy with its own lists, groups and `consulted`.  A decision
        reads only the profiles, the top status and the names of the two
        labels it compared, and phantom status follows decisions, so a
        change to nominals outside `consulted` changes no decided node."""
        return BlockInfo(self.direct[:], self.phantom[:], self.blocker[:],
                         {k: v[:] for k, v in self.groups.items()}, set(self.consulted))

    def extend(self, labels, prec, blockable, profiles, top_noms) -> None:
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
                group = self.groups.setdefault(labels[i].body.facts[4], [])
                skeleton = shape(labels[i].body)[0] if group else None
                for m in group:
                    if shape(labels[m].body)[0] is not skeleton:
                        continue  # a hash collision
                    self.consulted.update((labels[m].nom, labels[i].nom), nominals(labels[m].body),
                                          nominals(labels[i].body))
                    if maps_to(labels[m], labels[i], top_noms, profiles):
                        hit = m
                        break
                else:
                    group.append(i)
            direct.append(hit is not None)
            phantom.append(phantom_i)
            blocker.append(hit)


def recompute_blocking(labels, prec, blockable, profiles, top_noms, start=None) -> BlockInfo:
    """Blocking of all nodes: `BlockInfo.extend` from the empty state, or
    from `start`, a private copy of the decisions for a prefix of the
    nodes that the current profiles and top nominals leave standing.
    """
    info = start or BlockInfo([], [], [], {}, set())
    info.extend(labels, prec, blockable, profiles, top_noms)
    return info
