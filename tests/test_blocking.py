from collections import defaultdict

from hylotab import tableau
from hylotab import blocking
from hylotab.blocking import BlockInfo, maps_to, recompute_blocking
from hylotab.corpus import random_fragment_problem
from hylotab.formulas import ATOMS, At, Box, Diamond, Down, Neg, Nom, Prop, children, fwd
from hylotab.parser import parse
from hylotab.preprocess import preprocess
from hylotab.tableau import Limits, Sat, is_blockable, solve

from test_engine_golden import COUNTING_SHAPES


def nominal_profiles(sat_labels) -> dict:
    """Reference for `Branch.profiles`: for each nominal, the propositions
    and box-form bodies it labels, from scratch."""
    props: dict = defaultdict(set)
    boxes: dict = defaultdict(set)
    for lab in sat_labels:
        if isinstance(lab.body, Prop):
            props[lab.nom].add(lab.body.name)
        elif isinstance(lab.body, Box):
            boxes[lab.nom].add((lab.body.rel, lab.body.grade, lab.body.sub))
    return {a: (frozenset(props[a]), frozenset(boxes[a])) for a in props.keys() | boxes.keys()}


def profiles(*labels):
    return nominal_profiles(list(labels))


def test_maps_to_identity():
    lab = Sat("a", Diamond(fwd("r"), Prop("p")))
    assert maps_to(lab, lab, set(), {})


def test_maps_to_renaming():
    m = Sat("a", Diamond(fwd("r"), Prop("p")))
    n = Sat("b", Diamond(fwd("r"), Prop("p")))
    assert maps_to(m, n, set(), {})
    # renaming must respect compatibility
    prof = profiles(Sat("a", Prop("q")))
    assert not maps_to(m, n, set(), prof)
    prof = profiles(Sat("a", Prop("q")), Sat("b", Prop("q")))
    assert maps_to(m, n, set(), prof)


def test_maps_to_respects_top_nominals():
    m = Sat("a", Diamond(fwd("r"), Nom("a")))
    n = Sat("b", Diamond(fwd("r"), Nom("b")))
    assert maps_to(m, n, set(), {})
    assert not maps_to(m, n, {"a"}, {})
    # a shared top nominal in the same position is fine
    m = Sat("a", Diamond(fwd("r"), Nom("t")))
    n = Sat("b", Diamond(fwd("r"), Nom("t")))
    assert maps_to(m, n, {"t"}, {})


def test_maps_to_requires_injectivity():
    m = Sat("a", Diamond(fwd("r"), Neg(Nom("b"))))
    n = Sat("c", Diamond(fwd("r"), Neg(Nom("c"))))
    # a and b would both map to c
    assert not maps_to(m, n, set(), {})


def test_maps_to_structure_must_match():
    m = Sat("a", Diamond(fwd("r"), Prop("p")))
    assert not maps_to(m, Sat("a", Diamond(fwd("s"), Prop("p"))), set(), {})
    assert not maps_to(m, Sat("a", Box(fwd("r"), Prop("p"))), set(), {})


def test_compatibility_uses_props_and_boxes():
    prof = profiles(
        Sat("a", Prop("p")),
        Sat("b", Prop("p")),
        Sat("a", Box(fwd("r"), Prop("q"))),
    )
    assert prof["a"] != prof["b"]
    prof = profiles(
        Sat("a", Box(fwd("r"), Prop("q"))),
        Sat("b", Box(fwd("r"), Prop("q"))),
    )
    assert prof["a"] == prof["b"]


def test_recompute_blocking_direct_and_phantom():
    labels = [
        Sat("a", Diamond(fwd("r"), Prop("p"))),   # 0: blockable root
        Sat("b", Diamond(fwd("r"), Prop("p"))),   # 1: blocked by 0
        Sat("c", Prop("q")),                      # 2: child of 1 -> phantom
        Sat("d", Prop("q")),                      # 3: child of 2 -> phantom
    ]
    prec = [None, None, 1, 2]
    blockable = [True, True, False, False]
    info = recompute_blocking(labels, prec, blockable, profiles(*labels), set())
    assert not info.direct[0] and not info.phantom[0]
    assert info.direct[1] and info.blocker[1] == 0
    assert not info.direct[2] and info.phantom[2]
    assert not info.direct[3] and info.phantom[3]


def test_blocked_nodes_do_not_block():
    lab = Sat("a", Diamond(fwd("r"), Prop("p")))
    labels = [lab, Sat("b", Diamond(fwd("r"), Prop("p"))), Sat("c", Diamond(fwd("r"), Prop("p")))]
    prec = [None, None, None]
    info = recompute_blocking(labels, prec, [True] * 3, profiles(*labels), set())
    # both later nodes are blocked by the first, never by each other
    assert info.blocker[1] == 0 and info.blocker[2] == 0


def test_phantoms_do_not_block():
    dia = lambda a, r, p: Sat(a, Diamond(fwd(r), Prop(p)))
    labels = [dia("a", "r", "p"), dia("b", "r", "p"), dia("c", "s", "q"), dia("d", "s", "q")]
    prec = [None, None, 1, None]
    info = recompute_blocking(labels, prec, [True] * 4, profiles(*labels), set())
    # 2 is a phantom under the blocked 1, so it cannot block 3
    assert info.direct == [False, True, False, False]
    assert info.phantom == [False, False, True, False]
    assert info.blocker == [None, 0, None, None]


def test_a_skeleton_hash_collision_changes_nothing(monkeypatch):
    """A candidate whose skeleton differs from the node's, put into the
    node's group as a hash collision would, is neither consulted nor
    given to maps_to."""
    calls = []
    monkeypatch.setattr(blocking, "maps_to", lambda *args: calls.append(args) or maps_to(*args))
    labels = [Sat("a", Diamond(fwd("r"), Nom("c"))), Sat("b", Diamond(fwd("s"), Nom("d")))]
    key = labels[1].body.facts[4]
    assert labels[0].body.facts[4] != key
    info = BlockInfo([False], [False], [None], {key: [0]}, set())
    info.extend(labels, [None, None], [True, True], profiles(*labels), set())
    assert calls == [] and info.consulted == set()
    assert info.direct == [False, False] and info.groups == {key: [0, 1]}
    # the same candidate in its own group is compared
    info = recompute_blocking(labels[:1] + [Sat("b", Diamond(fwd("r"), Nom("d")))],
                              [None, None], [True, True], {}, set())
    assert len(calls) == 1 and info.consulted == {"a", "b", "c", "d"} and info.direct[1]


def test_blocking_terminates_recursive_demand():
    # every state needs a successor; without blocking this runs forever
    res = solve(preprocess(parse("formula: [A] <r> true;")), Limits(timeout=15))
    assert res.verdict == "sat"
    info = res.blocking
    assert any(info.direct[i] for i in range(len(res.branch.labels)))


def test_blocking_terminates_transitive_chain():
    res = solve(
        preprocess(parse("trans r; formula: <r> p & [A] <r> p;")),
        Limits(timeout=15),
    )
    assert res.verdict == "sat"


# -- differential check against the all-pairs reference ---------------------

def ref_align(f, g, pairs) -> bool:
    """Reference: walk both trees in step, collecting nominal pairs."""
    if type(f) is not type(g):
        return False
    if isinstance(f, Nom):
        pairs.append((f.name, g.name))
        return True
    if isinstance(f, ATOMS):
        return f == g
    if isinstance(f, At):
        return ref_align(f.at, g.at, pairs) and ref_align(f.sub, g.sub, pairs)
    if isinstance(f, (Diamond, Box)):
        if f.rel != g.rel or f.grade != g.grade:
            return False
        return ref_align(f.sub, g.sub, pairs)
    if isinstance(f, Down):
        return f.var == g.var and ref_align(f.sub, g.sub, pairs)
    return all(ref_align(fc, gc, pairs) for fc, gc in zip(children(f), children(g)))


def ref_maps_to(lab_m, lab_n, top_noms, profiles) -> bool:
    pairs = [(lab_m.nom, lab_n.nom)]
    if not ref_align(lab_m.body, lab_n.body, pairs):
        return False
    pi = {}
    for d, e in pairs:
        if d in top_noms or e in top_noms:
            if d != e:
                return False
            continue
        if pi.setdefault(d, e) != e:
            return False
    if len(set(pi.values())) != len(pi):
        return False
    empty = (frozenset(), frozenset())
    return all(
        d == e or profiles.get(d, empty) == profiles.get(e, empty) for d, e in pi.items()
    )


def ref_recompute_blocking(labels, prec, blockable, top_noms, sat_labels):
    """Reference: every node against every earlier unblocked node."""
    profiles = nominal_profiles(sat_labels)
    n = len(labels)
    direct, phantom, blocker = [False] * n, [False] * n, [None] * n
    for i in range(n):
        if blockable[i]:
            for m in range(i):
                if blockable[m] and not (direct[m] or phantom[m]) and ref_maps_to(
                    labels[m], labels[i], top_noms, profiles
                ):
                    direct[i], blocker[i] = True, m
                    break
        if not direct[i]:
            a = prec[i]
            while a is not None:
                if direct[a] or phantom[a]:
                    phantom[i] = True
                    break
                a = prec[a]
    return direct, phantom, blocker


def differential_problems():
    for seed in range(30):
        yield random_fragment_problem(seed, depth=6)
    for shape in COUNTING_SHAPES:
        for n in range(3):
            for m in range(3):
                yield parse(shape.format(n=n, m=m))


def test_grouped_blocking_matches_all_pairs_reference(monkeypatch):
    calls = []
    blocking = tableau.Branch.blocking

    def checked(branch):
        # the labels before the call are the ones the returned info decides
        info = blocking(branch)
        labels = branch.labels
        blockable = [is_blockable(lab) for lab in labels]
        sat_labels = [lab for lab in labels if isinstance(lab, Sat)]
        want = ref_recompute_blocking(
            labels, branch.prec, blockable, branch.top_noms, sat_labels
        )
        assert (info.direct, info.phantom, info.blocker) == want
        calls.append(sum(info.direct))
        return info

    # every step's blocking, extended or recomputed, goes through it
    monkeypatch.setattr(tableau.Branch, "blocking", checked)
    for problem in differential_problems():
        solve(preprocess(problem), Limits(max_nodes=2000, max_branches=300, timeout=60))
    assert len(calls) > 1000 and sum(calls) > 0
