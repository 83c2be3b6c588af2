"""Golden derivations: verdict and search size on a fixed corpus.

The table pins, per problem, the verdict, the number of `step` calls,
the branches explored and the node count of the final branch, as the
engine produced them when the table was written.  Engine changes meant
to keep the derivations (caching, indexing) must leave it unchanged.
A change that alters the search on purpose (backjumping, a new rule
order) regenerates the table with `golden_rows()` and says so.
"""

from hylotab.corpus import enumerate_small_formulas, random_fragment_problem
from hylotab.fragments import FragmentError
from hylotab.parser import Problem, parse
from hylotab.preprocess import preprocess
from hylotab.tableau import Limits, solve

COUNTING_SHAPES = (
    "formula: <r>^{n} true & [r]^{m} false;",
    "formula: <r>^{n} p & [r]^{m} !p;",
    "trans r; r <= s; formula: <s>(<r>^{n} p & [s]^{m} !p);",
    "formula: @'a(<r->^{n} p & [r-]^{m} !p);",
)
LIMITS = Limits(max_nodes=2000, max_branches=300, timeout=600)


def corpus():
    """Random fragment problems 0-39 at depth 6, the first 200 enumerated
    formulas, and the counting shapes with n, m <= 2.
    """
    for s in range(40):
        yield "random-%d" % s, random_fragment_problem(s, depth=6)
    formulas = enumerate_small_formulas()
    for i in range(200):
        yield "enum-%d" % i, Problem([], formulas[i])
    yield from counting_problems(3)


def long_problems():
    """Random fragment problems with long, merge-heavy branches, which the
    benchmark's digests never see.  They are kept out of `corpus()`, which
    the per-step checks of other tests walk: d10-290 re-adds a label that
    only a phantom holds, which the progress check counts as a stall."""
    for s, depth in ((290, 10), (53, 10), (37, 11)):
        yield "d%d-%d" % (depth, s), random_fragment_problem(s, depth=depth)


def counting_problems(size):
    """The counting shapes with n, m < size."""
    for k, shape in enumerate(COUNTING_SHAPES):
        for n in range(size):
            for m in range(size):
                yield "count-%d-%d-%d" % (k, n, m), parse(shape.format(n=n, m=m))


def golden_rows() -> dict:
    """problem id -> (verdict, steps, branches, final-branch nodes)."""
    rows = {}
    for pid, problem in [*corpus(), *long_problems()]:
        try:
            prepared = preprocess(problem)
        except FragmentError:
            rows[pid] = ("outside", 0, 0, 0)
            continue
        r = solve(prepared, LIMITS)
        nodes = len(r.branch.labels) if r.branch else 0
        rows[pid] = (r.verdict, r.stats["steps"], r.stats["branches"], nodes)
    return rows


def test_derivations_match_golden_table():
    got = golden_rows()
    assert sorted(got) == sorted(GOLDEN)
    changed = {pid: (GOLDEN[pid], got[pid]) for pid in GOLDEN if got[pid] != GOLDEN[pid]}
    assert changed == {}


GOLDEN = {
    'random-0': ('sat', 1, 1, 4),
    'random-1': ('sat', 13, 1, 19),
    'random-2': ('sat', 22, 1, 26),
    'random-3': ('sat', 16, 1, 17),
    'random-4': ('sat', 3, 1, 6),
    'random-5': ('sat', 13, 2, 21),
    'random-6': ('sat', 25, 2, 7),
    'random-7': ('sat', 7, 1, 14),
    'random-8': ('sat', 2, 1, 5),
    'random-9': ('sat', 20, 1, 22),
    'random-10': ('sat', 7, 1, 12),
    'random-11': ('sat', 25, 1, 30),
    'random-12': ('sat', 23, 1, 27),
    'random-13': ('sat', 7, 1, 10),
    'random-14': ('sat', 13, 1, 24),
    'random-15': ('sat', 19, 1, 25),
    'random-16': ('sat', 13, 1, 17),
    'random-17': ('sat', 1, 1, 5),
    'random-18': ('sat', 18, 1, 22),
    'random-19': ('sat', 10, 2, 9),
    'random-20': ('sat', 7, 1, 13),
    'random-21': ('sat', 7, 1, 11),
    'random-22': ('sat', 19, 1, 26),
    'random-23': ('unsat', 10, 1, 17),
    'random-24': ('sat', 1, 1, 9),
    'random-25': ('sat', 1, 1, 4),
    'random-26': ('sat', 2, 1, 6),
    'random-27': ('sat', 22, 1, 29),
    'random-28': ('sat', 13, 1, 19),
    'random-29': ('sat', 9, 1, 13),
    'random-30': ('sat', 11, 1, 15),
    'random-31': ('sat', 7, 1, 12),
    'random-32': ('sat', 7, 1, 9),
    'random-33': ('sat', 7, 1, 10),
    'random-34': ('sat', 10, 1, 15),
    'random-35': ('sat', 8, 1, 15),
    'random-36': ('unsat', 7, 1, 14),
    'random-37': ('sat', 40, 1, 49),
    'random-38': ('sat', 1, 1, 4),
    'random-39': ('sat', 2, 1, 6),
    'enum-0': ('sat', 1, 1, 1),
    'enum-1': ('sat', 1, 1, 1),
    'enum-2': ('sat', 2, 1, 1),
    'enum-3': ('sat', 2, 1, 3),
    'enum-4': ('sat', 2, 1, 2),
    'enum-5': ('unsat', 2, 1, 3),
    'enum-6': ('sat', 2, 1, 2),
    'enum-7': ('sat', 3, 1, 3),
    'enum-8': ('sat', 2, 1, 2),
    'enum-9': ('unsat', 2, 1, 3),
    'enum-10': ('sat', 2, 1, 2),
    'enum-11': ('sat', 2, 1, 3),
    'enum-12': ('sat', 2, 1, 2),
    'enum-13': ('sat', 3, 1, 3),
    'enum-14': ('sat', 2, 1, 2),
    'enum-15': ('sat', 3, 1, 3),
    'enum-16': ('sat', 3, 1, 2),
    'enum-17': ('sat', 3, 1, 3),
    'enum-18': ('sat', 3, 1, 2),
    'enum-19': ('sat', 3, 1, 3),
    'enum-20': ('sat', 3, 1, 2),
    'enum-21': ('sat', 2, 1, 4),
    'enum-22': ('sat', 1, 1, 2),
    'enum-23': ('sat', 2, 1, 2),
    'enum-24': ('sat', 2, 1, 2),
    'enum-25': ('sat', 2, 1, 2),
    'enum-26': ('sat', 2, 1, 2),
    'enum-27': ('sat', 2, 1, 4),
    'enum-28': ('sat', 1, 1, 2),
    'enum-29': ('sat', 2, 1, 2),
    'enum-30': ('sat', 2, 1, 2),
    'enum-31': ('sat', 2, 1, 2),
    'enum-32': ('sat', 2, 1, 2),
    'enum-33': ('sat', 1, 1, 2),
    'enum-34': ('sat', 1, 1, 2),
    'enum-35': ('sat', 3, 1, 2),
    'enum-36': ('sat', 3, 1, 2),
    'enum-37': ('sat', 2, 1, 2),
    'enum-38': ('sat', 3, 1, 2),
    'enum-39': ('sat', 2, 1, 2),
    'enum-40': ('sat', 3, 1, 6),
    'enum-41': ('sat', 1, 1, 2),
    'enum-42': ('sat', 3, 1, 4),
    'enum-43': ('sat', 3, 1, 4),
    'enum-44': ('sat', 3, 1, 4),
    'enum-45': ('sat', 3, 1, 4),
    'enum-46': ('sat', 3, 1, 5),
    'enum-47': ('sat', 1, 1, 2),
    'enum-48': ('sat', 3, 1, 3),
    'enum-49': ('sat', 3, 1, 3),
    'enum-50': ('sat', 3, 1, 3),
    'enum-51': ('sat', 3, 1, 3),
    'enum-52': ('unsat', 3, 1, 6),
    'enum-53': ('sat', 1, 1, 2),
    'enum-54': ('unsat', 3, 1, 4),
    'enum-55': ('unsat', 3, 1, 4),
    'enum-56': ('unsat', 3, 1, 4),
    'enum-57': ('unsat', 3, 1, 4),
    'enum-58': ('sat', 3, 1, 5),
    'enum-59': ('sat', 1, 1, 2),
    'enum-60': ('sat', 3, 1, 3),
    'enum-61': ('sat', 3, 1, 3),
    'enum-62': ('sat', 3, 1, 3),
    'enum-63': ('sat', 3, 1, 3),
    'enum-64': ('sat', 4, 1, 6),
    'enum-65': ('sat', 1, 1, 2),
    'enum-66': ('sat', 4, 1, 4),
    'enum-67': ('sat', 4, 1, 4),
    'enum-68': ('sat', 3, 1, 4),
    'enum-69': ('sat', 4, 1, 4),
    'enum-70': ('sat', 3, 1, 5),
    'enum-71': ('sat', 1, 1, 2),
    'enum-72': ('sat', 3, 1, 3),
    'enum-73': ('sat', 5, 1, 5),
    'enum-74': ('sat', 3, 1, 3),
    'enum-75': ('sat', 3, 1, 3),
    'enum-76': ('sat', 3, 1, 4),
    'enum-77': ('sat', 3, 1, 3),
    'enum-78': ('unsat', 3, 1, 6),
    'enum-79': ('sat', 1, 1, 2),
    'enum-80': ('unsat', 3, 1, 4),
    'enum-81': ('unsat', 3, 1, 4),
    'enum-82': ('unsat', 3, 1, 4),
    'enum-83': ('unsat', 3, 1, 4),
    'enum-84': ('sat', 3, 1, 5),
    'enum-85': ('sat', 1, 1, 2),
    'enum-86': ('sat', 3, 1, 3),
    'enum-87': ('sat', 3, 1, 3),
    'enum-88': ('sat', 3, 1, 3),
    'enum-89': ('sat', 3, 1, 3),
    'enum-90': ('sat', 3, 1, 6),
    'enum-91': ('sat', 1, 1, 2),
    'enum-92': ('sat', 3, 1, 4),
    'enum-93': ('sat', 3, 1, 4),
    'enum-94': ('sat', 3, 1, 4),
    'enum-95': ('sat', 3, 1, 4),
    'enum-96': ('sat', 3, 1, 5),
    'enum-97': ('sat', 1, 1, 2),
    'enum-98': ('sat', 3, 1, 3),
    'enum-99': ('sat', 3, 1, 3),
    'enum-100': ('sat', 3, 1, 3),
    'enum-101': ('sat', 3, 1, 3),
    'enum-102': ('sat', 4, 1, 6),
    'enum-103': ('sat', 1, 1, 2),
    'enum-104': ('sat', 4, 1, 4),
    'enum-105': ('sat', 4, 1, 4),
    'enum-106': ('sat', 3, 1, 4),
    'enum-107': ('sat', 4, 1, 4),
    'enum-108': ('sat', 3, 1, 5),
    'enum-109': ('sat', 1, 1, 2),
    'enum-110': ('sat', 3, 1, 3),
    'enum-111': ('sat', 5, 1, 5),
    'enum-112': ('sat', 3, 1, 3),
    'enum-113': ('sat', 3, 1, 3),
    'enum-114': ('sat', 3, 1, 4),
    'enum-115': ('sat', 3, 1, 3),
    'enum-116': ('sat', 4, 1, 6),
    'enum-117': ('sat', 1, 1, 2),
    'enum-118': ('sat', 4, 1, 4),
    'enum-119': ('sat', 4, 1, 4),
    'enum-120': ('sat', 3, 1, 4),
    'enum-121': ('sat', 4, 1, 4),
    'enum-122': ('sat', 4, 1, 5),
    'enum-123': ('sat', 1, 1, 2),
    'enum-124': ('sat', 4, 1, 3),
    'enum-125': ('sat', 5, 1, 4),
    'enum-126': ('sat', 3, 1, 3),
    'enum-127': ('sat', 4, 1, 3),
    'enum-128': ('sat', 4, 1, 6),
    'enum-129': ('sat', 1, 1, 2),
    'enum-130': ('sat', 4, 1, 4),
    'enum-131': ('sat', 4, 1, 4),
    'enum-132': ('sat', 3, 1, 4),
    'enum-133': ('sat', 4, 1, 4),
    'enum-134': ('sat', 4, 1, 5),
    'enum-135': ('sat', 1, 1, 2),
    'enum-136': ('sat', 4, 1, 3),
    'enum-137': ('sat', 5, 1, 4),
    'enum-138': ('sat', 3, 1, 3),
    'enum-139': ('sat', 4, 1, 3),
    'enum-140': ('sat', 4, 1, 6),
    'enum-141': ('sat', 1, 1, 2),
    'enum-142': ('sat', 4, 1, 4),
    'enum-143': ('sat', 4, 1, 4),
    'enum-144': ('sat', 3, 1, 4),
    'enum-145': ('sat', 4, 1, 4),
    'enum-146': ('sat', 4, 1, 5),
    'enum-147': ('sat', 1, 1, 2),
    'enum-148': ('sat', 4, 1, 3),
    'enum-149': ('sat', 5, 1, 4),
    'enum-150': ('sat', 3, 1, 3),
    'enum-151': ('sat', 4, 1, 3),
    'enum-152': ('sat', 4, 1, 4),
    'enum-153': ('sat', 4, 1, 3),
    'enum-154': ('sat', 3, 1, 4),
    'enum-155': ('sat', 3, 1, 3),
    'enum-156': ('sat', 3, 1, 4),
    'enum-157': ('sat', 3, 1, 3),
    'enum-158': ('sat', 4, 1, 4),
    'enum-159': ('sat', 3, 1, 3),
    'enum-160': ('sat', 3, 1, 4),
    'enum-161': ('sat', 3, 1, 3),
    'enum-162': ('sat', 3, 1, 6),
    'enum-163': ('sat', 1, 1, 2),
    'enum-164': ('sat', 3, 1, 5),
    'enum-165': ('sat', 6, 1, 9),
    'enum-166': ('sat', 3, 1, 5),
    'enum-167': ('sat', 3, 1, 5),
    'enum-168': ('sat', 2, 1, 4),
    'enum-169': ('sat', 1, 1, 2),
    'enum-170': ('sat', 2, 1, 3),
    'enum-171': ('sat', 2, 1, 3),
    'enum-172': ('sat', 2, 1, 3),
    'enum-173': ('sat', 3, 1, 4),
    'enum-174': ('sat', 3, 1, 5),
    'enum-175': ('sat', 1, 1, 2),
    'enum-176': ('sat', 3, 1, 3),
    'enum-177': ('sat', 6, 1, 6),
    'enum-178': ('sat', 3, 1, 3),
    'enum-179': ('sat', 3, 1, 3),
    'enum-180': ('sat', 4, 1, 6),
    'enum-181': ('sat', 1, 1, 2),
    'enum-182': ('sat', 4, 1, 4),
    'enum-183': ('sat', 3, 1, 3),
    'enum-184': ('sat', 4, 1, 4),
    'enum-185': ('sat', 4, 1, 4),
    'enum-186': ('sat', 3, 1, 5),
    'enum-187': ('sat', 1, 1, 2),
    'enum-188': ('sat', 3, 1, 3),
    'enum-189': ('sat', 4, 1, 4),
    'enum-190': ('sat', 3, 1, 3),
    'enum-191': ('sat', 3, 1, 3),
    'enum-192': ('sat', 3, 1, 5),
    'enum-193': ('sat', 1, 1, 2),
    'enum-194': ('sat', 3, 1, 3),
    'enum-195': ('sat', 3, 1, 3),
    'enum-196': ('sat', 3, 1, 3),
    'enum-197': ('sat', 3, 1, 3),
    'enum-198': ('sat', 3, 1, 6),
    'enum-199': ('sat', 1, 1, 2),
    'count-0-0-0': ('unsat', 4, 1, 7),
    'count-0-0-1': ('sat', 17, 2, 17),
    'count-0-0-2': ('sat', 25, 2, 26),
    'count-0-1-0': ('unsat', 8, 1, 12),
    'count-0-1-1': ('unsat', 29, 2, 28),
    'count-0-1-2': ('sat', 38, 2, 38),
    'count-0-2-0': ('unsat', 8, 1, 12),
    'count-0-2-1': ('unsat', 32, 2, 32),
    'count-0-2-2': ('unsat', 48, 2, 51),
    'count-1-0-0': ('unsat', 4, 1, 7),
    'count-1-0-1': ('sat', 17, 2, 17),
    'count-1-0-2': ('sat', 25, 2, 26),
    'count-1-1-0': ('unsat', 8, 1, 12),
    'count-1-1-1': ('unsat', 29, 2, 28),
    'count-1-1-2': ('sat', 38, 2, 38),
    'count-1-2-0': ('unsat', 8, 1, 12),
    'count-1-2-1': ('unsat', 32, 2, 32),
    'count-1-2-2': ('unsat', 48, 2, 51),
    'count-2-0-0': ('unsat', 6, 1, 13),
    'count-2-0-1': ('sat', 21, 2, 24),
    'count-2-0-2': ('sat', 29, 2, 33),
    'count-2-1-0': ('unsat', 10, 1, 18),
    'count-2-1-1': ('unsat', 35, 2, 37),
    'count-2-1-2': ('sat', 44, 2, 47),
    'count-2-2-0': ('unsat', 10, 1, 18),
    'count-2-2-1': ('unsat', 38, 2, 41),
    'count-2-2-2': ('unsat', 56, 2, 62),
    'count-3-0-0': ('unsat', 5, 1, 8),
    'count-3-0-1': ('sat', 18, 2, 18),
    'count-3-0-2': ('sat', 26, 2, 27),
    'count-3-1-0': ('unsat', 9, 1, 13),
    'count-3-1-1': ('unsat', 30, 2, 29),
    'count-3-1-2': ('sat', 39, 2, 39),
    'count-3-2-0': ('unsat', 9, 1, 13),
    'count-3-2-1': ('unsat', 33, 2, 33),
    'count-3-2-2': ('unsat', 49, 2, 52),
    'd10-290': ('sat', 1382, 40, 572),
    'd10-53': ('sat', 790, 1, 1070),
    'd11-37': ('sat', 4419, 78, 660),
}
