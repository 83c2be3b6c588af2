"""Oracle differential on random fragment problems: every `unsat` verdict
must have no model under the bounded model search.

The random problems draw transitivity, inclusion and converse, which the
enumerated formulas of acceptance criterion 4 do not.  A `BudgetError`
from `bounded_sat` fails the test: an unsat verdict it cannot check is
not counted as checked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab.corpus import random_fragment_problem
from hylotab.preprocess import preprocess
from hylotab.semantics import bounded_sat
from hylotab.tableau import Limits, solve

LIMITS = Limits(timeout=20, max_nodes=50_000)
STATES = 2


def disagreement(depth, seed):
    """(verdict, what is wrong or None) for one random problem."""
    q = preprocess(random_fragment_problem(seed, depth=depth))
    verdict = solve(q, LIMITS).verdict
    if verdict == "limit":
        return verdict, "limit"
    if verdict == "unsat" and bounded_sat(q, STATES) is not None:
        return verdict, "the oracle found a model"
    return verdict, None


def test_unsat_verdicts_have_no_small_model():
    unsat, wrong = 0, []
    for depth in (3, 4, 5):
        for seed in range(300):
            verdict, why = disagreement(depth, seed)
            unsat += verdict == "unsat"
            if why:
                wrong.append((depth, seed, why))
    assert wrong == [] and unsat >= 70, (unsat, wrong)


@given(st.integers(3, 4), st.integers(0, 10 ** 6))
@settings(max_examples=50, derandomize=True, deadline=None)
def test_unsat_verdicts_have_no_small_model_hypothesis(depth, seed):
    assert disagreement(depth, seed)[1] is None
