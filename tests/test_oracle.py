"""Oracle differential on random fragment problems: every `unsat` verdict
must have no model under the bounded model search.

The random problems draw transitivity, inclusion and converse, which the
enumerated formulas of acceptance criterion 4 do not.  A `BudgetError`
from `bounded_sat` fails the test: an unsat verdict it cannot check is
not counted as checked.

`bounded_sat` returns the lexicographically first model; the bit-index
enumeration below is the reference that pins that order.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab.corpus import enumerate_small_formulas, random_fragment_problem
from hylotab.formulas import nominals, props, rel_syms
from hylotab.parser import Problem
from hylotab.preprocess import preprocess
from hylotab.semantics import Evaluator, Interpretation, bounded_sat, check_assertions
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


def first_model(problem, max_states):
    """The first model in bit-index order: per nominal map, one bit vector
    of labels state by state, then one of edges relation by relation,
    each candidate rebuilt from its bits, the last bit varying fastest."""
    f = problem.formula
    noms, ps = sorted(nominals(f)), sorted(props(f))
    rels = sorted(problem.declared_rels | rel_syms(f))
    for k in range(1, max_states + 1):
        states = list(range(k))
        all_pairs = list(itertools.product(states, states))
        for nom_map in itertools.product(states, repeat=len(noms)):
            nom = dict(zip(noms, nom_map))
            for val_bits in itertools.product([False, True], repeat=k * len(ps)):
                val = {w: frozenset(p for j, p in enumerate(ps) if val_bits[w * len(ps) + j])
                       for w in states}
                for rel_bits in itertools.product([False, True], repeat=len(all_pairs) * len(rels)):
                    rho = {r: {all_pairs[j] for j in range(len(all_pairs))
                               if rel_bits[i * len(all_pairs) + j]}
                           for i, r in enumerate(rels)}
                    m = Interpretation(frozenset(states), rho, nom, val)
                    if not check_assertions(m, problem.assertions):
                        continue
                    ev = Evaluator(m)
                    if any(ev.holds(w, f) for w in states):
                        return m
    return None


@given(st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_bounded_sat_returns_the_first_model(depth, seed):
    q = preprocess(random_fragment_problem(seed, depth=depth))
    assert bounded_sat(q, STATES) == first_model(q, STATES)


def test_bounded_sat_returns_the_first_model_on_enumerated_formulas():
    for f in enumerate_small_formulas()[::10]:
        q = preprocess(Problem([], f))
        assert bounded_sat(q, STATES) == first_model(q, STATES), f
