import pytest

from hylotab.corpus import (
    MAX_DEPTH,
    default_tiles,
    enumerate_small_formulas,
    frame_property,
    functionality_formula,
    random_fragment_problem,
    tiling_at,
    tiling_conv,
)
from hylotab.formulas import (
    DOWN_BOX,
    GRADED,
    A,
    Diamond,
    Down,
    E,
    Incl,
    Trans,
    Var,
    bwd,
    fwd,
    nnf,
)
from hylotab.parser import parse, print_problem
from hylotab.semantics import Interpretation, evaluate


def test_frame_properties():
    assert frame_property("transitivity") == Trans("r")
    assert frame_property("symmetry") == Incl(bwd("r"), "r")
    refl = frame_property("reflexivity")
    assert refl == A(Down("x", Diamond(fwd("r"), Var("x"))))
    atm = frame_property("at_most_n", n=2)
    assert isinstance(atm, E)
    assert frame_property("at_least_n_successors", n=3) == Diamond(
        fwd("r"), nnf(parse("formula: true;").formula), grade=2
    )


def test_frame_property_semantics():
    refl = frame_property("reflexivity")
    m = Interpretation(frozenset({0, 1}), {"r": {(0, 0), (1, 1)}}, {}, {})
    assert evaluate(m, 0, refl)
    m2 = Interpretation(frozenset({0, 1}), {"r": {(0, 1), (1, 1)}}, {}, {})
    assert not evaluate(m2, 0, refl)

    atm = frame_property("at_most_n", n=2)
    small = Interpretation(frozenset({0, 1}), {}, {}, {})
    big = Interpretation(frozenset({0, 1, 2}), {}, {}, {})
    assert evaluate(small, 0, atm)
    assert not evaluate(big, 0, atm)


def test_tilings_round_trip():
    for problem in (tiling_at(default_tiles()), tiling_conv(default_tiles())):
        text = print_problem(problem)
        assert parse(text).formula == problem.formula
        assert problem.formula.facts[3] & GRADED


def test_functionality_formula_shape():
    f = functionality_formula()
    assert not f.facts[3] & GRADED
    assert not f.facts[1]  # the binder captures every variable occurrence


def test_random_problems_deterministic_and_in_fragment():
    for seed in range(50):
        p1 = random_fragment_problem(seed)
        p2 = random_fragment_problem(seed)
        assert p1.formula == p2.formula and p1.assertions == p2.assertions
        assert not p1.formula.facts[1]
        assert not nnf(p1.formula).facts[3] & DOWN_BOX


def test_random_problem_depth_is_bounded():
    assert random_fragment_problem(0, depth=MAX_DEPTH).formula is not None
    for depth in (-1, MAX_DEPTH + 1, 60):
        with pytest.raises(ValueError, match="depth must be nonnegative and at most"):
            random_fragment_problem(0, depth=depth)


def test_random_problems_vary():
    formulas = {random_fragment_problem(seed).formula for seed in range(30)}
    assert len(formulas) > 25


def test_enumeration_size_and_shape():
    fs = enumerate_small_formulas()
    assert 800 <= len(fs) <= 2200
    assert len(set(fs)) == len(fs)
    assert not any(f.facts[1] for f in fs)
