"""Command line interface.

Exit codes: 0 satisfiable / success, 1 unsatisfiable / invalid,
2 resource limit reached, 3 input outside the decidable fragment,
4 malformed input.  The first output line is always machine readable:
"RESULT: <verdict>".
"""

from __future__ import annotations

import argparse
import json
import sys

from .formulas import Incl, Top, Trans, nnf
from .fragments import FragmentError, classify
from .parser import ParseError, Problem, parse, print_problem
from .preprocess import preprocess
from .semantics import (
    BudgetError,
    Evaluator,
    bounded_sat,
    check_assertions,
    format_model,
    parse_model,
    saturation_violations,
    validate_extraction,
)
from .tableau import Limits, solve

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_LIMIT = 2
EXIT_FRAGMENT = 3
EXIT_INPUT = 4


def _read_problem(path: str) -> Problem:
    with open(path) as fh:
        return parse(fh.read())


def _solved(args):
    """Read, preprocess and solve the problem file.  A limit or unsat
    result prints its verdict line and gives its exit code; a sat result
    gives None, and the caller reports it.
    """
    limits = Limits(args.max_nodes, args.max_branches, args.timeout)
    prepared = preprocess(_read_problem(args.file))
    result = solve(prepared, limits)
    code = {"limit": EXIT_LIMIT, "unsat": EXIT_UNSAT}.get(result.verdict)
    if code is not None:
        print("RESULT: %s" % result.verdict.upper())
    return prepared, result, code


def _cmd_solve(args) -> int:
    prepared, result, code = _solved(args)
    if code is None:
        print("RESULT: SAT")
    if args.stats:
        print(json.dumps(result.stats))
    if args.trace:
        for line in result.trace:  # [] on a limit
            print(line)
    if code is not None:
        return code
    if args.model:
        ok, model = validate_extraction(result.branch, result.blocking, prepared)
        print("model validated: %s" % ("yes" if ok else "no"))
        print(format_model(model), end="")
    return EXIT_SAT


def _cmd_check_fragment(args) -> int:
    problem = _read_problem(args.file)
    verdict = classify(problem)
    print("RESULT: %s" % ("PREPROCESSABLE" if verdict.preprocessable else "OUTSIDE-FRAGMENT"))
    for name, flag in (("binder-over-universal", verdict.has_down_box),
                       ("universal-binder-universal", verdict.has_box_down_box),
                       ("graded-restrictions-met", verdict.graded_ok)):
        print("%s: %s" % (name, "yes" if flag else "no"))
    _print_witnesses(verdict.witnesses)
    return EXIT_SAT if verdict.preprocessable else EXIT_FRAGMENT


def _print_witnesses(witnesses) -> None:
    for name, path in witnesses:
        print("witness: %s at %s" % (name, list(path)))


def _cmd_preprocess(args) -> int:
    problem = _read_problem(args.file)
    prepared = preprocess(problem)
    print("RESULT: OK")
    print(print_problem(prepared), end="")
    return EXIT_SAT


def _cmd_model_check(args) -> int:
    with open(args.model) as fh:
        model = parse_model(fh.read())
    problem = _read_problem(args.file)
    if not check_assertions(model, problem.assertions):
        print("RESULT: INVALID")
        print("an assertion fails in the model")
        return EXIT_UNSAT
    f = nnf(problem.formula)
    ev = Evaluator(model)
    if any(ev.holds(w, f) for w in sorted(model.states, key=str)):
        print("RESULT: VALID")
        return EXIT_SAT
    print("RESULT: INVALID")
    print("the formula holds at no state")
    return EXIT_UNSAT


def _cmd_oracle(args) -> int:
    problem = _read_problem(args.file)
    try:
        model = bounded_sat(problem, max_states=args.max_states)
    except BudgetError as exc:
        print("RESULT: LIMIT")
        print(exc)
        return EXIT_LIMIT
    if model is None:
        print("RESULT: UNSAT")
        print("no model with at most %d states" % args.max_states)
        return EXIT_UNSAT
    print("RESULT: SAT")
    print(format_model(model), end="")
    return EXIT_SAT


def _cmd_gen(args) -> int:
    # only `gen` uses the generators, so other commands do not import them (or `random`)
    from .corpus import default_tiles, frame_property, random_fragment_problem, tiling_at, tiling_conv

    if args.kind == "tiling":
        problem = tiling_at(default_tiles())
    elif args.kind == "tiling-conv":
        problem = tiling_conv(default_tiles())
    elif args.kind == "random":
        problem = random_fragment_problem(args.seed, depth=args.depth)
    else:  # frame; argparse admits no other kind
        prop = frame_property(args.property, "r", args.n)
        if isinstance(prop, (Trans, Incl)):
            problem = Problem([prop], Top())
        else:
            problem = Problem([], prop)
    print("RESULT: OK")
    print(print_problem(problem), end="")
    return EXIT_SAT


def _cmd_validate(args) -> int:
    prepared, result, code = _solved(args)
    if code is not None:
        return code
    ok, model = validate_extraction(result.branch, result.blocking, prepared)
    violations = saturation_violations(result.branch, result.blocking)
    print("RESULT: %s" % ("VALIDATED" if ok and not violations else "UNVALIDATED"))
    print("model-confirmed: %s" % ("yes" if ok else "no"))
    print("saturation-violations: %d" % len(violations))
    for v in violations:
        print("  " + v)
    print(format_model(model), end="")
    return EXIT_SAT if ok and not violations else EXIT_UNSAT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hylotab",
        description="Satisfiability for multi-modal hybrid logic with binders.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    limits = Limits()

    def add_limits(p):
        p.add_argument("--max-nodes", type=int, default=limits.max_nodes)
        p.add_argument("--max-branches", type=int, default=limits.max_branches)
        p.add_argument("--timeout", type=float, default=limits.timeout)

    p = sub.add_parser("solve", help="decide satisfiability of a problem file")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="print the branch trace")
    p.add_argument("--model", action="store_true", help="print an extracted model")
    p.add_argument("--stats", action="store_true",
                   help="print the search statistics as one JSON line")
    add_limits(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-fragment", help="report fragment membership")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_fragment)

    p = sub.add_parser("preprocess", help="eliminate grades and critical binders")
    p.add_argument("file")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("model-check", help="evaluate a problem in a model file")
    p.add_argument("model")
    p.add_argument("file")
    p.set_defaults(func=_cmd_model_check)

    p = sub.add_parser("oracle", help="exhaustive bounded model search")
    p.add_argument("file")
    p.add_argument("--max-states", type=int, default=3)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate benchmark problems")
    p.add_argument("kind", choices=["tiling", "tiling-conv", "random", "frame"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--property", default="transitivity")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="solve, then check the extracted model")
    p.add_argument("file")
    add_limits(p)
    p.set_defaults(func=_cmd_validate)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except FragmentError as exc:
        print("RESULT: OUTSIDE-FRAGMENT")
        _print_witnesses(exc.witnesses)
        return EXIT_FRAGMENT
    except ParseError as exc:
        print("RESULT: INPUT-ERROR")
        print("parse error at %s" % exc)
        return EXIT_INPUT
    except RecursionError:
        print("RESULT: INPUT-ERROR")
        print("input nested too deeply")
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        print("RESULT: INPUT-ERROR")
        print(exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
