"""Golden derivations, line by line.

`tests/test_engine_golden.py` pins only counts, so a change to a node's
premises or offspring parent would pass it.  This table pins, for a few
problems that together fire every rule (and, at, down, Link, box, A,
Trans, or, or-unit, or-sat, E, dia and an equality merge), the verdict, the full
`Result.trace` lines (label, rule and premises of every node, then the
merges) and `Branch.prec` of every node, as the engine produced them
when the table was written.  A change that alters derivations on
purpose regenerates the table and says so.
"""

import pytest

from hylotab.parser import parse
from hylotab.preprocess import preprocess
from hylotab.tableau import Limits, solve


def derivation(text):
    """(verdict, prec, trace) of the branch `solve` returns for `text`."""
    r = solve(preprocess(parse(text)), Limits(timeout=15))
    return r.verdict, r.branch.prec, r.trace


PROBLEMS = (
    'trans r; r <= s; s <= r; formula: <s> <s> p & [s] !p;',
    'formula: <r>^2 p & [r]^1 !p;',
    'formula: <r>^1 p & [r]^2 !p;',
    "formula: @'a (p | q) & @'a !p & [A] <E> q;",
    "formula: (p | q) & (<r> t | <r> u) & [r] !t;",
)


def rule_names(trace):
    """Rule of every node line, and "eq" for every merge line."""
    for line in trace:
        if line.startswith("subst"):
            yield "eq"
        else:
            yield line.rsplit("  [", 1)[1].rstrip("]").split()[0]


def test_golden_problems_fire_every_rule():
    rules = {r for _v, _p, trace in GOLDEN.values() for r in rule_names(trace)}
    want = {"and", "at", "down", "Link", "box", "A", "Trans", "or-left", "or-right", "or-unit",
            "or-sat"}
    assert want | {"E", "dia", "eq"} <= rules
    assert sorted(GOLDEN) == sorted(PROBLEMS)


@pytest.mark.parametrize("text", PROBLEMS)
def test_derivation_matches_golden(text):
    verdict, prec, trace = derivation(text)
    want_verdict, want_prec, want_trace = GOLDEN[text]
    assert verdict == want_verdict
    assert trace == want_trace
    assert prec == want_prec


GOLDEN = {
    'trans r; r <= s; s <= r; formula: <s> <s> p & [s] !p;': (
        'unsat',
        [None, None, None, None, None, None, None, None, 6, 6, 6, 6, 6, 9, 9, 9, 9],
        [
            "(0) '_0: <s> <s> p & [s] !p  [init]",
            '(1) trans r  [assert]',
            '(2) r <= s  [assert]',
            '(3) s <= r  [assert]',
            '(4) r <= r  [Rel0]',
            '(5) s <= s  [Rel0]',
            "(6) '_0: <s> <s> p  [and 0]",
            "(7) '_0: [s] !p  [and 0]",
            "(8) '_0: <s> '_b1  [dia 6]",
            "(9) '_b1: <s> p  [dia 6]",
            "(10) '_0: <r> '_b1  [Link 8,3]",
            "(11) '_b1: !p  [box 7,8]",
            "(12) '_b1: [r] !p  [Trans 7,10,1]",
            "(13) '_b1: <s> '_b2  [dia 9]",
            "(14) '_b2: p  [dia 9]",
            "(15) '_b1: <r> '_b2  [Link 13,3]",
            "(16) '_b2: !p  [box 12,15]",
        ],
    ),
    'formula: <r>^2 p & [r]^1 !p;': (
        'unsat',
        [None, None, None, None, None, None, None, None, 4, 4, 4, 4, 4, 4, 7, 7, 7, 7, 7, 4, 7, 4, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13],
        [
            "(0) '_6: down _v1 . <r> (p & down _v2 . @_v1 <r> ((p & !_v2) & down _v3 . @_v1 <r> ((p & !_v2) & !_v3))) & ([r] !p | '_6 & <r> ('_7 & @'_6 [r] (!p | '_7)))  [init]",
            '(1) r <= r  [Rel0]',
            "(2) '_6: down _v1 . <r> (p & down _v2 . @_v1 <r> ((p & !_v2) & down _v3 . @_v1 <r> ((p & !_v2) & !_v3)))  [and 0]",
            "(3) '_6: [r] !p | '_6 & <r> ('_7 & @'_6 [r] (!p | '_7))  [and 0]",
            "(4) '_6: <r> (p & down _v2 . @'_6 <r> ((p & !_v2) & down _v3 . @'_6 <r> ((p & !_v2) & !_v3)))  [down 2]",
            "(5) '_6: '_6 & <r> ('_7 & @'_6 [r] (!p | '_7))  [or-right 3]",
            "(6) '_6: '_6  [and 5]",
            "(7) '_6: <r> ('_7 & @'_6 [r] (!p | '_7))  [and 5]",
            "(8) '_6: <r> '_7  [dia 4]",
            "(9) '_7: p & down _v2 . @'_6 <r> ((p & !_v2) & down _v3 . @'_6 <r> ((p & !_v2) & !_v3))  [dia 4]",
            "(10) '_7: p  [and 9]",
            "(11) '_7: down _v2 . @'_6 <r> ((p & !_v2) & down _v3 . @'_6 <r> ((p & !_v2) & !_v3))  [and 9]",
            "(12) '_7: @'_6 <r> ((p & !'_7) & down _v3 . @'_6 <r> ((p & !'_7) & !_v3))  [down 11]",
            "(13) '_6: <r> ((p & !'_7) & down _v3 . @'_6 <r> ((p & !'_7) & !_v3))  [at 12]",
            "(14) '_6: <r> '_7  [dia 7]",
            "(15) '_7: '_7 & @'_6 [r] (!p | '_7)  [dia 7]",
            "(16) '_7: '_7  [and 15]",
            "(17) '_7: @'_6 [r] (!p | '_7)  [and 15]",
            "(18) '_6: [r] (!p | '_7)  [at 17]",
            "(19) '_7: !p | '_7  [box 18,8]",
            "(20) '_7: !p | '_7  [box 18,14]",
            "(21) '_7: '_7  [or-unit 19,10]",
            "(22) '_6: <r> '_7  [dia 13]",
            "(23) '_7: (p & !'_7) & down _v3 . @'_6 <r> ((p & !'_7) & !_v3)  [dia 13]",
            "(24) '_7: p & !'_7  [and 23]",
            "(25) '_7: down _v3 . @'_6 <r> ((p & !'_7) & !_v3)  [and 23]",
            "(26) '_7: p  [and 24]",
            "(27) '_7: !'_7  [and 24]",
            "(28) '_7: @'_6 <r> ((p & !'_7) & !'_7)  [down 25]",
            "(29) '_6: <r> ((p & !'_7) & !'_7)  [at 28]",
            "(30) '_7: !p | '_7  [box 18,22]",
            "(31) '_7: '_7  [or-unit 30,26]",
            "subst '_0 -> '_6",
            "subst '_b2 -> '_7",
            "subst '_b1 -> '_7",
            "subst '_b3 -> '_7",
        ],
    ),
    'formula: <r>^1 p & [r]^2 !p;': (
        'sat',
        [None, None, None, None, None, None, None, None, 4, 4, 4, 4, 4, 4, 7, 7, 7, 7, 7, 13, 13, 13, 13, 18, 18, 18, 18, 18, 4, 7, 13, 18, 4, 7, 13, 18, 4, 13],
        [
            "(0) '_6: down _v1 . <r> (p & down _v2 . @_v1 <r> (p & !_v2)) & ([r] !p | '_6 & <r> ('_7 & @'_6 <r> ('_8 & @'_6 [r] (!p | '_7 | '_8))))  [init]",
            '(1) r <= r  [Rel0]',
            "(2) '_6: down _v1 . <r> (p & down _v2 . @_v1 <r> (p & !_v2))  [and 0]",
            "(3) '_6: [r] !p | '_6 & <r> ('_7 & @'_6 <r> ('_8 & @'_6 [r] (!p | '_7 | '_8)))  [and 0]",
            "(4) '_6: <r> (p & down _v2 . @'_6 <r> (p & !_v2))  [down 2]",
            "(5) '_6: '_6 & <r> ('_7 & @'_6 <r> ('_8 & @'_6 [r] (!p | '_7 | '_8)))  [or-right 3]",
            "(6) '_6: '_6  [and 5]",
            "(7) '_6: <r> ('_7 & @'_6 <r> ('_8 & @'_6 [r] (!p | '_7 | '_8)))  [and 5]",
            "(8) '_6: <r> '_7  [dia 4]",
            "(9) '_7: p & down _v2 . @'_6 <r> (p & !_v2)  [dia 4]",
            "(10) '_7: p  [and 9]",
            "(11) '_7: down _v2 . @'_6 <r> (p & !_v2)  [and 9]",
            "(12) '_7: @'_6 <r> (p & !'_7)  [down 11]",
            "(13) '_6: <r> (p & !'_7)  [at 12]",
            "(14) '_6: <r> '_7  [dia 7]",
            "(15) '_7: '_7 & @'_6 <r> ('_8 & @'_6 [r] (!p | '_7 | '_8))  [dia 7]",
            "(16) '_7: '_7  [and 15]",
            "(17) '_7: @'_6 <r> ('_8 & @'_6 [r] (!p | '_7 | '_8))  [and 15]",
            "(18) '_6: <r> ('_8 & @'_6 [r] (!p | '_7 | '_8))  [at 17]",
            "(19) '_6: <r> '_8  [dia 13]",
            "(20) '_8: p & !'_7  [dia 13]",
            "(21) '_8: p  [and 20]",
            "(22) '_8: !'_7  [and 20]",
            "(23) '_6: <r> '_8  [dia 18]",
            "(24) '_8: '_8 & @'_6 [r] (!p | '_7 | '_8)  [dia 18]",
            "(25) '_8: '_8  [and 24]",
            "(26) '_8: @'_6 [r] (!p | '_7 | '_8)  [and 24]",
            "(27) '_6: [r] (!p | '_7 | '_8)  [at 26]",
            "(28) '_7: !p | '_7 | '_8  [box 27,8]",
            "(29) '_7: !p | '_7 | '_8  [box 27,14]",
            "(30) '_8: !p | '_7 | '_8  [box 27,19]",
            "(31) '_8: !p | '_7 | '_8  [box 27,23]",
            "(32) '_7: '_7 | '_8  [or-unit 28,10]",
            "(33) '_7: '_7 | '_8  [or-sat 29,16]",
            "(34) '_8: '_7 | '_8  [or-unit 30,21]",
            "(35) '_8: '_7 | '_8  [or-sat 31,25]",
            "(36) '_7: '_7  [or-unit 32,5]",
            "(37) '_8: '_8  [or-unit 34,22]",
            "subst '_0 -> '_6",
            "subst '_b2 -> '_7",
            "subst '_b4 -> '_8",
            "subst '_b1 -> '_7",
            "subst '_b3 -> '_8",
        ],
    ),
    "formula: @'a (p | q) & @'a !p & [A] <E> q;": (
        'sat',
        [None, None, None, None, None, None, None, None, None, None, 7, 7, 8, 8, 11, 11],
        [
            "(0) '_0: @'a (p | q) & @'a !p & [A] <E> q  [init]",
            "(1) '_0: @'a (p | q)  [and 0]",
            "(2) '_0: @'a !p & [A] <E> q  [and 0]",
            "(3) 'a: p | q  [at 1]",
            "(4) '_0: @'a !p  [and 2]",
            "(5) '_0: [A] <E> q  [and 2]",
            "(6) 'a: !p  [at 4]",
            "(7) '_0: <E> q  [A 5,0]",
            "(8) 'a: <E> q  [A 5,0]",
            "(9) 'a: q  [or-unit 3,6]",
            "(10) '_b1: q  [E 7]",
            "(11) '_b1: <E> q  [A 5,10]",
            "(12) '_b2: q  [E 8]",
            "(13) '_b2: <E> q  [A 5,12]",
            "(14) '_b3: q  [E 11]",
            "(15) '_b3: <E> q  [A 5,14]",
        ],
    ),
    'formula: (p | q) & (<r> t | <r> u) & [r] !t;': (
        'sat',
        [None, None, None, None, None, None, None, None, 7, 7, 7],
        [
            "(0) '_0: (p | q) & (<r> t | <r> u) & [r] !t  [init]",
            '(1) r <= r  [Rel0]',
            "(2) '_0: p | q  [and 0]",
            "(3) '_0: (<r> t | <r> u) & [r] !t  [and 0]",
            "(4) '_0: <r> t | <r> u  [and 3]",
            "(5) '_0: [r] !t  [and 3]",
            "(6) '_0: p  [or-left 2]",
            "(7) '_0: <r> u  [or-right 4]",
            "(8) '_0: <r> '_b1  [dia 7]",
            "(9) '_b1: u  [dia 7]",
            "(10) '_b1: !t  [box 5,8]",
        ],
    ),
}
