import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylotab import corpus, parser
from hylotab.corpus import random_fragment_problem
from hylotab.formulas import (
    And,
    At,
    Box,
    Diamond,
    Down,
    E,
    Incl,
    Neg,
    Nom,
    Or,
    Prop,
    Trans,
    Var,
    bwd,
    fwd,
)
from hylotab.parser import (
    ParseError,
    parse,
    parse_formula,
    print_formula,
    print_problem,
)


def test_precedence():
    f = parse_formula("p & q | r & s")
    assert isinstance(f, Or)
    assert isinstance(f.left, And) and isinstance(f.right, And)


def test_prefix_binds_tighter():
    f = parse_formula("<r> p & q")
    assert f == And(Diamond(fwd("r"), Prop("p")), Prop("q"))
    f = parse_formula("!p | q")
    assert f == Or(Neg(Prop("p")), Prop("q"))


def test_binder_body_is_prefix():
    f = parse_formula("down x . x & p")
    assert f == And(Down("x", Var("x")), Prop("p"))
    f = parse_formula("down x . (x & p)")
    assert f == Down("x", And(Var("x"), Prop("p")))


def test_modalities():
    assert parse_formula("<r-> p") == Diamond(bwd("r"), Prop("p"))
    assert parse_formula("[r]^2 p") == Box(fwd("r"), Prop("p"), grade=2)
    assert parse_formula("<E> p") == E(Prop("p"))
    f = parse_formula("[A] p")
    assert type(f).__name__ == "A"


def test_at_prefix():
    assert parse_formula("@'a p") == At(Nom("a"), Prop("p"))
    f = parse_formula("down x . @x p")
    assert f == Down("x", At(Var("x"), Prop("p")))


def test_unbound_variable_after_at_rejected():
    with pytest.raises(ParseError):
        parse_formula("@x p")


def test_bare_identifier_is_prop_unless_bound():
    assert parse_formula("x") == Prop("x")
    assert parse_formula("down x . x") == Down("x", Var("x"))


def test_reserved_prefix_rejected():
    with pytest.raises(ParseError):
        parse_formula("_p")
    with pytest.raises(ParseError):
        parse_formula("'_a")


def test_problem_with_assertions():
    p = parse("trans r; r <= s; s- <= t; formula: p;")
    assert Trans("r") in p.assertions
    assert Incl(fwd("r"), "s") in p.assertions
    assert Incl(bwd("s"), "t") in p.assertions
    assert p.declared_rels >= {"r", "s", "t"}


def test_comments_and_whitespace():
    p = parse("# a comment\ntrans r;\nformula: p; # trailing")
    assert p.formula == Prop("p")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse("formula: (p;")
    assert exc.value.line == 1


@pytest.mark.parametrize("text, line, col", [
    ("trans r;\n\nformula: p &\n  ;", 4, 3),
    ("# comment\r\nformula:\t<r> ?p;", 2, 14),
    ("r <= s;\n  formula: @x p;", 2, 13),
])
def test_multi_line_parse_error_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("p q")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_round_trip(seed):
    p = random_fragment_problem(seed)
    text = print_problem(p)
    q = parse(text)
    assert q.formula == p.formula
    assert set(q.assertions) == set(p.assertions)


def test_print_parenthesization():
    cases = [
        "(p | q) & r",
        "! (p & q)" .replace(" (", "("),
        "<r> (p | q)",
        "down x . (x | p)",
        "@'a (p & q)",
        "[r]^1 false",
    ]
    for text in cases:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


# The tokenizer as it was before it became one `finditer` pass: a `match`
# loop that counts columns token by token.
_OLD_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+)
  | (?P<nom>'[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|[()<>\[\]@!&|.;^-]|:)
    """,
    re.VERBOSE,
)


def old_tokenize(text):
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            tokens.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def workload_texts(monkeypatch):
    """The problem texts of every benchmark workload, as it generates them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    hy = SimpleNamespace(parser=parser, corpus=corpus)
    texts = {item.text for w in workloads.WORKLOADS.values() for item in w.generate(hy, 0)}
    # random-d8 shifts its problems by the seed mod 5
    texts |= {item.text for seed in range(1, 5) for item in workloads.random_d8(hy, seed)}
    return sorted(texts)


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def test_tokenizer_matches_the_match_loop(monkeypatch):
    texts = workload_texts(monkeypatch)
    assert len(texts) > 1200
    variants = []
    for text in texts:
        variants.append(text.replace("\n", "\r\n"))
        variants.append("# head\n\t" + text.replace(" ", "\n  ", 3) + "  # tail")
        variants.append(text[: len(text) // 2] + "\u00e9?" + text[len(text) // 2:])
    variants += [
        "", "\n", "#", "# only a comment", "\n\n  \t", "p\n\n\n", "formula:\n$", "\tq\r\n\x00",
        "formula: p;\n# end", "r <= s;\n\nformula: <r>^12 'a;", "a\x0bb\x0c\u2028c", "\u00e9",
    ]
    for text in texts + variants:
        assert tokens_or_error(parser._tokenize, text) == tokens_or_error(old_tokenize, text), text
