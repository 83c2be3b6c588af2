"""Concrete text syntax for problems: parsing and pretty-printing.

Grammar (precedence ! > & > |, prefix operators bind tighter than
binary ones, & and | associate to the right, parentheses are free):

    formula  : "true" | "false" | prop | 'nominal | var
             | "!" F | F "&" F | F "|" F
             | "<R>" F | "[R]" F | "<R>^" n F | "[R]^" n F
             | "<E>" F | "[A]" F
             | "@" (nominal | var) F
             | "down" var "." F

    problem  : assertion* "formula:" F ";"
    assertion: "trans" r ";" | r "<=" s ";" | r "-" "<=" s ";"

A bare identifier is a state variable when an enclosing ``down`` binds
it, a proposition otherwise.  "#" starts a line comment.  Identifiers
starting with "_" are reserved for internally generated names and are
rejected on input.
"""

from __future__ import annotations

import re

from .formulas import (
    A,
    And,
    At,
    Bot,
    Box,
    Diamond,
    Down,
    E,
    Formula,
    Incl,
    Neg,
    Nom,
    Or,
    Prop,
    Top,
    Trans,
    Var,
    bwd,
    fwd,
    rel_syms,
)


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class Problem:
    """Assertions and a formula; `declared_rels` also holds every
    relation symbol that they use."""

    def __init__(self, assertions: list, formula: Formula, declared_rels=()):
        self.assertions = assertions
        self.formula = formula
        used = set(rel_syms(formula))
        for a in assertions:
            if isinstance(a, Trans):
                used.add(a.sym)
            elif isinstance(a, Incl):
                used.add(a.left.sym)
                used.add(a.right)
        self.declared_rels = set(declared_rels) | used


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+)
  | (?P<nom>'[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|[()<>\[\]@!&|.;^-]|:)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text):
    """(kind, text, line, column) of each token, then an "eof" token.
    Only whitespace holds newlines, so the line only moves there.
    """
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            nl = m.group().count("\n")
            if nl:
                line += nl
                line_start = m.start() + m.group().rfind("\n") + 1
        elif kind == "bad":
            col = m.start() - line_start + 1
            raise ParseError("unexpected character %r" % m.group(), line, col)
        else:
            tokens.append((kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg):
        _, val, line, col = self.peek()
        raise ParseError(msg + (" (at %r)" % val if val else " (at end of input)"), line, col)

    def expect(self, val):
        kind, got, line, col = self.next()
        if got != val:
            raise ParseError("expected %r, got %r" % (val, got), line, col)

    def ident(self, what="identifier"):
        kind, val, line, col = self.next()
        if kind != "ident":
            raise ParseError("expected %s, got %r" % (what, val), line, col)
        if val.startswith("_"):
            raise ParseError("reserved identifier %r (underscore prefix)" % val, line, col)
        return val

    # -- problem ------------------------------------------------------------

    def problem(self):
        assertions = []
        while True:
            kind, val, line, col = self.peek()
            if val == "formula" or kind == "eof":
                break
            assertions.append(self.assertion())
        self.expect("formula")
        self.expect(":")
        f = self.formula(frozenset())
        self.expect(";")
        kind, val, line, col = self.peek()
        if kind != "eof":
            raise ParseError("trailing input after formula", line, col)
        return Problem(assertions, f)

    def assertion(self):
        kind, val, line, col = self.peek()
        if val == "trans":
            self.next()
            sym = self.ident("relation symbol")
            self.expect(";")
            return Trans(sym)
        left_sym = self.ident("relation symbol")
        if self.peek()[1] == "-":
            self.next()
            left = bwd(left_sym)
        else:
            left = fwd(left_sym)
        self.expect("<=")
        right = self.ident("relation symbol")
        self.expect(";")
        return Incl(left, right)

    # -- formulas -----------------------------------------------------------

    def formula(self, bound):
        left = self.and_level(bound)
        if self.peek()[1] == "|":
            self.next()
            return Or(left, self.formula(bound))
        return left

    def and_level(self, bound):
        left = self.prefix(bound)
        if self.peek()[1] == "&":
            self.next()
            return And(left, self.and_level(bound))
        return left

    def prefix(self, bound):
        kind, val, line, col = self.peek()
        if val == "!":
            self.next()
            return Neg(self.prefix(bound))
        if val in ("<", "["):
            # <r>, <r>^n and <E>, or [r], [r]^n and [A]
            close, glob, glob_op, op = (">", "E", E, Diamond) if val == "<" else ("]", "A", A, Box)
            self.next()
            sym = self.ident("relation symbol")
            if sym == glob:
                self.expect(close)
                return glob_op(self.prefix(bound))
            rel = self.relation(sym)
            self.expect(close)
            grade = self.maybe_grade()
            return op(rel, self.prefix(bound), grade)
        if val == "@":
            self.next()
            kind2, val2, line2, col2 = self.peek()
            if kind2 == "nom":
                self.next()
                name = val2[1:]
                if name.startswith("_"):
                    raise ParseError("reserved identifier %r" % val2, line2, col2)
                return At(Nom(name), self.prefix(bound))
            name = self.ident("nominal or bound variable")
            if name not in bound:
                raise ParseError("unbound variable %r after @" % name, line2, col2)
            return At(Var(name), self.prefix(bound))
        if val == "down":
            self.next()
            var = self.ident("variable")
            self.expect(".")
            return Down(var, self.prefix(bound | {var}))
        if val == "(":
            self.next()
            f = self.formula(bound)
            self.expect(")")
            return f
        if val == "true":
            self.next()
            return Top()
        if val == "false":
            self.next()
            return Bot()
        if kind == "nom":
            self.next()
            name = val[1:]
            if name.startswith("_"):
                raise ParseError("reserved identifier %r" % val, line, col)
            return Nom(name)
        if kind == "ident" and val not in ("formula", "trans"):
            name = self.ident()
            return Var(name) if name in bound else Prop(name)
        self.error("expected a formula")

    def relation(self, sym):
        if self.peek()[1] == "-":
            self.next()
            return bwd(sym)
        return fwd(sym)

    def maybe_grade(self):
        if self.peek()[1] == "^":
            self.next()
            kind, val, line, col = self.next()
            if kind != "num":
                raise ParseError("grade must be a nonnegative integer", line, col)
            return int(val)
        return None


def parse(text: str) -> Problem:
    """Parse a problem file (assertions followed by one formula)."""
    return _Parser(text).problem()


def parse_formula(text: str) -> Formula:
    """Parse a bare formula (no assertions, no trailing semicolon)."""
    p = _Parser(text)
    f = p.formula(frozenset())
    kind, val, line, col = p.peek()
    if kind != "eof":
        raise ParseError("trailing input after formula", line, col)
    return f


# ---------------------------------------------------------------------------
# Pretty-printing

_OR, _AND, _PREFIX = 0, 1, 2


def print_formula(f: Formula) -> str:
    return _pf(f, _OR)


def _pf(f, level):
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Nom):
        return "'" + f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Or):
        s = "%s | %s" % (_pf(f.left, _AND), _pf(f.right, _OR))
        return "(%s)" % s if level > _OR else s
    if isinstance(f, And):
        s = "%s & %s" % (_pf(f.left, _PREFIX), _pf(f.right, _AND))
        return "(%s)" % s if level > _AND else s
    if isinstance(f, Neg):
        return "!" + _pf(f.sub, _PREFIX)
    if isinstance(f, (Diamond, Box)):
        fmt = "<%s>%s %s" if isinstance(f, Diamond) else "[%s]%s %s"
        return fmt % (f.rel, "" if f.grade is None else "^%d" % f.grade, _pf(f.sub, _PREFIX))
    if isinstance(f, E):
        return "<E> " + _pf(f.sub, _PREFIX)
    if isinstance(f, A):
        return "[A] " + _pf(f.sub, _PREFIX)
    if isinstance(f, At):
        u = "'" + f.at.name if isinstance(f.at, Nom) else f.at.name
        return "@%s %s" % (u, _pf(f.sub, _PREFIX))
    if isinstance(f, Down):
        return "down %s . %s" % (f.var, _pf(f.sub, _PREFIX))
    raise TypeError(f)


def print_problem(p: Problem) -> str:
    lines = [str(a) + ";" for a in p.assertions]
    lines.append("formula: %s;" % print_formula(p.formula))
    return "\n".join(lines) + "\n"
