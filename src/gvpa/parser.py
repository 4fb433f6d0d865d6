"""Concrete syntax for specifications and process expressions.

File layout (UTF-8, `//` line comments):

    domain { v1, v2, ... }
    vars { x, y, ... }              optional when no variables are used
    acts { a, b, ... }
    comm { a|b -> c; ... }          optional
    proc NAME = EXPR                one per equation
    init [encap({a,...})] EXPR [with { x = v1, ... }]

Expressions: `LABEL . EXPR`, `delta`, `EXPR + EXPR`, `EXPR || EXPR`,
`encap({...}) EXPR`, `NAME`, `(x = v) -> EXPR`, `( EXPR )`. Prefix,
conditions and encap bind tighter than `||`, which binds tighter than `+`.
"""
from __future__ import annotations

import re
from functools import reduce

from . import syntax
from .errors import SpecSyntaxError
from .syntax import (
    Action, Assign, Choice, Cond, DomainDef, Deadlock, Encap, InitSpec, Name,
    Parallel, Prefix, ProcessExpr, Record, RecursiveSpec, CommFunction, Valuation,
    RESERVED_WORDS, comm_names,
)


class Token(Record):
    kind: str
    text: str
    line: int
    col: int


# two-character operators before the one-character operators they start with
_PUNCT = {
    "||": "BARBAR", "&&": "AMPAMP", "->": "ARROW", ":=": "COLONEQ",
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", "<": "LT", ">": "GT", ",": "COMMA",
    ";": "SEMI", ".": "DOT", "+": "PLUS", "=": "EQUALS", "|": "BAR",
    "!": "BANG", "*": "STAR",
}
# what an error expects in place of a punctuation kind
_SPELLING = {kind: repr(text) for text, kind in _PUNCT.items()}
# One alternative per group, tried in order. `\w` and `\s` are the str
# predicates `isalnum() or == "_"` and `isspace()`, so a name is a run of
# Unicode letters, digits and underscores.
_WORD, _SPACE, _OP, _NEWLINE, _COMMENT, _OTHER = range(1, 7)
_TOKEN = re.compile(
    r"(\w+)|([^\S\n]+)|(" + "|".join(map(re.escape, _PUNCT)) + r")|(\n)|(//[^\n]*)|(.)",
    re.DOTALL)


def tokenize(text: str, lines: bool = False) -> list[Token]:
    """The tokens of ``text``, ending in one EOF token; with ``lines``, an
    EOF token ends every line. Columns count characters from 1; a comment
    that ends a line counts no column."""
    tokens = []
    append = tokens.append
    line, start, end = 1, 0, None
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == _WORD:
            append(Token("WORD", m[0], line, m.start() - start + 1))
        elif group == _OP:
            append(Token(_PUNCT[m[0]], m[0], line, m.start() - start + 1))
        elif group == _NEWLINE:
            if lines:
                stop = m.start() if end is None else end
                append(Token("EOF", "", line, stop - start + 1))
            line += 1
            start = m.end()
            end = None
        elif group == _COMMENT:
            end = m.start()
        elif group == _OTHER:
            raise SpecSyntaxError(f"unexpected character {m[0]!r}",
                                  line, m.start() - start + 1)
    append(Token("EOF", "", line, (len(text) if end is None else end) - start + 1))
    return tokens


class TokenStream:
    """The tokens of a text, and the productions that specs, formulas and
    valuations share."""

    def __init__(self, tokens: list[Token]):
        # so that `peek(2)` at the end of input needs no bounds check
        self._tokens = tokens + tokens[-1:] * 2
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` (at most 2) tokens past the next one."""
        return self._tokens[self._pos + ahead]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def unexpected(self, what: str) -> SpecSyntaxError:
        """The error for the next token where ``what`` was expected."""
        tok = self.peek()
        return SpecSyntaxError(
            f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
            tok.line, tok.col, expected=(what,),
        )

    def expect(self, kind: str, what: str | None = None) -> Token:
        """The next token, which must be of ``kind``; an error names
        ``what``, by default the spelling of a punctuation kind."""
        if self.peek().kind != kind:
            raise self.unexpected(what or _SPELLING[kind])
        return self.next()

    def at_word(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "WORD" and tok.text == text

    def eat_word(self, text: str) -> Token:
        if not self.at_word(text):
            raise self.unexpected(repr(text))
        return self.next()

    def separated(self, item, sep: str = "COMMA") -> list:
        """Parses ``item (sep item)*``."""
        items = [item()]
        while self.peek().kind == sep:
            self.next()
            items.append(item())
        return items

    def chain(self, kind: str, operand, build):
        """Parses ``operand (kind operand)*``, grouped to the left by
        ``build(left, right)``."""
        return reduce(build, self.separated(operand, kind))

    def braced(self, item, sep: str = "COMMA") -> list:
        """Parses ``{ item sep item sep ... }``, possibly empty."""
        self.expect("LBRACE")
        items = self.separated(item, sep) if self.peek().kind != "RBRACE" else []
        self.expect("RBRACE", f"{_SPELLING[sep]} or '}}'")
        return items

    def var_value(self, sep: str, variables, values) -> tuple[Token, Token]:
        """Parses `variable <sep> value`, both declared: the production of
        tests, assignments, valuation entries and `set`."""
        var = self.expect("WORD", "variable name")
        if var.text not in variables:
            raise SpecSyntaxError(f"unknown variable {var.text}", var.line, var.col)
        self.expect(sep)
        value = self.expect("WORD", "domain value")
        if value.text not in values:
            raise SpecSyntaxError(f"unknown value {value.text}", value.line, value.col)
        return var, value

    def _pair(self, sep: str, variables, values) -> tuple[str, str]:
        self.expect("LPAREN")
        var, value = self.var_value(sep, variables, values)
        self.expect("RPAREN")
        return var.text, value.text

    def assign_args(self, variables, values) -> Assign:
        """Parses the `( variable , value )` after `assign`."""
        return Assign(*self._pair("COMMA", variables, values))

    def test(self, variables, values) -> tuple[str, str] | None:
        """Parses a `( variable = value )` test, the condition of an
        expression and the check of a formula, if one is next."""
        if (self.peek().kind == "LPAREN" and self.peek(1).kind == "WORD"
                and self.peek(2).kind == "EQUALS"):
            return self._pair("EQUALS", variables, values)
        return None

    def valuation(self, variables, values, braced: bool = True) -> Valuation:
        """Parses `variable = value` entries separated by `,`, each variable
        exactly once: in braces after `with` (the init valuation), or bare up
        to the end of the text (`--valuation`). The variables missing are
        reported at the closing brace or at the end of the text."""
        entries: dict[str, str] = {}

        def entry():
            var, value = self.var_value("EQUALS", variables, values)
            if var.text in entries:
                raise SpecSyntaxError(
                    f"variable {var.text} assigned twice", var.line, var.col)
            entries[var.text] = value.text

        if braced:
            self.braced(entry)
            return _complete(variables, entries, "init valuation",
                             self._tokens[self._pos - 1])  # the closing brace
        self.separated(entry)
        end = self.expect("EOF", "',' or end of valuation")
        return _complete(variables, entries, "valuation", end)


def _once(seen: set, key, tok: Token, twice: str) -> None:
    """Adds ``key`` to ``seen``; a key seen before is the error ``twice``
    at ``tok``, its second occurrence."""
    if key in seen:
        raise SpecSyntaxError(twice, tok.line, tok.col)
    seen.add(key)


def _declared_name(ts: TokenStream, what: str) -> Token:
    tok = ts.expect("WORD", what)
    if tok.text in RESERVED_WORDS:
        raise SpecSyntaxError(
            f"{tok.text!r} is a reserved word and cannot be used as a {what}",
            tok.line, tok.col,
        )
    return tok


def _declarations(ts: TokenStream, what: str, noun: str) -> list[str]:
    """A braced list of names declared as ``what``, each at most once."""
    seen: set[str] = set()

    def name() -> str:
        tok = _declared_name(ts, what)
        _once(seen, tok.text, tok, f"{noun} {tok.text} is declared twice")
        return tok.text

    return ts.braced(name)


class _ExprParser:
    """Expression grammar against a set of declared names."""

    def __init__(self, ts: TokenStream, variables, values, actions):
        self.ts = ts
        self.variables = set(variables)
        self.values = set(values)
        self.actions = set(actions)
        self.name_uses: list[Token] = []

    def parse(self) -> ProcessExpr:
        return self.ts.chain("PLUS", self._parallel, Choice)

    def _parallel(self) -> ProcessExpr:
        return self.ts.chain("BARBAR", self._tight, Parallel)

    def _tight(self) -> ProcessExpr:
        tok = self.ts.peek()
        if tok.kind == "WORD":
            if tok.text == "delta":
                self.ts.next()
                return Deadlock()
            if tok.text == "encap":
                return Encap(self._encap_set(), self._tight())
            if tok.text == "assign" and self.ts.peek(1).kind == "LPAREN":
                self.ts.next()
                label = self.ts.assign_args(self.variables, self.values)
                self.ts.expect("DOT")
                return Prefix(label, self._tight())
            if tok.text in RESERVED_WORDS:
                raise SpecSyntaxError(
                    f"found reserved word {tok.text!r}", tok.line, tok.col,
                    expected=("process expression",),
                )
            self.ts.next()
            if self.ts.peek().kind == "DOT":
                if tok.text not in self.actions:
                    raise SpecSyntaxError(
                        f"unknown action {tok.text}", tok.line, tok.col)
                self.ts.next()
                return Prefix(Action(tok.text), self._tight())
            self.name_uses.append(tok)
            return Name(tok.text)
        if tok.kind == "LPAREN":
            test = self.ts.test(self.variables, self.values)
            if test is not None:
                self.ts.expect("ARROW")
                return Cond(*test, self._tight())
            self.ts.next()
            expr = self.parse()
            self.ts.expect("RPAREN")
            return expr
        raise self.ts.unexpected("process expression")

    def _blocked(self) -> str:
        tok = self.ts.expect("WORD", "action name")
        if tok.text not in self.actions:
            raise SpecSyntaxError(
                f"encap blocks unknown action {tok.text}", tok.line, tok.col)
        return tok.text

    def _encap_set(self) -> frozenset[str]:
        self.ts.eat_word("encap")
        self.ts.expect("LPAREN")
        names = frozenset(self.ts.braced(self._blocked))
        self.ts.expect("RPAREN")
        return names


def parse_spec(text: str) -> tuple[RecursiveSpec, InitSpec]:
    """Parses and validates a full specification file."""
    ts = TokenStream(tokenize(text))

    ts.eat_word("domain")
    values = _declarations(ts, "domain value", "domain value")
    domain = DomainDef(tuple(values))

    variables: list[str] = []
    if ts.at_word("vars"):
        ts.next()
        variables = _declarations(ts, "variable name", "variable")

    ts.eat_word("acts")
    actions = _declarations(ts, "action name", "action")

    pairs: set[frozenset[str]] = set()

    def comm_entry() -> tuple[frozenset[str], str]:
        a = ts.expect("WORD", "action name")
        ts.expect("BAR")
        b = ts.expect("WORD", "action name")
        ts.expect("ARROW")
        c = ts.expect("WORD", "action name")
        pair = frozenset((a.text, b.text))
        _once(pairs, pair, a, f"duplicate comm entry for {'|'.join(comm_names(pair))}")
        return pair, c.text

    comm_entries = []
    if ts.at_word("comm"):
        ts.next()
        comm_entries = ts.braced(comm_entry, "SEMI")
    comm = CommFunction(tuple(comm_entries))

    parser = _ExprParser(ts, variables, values, actions)
    equations: list[tuple[str, ProcessExpr]] = []
    defined: set[str] = set()
    while ts.at_word("proc"):
        ts.next()
        name = _declared_name(ts, "process name")
        _once(defined, name.text, name, f"duplicate equation for {name.text}")
        ts.expect("EQUALS")
        equations.append((name.text, parser.parse()))

    ts.eat_word("init")
    blocked = None
    if ts.at_word("encap"):
        blocked = parser._encap_set()
    root = parser.parse()
    if blocked is not None:
        root = Encap(blocked, root)

    if ts.at_word("with"):
        ts.next()
        valuation = ts.valuation(variables, values)
        ts.expect("EOF", "end of file")
    else:
        valuation = _complete(variables, {}, "init valuation",
                              ts.expect("EOF", "end of file"))

    for tok in parser.name_uses:
        if tok.text not in defined:
            raise SpecSyntaxError(
                f"unknown process name {tok.text}", tok.line, tok.col)

    spec = RecursiveSpec(
        domain=domain,
        variables=tuple(variables),
        actions=tuple(actions),
        equations=tuple(equations),
        comm=comm,
    )
    init = InitSpec(root=root, valuation=valuation)
    syntax.require_valid(spec, init)
    return spec, init


def _complete(variables, assignment: dict[str, str], what: str, at: Token) -> Valuation:
    """The valuation ``assignment`` gives, if it gives every variable; one
    error at ``at`` names all the variables it misses."""
    missing = [v for v in variables if v not in assignment]
    if missing:
        noun = "variables" if len(missing) > 1 else "variable"
        raise SpecSyntaxError(f"{what} misses {noun} {', '.join(missing)}",
                              at.line, at.col)
    return Valuation.make(variables, assignment)


def parse_valuation(text: str, spec: RecursiveSpec) -> Valuation:
    """Parses the entries of a `with` block without its braces, such as
    `x = a, y = b`, into a valuation of every variable of ``spec``."""
    return TokenStream(tokenize(text)).valuation(
        spec.variables, spec.domain.values, braced=False)


def parse_expr(text: str, spec: RecursiveSpec) -> ProcessExpr:
    """Parses a single process expression in the context of a spec."""
    ts = TokenStream(tokenize(text))
    parser = _ExprParser(
        ts, spec.variables, spec.domain.values, spec.actions)
    expr = parser.parse()
    ts.expect("EOF", "end of expression")
    for tok in parser.name_uses:
        if not spec.has_equation(tok.text):
            raise SpecSyntaxError(
                f"unknown process name {tok.text}", tok.line, tok.col)
    return expr
