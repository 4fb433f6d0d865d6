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

from . import syntax
from .errors import SpecSyntaxError, SpecValidationError
from .syntax import (
    Action, Assign, Choice, Cond, DomainDef, Deadlock, Encap, InitSpec, Name,
    Parallel, Prefix, ProcessExpr, Record, RecursiveSpec, CommFunction, Valuation,
    RESERVED_WORDS,
)


class Token(Record):
    kind: str
    text: str
    line: int
    col: int


_PUNCT = [
    ("||", "BARBAR"),
    ("&&", "AMPAMP"),
    ("->", "ARROW"),
    (":=", "COLONEQ"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("[", "LBRACK"),
    ("]", "RBRACK"),
    ("<", "LT"),
    (">", "GT"),
    (",", "COMMA"),
    (";", "SEMI"),
    (".", "DOT"),
    ("+", "PLUS"),
    ("=", "EQUALS"),
    ("|", "BAR"),
    ("!", "BANG"),
    ("*", "STAR"),
]


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if _is_word_char(ch):
            start = i
            while i < n and _is_word_char(text[i]):
                i += 1
            word = text[start:i]
            tokens.append(Token("WORD", word, line, col))
            col += len(word)
            continue
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                tokens.append(Token(kind, lit, line, col))
                i += len(lit)
                col += len(lit)
                break
        else:
            raise SpecSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise SpecSyntaxError(
                f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.line, tok.col,
                expected=(what or kind.lower(),),
            )
        return self.next()

    def at_word(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "WORD" and tok.text == text

    def eat_word(self, text: str) -> Token:
        tok = self.peek()
        if not self.at_word(text):
            raise SpecSyntaxError(
                f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.line, tok.col, expected=(repr(text),),
            )
        return self.next()

    def var_value(self, sep: str, variables, values,
                  what: str | None = None) -> tuple[Token, Token]:
        """Parses `variable <sep> value`, both declared: the production of
        conditions, assignments, `with` entries, checks and `set`."""
        var = self.expect("WORD", "variable name")
        if var.text not in variables:
            raise SpecSyntaxError(f"unknown variable {var.text}", var.line, var.col)
        self.expect(sep, what)
        value = self.expect("WORD", "domain value")
        if value.text not in values:
            raise SpecSyntaxError(f"unknown value {value.text}", value.line, value.col)
        return var, value


def _declared_name(ts: TokenStream, what: str) -> Token:
    tok = ts.expect("WORD", what)
    if tok.text in RESERVED_WORDS:
        raise SpecSyntaxError(
            f"{tok.text!r} is a reserved word and cannot be used as a {what}",
            tok.line, tok.col,
        )
    return tok


def _name_list(ts: TokenStream, what: str) -> list[Token]:
    """Parses `{ a, b, ... }`, possibly empty."""
    ts.expect("LBRACE")
    names = []
    if ts.peek().kind != "RBRACE":
        names.append(_declared_name(ts, what))
        while ts.peek().kind == "COMMA":
            ts.next()
            names.append(_declared_name(ts, what))
    ts.expect("RBRACE")
    return names


class _ExprParser:
    """Expression grammar against a set of declared names."""

    def __init__(self, ts: TokenStream, variables, values, actions):
        self.ts = ts
        self.variables = set(variables)
        self.values = set(values)
        self.actions = set(actions)
        self.name_uses: list[Token] = []

    def parse(self) -> ProcessExpr:
        return self._choice()

    def _choice(self) -> ProcessExpr:
        expr = self._parallel()
        while self.ts.peek().kind == "PLUS":
            self.ts.next()
            expr = Choice(expr, self._parallel())
        return expr

    def _parallel(self) -> ProcessExpr:
        expr = self._tight()
        while self.ts.peek().kind == "BARBAR":
            self.ts.next()
            expr = Parallel(expr, self._tight())
        return expr

    def _tight(self) -> ProcessExpr:
        tok = self.ts.peek()
        if tok.kind == "WORD":
            if tok.text == "delta":
                self.ts.next()
                return Deadlock()
            if tok.text == "encap":
                return self._encap()
            if tok.text == "assign" and self.ts.peek(1).kind == "LPAREN":
                label = self._assign_label()
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
            if (self.ts.peek(1).kind == "WORD"
                    and self.ts.peek(2).kind == "EQUALS"):
                return self._cond()
            self.ts.next()
            expr = self._choice()
            self.ts.expect("RPAREN")
            return expr
        raise SpecSyntaxError(
            f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
            tok.line, tok.col, expected=("process expression",),
        )

    def _cond(self) -> ProcessExpr:
        self.ts.expect("LPAREN")
        var, value = self.ts.var_value("EQUALS", self.variables, self.values)
        self.ts.expect("RPAREN")
        self.ts.expect("ARROW", "'->'")
        return Cond(var.text, value.text, self._tight())

    def _assign_label(self) -> Assign:
        self.ts.eat_word("assign")
        self.ts.expect("LPAREN")
        var, value = self.ts.var_value("COMMA", self.variables, self.values)
        self.ts.expect("RPAREN")
        return Assign(var.text, value.text)

    def _encap_set(self) -> frozenset[str]:
        self.ts.eat_word("encap")
        self.ts.expect("LPAREN")
        self.ts.expect("LBRACE")
        names = set()
        if self.ts.peek().kind != "RBRACE":
            while True:
                tok = self.ts.expect("WORD", "action name")
                if tok.text not in self.actions:
                    raise SpecSyntaxError(
                        f"encap blocks unknown action {tok.text}", tok.line, tok.col)
                names.add(tok.text)
                if self.ts.peek().kind != "COMMA":
                    break
                self.ts.next()
        self.ts.expect("RBRACE")
        self.ts.expect("RPAREN")
        return frozenset(names)

    def _encap(self) -> ProcessExpr:
        blocked = self._encap_set()
        return Encap(blocked, self._tight())


def parse_spec(text: str) -> tuple[RecursiveSpec, InitSpec]:
    """Parses and validates a full specification file."""
    ts = TokenStream(tokenize(text))

    ts.eat_word("domain")
    values = [t.text for t in _name_list(ts, "domain value")]
    domain = DomainDef(tuple(values))

    variables: list[str] = []
    if ts.at_word("vars"):
        ts.next()
        variables = [t.text for t in _name_list(ts, "variable name")]

    ts.eat_word("acts")
    actions = [t.text for t in _name_list(ts, "action name")]

    comm_entries: list[tuple[frozenset[str], str]] = []
    if ts.at_word("comm"):
        ts.next()
        ts.expect("LBRACE")
        while ts.peek().kind != "RBRACE":
            a = ts.expect("WORD", "action name")
            ts.expect("BAR", "'|'")
            b = ts.expect("WORD", "action name")
            ts.expect("ARROW", "'->'")
            c = ts.expect("WORD", "action name")
            comm_entries.append((frozenset((a.text, b.text)), c.text))
            if ts.peek().kind == "SEMI":
                ts.next()
        ts.expect("RBRACE")
    comm = CommFunction(tuple(comm_entries))

    equations: list[tuple[str, ProcessExpr]] = []
    name_uses: list[Token] = []
    while ts.at_word("proc"):
        ts.next()
        name = _declared_name(ts, "process name")
        ts.expect("EQUALS", "'='")
        parser = _ExprParser(ts, variables, values, actions)
        body = parser.parse()
        name_uses.extend(parser.name_uses)
        equations.append((name.text, body))

    ts.eat_word("init")
    parser = _ExprParser(ts, variables, values, actions)
    blocked = None
    if ts.at_word("encap"):
        blocked = parser._encap_set()
    root = parser.parse()
    if blocked is not None:
        root = Encap(blocked, root)
    name_uses.extend(parser.name_uses)

    assignment: dict[str, str] = {}
    if ts.at_word("with"):
        ts.next()
        ts.expect("LBRACE")
        while ts.peek().kind != "RBRACE":
            var, value = ts.var_value("EQUALS", variables, values)
            if var.text in assignment:
                raise SpecSyntaxError(
                    f"variable {var.text} assigned twice", var.line, var.col)
            assignment[var.text] = value.text
            if ts.peek().kind == "COMMA":
                ts.next()
        ts.expect("RBRACE")
    ts.expect("EOF", "end of file")

    missing = [v for v in variables if v not in assignment]
    if missing:
        raise SpecValidationError(
            [f"init valuation misses variable {v}" for v in missing])

    defined = {name for name, _ in equations}
    for tok in name_uses:
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
    init = InitSpec(root=root, valuation=Valuation.make(variables, assignment))
    syntax.require_valid(spec, init)
    return spec, init


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


def render_spec(spec: RecursiveSpec, init: InitSpec | None = None) -> str:
    """Inverse of parse_spec: the text parses back to the same spec and init."""
    lines = [f"domain {{ {', '.join(spec.domain.values)} }}"]
    if spec.variables:
        lines.append(f"vars {{ {', '.join(spec.variables)} }}")
    lines.append(f"acts {{ {', '.join(spec.actions)} }}")
    if not spec.comm.is_empty():
        entries = "; ".join(
            "|".join(sorted(key)) + " -> " + result
            for key, result in spec.comm.entries
        )
        lines.append(f"comm {{ {entries} }}")
    for name, body in spec.equations:
        lines.append(f"proc {name} = {syntax.expr_str(body)}")
    if init is not None:
        with_part = ""
        if init.valuation.entries:
            pairs = ", ".join(f"{v} = {d}" for v, d in init.valuation.entries)
            with_part = f" with {{ {pairs} }}"
        root = syntax.expr_str(init.root)
        if root.startswith("encap") and not isinstance(init.root, Encap):
            root = f"({root})"  # a leading encap would scope over the whole line
        lines.append(f"init {root}{with_part}")
    return "\n".join(lines) + "\n"
