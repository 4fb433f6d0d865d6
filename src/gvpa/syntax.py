"""Term language of the process algebra with global variables.

Process expressions, transition labels, valuations, recursive
specifications, the communication function, and the well-formedness
checks everything downstream relies on. All values are immutable. Terms
of all three term languages (process expressions, HML formulas, mCRL2
terms) are interned through `Term`, so equal terms are one object. An
exploration names a state by the key of its frame vector and valuation
code (`sos._Stepper`) and builds its term only when it is read. The
other values with named fields, in every module, are `Record`s.
"""
from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable, Mapping

from .errors import ResourceLimitError, SpecValidationError

#: Names that the concrete syntax reserves; they cannot be declared.
RESERVED_WORDS = frozenset(
    {"domain", "vars", "acts", "comm", "proc", "init", "with",
     "delta", "encap", "assign", "set", "true", "false"}
)


# ---------------------------------------------------------------------------
# Terms and records


class _TermMeta(type):
    """Turns the annotated fields of a class into its slots and keeps a
    trailing field's class-level value as its default. In a record, an
    annotated name that starts with an underscore is a cache slot rather
    than a field: it is no argument, takes no part in equality, hashing or
    the repr, and starts as None."""

    def __new__(mcs, name, bases, namespace, **kwargs):
        own = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in own if f in namespace}
        base = bases[0] if bases else object
        namespace["__slots__"] = own
        namespace["_fields"] = getattr(base, "_fields", ()) + tuple(
            f for f in own if not f.startswith("_"))
        namespace["_caches"] = getattr(base, "_caches", ()) + tuple(
            f for f in own if f.startswith("_"))
        namespace["_defaults"] = {**getattr(base, "_defaults", {}), **defaults}
        return super().__new__(mcs, name, bases, namespace, **kwargs)


class _Node(metaclass=_TermMeta):
    """What terms and records share: immutable fields, the dataclass repr,
    and pickling through the constructor."""

    def __post_init__(self):
        pass

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """All field values, from positions, keywords and defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                            f"argument {next(iter(kwargs))!r}")
        return tuple(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class Term(_Node):
    """A hash-consed term node (maximal sharing, as in van den Brand et
    al., "Efficient annotated terms", SPE 2000).

    A class lists its fields as annotations, like a dataclass. Building a
    node looks the tuple of its field values up in the class's table and
    returns the node already made for them, so equal terms are one object:
    equality is identity and the hash is the id, both O(1), and a node
    lives, with its id, for the life of the process. Nodes are immutable;
    ``__post_init__`` checks the fields of a node before it is stored.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        node = cls._table.get(args)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            node.__post_init__()
            cls._table[args] = node
        return node


class Record(_Node):
    """A value with named fields, declared like a term but not interned:
    the stand-in for a dataclass, whose module this package does not import.

    Records of one class are equal when their fields are. A record is
    immutable and hashes as the tuple of its fields. ``__post_init__``
    runs after the fields are set, and it and the methods may fill cache
    slots with ``object.__setattr__``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._clears = tuple(getattr(cls, name).__set__ for name in cls._caches)
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        for clear in self._clears:
            clear(self, None)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))


# ---------------------------------------------------------------------------
# Transition labels


class Action(Term):
    name: str


class Assign(Term):
    var: str
    value: str


TransitionLabel = Action | Assign


def label_str(label: TransitionLabel) -> str:
    """Canonical rendering, also used verbatim in .aut output."""
    if isinstance(label, Action):
        return label.name
    return f"assign({label.var},{label.value})"


# ---------------------------------------------------------------------------
# Process expressions


class ProcessExpr(Term):
    """Base class; concrete nodes below mirror the grammar."""


class Prefix(ProcessExpr):
    label: TransitionLabel
    body: ProcessExpr


class Deadlock(ProcessExpr):
    pass


class Choice(ProcessExpr):
    left: ProcessExpr
    right: ProcessExpr


class Parallel(ProcessExpr):
    left: ProcessExpr
    right: ProcessExpr


class Encap(ProcessExpr):
    blocked: frozenset[str]
    body: ProcessExpr


class Name(ProcessExpr):
    name: str


class Cond(ProcessExpr):
    var: str
    value: str
    body: ProcessExpr


DELTA = Deadlock()


# ---------------------------------------------------------------------------
# Printing by precedence


def render(node, rules: Mapping[type, tuple], need: int = 0) -> str:
    """The text of a term under a precedence table.

    ``rules`` maps each node class to ``(level, children, show)``:
    ``children`` pairs each child field, at most two, with the level the
    child needs, and ``show(node, *child_texts)`` returns the node's text
    from the texts of its children. A node whose level is below ``need`` is
    put in parentheses. The walk keeps its own stack, so the nesting depth
    of a term costs no Python frames.
    """
    texts: list[str] = []
    # (node, need, rule): a node to expand; a rule marks one whose children
    # are rendered and sit on top of ``texts``
    todo = [(node, need, None)]
    while todo:
        node, need, rule = todo.pop()
        if rule is None:
            rule = rules.get(node.__class__)
            if rule is None:
                raise TypeError(f"no rule to render {node!r}")
            children = rule[1]
            if children:
                todo.append((node, need, rule))
                for field, child_need in reversed(children):
                    todo.append((getattr(node, field), child_need, None))
                continue
            text = rule[2](node)
        # one call per arity: calling `show` with star-args nearly doubled
        # the time per level on deep chains (CPython 3.11)
        elif len(rule[1]) == 1:
            text = rule[2](node, texts.pop())
        else:
            right = texts.pop()
            text = rule[2](node, texts.pop(), right)
        texts.append(f"({text})" if rule[0] < need else text)
    return texts[0]


# Levels: choice is loosest, prefix-like operators are tightest.
_CHOICE, _PAR, _TIGHT = 0, 1, 2

_EXPR_RULES = {
    Deadlock: (_TIGHT, (), lambda e: "delta"),
    Name: (_TIGHT, (), lambda e: e.name),
    Prefix: (_TIGHT, (("body", _TIGHT),),
             lambda e, body: f"{label_str(e.label)}.{body}"),
    Cond: (_TIGHT, (("body", _TIGHT),),
           lambda e, body: f"({e.var} = {e.value}) -> {body}"),
    Encap: (_TIGHT, (("body", _TIGHT),),
            lambda e, body: f"encap({{{', '.join(sorted(e.blocked))}}}) {body}"),
    Parallel: (_PAR, (("left", _PAR), ("right", _TIGHT)),
               lambda e, left, right: f"{left} || {right}"),
    Choice: (_CHOICE, (("left", _CHOICE), ("right", _PAR)),
             lambda e, left, right: f"{left} + {right}"),
}


def expr_str(expr: ProcessExpr) -> str:
    """Pretty-print so that reparsing yields a structurally identical AST."""
    return render(expr, _EXPR_RULES)


# ---------------------------------------------------------------------------
# Domain, valuations


def _declared_twice(what: str, names) -> list[str]:
    """One problem for each name that ``names`` holds more than once."""
    return [f"{what} {name} is declared twice"
            for name, n in Counter(names).items() if n > 1]


class DomainDef(Record):
    """The finite data domain D; declaration order is the iteration order."""

    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise SpecValidationError(["domain must not be empty"])
        problems = _declared_twice("domain value", self.values)
        if problems:
            raise SpecValidationError(problems)

    def index(self, value: str) -> int:
        return self.values.index(value)

    def __contains__(self, value: str) -> bool:
        return value in self.values


class Valuation(Record):
    """Total map from the spec's variables to domain values.

    Entries are kept in variable declaration order so that equal
    valuations compare and hash equal.
    """

    entries: tuple[tuple[str, str], ...]

    @staticmethod
    def make(variables: Iterable[str], mapping: Mapping[str, str]) -> "Valuation":
        return Valuation(tuple((v, mapping[v]) for v in variables))

    def value_of(self, var: str) -> str:
        for v, d in self.entries:
            if v == var:
                return d
        raise KeyError(var)

    def as_dict(self) -> dict[str, str]:
        return dict(self.entries)

    def __str__(self) -> str:
        return ",".join(f"{v}={d}" for v, d in self.entries) or "{}"


class ValuationCodes:
    """The valuations of one spec, coded as mixed-radix integers.

    Digit i of a code is the domain index of the value of variable i, the
    first variable being the most significant digit, so the codes count
    the valuations in `enumerate_valuations` order. A test ``(x = d)``
    reads one digit of a code and ``assign(x, d)`` rewrites one; both are
    given as the ``(weight, digit)`` pair of `test`. Each code has one
    canonical `Valuation`, made on first use and shared by every state
    that holds it.
    """

    __slots__ = ("variables", "base", "count", "_weight", "_digit", "_pairs",
                 "_canonical")

    def __init__(self, variables: tuple[str, ...], values: tuple[str, ...]):
        n = len(variables)
        self.variables = variables
        self.base = len(values)
        self.count = self.base ** n
        self._weight = {var: self.base ** (n - 1 - i) for i, var in enumerate(variables)}
        self._digit = {value: j for j, value in enumerate(values)}
        # the (variable, value) entries, shared by all canonical valuations
        self._pairs = tuple(tuple((var, value) for value in values) for var in variables)
        self._canonical: dict[int, Valuation] = {}

    def test(self, var: str, value: str) -> tuple[int, int]:
        """``(weight, digit)``: ``code // weight % base == digit`` holds
        exactly at the codes that map ``var`` to ``value``."""
        return self._weight[var], self._digit[value]

    def code(self, valuation: Valuation) -> int:
        """The code of a valuation of the variables in declaration order."""
        if tuple(var for var, _ in valuation.entries) != self.variables:
            raise ValueError(f"valuation {valuation} does not list the variables "
                             f"{', '.join(self.variables)} in order")
        code = 0
        for _, value in valuation.entries:
            code = code * self.base + self._digit[value]
        return code

    def valuation(self, code: int) -> Valuation:
        """The canonical valuation of a code."""
        found = self._canonical.get(code)
        if found is None:
            entries = []
            rest = code
            for pairs in reversed(self._pairs):
                rest, digit = divmod(rest, self.base)
                entries.append(pairs[digit])
            found = self._canonical[code] = Valuation(tuple(reversed(entries)))
        return found


# ---------------------------------------------------------------------------
# Communication function


def comm_names(key: frozenset[str]) -> tuple[str, str]:
    """The sorted names of a comm entry's key; a one-name key, an action's
    handshake with itself, names it twice."""
    names = sorted(key)
    return names[0], names[-1]


class CommFunction(Record):
    """ACP-style handshake communication: unordered action pair -> action."""

    entries: tuple[tuple[frozenset[str], str], ...] = ()
    _index: dict
    _parties: frozenset

    def __post_init__(self):
        # both orders of each pair, so a lookup builds no set
        index = {}
        for key, result in self.entries:
            a, b = comm_names(key)
            if (a, b) in index:
                raise SpecValidationError([f"duplicate comm entry for {a}|{b}"])
            index[a, b] = index[b, a] = result
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parties", frozenset(name for key, _ in self.entries
                                                       for name in key))

    def lookup(self, a: str, b: str) -> str | None:
        return self._index.get((a, b))

    def parties(self) -> frozenset[str]:
        """The actions that some entry pairs: the only ones that can
        handshake."""
        return self._parties

    def is_empty(self) -> bool:
        return not self.entries


def validate_comm(comm: CommFunction, actions: Iterable[str]) -> list[str]:
    """Handshake and membership checks; returns a list of violations."""
    acts = set(actions)
    problems = []
    results = {result for _, result in comm.entries}
    for key, result in comm.entries:
        shown = "|".join(comm_names(key)) + " -> " + result
        for name in key:
            if name not in acts:
                problems.append(f"comm entry {shown}: {name} is not a declared action")
        if result not in acts:
            problems.append(f"comm entry {shown}: result {result} is not a declared action")
        overlap = key & results
        for name in sorted(overlap):
            problems.append(
                f"comm entry {shown}: {name} is itself a communication result "
                "(handshake violation)"
            )
    return problems


# ---------------------------------------------------------------------------
# Recursive specifications


class RecursiveSpec(Record):
    """A full specification: domain, variables, actions, equations, gamma."""

    domain: DomainDef
    variables: tuple[str, ...]
    actions: tuple[str, ...]
    equations: tuple[tuple[str, ProcessExpr], ...]
    comm: CommFunction = CommFunction()
    _eqmap: dict
    _codes: ValuationCodes | None

    def __post_init__(self):
        eqmap = {}
        for name, body in self.equations:
            if name in eqmap:
                raise SpecValidationError([f"duplicate equation for {name}"])
            eqmap[name] = body
        object.__setattr__(self, "_eqmap", eqmap)

    @property
    def process_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.equations)

    def equation(self, name: str) -> ProcessExpr:
        return self._eqmap[name]

    def has_equation(self, name: str) -> bool:
        return name in self._eqmap

    @property
    def codes(self) -> ValuationCodes:
        """The valuation codes of this spec, made on first use."""
        if self._codes is None:
            object.__setattr__(self, "_codes",
                               ValuationCodes(self.variables, self.domain.values))
        return self._codes


class InitSpec(Record):
    root: ProcessExpr
    valuation: Valuation


# ---------------------------------------------------------------------------
# Validators


def _walk_names(expr: ProcessExpr, guarded: bool, path: str, out: list):
    if isinstance(expr, Name):
        if not guarded:
            out.append((expr.name, path))
    elif isinstance(expr, Prefix):
        _walk_names(expr.body, True, path + "/body", out)
    elif isinstance(expr, (Cond, Encap)):
        _walk_names(expr.body, guarded, path + "/body", out)
    elif isinstance(expr, Choice):
        _walk_names(expr.left, guarded, path + "/left", out)
        _walk_names(expr.right, guarded, path + "/right", out)
    elif isinstance(expr, Parallel):
        _walk_names(expr.left, guarded, path + "/left", out)
        _walk_names(expr.right, guarded, path + "/right", out)


def validate_guardedness(spec: RecursiveSpec) -> list[str]:
    """Every process-name occurrence in every equation body must sit under
    an action prefix. Returns one entry per unguarded occurrence."""
    problems = []
    for name, body in spec.equations:
        found: list = []
        _walk_names(body, False, name, found)
        for used, path in found:
            problems.append(f"unguarded occurrence of {used} at {path}")
    return problems


def _check_expr_names(spec: RecursiveSpec, expr: ProcessExpr, where: str,
                      problems: list[str]):
    if isinstance(expr, Name):
        if not spec.has_equation(expr.name):
            problems.append(f"{where}: unknown process name {expr.name}")
    elif isinstance(expr, Prefix):
        label = expr.label
        if isinstance(label, Action):
            if label.name not in spec.actions:
                problems.append(f"{where}: unknown action {label.name}")
        else:
            if label.var not in spec.variables:
                problems.append(f"{where}: unknown variable {label.var}")
            if label.value not in spec.domain:
                problems.append(f"{where}: unknown value {label.value}")
        _check_expr_names(spec, expr.body, where, problems)
    elif isinstance(expr, Cond):
        if expr.var not in spec.variables:
            problems.append(f"{where}: unknown variable {expr.var}")
        if expr.value not in spec.domain:
            problems.append(f"{where}: unknown value {expr.value}")
        _check_expr_names(spec, expr.body, where, problems)
    elif isinstance(expr, Encap):
        for name in sorted(expr.blocked):
            if name not in spec.actions:
                problems.append(f"{where}: encap blocks unknown action {name}")
        _check_expr_names(spec, expr.body, where, problems)
    elif isinstance(expr, (Choice, Parallel)):
        _check_expr_names(spec, expr.left, where, problems)
        _check_expr_names(spec, expr.right, where, problems)


def validate_spec(spec: RecursiveSpec, init: InitSpec | None = None) -> list[str]:
    """Name resolution, comm checks and guardedness for a whole spec."""
    problems = _declared_twice("variable", spec.variables)
    problems += _declared_twice("action", spec.actions)
    for name in spec.variables:
        if name in spec.actions:
            problems.append(f"{name} is declared both as variable and action")
    problems.extend(validate_comm(spec.comm, spec.actions))
    for name, body in spec.equations:
        _check_expr_names(spec, body, f"proc {name}", problems)
    problems.extend(validate_guardedness(spec))
    if init is not None:
        _check_expr_names(spec, init.root, "init", problems)
        given = init.valuation.as_dict()
        for var in spec.variables:
            if var not in given:
                problems.append(f"init valuation misses variable {var}")
        for var, value in init.valuation.entries:
            if var not in spec.variables:
                problems.append(f"init valuation sets unknown variable {var}")
            elif value not in spec.domain:
                problems.append(f"init valuation: unknown value {value}")
    return problems


def require_valid(spec: RecursiveSpec, init: InitSpec | None = None):
    problems = validate_spec(spec, init)
    if problems:
        raise SpecValidationError(problems)


# ---------------------------------------------------------------------------
# Valuation enumeration


def enumerate_valuations(spec: RecursiveSpec, cap: int = 4096) -> tuple[Valuation, ...]:
    """All total valuations, lexicographic in (variable order, domain order),
    which is the order of their codes; the valuations are the canonical ones.
    More than ``cap`` of them raise `ResourceLimitError`."""
    codes = spec.codes
    if codes.count > cap:
        raise ResourceLimitError(
            f"valuation space has {codes.count} elements, exceeding the cap of {cap}",
            limit=cap,
            reached=codes.count,
        )
    return tuple(codes.valuation(code) for code in range(codes.count))
