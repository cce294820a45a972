"""Parser for the SELECT query subset.

Covers: BASE/PREFIX, SELECT with an explicit variable list, FROM and
FROM NAMED, basic graph patterns with ';' ',' lists and 'a', sequence
property paths, GRAPH blocks, FILTER with &&, '=' and year/month/day,
comments and LIMIT. Anything else that is recognizably SPARQL raises
UnsupportedFeatureError naming the keyword.
"""

from __future__ import annotations

import re
from typing import Optional

from ..errors import EnergyKgError
from ..namespaces import RDF_TYPE
from ..record import Frozen, set_field
from ..terms import (
    Iri,
    Literal,
    PrefixMap,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    resolve_iri,
)
from .ast import (
    And,
    BGP,
    Constant,
    DatasetClause,
    DateFunc,
    Equals,
    Expression,
    Filter,
    Graph,
    GraphPattern,
    Join,
    PatternTerm,
    SelectQuery,
    SequencePath,
    TriplePattern,
    Variable,
    pattern_variables,
)


class QueryParseError(EnergyKgError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedFeatureError(QueryParseError):
    def __init__(self, keyword: str, line: int, column: int) -> None:
        EnergyKgError.__init__(
            self, f"line {line}, column {column}: unsupported SPARQL feature: {keyword}"
        )
        self.keyword = keyword
        self.line = line
        self.column = column


_FUNCTIONS = {"YEAR", "MONTH", "DAY"}

# Deepest bracket nesting and pattern tree a query may have; the parser,
# the AST walkers and the evaluator recurse once or a few times per level.
MAX_DEPTH = 100

# Recognized SPARQL keywords outside the subset; named in error messages.
_UNSUPPORTED = {
    "OPTIONAL", "UNION", "MINUS", "BIND", "VALUES", "SERVICE", "EXISTS",
    "ORDER", "GROUP", "HAVING", "OFFSET", "DISTINCT", "REDUCED", "ASK",
    "CONSTRUCT", "DESCRIBE", "INSERT", "DELETE", "LOAD", "CLEAR", "CREATE",
    "DROP", "WITH", "USING", "AS", "NOT", "IN", "REGEX", "BOUND", "STR",
    "LANG", "DATATYPE", "IRI", "URI", "BNODE", "COUNT", "SUM", "AVG", "MIN",
    "MAX", "SAMPLE", "CONCAT", "ABS", "NOW", "HOURS", "MINUTES", "SECONDS",
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LOCAL_RE = re.compile(r"[A-Za-z0-9_.:\-]*")
_NUMBER_RE = re.compile(r"[0-9]+(\.[0-9]+)?")


class _Token(Frozen):
    _fields = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int) -> None:
        set_field(self, "kind", kind)
        set_field(self, "value", value)
        set_field(self, "line", line)
        set_field(self, "column", column)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, col = 0, 1, 1

    def advance(count: int) -> None:
        nonlocal pos, line, col
        chunk = text[pos : pos + count]
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = count - chunk.rindex("\n")
        else:
            col += count
        pos += count

    def err(message: str) -> QueryParseError:
        return QueryParseError(message, line, col)

    while pos < len(text):
        c = text[pos]
        if c in " \t\r\n":
            advance(1)
            continue
        if c == "#":
            end = text.find("\n", pos)
            advance((end - pos) if end != -1 else len(text) - pos)
            continue
        start_line, start_col = line, col
        if c == "<":
            end = text.find(">", pos)
            if end == -1:
                raise err("unterminated IRI reference")
            value = text[pos + 1 : end]
            advance(end + 1 - pos)
            tokens.append(_Token("iriref", value, start_line, start_col))
            continue
        if c in "?$":
            match = _NAME_RE.match(text, pos + 1)
            if not match:
                raise err("missing variable name")
            advance(1 + len(match.group()))
            tokens.append(_Token("var", match.group(), start_line, start_col))
            continue
        if c == '"':
            end = pos + 1
            out = []
            while end < len(text) and text[end] != '"':
                if text[end] == "\\":
                    if end + 1 >= len(text):
                        raise err("dangling escape in string")
                    escapes = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\", "'": "'"}
                    if text[end + 1] not in escapes:
                        raise err(f"unknown escape \\{text[end + 1]}")
                    out.append(escapes[text[end + 1]])
                    end += 2
                    continue
                if text[end] == "\n":
                    raise err("newline in string")
                out.append(text[end])
                end += 1
            if end >= len(text):
                raise err("unterminated string")
            advance(end + 1 - pos)
            tokens.append(_Token("string", "".join(out), start_line, start_col))
            continue
        if text.startswith("&&", pos):
            advance(2)
            tokens.append(_Token("&&", "&&", start_line, start_col))
            continue
        if text.startswith("^^", pos):
            advance(2)
            tokens.append(_Token("^^", "^^", start_line, start_col))
            continue
        if text.startswith("||", pos):
            raise UnsupportedFeatureError("||", start_line, start_col)
        if c in "{}().;,/=*":
            advance(1)
            tokens.append(_Token(c, c, start_line, start_col))
            continue
        if "0" <= c <= "9":
            match = _NUMBER_RE.match(text, pos)
            assert match is not None
            advance(len(match.group()))
            tokens.append(_Token("number", match.group(), start_line, start_col))
            continue
        if c.isalpha() or c == "_" or c == ":":
            name_match = _NAME_RE.match(text, pos)
            name = name_match.group() if name_match else ""
            after = pos + len(name)
            if after < len(text) and text[after] == ":":
                local_match = _LOCAL_RE.match(text, after + 1)
                local = local_match.group() if local_match else ""
                while local.endswith("."):
                    local = local[:-1]
                advance(after + 1 + len(local) - pos)
                tokens.append(_Token("pname", f"{name}:{local}", start_line, start_col))
                continue
            if name:
                advance(len(name))
                tokens.append(_Token("name", name, start_line, start_col))
                continue
        raise err(f"unexpected character {c!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.base: Optional[Iri] = None
        self.prefixes = PrefixMap()

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, token: _Token) -> QueryParseError:
        return QueryParseError(message, token.line, token.column)

    def expect(self, kind: str) -> _Token:
        token = self.take()
        if token.kind != kind:
            raise self.error(f"expected {kind!r}, found {token.value or token.kind!r}", token)
        return token

    def _keyword(self, token: _Token) -> Optional[str]:
        if token.kind == "name":
            return token.value.upper()
        return None

    def _check_unsupported(self, token: _Token) -> None:
        word = self._keyword(token)
        if word in _UNSUPPORTED:
            raise UnsupportedFeatureError(word, token.line, token.column)

    # -- IRI handling --------------------------------------------------------

    def _resolve_iriref(self, token: _Token) -> Iri:
        try:
            if self.base is not None:
                return resolve_iri(self.base, token.value)
            return Iri(token.value)
        except EnergyKgError as exc:
            raise self.error(str(exc), token)

    def _expand_pname(self, token: _Token) -> Iri:
        label, local = token.value.split(":", 1)
        try:
            return self.prefixes.expand(label, local)
        except EnergyKgError as exc:
            raise self.error(str(exc), token)

    def _iri(self) -> Iri:
        token = self.take()
        if token.kind == "iriref":
            return self._resolve_iriref(token)
        if token.kind == "pname":
            return self._expand_pname(token)
        raise self.error(f"expected IRI, found {token.value!r}", token)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> SelectQuery:
        self._check_nesting()
        self._prologue()
        token = self.peek()
        if self._keyword(token) != "SELECT":
            self._check_unsupported(token)
            raise self.error("expected SELECT", token)
        self.take()
        projection = self._projection()
        dataset_clauses = self._dataset_clauses()
        token = self.peek()
        if self._keyword(token) == "WHERE":
            self.take()
        pattern = self._group()
        if _depth(pattern) > MAX_DEPTH:
            raise QueryParseError(f"query nested deeper than {MAX_DEPTH} levels", 1, 1)
        limit = self._limit()
        tail = self.peek()
        if tail.kind != "eof":
            self._check_unsupported(tail)
            raise self.error(f"unexpected trailing token {tail.value!r}", tail)

        in_scope = pattern_variables(pattern)
        for var in projection:
            if var.name not in in_scope:
                raise QueryParseError(
                    f"projected variable ?{var.name} does not appear in the pattern", 1, 1
                )
        return SelectQuery(
            projection=projection,
            pattern=pattern,
            base=self.base,
            prefixes=self.prefixes,
            dataset_clauses=dataset_clauses,
            limit=limit,
        )

    def _check_nesting(self) -> None:
        depth = 0
        for token in self.tokens:
            if token.kind in ("{", "("):
                depth += 1
                if depth > MAX_DEPTH:
                    raise self.error(f"query nested deeper than {MAX_DEPTH} levels", token)
            elif token.kind in ("}", ")"):
                depth -= 1

    def _prologue(self) -> None:
        while True:
            word = self._keyword(self.peek())
            if word == "BASE":
                self.take()
                token = self.expect("iriref")
                self.base = self._resolve_iriref(token)
            elif word == "PREFIX":
                self.take()
                pname = self.expect("pname")
                label = pname.value.split(":", 1)[0]
                if pname.value != label + ":":
                    raise self.error("PREFIX takes a bare label", pname)
                iri_token = self.expect("iriref")
                try:
                    self.prefixes.bind(label, self._resolve_iriref(iri_token))
                except EnergyKgError as exc:
                    raise self.error(str(exc), iri_token)
            else:
                return

    def _projection(self) -> tuple[Variable, ...]:
        token = self.peek()
        if token.kind == "*":
            raise UnsupportedFeatureError("SELECT *", token.line, token.column)
        self._check_unsupported(token)
        variables = []
        while self.peek().kind == "var":
            variables.append(Variable(self.take().value))
        if not variables:
            raise self.error("SELECT needs at least one variable", self.peek())
        return tuple(variables)

    def _dataset_clauses(self) -> tuple[DatasetClause, ...]:
        clauses = []
        while self._keyword(self.peek()) == "FROM":
            self.take()
            named = False
            if self._keyword(self.peek()) == "NAMED":
                self.take()
                named = True
            clauses.append(DatasetClause(named, self._iri()))
        return tuple(clauses)

    def _limit(self) -> Optional[int]:
        if self._keyword(self.peek()) == "LIMIT":
            self.take()
            token = self.expect("number")
            if "." in token.value:
                raise self.error("LIMIT takes an integer", token)
            return int(token.value)
        return None

    def _group(self) -> GraphPattern:
        self.expect("{")
        elements: list[GraphPattern] = []
        filters: list[Expression] = []
        bgp: list[TriplePattern] = []

        def flush() -> None:
            if bgp:
                elements.append(BGP(tuple(bgp)))
                bgp.clear()

        while True:
            token = self.peek()
            if token.kind == "}":
                self.take()
                break
            if token.kind == "eof":
                raise self.error("unterminated group (missing '}')", token)
            word = self._keyword(token)
            if word == "GRAPH":
                self.take()
                name_token = self.peek()
                if name_token.kind == "var":
                    raise UnsupportedFeatureError(
                        "GRAPH with variable", name_token.line, name_token.column
                    )
                name = self._iri()
                flush()
                elements.append(Graph(name, self._group()))
                continue
            if word == "FILTER":
                self.take()
                self.expect("(")
                filters.append(self._expression())
                self.expect(")")
                continue
            if token.kind == "{":
                flush()
                elements.append(self._group())
                continue
            if token.kind == ".":
                self.take()
                continue
            if word in _UNSUPPORTED:
                raise UnsupportedFeatureError(word, token.line, token.column)
            bgp.extend(self._triples_same_subject())
        flush()

        if not elements:
            pattern: GraphPattern = BGP(())
        else:
            pattern = elements[0]
            for element in elements[1:]:
                pattern = Join(pattern, element)
        for expression in filters:
            pattern = Filter(expression, pattern)
        return pattern

    def _triples_same_subject(self) -> list[TriplePattern]:
        subject = self._pattern_term(allow_literal=False)
        out: list[TriplePattern] = []
        while True:
            predicate = self._verb()
            while True:
                obj = self._pattern_term(allow_literal=True)
                out.append(TriplePattern(subject, predicate, obj))
                if self.peek().kind == ",":
                    self.take()
                    continue
                break
            if self.peek().kind == ";":
                while self.peek().kind == ";":
                    self.take()
                if self.peek().kind in (".", "}"):
                    break
                continue
            break
        return out

    def _verb(self):
        token = self.peek()
        if token.kind == "var":
            self.take()
            return Variable(token.value)
        return self._path()

    def _path(self):
        segments = [self._path_segment()]
        while self.peek().kind == "/":
            self.take()
            segments.append(self._path_segment())
        path = segments[0]
        for segment in segments[1:]:
            path = SequencePath(path, segment)
        return path

    def _path_segment(self) -> Iri:
        token = self.peek()
        if token.kind == "name" and token.value == "a":
            self.take()
            return RDF_TYPE
        self._check_unsupported(token)
        return self._iri()

    def _pattern_term(self, allow_literal: bool) -> PatternTerm:
        token = self.take()
        if token.kind == "var":
            return Variable(token.value)
        if token.kind == "iriref":
            return self._resolve_iriref(token)
        if token.kind == "pname":
            return self._expand_pname(token)
        if allow_literal:
            if token.kind == "string":
                if self.peek().kind == "^^":
                    self.take()
                    return Literal(token.value, self._iri())
                return Literal(token.value, XSD_STRING)
            if token.kind == "number":
                datatype = XSD_DECIMAL if "." in token.value else XSD_INTEGER
                return Literal(token.value, datatype)
            if token.kind == "name" and token.value in ("true", "false"):
                return Literal(token.value, XSD_BOOLEAN)
        self._check_unsupported(token)
        raise self.error(f"unexpected term {token.value!r}", token)

    # -- expressions ---------------------------------------------------------

    def _expression(self) -> Expression:
        left = self._equality()
        while self.peek().kind == "&&":
            self.take()
            left = And(left, self._equality())
        return left

    def _equality(self) -> Expression:
        left = self._primary()
        if self.peek().kind == "=":
            self.take()
            return Equals(left, self._primary())
        return left

    def _primary(self) -> Expression:
        token = self.take()
        if token.kind == "(":
            inner = self._expression()
            self.expect(")")
            return inner
        if token.kind == "var":
            return Variable(token.value)
        if token.kind == "iriref":
            return Constant(self._resolve_iriref(token))
        if token.kind == "pname":
            return Constant(self._expand_pname(token))
        if token.kind == "string":
            if self.peek().kind == "^^":
                self.take()
                return Constant(Literal(token.value, self._iri()))
            return Constant(Literal(token.value, XSD_STRING))
        if token.kind == "number":
            datatype = XSD_DECIMAL if "." in token.value else XSD_INTEGER
            return Constant(Literal(token.value, datatype))
        if token.kind == "name":
            word = token.value.upper()
            if word in _FUNCTIONS:
                self.expect("(")
                argument = self._expression()
                self.expect(")")
                return DateFunc(word.lower(), argument)
            if token.value in ("true", "false"):
                return Constant(Literal(token.value, XSD_BOOLEAN))
            if word in _UNSUPPORTED:
                raise UnsupportedFeatureError(word, token.line, token.column)
        raise self.error(f"unexpected token {token.value!r} in expression", token)


def _depth(root: GraphPattern) -> int:
    """Depth of a pattern tree with its expressions and paths, without recursion."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, BGP):
            children = [tp.predicate for tp in node.patterns]
        elif isinstance(node, (Join, And, Equals, SequencePath)):
            children = [node.left, node.right]
        elif isinstance(node, Filter):
            children = [node.expression, node.pattern]
        elif isinstance(node, Graph):
            children = [node.pattern]
        elif isinstance(node, DateFunc):
            children = [node.argument]
        else:
            continue
        stack.extend((child, depth + 1) for child in children)
    return deepest


def parse_query(text: str) -> SelectQuery:
    """Parse query text into a SelectQuery; errors carry line and column."""
    return _Parser(text).parse()
