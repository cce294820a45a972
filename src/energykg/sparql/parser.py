"""Parser for the SELECT query subset.

Covers: BASE/PREFIX, SELECT with an explicit variable list, FROM and
FROM NAMED, basic graph patterns with ';' ',' lists and 'a', sequence
property paths, GRAPH blocks, FILTER with &&, '=' and year/month/day,
comments and LIMIT. Anything else that is recognizably SPARQL raises
UnsupportedFeatureError naming the keyword.

Lexing is one pass over the matches of one compiled regular expression,
one match per token, and runs over the whole text before parsing starts,
so a lexical error anywhere is reported before a grammar error earlier
in the text. A token is a ``(kind, value, start)`` tuple; its line and
column are computed from the offset ``start`` only when an error is
raised. A character at which no token can start matches the ``error``
branch, and ``_lex_error`` then works out what is wrong there.
"""

from __future__ import annotations

import re
from typing import Optional

from ..errors import EnergyKgError
from ..namespaces import RDF_TYPE
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

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# A string's characters up to its closing quote, or up to what stops it
# from closing: a newline, a dangling or unknown escape, or the end.
_STRING = r'[^"\\\n]*(?:\\[tnr"\\\'][^"\\\n]*)*'

# One match per token, after the whitespace and comments before it. The
# outer named group that matched is the token's kind; a punctuation
# token's text is its kind. The last two branches match anywhere, so every
# character of the text belongs to some token and the skip is never
# backtracked into.
_TOKENS = re.compile(
    rf"""(?:[ \t\r\n]|\#[^\n]*)*
    (?:(?P<iriref><[^>]*>)
    |(?P<var>[?$]{_NAME})
    |(?P<string>"{_STRING}")
    |(?P<pname>(?:{_NAME})?:(?:[A-Za-z0-9_.:\-]*[A-Za-z0-9_:\-])?)
    |(?P<name>{_NAME})
    |(?P<number>[0-9]+(?:\.[0-9]+)?)
    |(?P<punct>&&|\^\^|[{{}}().;,/=*])
    |(?P<eof>\Z)
    |(?P<error>[\s\S]))""",
    re.VERBOSE,
).finditer
_STRING_PREFIX = re.compile(_STRING).match
_ESCAPE = re.compile(r"\\(.)").sub
_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\", "'": "'"}

# A token: kind, value and the offset at which it starts.
_Tok = tuple[str, str, int]


def _position(text: str, start: int) -> tuple[int, int]:
    """The line and column of the offset start."""
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _tokenize(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    for match in _TOKENS(text):
        kind = match.lastgroup
        value = match.group(kind)
        start = match.start(kind)
        if kind == "iriref":
            value = value[1:-1]
        elif kind == "var":
            value = value[1:]
        elif kind == "string":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE(lambda escape: _ESCAPES[escape.group(1)], value)
        elif kind == "punct":
            kind = value
        elif kind == "error":
            raise _lex_error(text, start)
        tokens.append((kind, value, start))
        if kind == "eof":
            break
    return tokens


def _lex_error(text: str, start: int) -> QueryParseError:
    """The error of the text at start, where no token can start."""
    c = text[start]
    if c == "<":
        message = "unterminated IRI reference"
    elif c in "?$":
        message = "missing variable name"
    elif c == '"':
        end = _STRING_PREFIX(text, start + 1).end()
        if end == len(text):
            message = "unterminated string"
        elif text[end] == "\n":
            message = "newline in string"
        elif end + 1 == len(text):
            message = "dangling escape in string"
        else:
            message = f"unknown escape \\{text[end + 1]}"
    elif text.startswith("||", start):
        return UnsupportedFeatureError("||", *_position(text, start))
    else:
        message = f"unexpected character {c!r}"
    return QueryParseError(message, *_position(text, start))


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.base: Optional[Iri] = None
        self.prefixes = PrefixMap()

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def take(self) -> _Tok:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str) -> bool:
        """Take the next token if it is of kind."""
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        """Take the next token if it is the keyword word, in any case."""
        if self._keyword(self.tokens[self.pos]) == word:
            self.pos += 1
            return True
        return False

    def error(self, message: str, token: _Tok) -> QueryParseError:
        return QueryParseError(message, *_position(self.text, token[2]))

    def unsupported(self, keyword: str, token: _Tok) -> UnsupportedFeatureError:
        return UnsupportedFeatureError(keyword, *_position(self.text, token[2]))

    def expect(self, kind: str) -> _Tok:
        token = self.take()
        if token[0] != kind:
            raise self.error(f"expected {kind!r}, found {token[1] or token[0]!r}", token)
        return token

    def _keyword(self, token: _Tok) -> Optional[str]:
        kind, value, _ = token
        return value.upper() if kind == "name" else None

    def _check_unsupported(self, token: _Tok) -> None:
        word = self._keyword(token)
        if word in _UNSUPPORTED:
            raise self.unsupported(word, token)

    # -- IRI handling --------------------------------------------------------

    def _resolve_iriref(self, token: _Tok) -> Iri:
        try:
            if self.base is not None:
                return resolve_iri(self.base, token[1])
            return Iri(token[1])
        except EnergyKgError as exc:
            raise self.error(str(exc), token)

    def _expand_pname(self, token: _Tok) -> Iri:
        label, local = token[1].split(":", 1)
        try:
            return self.prefixes.expand(label, local)
        except EnergyKgError as exc:
            raise self.error(str(exc), token)

    def _iri(self) -> Iri:
        token = self.take()
        if token[0] == "iriref":
            return self._resolve_iriref(token)
        if token[0] == "pname":
            return self._expand_pname(token)
        raise self.error(f"expected IRI, found {token[1]!r}", token)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> SelectQuery:
        self._check_nesting()
        self._prologue()
        token = self.peek()
        if not self.accept_keyword("SELECT"):
            self._check_unsupported(token)
            raise self.error("expected SELECT", token)
        projected = self._projection()
        dataset_clauses = self._dataset_clauses()
        self.accept_keyword("WHERE")
        pattern = self._group()
        if _depth(pattern) > MAX_DEPTH:
            raise QueryParseError(f"query nested deeper than {MAX_DEPTH} levels", 1, 1)
        limit = self._limit()
        tail = self.peek()
        if tail[0] != "eof":
            self._check_unsupported(tail)
            raise self.error(f"unexpected trailing token {tail[1]!r}", tail)

        in_scope = pattern_variables(pattern)
        for token in projected:
            if token[1] not in in_scope:
                raise self.error(
                    f"projected variable ?{token[1]} does not appear in the pattern", token
                )
        return SelectQuery(
            projection=tuple(Variable(token[1]) for token in projected),
            pattern=pattern,
            base=self.base,
            prefixes=self.prefixes,
            dataset_clauses=dataset_clauses,
            limit=limit,
        )

    def _check_nesting(self) -> None:
        depth = 0
        for token in self.tokens:
            if token[0] in ("{", "("):
                depth += 1
                if depth > MAX_DEPTH:
                    raise self.error(f"query nested deeper than {MAX_DEPTH} levels", token)
            elif token[0] in ("}", ")"):
                depth -= 1

    def _prologue(self) -> None:
        while True:
            if self.accept_keyword("BASE"):
                self.base = self._resolve_iriref(self.expect("iriref"))
            elif self.accept_keyword("PREFIX"):
                pname = self.expect("pname")
                label = pname[1].split(":", 1)[0]
                if pname[1] != label + ":":
                    raise self.error("PREFIX takes a bare label", pname)
                iri_token = self.expect("iriref")
                try:
                    self.prefixes.bind(label, self._resolve_iriref(iri_token))
                except EnergyKgError as exc:
                    raise self.error(str(exc), iri_token)
            else:
                return

    def _projection(self) -> list[_Tok]:
        """The SELECT list's variable tokens."""
        token = self.peek()
        if token[0] == "*":
            raise self.unsupported("SELECT *", token)
        self._check_unsupported(token)
        variables = []
        while self.peek()[0] == "var":
            variables.append(self.take())
        if not variables:
            raise self.error("SELECT needs at least one variable", self.peek())
        return variables

    def _dataset_clauses(self) -> tuple[DatasetClause, ...]:
        clauses = []
        while self.accept_keyword("FROM"):
            named = self.accept_keyword("NAMED")
            clauses.append(DatasetClause(named, self._iri()))
        return tuple(clauses)

    def _limit(self) -> Optional[int]:
        if self.accept_keyword("LIMIT"):
            token = self.expect("number")
            if "." in token[1]:
                raise self.error("LIMIT takes an integer", token)
            return int(token[1])
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

        while not self.accept("}"):
            token = self.peek()
            if token[0] == "eof":
                raise self.error("unterminated group (missing '}')", token)
            if self.accept_keyword("GRAPH"):
                name_token = self.peek()
                if name_token[0] == "var":
                    raise self.unsupported("GRAPH with variable", name_token)
                name = self._iri()
                flush()
                elements.append(Graph(name, self._group()))
            elif self.accept_keyword("FILTER"):
                self.expect("(")
                filters.append(self._expression())
                self.expect(")")
            elif token[0] == "{":
                flush()
                elements.append(self._group())
            elif not self.accept("."):
                self._check_unsupported(token)
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
                if not self.accept(","):
                    break
            if not self.accept(";"):
                break
            while self.accept(";"):
                pass
            if self.peek()[0] in (".", "}"):
                break
        return out

    def _verb(self):
        token = self.peek()
        if token[0] == "var":
            self.take()
            return Variable(token[1])
        return self._path()

    def _path(self):
        path = self._path_segment()
        while self.accept("/"):
            path = SequencePath(path, self._path_segment())
        return path

    def _path_segment(self) -> Iri:
        token = self.peek()
        if token[:2] == ("name", "a"):
            self.take()
            return RDF_TYPE
        self._check_unsupported(token)
        return self._iri()

    def _term(self, token: _Tok, allow_literal: bool) -> Optional[PatternTerm]:
        """The variable, IRI or (if allowed) literal that the taken token
        starts, taking a literal's "^^" and datatype; None for any other token."""
        kind, value, _ = token
        if kind == "var":
            return Variable(value)
        if kind == "iriref":
            return self._resolve_iriref(token)
        if kind == "pname":
            return self._expand_pname(token)
        if not allow_literal:
            return None
        if kind == "string":
            return Literal(value, self._iri() if self.accept("^^") else XSD_STRING)
        if kind == "number":
            return Literal(value, XSD_DECIMAL if "." in value else XSD_INTEGER)
        if kind == "name" and value in ("true", "false"):
            return Literal(value, XSD_BOOLEAN)
        return None

    def _pattern_term(self, allow_literal: bool) -> PatternTerm:
        token = self.take()
        term = self._term(token, allow_literal)
        if term is None:
            self._check_unsupported(token)
            raise self.error(f"unexpected term {token[1]!r}", token)
        return term

    # -- expressions ---------------------------------------------------------

    def _expression(self) -> Expression:
        left = self._equality()
        while self.accept("&&"):
            left = And(left, self._equality())
        return left

    def _equality(self) -> Expression:
        left = self._primary()
        if self.accept("="):
            return Equals(left, self._primary())
        return left

    def _primary(self) -> Expression:
        token = self.take()
        if token[0] == "(":
            inner = self._expression()
            self.expect(")")
            return inner
        term = self._term(token, allow_literal=True)
        if term is not None:
            return term if isinstance(term, Variable) else Constant(term)
        word = self._keyword(token)
        if word in _FUNCTIONS:
            self.expect("(")
            argument = self._expression()
            self.expect(")")
            return DateFunc(word.lower(), argument)
        self._check_unsupported(token)
        raise self.error(f"unexpected token {token[1]!r} in expression", token)


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
