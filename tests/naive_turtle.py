"""Reference Turtle parser and serializer, the oracles for ``energykg.turtle``.

The parser is the character-at-a-time lexer and list-of-tokens parser
that ``energykg.turtle`` used before its regex lexer, kept verbatim. It
lexes the whole document before parsing, so a lexical error anywhere wins
over a parse error earlier in the text; the production parser must report
the same triples, prefix map and error text for every document.

The serializer is the one ``energykg.turtle`` used before it rendered
each term once and streamed its output, kept verbatim but for taking
the canonical order by sorting the texts itself: it renders every term
occurrence again and compacts each IRI by trying every bound prefix.
The production writer must produce the same bytes for every graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional

from energykg.dataset import Dataset
from energykg.errors import EnergyKgError
from energykg.namespaces import RDF_TYPE
from energykg.terms import (
    BlankNode,
    GraphName,
    Iri,
    Literal,
    PrefixMap,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    resolve_iri,
)
from energykg.turtle import TurtleParseError


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


_PN_PREFIX = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
_LOCAL_CHARS = re.compile(r"[A-Za-z0-9_.:\-]*")
_NUMBER = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_BNODE_LABEL = re.compile(r"[A-Za-z0-9_]+")
_HEX = re.compile(r"[0-9A-Fa-f]+")

_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


class _Lexer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str) -> TurtleParseError:
        return TurtleParseError(message, self.line, self.column)

    def _advance(self, count: int) -> None:
        chunk = self.text[self.pos : self.pos + count]
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.column = count - chunk.rindex("\n")
        else:
            self.column += count
        self.pos += count

    def tokens(self) -> list[_Token]:
        out: list[_Token] = []
        while True:
            token = self._next()
            out.append(token)
            if token.kind == "eof":
                return out

    def _next(self) -> _Token:
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c in " \t\r\n":
                self._advance(1)
            elif c == "#":
                end = text.find("\n", self.pos)
                self._advance((end - self.pos) if end != -1 else len(text) - self.pos)
            else:
                break
        if self.pos >= len(text):
            return _Token("eof", "", self.line, self.column)

        line, column = self.line, self.column
        c = text[self.pos]

        if c == "<":
            end = text.find(">", self.pos)
            if end == -1:
                raise self.error("unterminated IRI reference")
            value = text[self.pos + 1 : end]
            self._advance(end + 1 - self.pos)
            return _Token("iriref", value, line, column)

        if c == '"':
            return self._string(line, column)

        if c == "_" and text.startswith("_:", self.pos):
            match = _BNODE_LABEL.match(text, self.pos + 2)
            if not match:
                raise self.error("missing blank node label")
            self._advance(match.end() - self.pos)
            return _Token("bnode", match.group(), line, column)

        if text.startswith("^^", self.pos):
            self._advance(2)
            return _Token("^^", "^^", line, column)

        if c in ".;,":
            # A dot may belong to a decimal; bare punctuation only here.
            self._advance(1)
            return _Token(c, c, line, column)

        if text.startswith("@prefix", self.pos) or text.startswith("@base", self.pos):
            end = self.pos + (7 if text.startswith("@prefix", self.pos) else 5)
            value = text[self.pos : end]
            self._advance(end - self.pos)
            return _Token("directive", value, line, column)

        if c.isdigit() or (c in "+-" and _NUMBER.match(text, self.pos)):
            match = _NUMBER.match(text, self.pos)
            assert match is not None
            value = match.group()
            # Do not swallow a statement-terminating dot: "1." is "1" "."
            if value.endswith("."):
                value = value[:-1]
            self._advance(len(value))
            return _Token("number", value, line, column)

        if c == ":" or _PN_PREFIX.match(c):
            prefix_match = _PN_PREFIX.match(text, self.pos)
            prefix = prefix_match.group() if prefix_match else ""
            after = self.pos + len(prefix)
            if after < len(text) and text[after] == ":":
                local_match = _LOCAL_CHARS.match(text, after + 1)
                local = local_match.group() if local_match else ""
                while local.endswith("."):
                    local = local[:-1]
                self._advance(after + 1 + len(local) - self.pos)
                return _Token("pname", f"{prefix}:{local}", line, column)
            if prefix in ("a", "true", "false"):
                self._advance(len(prefix))
                return _Token("word", prefix, line, column)
            if prefix:
                raise self.error(f"unexpected token {prefix!r}")

        raise self.error(f"unexpected character {c!r}")

    def _string(self, line: int, column: int) -> _Token:
        text = self.text
        i = self.pos + 1
        out: list[str] = []
        while i < len(text):
            c = text[i]
            if c == '"':
                self._advance(i + 1 - self.pos)
                return _Token("string", "".join(out), line, column)
            if c == "\n":
                raise self.error("newline in string literal")
            if c == "\\":
                if i + 1 >= len(text):
                    raise self.error("dangling escape in string literal")
                esc = text[i + 1]
                if esc in _STRING_ESCAPES:
                    out.append(_STRING_ESCAPES[esc])
                    i += 2
                    continue
                if esc == "u" or esc == "U":
                    width = 4 if esc == "u" else 8
                    hexdigits = text[i + 2 : i + 2 + width]
                    if len(hexdigits) != width:
                        raise self.error("truncated unicode escape")
                    if not _HEX.fullmatch(hexdigits):
                        raise self.error(f"invalid unicode escape \\{esc}{hexdigits}")
                    try:
                        out.append(chr(int(hexdigits, 16)))
                    except ValueError:
                        raise self.error(f"invalid unicode escape \\{esc}{hexdigits}")
                    i += 2 + width
                    continue
                raise self.error(f"unknown escape sequence \\{esc}")
            out.append(c)
            i += 1
        raise self.error("unterminated string literal")


class _Parser:
    def __init__(self, tokens: list[_Token], base: Optional[Iri]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.prefixes = PrefixMap(base=base)
        self.triples: list[tuple[Term, Iri, Term]] = []
        self._bnodes: dict[str, BlankNode] = {}

    def error(self, message: str, token: _Token) -> TurtleParseError:
        return TurtleParseError(message, token.line, token.column)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.take()
        if token.kind != kind:
            raise self.error(f"expected {kind!r}, found {token.value!r}", token)
        return token

    def parse(self) -> None:
        while self.peek().kind != "eof":
            if self.peek().kind == "directive":
                self._directive()
            else:
                self._triples_block()
                self.expect(".")

    def _directive(self) -> None:
        token = self.take()
        if token.value == "@base":
            iri_token = self.expect("iriref")
            self.prefixes.base = self._resolve(iri_token)
        else:
            pname = self.expect("pname")
            label = pname.value.split(":", 1)[0]
            if pname.value != label + ":":
                raise self.error("prefix directive takes a bare label", pname)
            iri_token = self.expect("iriref")
            self.prefixes.bind(label, self._resolve(iri_token))
        self.expect(".")

    def _resolve(self, token: _Token) -> Iri:
        if self.prefixes.base is None:
            try:
                return Iri(token.value)
            except EnergyKgError as exc:
                raise self.error(str(exc), token)
        try:
            return resolve_iri(self.prefixes.base, token.value)
        except EnergyKgError as exc:
            raise self.error(str(exc), token)

    def _expand_pname(self, token: _Token) -> Iri:
        label, local = token.value.split(":", 1)
        try:
            return self.prefixes.expand(label, local)
        except EnergyKgError as exc:
            raise self.error(str(exc), token)

    def _triples_block(self) -> None:
        subject = self._subject()
        while True:
            predicate = self._predicate()
            while True:
                obj = self._object()
                self.triples.append((subject, predicate, obj))
                if self.peek().kind == ",":
                    self.take()
                    continue
                break
            if self.peek().kind == ";":
                while self.peek().kind == ";":
                    self.take()
                if self.peek().kind == ".":
                    break
                continue
            break

    def _subject(self) -> Term:
        token = self.take()
        if token.kind == "iriref":
            return self._resolve(token)
        if token.kind == "pname":
            return self._expand_pname(token)
        if token.kind == "bnode":
            return self._bnode(token)
        raise self.error(f"invalid subject {token.value!r}", token)

    def _predicate(self) -> Iri:
        token = self.take()
        if token.kind == "word" and token.value == "a":
            return RDF_TYPE
        if token.kind == "iriref":
            return self._resolve(token)
        if token.kind == "pname":
            return self._expand_pname(token)
        raise self.error(f"invalid predicate {token.value!r}", token)

    def _object(self) -> Term:
        token = self.take()
        if token.kind == "iriref":
            return self._resolve(token)
        if token.kind == "pname":
            return self._expand_pname(token)
        if token.kind == "bnode":
            return self._bnode(token)
        if token.kind == "word":
            if token.value in ("true", "false"):
                return Literal(token.value, XSD_BOOLEAN)
            raise self.error(f"invalid object {token.value!r}", token)
        if token.kind == "number":
            if "e" in token.value.lower():
                return Literal(token.value, XSD_DOUBLE)
            if "." in token.value:
                return Literal(token.value, XSD_DECIMAL)
            return Literal(token.value, XSD_INTEGER)
        if token.kind == "string":
            if self.peek().kind == "^^":
                self.take()
                dt_token = self.take()
                if dt_token.kind == "iriref":
                    datatype = self._resolve(dt_token)
                elif dt_token.kind == "pname":
                    datatype = self._expand_pname(dt_token)
                else:
                    raise self.error("expected datatype IRI after ^^", dt_token)
                return Literal(token.value, datatype)
            return Literal(token.value, XSD_STRING)
        raise self.error(f"invalid object {token.value!r}", token)

    def _bnode(self, token: _Token) -> BlankNode:
        # Labels are scoped to the document: each label maps to a fresh
        # node so separately parsed documents never collide.
        label = token.value
        if label not in self._bnodes:
            self._bnodes[label] = BlankNode(f"b{len(self._bnodes)}")
        return self._bnodes[label]


def parse_turtle(
    text: str, base: Optional[Iri] = None
) -> tuple[list[tuple[Term, Iri, Term]], PrefixMap]:
    parser = _Parser(_Lexer(text).tokens(), base)
    parser.parse()
    return parser.triples, parser.prefixes


# -- serialization -----------------------------------------------------------

_SAFE_LOCAL = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_string(text: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in text)


def _compact(iri: Iri, prefixes: PrefixMap) -> str:
    best: Optional[tuple[str, str]] = None
    for label, namespace in prefixes.namespaces().items():
        ns = namespace.value
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if _SAFE_LOCAL.match(local) and (best is None or len(ns) > len(best[1])):
                best = (f"{label}:{local}", ns)
    return best[0] if best else f"<{iri.value}>"


def _render_term(term: Term, prefixes: PrefixMap) -> str:
    if isinstance(term, Iri):
        return _compact(term, prefixes)
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    body = f'"{_escape_string(term.lexical)}"'
    if term.datatype == XSD_STRING:
        return body
    return f"{body}^^{_compact(term.datatype, prefixes)}"


def serialize_turtle(ds: Dataset, graph: GraphName, prefixes: PrefixMap) -> str:
    """Serialize one graph of the dataset as deterministic Turtle."""
    lines: list[str] = []
    if prefixes.base is not None:
        lines.append(f"@base <{prefixes.base.value}> .")
    for label, namespace in prefixes.namespaces().items():
        lines.append(f"@prefix {label}: <{namespace.value}> .")

    # Subjects and objects in canonical (text) order; predicates by IRI.
    texts = ds.texts()
    terms = list(map(ds.term, range(len(texts))))
    triples = ds.triples(None, None, None, graph)
    triples = sorted(triples, key=lambda t: (texts[t[0]], texts[t[2]]))
    for s, subject_triples in groupby(triples, itemgetter(0)):
        lines.append("")
        lines.append(_render_term(terms[s], prefixes))
        by_predicate: dict[str, tuple[Iri, list[Term]]] = {}
        for _, p, o in subject_triples:
            predicate = terms[p]
            by_predicate.setdefault(predicate.value, (predicate, []))[1].append(terms[o])
        predicate_entries = sorted(by_predicate.items())
        for i, (_, (predicate, objects)) in enumerate(predicate_entries):
            verb = "a" if predicate == RDF_TYPE else _render_term(predicate, prefixes)
            rendered = ", ".join(_render_term(o, prefixes) for o in objects)
            terminator = " ." if i == len(predicate_entries) - 1 else " ;"
            lines.append(f"    {verb} {rendered}{terminator}")

    return "\n".join(lines) + "\n"
