"""Turtle subset serializer and parser.

Supported grammar: @prefix/@base directives, prefixed names (including
the empty prefix), ``a``, ";" and "," lists, typed literals, bare
integer/decimal/boolean shorthand, comments and blank-node labels.
Serialization is deterministic: subjects, predicates and objects are
emitted in canonical order, so equal graphs produce byte-identical text.

Parsing lexes with one compiled regular expression, one token ahead of
the parser. A token keeps only its offset; line and column are computed
from the text when an error is raised. A lexical error anywhere in the
text is reported before a parse error earlier in it. Within a document
each IRI reference and prefixed name is resolved once and its ``Iri`` is
shared by every triple that uses it, until the next directive.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .dataset import Dataset
from .errors import EnergyKgError
from .namespaces import RDF_TYPE
from .terms import (
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


class TurtleParseError(EnergyKgError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


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

    # Subjects and objects in canonical (rank) order; predicates by IRI.
    terms = ds.terms()
    ranks = ds.ranks()
    triples = ds.triples(None, None, None, graph)
    triples = sorted(triples, key=lambda t: (ranks[t[0]], ranks[t[2]]))
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


# -- parsing -----------------------------------------------------------------

# Every token comes from this one alternation. Group 1 skips whitespace and
# comments; the named group that matched is the token's kind. The last two
# branches match anywhere, so a failed branch never backtracks into group 1.
# A string with a backslash matches only ``escaped`` and is decoded by
# ``_Parser._string``.
_TOKEN = re.compile(
    r"""((?:[ \t\r\n]|\#[^\n]*)*)
    (?:<(?P<iriref>[^>]*)>
    |"(?P<string>[^"\\\n]*)"
    |(?P<escaped>")
    |_:(?P<bnode>[A-Za-z0-9_]+)
    |(?P<datatype>\^\^)
    |(?P<dot>\.)|(?P<semicolon>;)|(?P<comma>,)
    |(?P<directive>@prefix|@base)
    |(?P<number>[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
    |(?P<pname>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_.:\-]*[A-Za-z0-9_:\-])?)
    |(?P<word>a|true|false)(?![A-Za-z0-9_\-])
    |(?P<eof>\Z)
    |(?P<error>[\s\S]))""",
    re.VERBOSE,
).match
_PN_PREFIX = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
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


class _Parser:
    """Parses a token stream with one token of lookahead.

    The lookahead is ``kind``, ``value`` and ``start``, the token's offset
    in the text; line and column are derived from it only for an error.
    Lexing resumes at ``end``, the offset just past the lookahead.
    """

    def __init__(self, text: str, base: Optional[Iri]) -> None:
        self.text = text
        self.end = 0
        self.prefixes = PrefixMap(base=base)
        self.triples: list[tuple[Term, Iri, Term]] = []
        self._bnodes: dict[str, BlankNode] = {}
        # Token text -> Iri, so each distinct IRI is checked and allocated
        # once; emptied at every directive, which may change the answer.
        self._iris: dict[str, Iri] = {}
        self._pnames: dict[str, Iri] = {}
        self._advance()

    def error(self, message: str, start: int) -> TurtleParseError:
        text = self.text
        line = text.count("\n", 0, start) + 1
        return TurtleParseError(message, line, start - text.rfind("\n", 0, start))

    # -- lexing --------------------------------------------------------------

    def _advance(self) -> None:
        match = _TOKEN(self.text, self.end)
        kind = match.lastgroup
        start = match.end(1)
        if kind == "escaped":
            value, self.end = self._string(start)
            kind = "string"
        elif kind == "error":
            raise self._lex_error(start)
        else:
            value = match.group(kind)
            self.end = match.end()
        self.kind, self.value, self.start = kind, value, start

    def _lex_error(self, start: int) -> TurtleParseError:
        text = self.text
        if text[start] == "<":
            return self.error("unterminated IRI reference", start)
        if text.startswith("_:", start):
            return self.error("missing blank node label", start)
        word = _PN_PREFIX.match(text, start)
        if word:
            return self.error(f"unexpected token {word.group()!r}", start)
        return self.error(f"unexpected character {text[start]!r}", start)

    def _string(self, start: int) -> tuple[str, int]:
        """Decode the string literal opening at start; return it and its end."""
        text = self.text
        i = start + 1
        out: list[str] = []
        while i < len(text):
            c = text[i]
            if c == '"':
                return "".join(out), i + 1
            if c == "\n":
                raise self.error("newline in string literal", start)
            if c != "\\":
                out.append(c)
                i += 1
                continue
            if i + 1 >= len(text):
                raise self.error("dangling escape in string literal", start)
            esc = text[i + 1]
            if esc in _STRING_ESCAPES:
                out.append(_STRING_ESCAPES[esc])
                i += 2
                continue
            if esc != "u" and esc != "U":
                raise self.error(f"unknown escape sequence \\{esc}", start)
            width = 4 if esc == "u" else 8
            hexdigits = text[i + 2 : i + 2 + width]
            if len(hexdigits) != width:
                raise self.error("truncated unicode escape", start)
            # UCHAR is exactly 4 or 8 ASCII hex digits; int() would also
            # take a sign, underscores and surrounding whitespace.
            if not _HEX.fullmatch(hexdigits):
                raise self.error(f"invalid unicode escape \\{esc}{hexdigits}", start)
            try:
                out.append(chr(int(hexdigits, 16)))
            except (ValueError, OverflowError):
                raise self.error(f"invalid unicode escape \\{esc}{hexdigits}", start)
            i += 2 + width
        raise self.error("unterminated string literal", start)

    def take(self) -> tuple[str, str, int]:
        token = (self.kind, self.value, self.start)
        self._advance()
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.take()
        if token[0] != kind:
            shown = "." if kind == "dot" else kind
            raise self.error(f"expected {shown!r}, found {token[1]!r}", token[2])
        return token

    def drain(self) -> None:
        """Lex to the end of the text, raising its first lexical error."""
        while self.kind != "eof":
            self._advance()

    # -- grammar -------------------------------------------------------------

    def parse(self) -> None:
        while self.kind != "eof":
            if self.kind == "directive":
                self._directive()
            else:
                self._triples_block()
                self.expect("dot")

    def _directive(self) -> None:
        _, directive, _ = self.take()
        if directive == "@base":
            _, ref, start = self.expect("iriref")
            self.prefixes.base = self._resolve(ref, start)
        else:
            _, pname, start = self.expect("pname")
            label = pname.split(":", 1)[0]
            if pname != label + ":":
                raise self.error("prefix directive takes a bare label", start)
            _, ref, ref_start = self.expect("iriref")
            self.prefixes.bind(label, self._resolve(ref, ref_start))
        self._iris.clear()
        self._pnames.clear()
        self.expect("dot")

    def _resolve(self, ref: str, start: int) -> Iri:
        iri = self._iris.get(ref)
        if iri is None:
            base = self.prefixes.base
            try:
                iri = Iri(ref) if base is None else resolve_iri(base, ref)
            except EnergyKgError as exc:
                raise self.error(str(exc), start)
            self._iris[ref] = iri
        return iri

    def _expand_pname(self, pname: str, start: int) -> Iri:
        iri = self._pnames.get(pname)
        if iri is None:
            label, local = pname.split(":", 1)
            try:
                iri = self.prefixes.expand(label, local)
            except EnergyKgError as exc:
                raise self.error(str(exc), start)
            self._pnames[pname] = iri
        return iri

    def _triples_block(self) -> None:
        subject = self._subject()
        while True:
            predicate = self._predicate()
            while True:
                self.triples.append((subject, predicate, self._object()))
                if self.kind != "comma":
                    break
                self._advance()
            if self.kind != "semicolon":
                break
            while self.kind == "semicolon":
                self._advance()
            if self.kind == "dot":
                break

    def _subject(self) -> Term:
        kind, value, start = self.take()
        if kind == "iriref":
            return self._resolve(value, start)
        if kind == "pname":
            return self._expand_pname(value, start)
        if kind == "bnode":
            return self._bnode(value)
        raise self.error(f"invalid subject {value!r}", start)

    def _predicate(self) -> Iri:
        kind, value, start = self.take()
        if kind == "word" and value == "a":
            return RDF_TYPE
        if kind == "iriref":
            return self._resolve(value, start)
        if kind == "pname":
            return self._expand_pname(value, start)
        raise self.error(f"invalid predicate {value!r}", start)

    def _object(self) -> Term:
        kind, value, start = self.take()
        if kind == "string":
            if self.kind != "datatype":
                return Literal(value, XSD_STRING)
            self._advance()
            dt_kind, dt_value, dt_start = self.take()
            if dt_kind == "iriref":
                return Literal(value, self._resolve(dt_value, dt_start))
            if dt_kind == "pname":
                return Literal(value, self._expand_pname(dt_value, dt_start))
            raise self.error("expected datatype IRI after ^^", dt_start)
        if kind == "iriref":
            return self._resolve(value, start)
        if kind == "pname":
            return self._expand_pname(value, start)
        if kind == "bnode":
            return self._bnode(value)
        if kind == "word" and value in ("true", "false"):
            return Literal(value, XSD_BOOLEAN)
        if kind == "number":
            if "e" in value.lower():
                return Literal(value, XSD_DOUBLE)
            if "." in value:
                return Literal(value, XSD_DECIMAL)
            return Literal(value, XSD_INTEGER)
        raise self.error(f"invalid object {value!r}", start)

    def _bnode(self, label: str) -> BlankNode:
        # Labels are scoped to the document: each label maps to a fresh
        # node so separately parsed documents never collide.
        if label not in self._bnodes:
            self._bnodes[label] = BlankNode(f"b{len(self._bnodes)}")
        return self._bnodes[label]


def parse_turtle(
    text: str, base: Optional[Iri] = None
) -> tuple[list[tuple[Term, Iri, Term]], PrefixMap]:
    """Parse Turtle text into triples plus the prefix map it declared."""
    parser = _Parser(text, base)
    try:
        parser.parse()
    except EnergyKgError:
        # A lexical error anywhere in the text takes precedence over a
        # parse error before it, as if the whole text were lexed first.
        parser.drain()
        raise
    return parser.triples, parser.prefixes


def load_turtle(
    ds: Dataset, text: str, graph: GraphName = None, base: Optional[Iri] = None
) -> PrefixMap:
    """Parse text and add its triples to the dataset in the chosen graph."""
    triples, prefixes = parse_turtle(text, base)
    ds.add_triples(triples, graph)
    return prefixes
