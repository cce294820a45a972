"""Turtle subset serializer and parser.

Supported grammar: @prefix/@base directives, prefixed names (including
the empty prefix), ``a``, ";" and "," lists, typed literals, bare
integer/decimal/boolean shorthand, comments and blank-node labels.

Serialization is deterministic: subjects, predicates and objects are
emitted in canonical order, so equal graphs produce byte-identical text.
``write_turtle`` sorts a graph's id triples once, renders each term id's
text once (an IRI compacted against the prefixes, longest namespace
first) and writes one subject block at a time to a text handle;
``serialize_turtle`` is the same writer into a string. It renders each
term where it first appears, the subject before its predicates and
objects, so the renderings fill in the order in which a parse of the
text numbers the terms; it returns that order and the triples in
written order, from which ``snapshot.py`` writes a file's sidecar.

Parsing is one pass over the matches of one compiled regular expression,
in which each RDF term is one token, a typed literal together with its
datatype. Within a document each distinct raw token text is resolved and
validated to the term's canonical text (``<iri>``,
``"lexical"^^<datatype>`` or ``_:label``) and interned to a term id once,
until the next directive; no ``Term`` object is built. Two fast paths
skip the resolving: an IRI reference that one compiled match finds to
have a scheme and no character an IRI forbids is its own canonical text,
and a string without escapes, untyped or under a datatype text already
resolved, is one concatenation. Every other token takes the checking
path, which raises each error at its position. A new text gets the next
id through the dictionary's ``setdefault``, not its ``__missing__``.
The grammar emits ``(s, p, o)`` id triples. ``load_turtle`` interns
straight into a ``Dataset``'s term dictionary and inserts the id triples
once the whole text has parsed, labelling its blank nodes apart from
those the dataset already holds; ``parse_turtle`` runs the same parser
over a dictionary of its own and decodes each id's text to a term once.
Line and column are computed from a token's offset only when an error is
raised. A lexical error anywhere in the text is reported before a
grammar error earlier in it.
"""

from __future__ import annotations

import io
import re
from itertools import groupby
from operator import itemgetter
from typing import Optional, TextIO

from .dataset import Dataset, IdTriple, TermIds
from .errors import EnergyKgError
from .namespaces import RDF_TYPE
from .terms import (
    ABSOLUTE_IRIREF,
    GraphName,
    Iri,
    PrefixError,
    PrefixMap,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    check_iri,
    decode_term,
    literal_parts,
    resolve_reference,
    term_key,
)


class TurtleParseError(EnergyKgError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# -- serialization -----------------------------------------------------------

_SAFE_LOCAL = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")
_LOCAL_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


class _Rendered(dict):
    """Term id to the term's Turtle text, rendered from its canonical text
    on first lookup.

    An IRI is compacted against the namespaces longest first, so the
    first one that leaves a safe local part is the longest such; among
    namespaces of equal length the earlier bound wins.
    """

    def __init__(self, texts: list[str], prefixes: PrefixMap) -> None:
        super().__init__()
        self._texts = texts
        namespaces = [(label, ns.value) for label, ns in prefixes.namespaces().items()]
        self._namespaces = sorted(namespaces, key=lambda entry: -len(entry[1]))

    def __missing__(self, term_id: int) -> str:
        text = self._texts[term_id]
        if text[0] == "<":
            rendered = self._compact(text[1:-1])
        elif text[0] == "_":
            rendered = text
        else:
            lexical, datatype = literal_parts(text)
            rendered = f'"{lexical.translate(_ESCAPES)}"'
            if datatype != XSD_STRING.value:
                rendered = f"{rendered}^^{self._compact(datatype)}"
        self[term_id] = rendered
        return rendered

    def _compact(self, value: str) -> str:
        # A safe local part lies within the IRI's tail of local-name characters.
        tail = len(value.rstrip(_LOCAL_CHARS))
        for label, namespace in self._namespaces:
            if len(namespace) < tail:
                break
            if value.startswith(namespace):
                local = value[len(namespace):]
                if _SAFE_LOCAL.match(local):
                    return f"{label}:{local}"
        return f"<{value}>"


def write_turtle(
    handle: TextIO, ds: Dataset, graph: GraphName, prefixes: PrefixMap
) -> tuple[list[int], list[IdTriple]]:
    """Write one graph of the dataset to a text handle as deterministic
    Turtle, one subject block at a time.

    Subjects and objects come in canonical (rank) order and each
    subject's predicates by IRI. Each term is rendered once.

    Returns the document order: the graph's term ids in order of first
    appearance as subject, predicate, then object, and its id triples in
    the order written. These are the orders in which parsing the text
    numbers the terms and emits the triples.
    """
    head = []
    if prefixes.base is not None:
        head.append(f"@base <{prefixes.base.value}> .\n")
    for label, namespace in prefixes.namespaces().items():
        head.append(f"@prefix {label}: <{namespace.value}> .\n")
    triples = ds.triples(None, None, None, graph)
    if not head and not triples:
        handle.write("\n")
        return [], []
    handle.write("".join(head))

    texts = ds.texts()
    ranks = ds.ranks()
    # By IRI, which is not the order of the "<iri>" texts: "<a>" sorts after "<a!>".
    predicates = sorted({p for _, p, _ in triples}, key=lambda p: texts[p][1:-1])
    order = {p: i for i, p in enumerate(predicates)}
    # By (subject rank, predicate order, object rank), packed into one int.
    width, count = len(order), len(ranks)
    triples = sorted(
        triples, key=lambda t: (ranks[t[0]] * width + order[t[1]]) * count + ranks[t[2]]
    )
    text = _Rendered(texts, prefixes)
    type_id = ds.id_of(RDF_TYPE)
    # Each term is rendered where it first appears, rdf:type too where it
    # is written "a", so the renderings fill in document order.
    for s, subject_triples in groupby(triples, itemgetter(0)):
        subject = text[s]
        verbs = []
        for p, objects in groupby(subject_triples, itemgetter(1)):
            verb = text[p]
            if p == type_id:
                verb = "a"
            verbs.append(f"{verb} " + ", ".join([text[o] for _, _, o in objects]))
        handle.write(f"\n{subject}\n    " + " ;\n    ".join(verbs) + " .\n")
    return list(text), triples


def serialize_turtle(ds: Dataset, graph: GraphName, prefixes: PrefixMap) -> str:
    """One graph of the dataset as deterministic Turtle text."""
    out = io.StringIO()
    write_turtle(out, ds, graph, prefixes)
    return out.getvalue()


# -- parsing -----------------------------------------------------------------

# Whitespace and comments, skipped before every token as one run. A
# comment must run to the end of its line, so the run matches a text in
# only one way: when a typed-literal branch fails after it, there is no
# other split of a line of "#"s to backtrack into.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_IRIREF = r"<[^>]*>"
_PNAME = r"(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_.:\-]*[A-Za-z0-9_:\-])?"

# One match per token: the outer named group that matched is the token's
# kind and its text is the token's raw text. An RDF term is one token; a
# string literal includes the "^^" and datatype that follow it, and keeps
# a "^^" without a datatype IRI after it (no ``datatype`` group), which the
# parser rejects. A string that cannot close matches only ``badstring``,
# and ``_Parser._decode`` reports why. The last two branches match
# anywhere, so every character of the text belongs to some token.
_TOKENS = re.compile(
    rf"""{_SKIP}
    (?:(?P<iriref>{_IRIREF})
    |(?P<pname>{_PNAME})
    |(?P<dot>\.)|(?P<semicolon>;)|(?P<comma>,)
    |(?P<string>"(?P<lexical>[^"\\\n]*(?:\\[^\n][^"\\\n]*)*)"
        (?:{_SKIP}(?P<typed>\^\^){_SKIP}(?P<datatype>{_IRIREF}|{_PNAME})?)?)
    |(?P<badstring>")
    |(?:(?P<a>a)|(?P<boolean>true|false))(?![A-Za-z0-9_\-])
    |(?P<number>[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
    |(?P<bnode>_:[A-Za-z0-9_]+)
    |(?P<directive>@prefix|@base)
    |(?P<carets>\^\^)
    |(?P<eof>\Z)
    |(?P<error>[\s\S]))""",
    re.VERBOSE,
).finditer
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

_SUBJECT_KINDS = frozenset({"iriref", "pname", "bnode"})
_PREDICATE_KINDS = frozenset({"iriref", "pname", "a"})
_OBJECT_KINDS = frozenset({"iriref", "pname", "bnode", "string", "number", "boolean"})

# Parser states: what the next token may be.
_SUBJECT, _PREDICATE, _OBJECT, _AFTER_OBJECT, _AFTER_SEMICOLON = range(5)

_RDF_TYPE_TEXT = term_key(RDF_TYPE)
# What follows a shorthand literal's lexical form in its canonical text.
_TYPED = {
    datatype: f'"^^<{datatype.value}>'
    for datatype in (XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_BOOLEAN)
}
_STRING_SUFFIX = _TYPED[XSD_STRING]
_ABSOLUTE_IRIREF = ABSOLUTE_IRIREF.fullmatch


class _Parser:
    """Parses Turtle text into id triples, one token at a time.

    ``ids`` is the target term dictionary, from canonical text to id. Each
    distinct raw token text is resolved and validated to its canonical text
    and interned once, and its id kept in a memo that every directive
    empties, since a directive may change what a relative IRI or prefixed
    name denotes. ``triples`` holds the
    ``(s, p, o)`` ids in document order, duplicates included.

    A lexical error anywhere in the text is reported before a grammar
    error earlier in it, as if the whole text were lexed first: a grammar
    error lexes the rest of the text before it is raised.
    """

    def __init__(self, text: str, base: Optional[Iri], ids: TermIds) -> None:
        self.text = text
        self.prefixes = PrefixMap(base=base)
        self.triples: list[IdTriple] = []
        self._terms = ids
        self._intern = ids.setdefault
        self._texts = ids.texts
        self._tokens = _TOKENS(text)
        # Prefix label -> namespace IRI.
        self._namespaces: dict[str, str] = {}
        # Blank node label -> canonical text.
        self._bnodes: dict[str, str] = {}
        self._next_bnode = 0
        # Raw token text -> term id, and raw datatype text -> its canonical text.
        self._ids: dict[str, int] = {}
        self._datatypes: dict[str, str] = {}

    # -- errors --------------------------------------------------------------

    def error(self, message: str, start: int) -> TurtleParseError:
        text = self.text
        line = text.count("\n", 0, start) + 1
        return TurtleParseError(message, line, start - text.rfind("\n", 0, start))

    def _fail(
        self, message: str, token: re.Match, group: Optional[str] = None
    ) -> TurtleParseError:
        """A grammar error at the token (or its group), unless the rest of
        the text has a lexical error, which is raised instead."""
        self._drain()
        return self.error(message, token.start(group or token.lastgroup))

    def _drain(self) -> None:
        """Lex to the end of the text, raising its first lexical error."""
        for token in self._tokens:
            self._value(token)

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

    # -- tokens --------------------------------------------------------------

    def _value(self, token: re.Match) -> str:
        """The token's value as error messages show it; raises its lexical error."""
        kind = token.lastgroup
        start = token.start(kind)
        if kind == "string":
            lexical = token.group("lexical")
            return lexical if "\\" not in lexical else self._decode(start)
        if kind == "badstring":
            return self._decode(start)
        if kind == "error":
            raise self._lex_error(start)
        raw = token.group(kind)
        if kind == "iriref":
            return raw[1:-1]
        if kind == "bnode":
            return raw[2:]
        return raw

    def _decode(self, start: int) -> str:
        """Decode the string literal opening at start."""
        text = self.text
        i = start + 1
        out: list[str] = []
        while i < len(text):
            c = text[i]
            if c == '"':
                return "".join(out)
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

    def _expect(self, kind: str) -> re.Match:
        token = next(self._tokens)
        if token.lastgroup != kind:
            shown = "." if kind == "dot" else kind
            raise self._fail(f"expected {shown!r}, found {self._value(token)!r}", token)
        return token

    # -- grammar -------------------------------------------------------------

    def parse(self) -> None:
        memo = self._ids
        term_id = self._term_id
        emit = self.triples.append
        state = _SUBJECT
        for token in self._tokens:
            kind = token.lastgroup
            if state == _OBJECT:
                if kind not in _OBJECT_KINDS:
                    raise self._fail(f"invalid object {self._value(token)!r}", token)
                raw = token[kind]
                o = memo.get(raw)
                if o is None:
                    o = term_id(token, kind, raw)
                emit((s, p, o))
                state = _AFTER_OBJECT
            elif state == _AFTER_OBJECT:
                if kind == "semicolon":
                    state = _AFTER_SEMICOLON
                elif kind == "comma":
                    state = _OBJECT
                elif kind == "dot":
                    state = _SUBJECT
                else:
                    raise self._fail(f"expected '.', found {self._value(token)!r}", token)
            elif state == _SUBJECT:
                if kind in _SUBJECT_KINDS:
                    raw = token[kind]
                    s = memo.get(raw)
                    if s is None:
                        s = term_id(token, kind, raw)
                    state = _PREDICATE
                elif kind == "directive":
                    self._directive(token.group(kind))
                elif kind == "eof":
                    return
                else:
                    raise self._fail(f"invalid subject {self._value(token)!r}", token)
            elif state == _AFTER_SEMICOLON and kind == "semicolon":
                pass
            elif state == _AFTER_SEMICOLON and kind == "dot":
                state = _SUBJECT
            elif kind in _PREDICATE_KINDS:
                raw = token[kind]
                p = memo.get(raw)
                if p is None:
                    p = term_id(token, kind, raw)
                state = _OBJECT
            else:
                raise self._fail(f"invalid predicate {self._value(token)!r}", token)

    def _directive(self, directive: str) -> None:
        if directive == "@base":
            self.prefixes.base = Iri(self._iri(self._expect("iriref")))
        else:
            token = self._expect("pname")
            pname = token.group("pname")
            label = pname.split(":", 1)[0]
            if pname != label + ":":
                raise self._fail("prefix directive takes a bare label", token)
            namespace = self._iri(self._expect("iriref"))
            try:
                self.prefixes.bind(label, Iri(namespace))
            except EnergyKgError:
                self._drain()
                raise
            self._namespaces[label] = namespace
        self._ids.clear()
        self._datatypes.clear()
        self._expect("dot")

    def _term_id(self, token: re.Match, kind: str, raw: str) -> int:
        """Resolve and intern the canonical text of a raw text the memo lacks."""
        if kind == "iriref":
            if _ABSOLUTE_IRIREF(raw):
                # An absolute reference resolves to itself, and is its own text.
                text = raw
            else:
                value = self._iri(token, kind)
                text = raw if value == raw[1:-1] else f"<{value}>"
        elif kind == "string":
            lexical = token["lexical"]
            # A literal without escapes, untyped or of a datatype seen before.
            suffix = self._datatypes.get(token["datatype"]) if token["typed"] else _STRING_SUFFIX
            if suffix is None or "\\" in lexical:
                text = self._literal(token)
            else:
                text = '"' + lexical + suffix
        elif kind == "pname":
            text = f"<{self._iri(token, kind)}>"
        elif kind == "bnode":
            # Labels are scoped to the document: each label maps to a node
            # numbered in order of first use, skipping the numbers of nodes
            # the dictionary already holds from earlier documents.
            text = self._bnodes.get(raw)
            if text is None:
                text = self._bnodes[raw] = self._fresh_bnode()
        elif kind == "number":
            if "e" in raw or "E" in raw:
                text = '"' + raw + _TYPED[XSD_DOUBLE]
            elif "." in raw:
                text = '"' + raw + _TYPED[XSD_DECIMAL]
            else:
                text = '"' + raw + _TYPED[XSD_INTEGER]
        elif kind == "boolean":
            text = '"' + raw + _TYPED[XSD_BOOLEAN]
        else:  # "a"
            text = _RDF_TYPE_TEXT
        # Interned as TermIds.__missing__ would, without calling it.
        texts = self._texts
        term_id = self._ids[raw] = self._intern(text, len(texts))
        if term_id == len(texts):
            texts.append(text)
        return term_id

    def _fresh_bnode(self) -> str:
        while True:
            text = f"_:b{self._next_bnode}"
            self._next_bnode += 1
            if text not in self._terms:
                return text

    def _literal(self, token: re.Match) -> str:
        """The canonical text of the string literal token."""
        lexical = self._value(token)
        if token.group("typed") is None:
            return '"' + lexical + _STRING_SUFFIX
        if token.group("datatype") is None:
            after = next(self._tokens)
            self._value(after)
            raise self._fail("expected datatype IRI after ^^", after)
        raw = token.group("datatype")
        datatype = self._datatypes.get(raw)
        if datatype is None:
            datatype = self._datatypes[raw] = f'"^^<{self._iri(token, "datatype")}>'
        return '"' + lexical + datatype

    def _iri(self, token: re.Match, group: str = "iriref") -> str:
        """The IRI that the IRI reference or prefixed name in group denotes."""
        raw = token.group(group)
        try:
            if raw[0] != "<":
                label, local = raw.split(":", 1)
                namespace = self._namespaces.get(label)
                if namespace is None:
                    raise PrefixError(f"undefined prefix: {label!r}")
                # A prefixed name's local part holds no character an IRI forbids.
                return namespace + local
            if self.prefixes.base is None:
                return check_iri(raw[1:-1])
            return resolve_reference(self.prefixes.base.value, raw[1:-1])
        except EnergyKgError as exc:
            raise self._fail(str(exc), token, group) from None


def parse_turtle(
    text: str, base: Optional[Iri] = None
) -> tuple[list[tuple[Term, Iri, Term]], PrefixMap]:
    """Parse Turtle text into triples plus the prefix map it declared.

    The triples are in document order, duplicates included; equal terms
    are one shared object.
    """
    ids = TermIds()
    parser = _Parser(text, base, ids)
    parser.parse()
    terms = list(map(decode_term, ids.texts))
    return [(terms[s], terms[p], terms[o]) for s, p, o in parser.triples], parser.prefixes


def load_turtle(
    ds: Dataset, text: str, graph: GraphName = None, base: Optional[Iri] = None
) -> PrefixMap:
    """Parse text straight into the dataset's term ids and add its triples
    to the chosen graph, once the whole text has parsed; on an error the
    dataset is left as it was. Its blank nodes are labelled apart from
    those the dataset already holds."""
    with ds.interning() as ids:
        parser = _Parser(text, base, ids)
        parser.parse()
    ds.add_ids(parser.triples, graph)
    return parser.prefixes
