"""RDF term model: IRIs, literals, blank nodes, quads and prefix maps.

Terms are immutable and hashable. A quad's graph is either an ``Iri``
(named graph) or ``None`` (the default graph). Term identity is exact
string identity; no normalization is applied beyond RFC 3986 reference
resolution, so identifiers such as ``GHCND:GME00102404`` survive inside
path segments untouched.

Each term has one canonical text, ``term_key``: ``<iri>``,
``"lexical"^^<datatype>`` or ``_:label``. Equal terms have equal texts,
texts sort in the canonical order, and ``decode_term`` turns a text back
into its term.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from typing import Iterable, Optional, Union
from urllib.parse import urljoin, urlsplit

from .errors import EnergyKgError
from .record import Frozen, Record, set_field

_XSD = "http://www.w3.org/2001/XMLSchema#"

_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*:"
# Characters RFC 3987 / Turtle forbid in an IRIREF body.
_FORBIDDEN = r'\x00-\x20<>"{}|^`\\'
_SCHEME_RE = re.compile("^" + _SCHEME)
_BAD_IRI_CHARS = re.compile(f"[{_FORBIDDEN}]")
# An IRI reference in angle brackets, as Turtle writes it, whose body
# ``check_iri`` accepts: an absolute IRI, which every base resolves to itself.
ABSOLUTE_IRIREF = re.compile(f"<{_SCHEME}[^{_FORBIDDEN}]*>")


class IriError(EnergyKgError):
    """Malformed IRI or IRI reference."""


# The term classes are compared and hashed on the evaluator's hot path,
# so each has its own __init__, __eq__ and __hash__.


class Iri(Frozen):
    __slots__ = _fields = ("value",)

    def __init__(self, value: str) -> None:
        set_field(self, "value", check_iri(value))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __str__(self) -> str:
        return self.value


def check_iri(value: str) -> str:
    """Return value once it is checked to be an absolute IRI; raise IriError if not."""
    if not _SCHEME_RE.match(value):
        raise IriError(f"IRI is not absolute (missing scheme): {value!r}")
    bad = _BAD_IRI_CHARS.search(value)
    if bad:
        raise IriError(
            f"IRI contains forbidden character {bad.group()!r} at offset {bad.start()}: {value!r}"
        )
    return value


def _checked_iri(value: str) -> Iri:
    """An Iri of a value that has passed ``check_iri``, built without checking it again."""
    iri = object.__new__(Iri)
    set_field(iri, "value", value)
    return iri


XSD_STRING = Iri(_XSD + "string")
XSD_INTEGER = Iri(_XSD + "integer")
XSD_DECIMAL = Iri(_XSD + "decimal")
XSD_DOUBLE = Iri(_XSD + "double")
XSD_BOOLEAN = Iri(_XSD + "boolean")
XSD_DATETIME = Iri(_XSD + "dateTime")

NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE})


class Literal(Frozen):
    __slots__ = _fields = ("lexical", "datatype")

    def __init__(self, lexical: str, datatype: Iri = XSD_STRING) -> None:
        set_field(self, "lexical", lexical)
        set_field(self, "datatype", datatype)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.lexical, self.datatype) == (other.lexical, other.datatype)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype))

    def __str__(self) -> str:
        return f'"{self.lexical}"^^<{self.datatype.value}>'


class BlankNode(Frozen):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str) -> None:
        set_field(self, "label", label)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.label,))

    def __str__(self) -> str:
        return f"_:{self.label}"


Term = Union[Iri, Literal, BlankNode]
GraphName = Optional[Iri]


class Quad(Frozen):
    __slots__ = _fields = ("subject", "predicate", "object", "graph")

    def __init__(
        self, subject: Union[Iri, BlankNode], predicate: Iri, object: Term, graph: GraphName = None
    ) -> None:
        set_field(self, "subject", subject)
        set_field(self, "predicate", predicate)
        set_field(self, "object", object)
        set_field(self, "graph", graph)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.subject, self.predicate, self.object, self.graph) == (
                other.subject, other.predicate, other.object, other.graph
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate, self.object, self.graph))


# A triple of canonical term texts (``term_key``).
TextTriple = tuple[str, str, str]


def resolve_iri(base: Iri, reference: str) -> Iri:
    """Resolve ``reference`` against ``base`` per RFC 3986.

    An absolute reference wins unchanged; anything containing characters
    illegal in an IRI raises with the offending offset.
    """
    return _checked_iri(resolve_reference(base.value, reference))


def resolve_reference(base: str, reference: str) -> str:
    """``resolve_iri`` on IRI values: the value of the IRI that reference
    denotes against the absolute IRI base."""
    bad = _BAD_IRI_CHARS.search(reference)
    if bad:
        raise IriError(
            f"IRI reference contains forbidden character {bad.group()!r} "
            f"at offset {bad.start()}: {reference!r}"
        )
    if _SCHEME_RE.match(reference):
        return reference
    scheme = urlsplit(base).scheme
    if scheme in ("http", "https", "ftp", "file", ""):
        return check_iri(urljoin(base, reference))
    # urljoin refuses relative resolution for unregistered schemes; fall
    # back to naive merge against the base's last slash.
    if reference.startswith("//"):
        return check_iri(scheme + ":" + reference)
    head, _, _ = base.rpartition("/")
    return check_iri(head + "/" + reference if head else base + reference)


# -- literal helpers ---------------------------------------------------------


def datetime_literal(instant: datetime) -> Literal:
    """Encode a UTC instant as an xsd:dateTime literal with Z designator."""
    if instant.tzinfo is None:
        raise IriError(f"naive datetime not allowed: {instant!r}")
    instant = instant.astimezone(timezone.utc)
    return Literal(instant.strftime("%Y-%m-%dT%H:%M:%SZ"), XSD_DATETIME)


@lru_cache(maxsize=65536)
def parse_datetime(lexical: str) -> datetime:
    """Parse an ISO-8601 instant with an explicit UTC designator or offset."""
    text = lexical
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError as exc:
        raise IriError(f"invalid xsd:dateTime lexical form: {lexical!r}") from exc
    if parsed.tzinfo is None:
        raise IriError(f"xsd:dateTime without timezone designator: {lexical!r}")
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError as exc:
        # Its UTC instant falls before year 1 or after year 9999.
        raise IriError(f"xsd:dateTime out of range in UTC: {lexical!r}") from exc


def finite_decimal(text: str) -> Decimal:
    """The number that text spells. NaN and Infinity, which are outside
    xsd:decimal's value space, raise InvalidOperation as a non-number does."""
    value = Decimal(text)
    if not value.is_finite():
        raise InvalidOperation(f"not a finite number: {text!r}")
    return value


# The most characters an xsd:decimal's lexical form may have: the plain
# form of a finite decimal grows with its exponent, 9e999999 to a million
# digits.
MAX_DECIMAL_CHARS = 100


class LiteralError(EnergyKgError):
    """A value that has no lexical form this package writes."""


def check_decimal(value: Decimal) -> Decimal:
    """Return value once its plain form is checked to be at most
    MAX_DECIMAL_CHARS long; raise LiteralError if not. The length is
    counted from the digits and exponent, without writing the form out."""
    sign, digits, exponent = value.as_tuple()
    if exponent >= 0:
        # A zero is written "0" whatever its exponent.
        length = 1 if digits == (0,) else len(digits) + exponent
    else:
        # The digits and a point, with zeros before them for a value below one.
        length = max(len(digits), 1 - exponent) + 1
    if sign + length > MAX_DECIMAL_CHARS:
        raise LiteralError(
            f"value {value} would be written with {sign + length} characters, "
            f"more than {MAX_DECIMAL_CHARS}"
        )
    return value


def decimal_text(value: Decimal) -> str:
    """The canonical text of a finite value's xsd:decimal literal in plain
    form; raise LiteralError if that form is longer than MAX_DECIMAL_CHARS."""
    return f'"{format(check_decimal(value), "f")}"^^<{_XSD}decimal>'


def parse_numeric(literal: Literal) -> Decimal:
    if literal.datatype not in NUMERIC_DATATYPES:
        raise IriError(f"not a numeric literal: {literal}")
    try:
        return Decimal(literal.lexical)
    except InvalidOperation as exc:
        raise IriError(f"unparseable numeric lexical form: {literal.lexical!r}") from exc


# -- canonical encodings -----------------------------------------------------


def term_key(term: Term) -> str:
    """The term's canonical text: a total encoding that orders terms
    deterministically and that ``decode_term`` inverts."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, Literal):
        return f'"{term.lexical}"^^<{term.datatype.value}>'
    return f"_:{term.label}"


def literal_parts(text: str) -> tuple[str, str]:
    """The lexical form and the datatype IRI's value of a literal's canonical text."""
    # A datatype IRI holds no '"', so the last '"^^<' ends the lexical form.
    end = text.rindex('"^^<')
    return text[1:end], text[end + 4 : -1]


@lru_cache(maxsize=1024)
def _datatype(value: str) -> Iri:
    return _checked_iri(value)


def decode_term(text: str) -> Term:
    """The term whose canonical text (``term_key``) is text. The text must
    be one that ``term_key`` gave, so its IRIs are not checked again."""
    if text[0] == "<":
        return _checked_iri(text[1:-1])
    if text[0] == '"':
        lexical, datatype = literal_parts(text)
        return Literal(lexical, _datatype(datatype))
    return BlankNode(text[2:])


def text_quads(triples: Iterable[TextTriple], graph: GraphName) -> set[Quad]:
    """The triples of canonical texts as quads in the graph; each
    distinct text is decoded once."""
    term = lru_cache(maxsize=None)(decode_term)
    return {Quad(term(s), term(p), term(o), graph) for s, p, o in triples}


def quad_key(quad: Quad) -> tuple[str, str, str, str]:
    graph = "" if quad.graph is None else quad.graph.value
    return (graph, term_key(quad.subject), term_key(quad.predicate), term_key(quad.object))


# -- prefix maps -------------------------------------------------------------


class PrefixError(EnergyKgError):
    """Duplicate or undefined prefix label."""


class PrefixMap(Record):
    """Ordered prefix-label to namespace mapping with an optional base."""

    _fields = ("base", "_namespaces")

    def __init__(
        self, base: Optional[Iri] = None, _namespaces: Optional[dict[str, Iri]] = None
    ) -> None:
        self.base = base
        self._namespaces = {} if _namespaces is None else _namespaces

    def bind(self, label: str, namespace: Iri) -> None:
        if label in self._namespaces and self._namespaces[label] != namespace:
            raise PrefixError(f"prefix {label!r} already bound to {self._namespaces[label]}")
        self._namespaces[label] = namespace

    def expand(self, label: str, local: str) -> Iri:
        if label not in self._namespaces:
            raise PrefixError(f"undefined prefix: {label!r}")
        return Iri(self._namespaces[label].value + local)

    def namespaces(self) -> dict[str, Iri]:
        return dict(self._namespaces)

    def __contains__(self, label: str) -> bool:
        return label in self._namespaces

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixMap):
            return NotImplemented
        return self.base == other.base and self._namespaces == other._namespaces
