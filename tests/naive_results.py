"""Reference SPARQL results serializers, the oracle for
``energykg.sparql.results``.

These are the serializers that built a payload of dicts from each row's
decoded terms and handed it to ``json.dumps``, kept verbatim. They read a
sequence's ``rows``; the production serializers render from its id rows
and texts, and must give the same bytes for every sequence.
"""

from __future__ import annotations

import json

from energykg.terms import BlankNode, Iri, Term, XSD_STRING
from energykg.sparql.ast import SolutionSequence


def _json_term(term: Term) -> dict:
    if isinstance(term, Iri):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    if term.datatype == XSD_STRING:
        return {"type": "literal", "value": term.lexical}
    return {"type": "literal", "value": term.lexical, "datatype": term.datatype.value}


def to_results_json(seq: SolutionSequence) -> str:
    payload = {
        "head": {"vars": list(seq.variables)},
        "results": {
            "bindings": [
                {name: _json_term(row[name]) for name in seq.variables if name in row}
                for row in seq.rows
            ]
        },
    }
    return json.dumps(payload, ensure_ascii=False)


_TSV_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r", '"': '\\"'}


def _tsv_term(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    lexical = "".join(_TSV_ESCAPES.get(c, c) for c in term.lexical)
    if term.datatype == XSD_STRING:
        return f'"{lexical}"'
    return f'"{lexical}"^^<{term.datatype.value}>'


def to_results_tsv(seq: SolutionSequence) -> str:
    lines = ["\t".join(f"?{name}" for name in seq.variables)]
    for row in seq.rows:
        lines.append(
            "\t".join(_tsv_term(row[name]) if name in row else "" for name in seq.variables)
        )
    return "\n".join(lines) + "\n"
