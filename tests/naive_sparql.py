"""Reference SPARQL tokenizer, the oracle for ``energykg.sparql.parser``.

This is the character-at-a-time tokenizer that the parser used before
its regex lexer, kept verbatim. It tracks the line and column of every
token; the production lexer keeps only each token's offset, and must give
the same kinds, values and positions, or raise the same error, for every
text.
"""

from __future__ import annotations

import re

from energykg.record import Frozen, set_field
from energykg.sparql import QueryParseError, UnsupportedFeatureError

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
