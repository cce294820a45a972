from datetime import datetime, timezone
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from energykg.terms import (
    MAX_DECIMAL_CHARS,
    BlankNode,
    Iri,
    IriError,
    Literal,
    LiteralError,
    PrefixError,
    PrefixMap,
    Quad,
    XSD_DATETIME,
    XSD_DECIMAL,
    check_decimal,
    datetime_literal,
    decimal_text,
    decode_term,
    parse_datetime,
    parse_numeric,
    quad_key,
    resolve_iri,
    term_key,
)


def test_iri_requires_scheme():
    Iri("urn:x-arq:DefaultGraph")
    with pytest.raises(IriError):
        Iri("no-scheme-here/path")


def test_iri_rejects_forbidden_characters():
    with pytest.raises(IriError) as excinfo:
        Iri("http://example.org/a b")
    assert "offset" in str(excinfo.value)


def test_resolve_merges_relative_reference():
    assert resolve_iri(Iri("http://a/b/"), "c") == Iri("http://a/b/c")


def test_resolve_station_path_segment_with_colon():
    base = Iri("http://jresearch.ucd.ie/climate-kg/")
    resolved = resolve_iri(base, "resource/datatype/TMAX")
    assert resolved.value == "http://jresearch.ucd.ie/climate-kg/resource/datatype/TMAX"
    station = resolve_iri(base, "resource/station/GHCND:GME00102404")
    assert station.value.endswith("/resource/station/GHCND:GME00102404")


def test_resolve_absolute_reference_wins():
    assert resolve_iri(Iri("http://a/b"), "http://x/y") == Iri("http://x/y")


def test_resolve_rejects_malformed_reference():
    with pytest.raises(IriError):
        resolve_iri(Iri("http://a/"), "bad reference")


def test_iri_equality_is_exact():
    assert Iri("http://a/B") != Iri("http://a/b")
    assert Iri("http://a/%7E") != Iri("http://a/~")


def test_datetime_literal_round_trip():
    instant = datetime(2016, 5, 1, 12, 30, tzinfo=timezone.utc)
    literal = datetime_literal(instant)
    assert literal == Literal("2016-05-01T12:30:00Z", XSD_DATETIME)
    assert parse_datetime(literal.lexical) == instant


def test_parse_datetime_requires_timezone():
    with pytest.raises(IriError):
        parse_datetime("2016-05-01T00:00:00")


@pytest.mark.parametrize("lexical", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"])
def test_parse_datetime_outside_the_years_of_utc_is_a_typed_error(lexical):
    # The instant is before year 1 or after year 9999 once moved to UTC.
    with pytest.raises(IriError, match="out of range"):
        parse_datetime(lexical)


def test_decimal_literal_has_plain_lexical_form():
    assert decode_term(decimal_text(Decimal("9.75"))) == Literal("9.75", XSD_DECIMAL)
    assert decode_term(decimal_text(Decimal("1E+2"))) == Literal("100", XSD_DECIMAL)
    assert parse_numeric(Literal("9.75", XSD_DECIMAL)) == Decimal("9.75")


@given(
    st.integers(-(10**40), 10**40),
    st.integers(-MAX_DECIMAL_CHARS - 5, MAX_DECIMAL_CHARS + 5),
)
def test_check_decimal_bounds_the_length_of_the_written_form(coefficient, exponent):
    value = Decimal(coefficient).scaleb(exponent)
    if len(format(value, "f")) <= MAX_DECIMAL_CHARS:
        assert check_decimal(value) is value
        assert decode_term(decimal_text(value)).lexical == format(value, "f")
    else:
        with pytest.raises(LiteralError):
            decimal_text(value)


def test_term_keys_are_total_and_distinct():
    keys = {
        term_key(Iri("http://a/x")),
        term_key(Literal("x")),
        term_key(Literal("x", XSD_DECIMAL)),
        term_key(BlankNode("x")),
    }
    assert len(keys) == 4


def test_quad_key_orders_graph_first():
    a = Quad(Iri("http://a/s"), Iri("http://a/p"), Literal("1"))
    b = Quad(Iri("http://a/s"), Iri("http://a/p"), Literal("1"), Iri("http://a/g"))
    assert quad_key(a) < quad_key(b)


def test_prefix_map_expansion():
    pm = PrefixMap()
    pm.bind("seas", Iri("https://w3id.org/seas/"))
    assert pm.expand("seas", "evaluation") == Iri("https://w3id.org/seas/evaluation")
    with pytest.raises(PrefixError):
        pm.expand("sosa", "hasResult")
    with pytest.raises(PrefixError):
        pm.bind("seas", Iri("http://other/"))
