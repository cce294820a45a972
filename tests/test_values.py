"""Every public value class keeps the behaviour that ``@dataclass`` gave it:
repr, equality within its class only, hash as the tuple of its fields
(or none when mutable), immutability, slots, copying and pickling, and
constructor defaults."""

import copy
import pickle
from datetime import datetime, timezone
from decimal import Decimal

import pytest

from energykg.analysis import AlignedSeries, CorrelationEntry, CorrelationReport
from energykg.climate import ClimateObservation
from energykg.config import PipelineConfig
from energykg.endpoint import EndpointConfig
from energykg.headings import DeviceHeading, SiteKind
from energykg.sparql.ast import (
    BGP, And, Constant, DatasetClause, DateFunc, Equals, Filter, Graph, Join, SelectQuery,
    SequencePath, SolutionSequence, TriplePattern, Variable,
)
from energykg.terms import BlankNode, Iri, Literal, PrefixMap, Quad, XSD_DECIMAL
from energykg.uplift import CounterMode, EnergyTable

A = Iri("http://example.org/a")
B = Iri("http://example.org/b")
ONE = Literal("1", XSD_DECIMAL)
DAY = datetime(2016, 5, 1, tzinfo=timezone.utc)
X = Variable("x")
TP = TriplePattern(X, A, ONE)
HEADING = DeviceHeading("DE_KN_industrial1_pv_1", "DE", "KN", SiteKind.INDUSTRIAL, 1, ("pv",), 1)
CONFIG_REPR = (
    "PipelineConfig(base='http://jresearch.ucd.ie/climate-kg/', station='GHCND:GME00102404', "
    "graph='', network='DE_KN_COSSMIC', counter_mode='cumulative', resolution='daily', "
    "out='out', threshold=0.7, datatype='TMAX', scale='1', bind='127.0.0.1:8080', "
    "format='tsv', min_samples=2)"
)

# (make, repr, field values in order, frozen, slotted)
CASES = {
    "Iri": (lambda: Iri("http://example.org/a"), "Iri(value='http://example.org/a')",
            ("http://example.org/a",), True, True),
    "Literal": (lambda: Literal("1", XSD_DECIMAL),
                "Literal(lexical='1', datatype=Iri(value='http://www.w3.org/2001/XMLSchema#decimal'))",
                ("1", XSD_DECIMAL), True, True),
    "BlankNode": (lambda: BlankNode("b0"), "BlankNode(label='b0')", ("b0",), True, True),
    "Quad": (lambda: Quad(A, B, ONE, A),
             "Quad(subject=Iri(value='http://example.org/a'), predicate=Iri(value='http://example.org/b'), "
             "object=Literal(lexical='1', datatype=Iri(value='http://www.w3.org/2001/XMLSchema#decimal')), "
             "graph=Iri(value='http://example.org/a'))",
             (A, B, ONE, A), True, True),
    "PrefixMap": (lambda: PrefixMap(A, {"ex": B}),
                  "PrefixMap(base=Iri(value='http://example.org/a'), "
                  "_namespaces={'ex': Iri(value='http://example.org/b')})",
                  (A, {"ex": B}), False, False),
    "PipelineConfig": (PipelineConfig, CONFIG_REPR, None, False, False),
    "DeviceHeading": (
        lambda: DeviceHeading("DE_KN_industrial1_pv_1", "DE", "KN", SiteKind.INDUSTRIAL, 1, ("pv",), 1),
        "DeviceHeading(raw='DE_KN_industrial1_pv_1', country='DE', city='KN', "
        "site_kind=<SiteKind.INDUSTRIAL: 'industrial'>, site_index=1, device_segments=('pv',), "
        "instance_index=1)",
        ("DE_KN_industrial1_pv_1", "DE", "KN", SiteKind.INDUSTRIAL, 1, ("pv",), 1), True, False),
    "EnergyTable": (
        lambda: EnergyTable([DAY], {"h": [Decimal(1)]}, CounterMode.INTERVAL),
        "EnergyTable(timestamps=[datetime.datetime(2016, 5, 1, 0, 0, tzinfo=datetime.timezone.utc)], "
        "columns={'h': [Decimal('1')]}, counter_mode=<CounterMode.INTERVAL: 'interval'>)",
        None, False, False),
    "ClimateObservation": (
        lambda: ClimateObservation("S", DAY, "TMAX", Decimal("2")),
        "ClimateObservation(station_id='S', date=datetime.datetime(2016, 5, 1, 0, 0, "
        "tzinfo=datetime.timezone.utc), datatype='TMAX', value=Decimal('2'))",
        ("S", DAY, "TMAX", Decimal("2")), True, False),
    "AlignedSeries": (
        lambda: AlignedSeries(HEADING, "TMAX", ((DAY.date(), Decimal(1), Decimal(2)),), {"PRCP": (None,)}),
        f"AlignedSeries(device={HEADING!r}, climate_code='TMAX', pairs=((datetime.date(2016, 5, 1), "
        "Decimal('1'), Decimal('2')),), auxiliary={'PRCP': (None,)})",
        None, True, False),
    "CorrelationEntry": (lambda: CorrelationEntry("d", "TMAX", 0.5, 3),
                         "CorrelationEntry(device='d', climate_code='TMAX', pcc=0.5, n=3)",
                         ("d", "TMAX", 0.5, 3), True, False),
    "CorrelationReport": (lambda: CorrelationReport("TMAX", 0.7, [], ["w"], {"pv": {"n": 1.0}}),
                          "CorrelationReport(climate_code='TMAX', threshold=0.7, entries=[], "
                          "warnings=['w'], category_stats={'pv': {'n': 1.0}})",
                          None, False, False),
    "EndpointConfig": (EndpointConfig,
                       "EndpointConfig(host='127.0.0.1', port=8080, max_query_bytes=262144, "
                       "timeout_seconds=30.0)",
                       None, False, False),
    "Variable": (lambda: Variable("x"), "Variable(name='x')", ("x",), True, True),
    "SequencePath": (lambda: SequencePath(A, B),
                     "SequencePath(left=Iri(value='http://example.org/a'), "
                     "right=Iri(value='http://example.org/b'))",
                     (A, B), True, True),
    "TriplePattern": (lambda: TriplePattern(X, A, ONE),
                      f"TriplePattern(subject=Variable(name='x'), predicate={A!r}, object={ONE!r})",
                      (X, A, ONE), True, True),
    "Constant": (lambda: Constant(ONE), f"Constant(value={ONE!r})", (ONE,), True, True),
    "Equals": (lambda: Equals(X, Constant(ONE)),
               f"Equals(left=Variable(name='x'), right=Constant(value={ONE!r}))",
               (X, Constant(ONE)), True, True),
    "And": (lambda: And(X, Constant(ONE)),
            f"And(left=Variable(name='x'), right=Constant(value={ONE!r}))",
            (X, Constant(ONE)), True, True),
    "DateFunc": (lambda: DateFunc("day", X), "DateFunc(component='day', argument=Variable(name='x'))",
                 ("day", X), True, True),
    "BGP": (lambda: BGP((TP,)), f"BGP(patterns=({TP!r},))", ((TP,),), True, False),
    "Graph": (lambda: Graph(A, BGP((TP,))), f"Graph(name={A!r}, pattern=BGP(patterns=({TP!r},)))",
              (A, BGP((TP,))), True, False),
    "Filter": (lambda: Filter(X, BGP(())), "Filter(expression=Variable(name='x'), pattern=BGP(patterns=()))",
               (X, BGP(())), True, False),
    "Join": (lambda: Join(BGP(()), BGP(())), "Join(left=BGP(patterns=()), right=BGP(patterns=()))",
             (BGP(()), BGP(())), True, False),
    "DatasetClause": (lambda: DatasetClause(True, A), f"DatasetClause(named=True, graph={A!r})",
                      (True, A), True, False),
    "SelectQuery": (lambda: SelectQuery((X,), BGP(()), A, PrefixMap(), (), 3),
                    f"SelectQuery(projection=(Variable(name='x'),), pattern=BGP(patterns=()), base={A!r}, "
                    "prefixes=PrefixMap(base=None, _namespaces={}), dataset_clauses=(), limit=3)",
                    None, True, False),
    "SolutionSequence": (lambda: SolutionSequence(("x",), ("x",), [(0,)], [f"<{A.value}>"]),
                         f"SolutionSequence(variables=('x',), rows=[{{'x': {A!r}}}])",
                         None, False, False),
}

# Pairs of classes with the same number of fields: equal field values do
# not make instances of two classes equal.
TWINS = [
    (lambda: Iri("http://example.org/a"), lambda: Variable("http://example.org/a")),
    (lambda: BlankNode("x"), lambda: Variable("x")),
    (lambda: Equals(X, X), lambda: And(X, X)),
    (lambda: Join(BGP(()), BGP(())), lambda: SequencePath(BGP(()), BGP(()))),
    (lambda: Graph(A, BGP(())), lambda: Filter(A, BGP(()))),
    (lambda: Constant(ONE), lambda: BGP(ONE)),
    (lambda: DatasetClause(True, A), lambda: DateFunc(True, A)),
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_repr_equality_hash_and_immutability(name):
    make, expected_repr, values, frozen, slotted = CASES[name]
    first, second = make(), make()
    assert first is not second
    assert repr(first) == expected_repr
    assert first == second and not first != second
    assert first.__eq__(object()) is NotImplemented
    assert first != expected_repr
    assert hasattr(first, "__dict__") is not slotted
    assert copy.deepcopy(first) == first and pickle.loads(pickle.dumps(first)) == first
    field = expected_repr[expected_repr.index("(") + 1 : expected_repr.index("=")]
    if frozen:
        if values is None:
            # Hashed as its fields, one of which (a dict or PrefixMap) is unhashable.
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second) == hash(values)
        with pytest.raises(AttributeError):
            setattr(first, field, getattr(second, field))
        with pytest.raises(AttributeError):
            delattr(first, field)
        assert first == second
    else:
        with pytest.raises(TypeError):
            hash(first)
        setattr(first, field, "changed")
        assert getattr(first, field) == "changed"
        assert first != second


@pytest.mark.parametrize("make, twin", TWINS)
def test_equal_fields_of_another_class_are_unequal(make, twin):
    assert make() != twin() and twin() != make()
    assert make().__eq__(twin()) is NotImplemented


def test_a_field_that_differs_makes_instances_unequal():
    assert Literal("1", XSD_DECIMAL) != Literal("1")
    assert Quad(A, B, ONE) != Quad(A, B, ONE, A)
    assert TriplePattern(X, A, ONE) != TriplePattern(X, B, ONE)
    assert PrefixMap(A) != PrefixMap()


@pytest.mark.parametrize(
    "make, defaults",
    [
        (lambda: Literal("x"), {"datatype": Iri("http://www.w3.org/2001/XMLSchema#string")}),
        (lambda: Quad(A, B, ONE), {"graph": None}),
        (PrefixMap, {"base": None, "_namespaces": {}}),
        (lambda: DeviceHeading("r", "DE", "KN", SiteKind.PUBLIC, 2, ("x",)), {"instance_index": None}),
        (lambda: EnergyTable([], {}), {"counter_mode": CounterMode.CUMULATIVE}),
        (lambda: AlignedSeries(HEADING, "TMAX", ()), {"auxiliary": {}}),
        (lambda: AlignedSeries(HEADING, "TMAX", (), None), {"auxiliary": {}}),
        (EndpointConfig, {"host": "127.0.0.1", "port": 8080, "max_query_bytes": 262144,
                          "timeout_seconds": 30.0}),
        (lambda: SelectQuery((), BGP(())), {"base": None, "prefixes": PrefixMap(),
                                            "dataset_clauses": (), "limit": None}),
        (PipelineConfig, {"threshold": 0.7, "min_samples": 2, "scale": "1", "graph": ""}),
    ],
)
def test_constructor_defaults(make, defaults):
    made = make()
    assert {name: getattr(made, name) for name in defaults} == defaults


def test_factory_defaults_are_fresh_per_instance():
    assert PrefixMap()._namespaces is not PrefixMap()._namespaces
    assert AlignedSeries(HEADING, "T", ()).auxiliary is not AlignedSeries(HEADING, "T", ()).auxiliary
    assert SelectQuery((), BGP(())).prefixes is not SelectQuery((), BGP(())).prefixes


def test_constructors_take_fields_by_position_and_keyword():
    assert Quad(subject=A, predicate=B, object=ONE, graph=None) == Quad(A, B, ONE)
    assert EndpointConfig("h", 1, 2, 3.0) == EndpointConfig(
        host="h", port=1, max_query_bytes=2, timeout_seconds=3.0
    )
    with pytest.raises(TypeError):
        Iri()
    with pytest.raises(TypeError):
        Literal("x", XSD_DECIMAL, "extra")
    with pytest.raises(TypeError):
        Variable(label="x")


def test_constructor_checks_still_run():
    with pytest.raises(Exception, match="not absolute"):
        Iri("relative")
    with pytest.raises(Exception, match="port out of range"):
        EndpointConfig(port=70000)
    with pytest.raises(Exception, match="column 'h' has 0 values for 1 timestamps"):
        EnergyTable([DAY], {"h": []})
