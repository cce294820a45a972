"""Namespace tables and IRI minting helpers for the energy and climate graphs."""

from __future__ import annotations

from .terms import Iri

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SEAS_NS = "https://w3id.org/seas/"
SOSA_NS = "http://www.w3.org/ns/sosa/"
PROV_NS = "http://www.w3.org/ns/prov#"
QUDT_NS = "http://qudt.org/1.1/schema/qudt#"

DEFAULT_BASE = Iri("http://jresearch.ucd.ie/climate-kg/")

RDF_TYPE = Iri(RDF_NS + "type")


class SEAS:
    ElectricPowerDistributionNetwork = Iri(SEAS_NS + "ElectricPowerDistributionNetwork")
    ElectricPowerTransmissionSystem = Iri(SEAS_NS + "ElectricPowerTransmissionSystem")
    ElectricPowerSystem = Iri(SEAS_NS + "ElectricPowerSystem")
    ElectricPowerConsumer = Iri(SEAS_NS + "ElectricPowerConsumer")
    ElectricPowerEvaluation = Iri(SEAS_NS + "ElectricPowerEvaluation")
    IndustrialBuilding = Iri(SEAS_NS + "IndustrialBuilding")
    isPoweredBy = Iri(SEAS_NS + "isPoweredBy")
    powers = Iri(SEAS_NS + "powers")
    producedElectricPower = Iri(SEAS_NS + "producedElectricPower")
    consumedElectricPower = Iri(SEAS_NS + "consumedElectricPower")
    subSystemOf = Iri(SEAS_NS + "subSystemOf")
    evaluation = Iri(SEAS_NS + "evaluation")
    evaluatedValue = Iri(SEAS_NS + "evaluatedValue")


class SOSA:
    hasResult = Iri(SOSA_NS + "hasResult")
    resultTime = Iri(SOSA_NS + "resultTime")


class PROV:
    generatedAtTime = Iri(PROV_NS + "generatedAtTime")


class QUDT:
    # The energy graph uses the "numericalValue" spelling and the climate
    # graph uses "numericValue"; both are kept distinct on purpose.
    numericalValue = Iri(QUDT_NS + "numericalValue")
    numericValue = Iri(QUDT_NS + "numericValue")


def cossmic_graph(base: Iri = DEFAULT_BASE) -> Iri:
    return Iri(base.value + "graph/cossmic")


def device_resource(base: Iri, name: str) -> Iri:
    return Iri(base.value + "resource/cossmic/" + name)


def station_resource(base: Iri, station_id: str) -> Iri:
    return Iri(base.value + "resource/station/" + station_id)


def datatype_resource(base: Iri, code: str) -> Iri:
    return Iri(base.value + "resource/datatype/" + code)


def observation_path(base: Iri, station_id: str, day: str, code: str) -> str:
    """The value of an observation's IRI, unchecked."""
    return base.value + "resource/observation/" + station_id + "/" + day + "/" + code


def ca_class(base: Iri, name: str) -> Iri:
    return Iri(base.value + "ca/class/" + name)


def ca_property(base: Iri, name: str) -> Iri:
    return Iri(base.value + "ca/property/" + name)
