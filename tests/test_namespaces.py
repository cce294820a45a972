"""Byte-exactness of the vocabulary and namespace tables."""

from energykg.namespaces import (
    DEFAULT_BASE,
    PROV,
    QUDT,
    RDF_TYPE,
    SEAS,
    SOSA,
    ca_class,
    ca_property,
    cossmic_graph,
    datatype_resource,
    device_resource,
    observation_path,
    station_resource,
)


def test_namespace_table_verbatim():
    assert RDF_TYPE.value == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    assert DEFAULT_BASE.value == "http://jresearch.ucd.ie/climate-kg/"
    assert SEAS.ElectricPowerSystem.value == "https://w3id.org/seas/ElectricPowerSystem"
    assert SOSA.hasResult.value == "http://www.w3.org/ns/sosa/hasResult"
    assert SOSA.resultTime.value == "http://www.w3.org/ns/sosa/resultTime"
    assert PROV.generatedAtTime.value == "http://www.w3.org/ns/prov#generatedAtTime"
    assert QUDT.numericalValue.value == "http://qudt.org/1.1/schema/qudt#numericalValue"
    assert QUDT.numericValue.value == "http://qudt.org/1.1/schema/qudt#numericValue"


def test_vocabulary_expansions():
    seas = "https://w3id.org/seas/"
    expected = {
        "ElectricPowerDistributionNetwork",
        "ElectricPowerTransmissionSystem",
        "ElectricPowerSystem",
        "ElectricPowerConsumer",
        "ElectricPowerEvaluation",
        "isPoweredBy",
        "powers",
        "producedElectricPower",
        "consumedElectricPower",
        "subSystemOf",
        "evaluation",
        "evaluatedValue",
    }
    for name in expected:
        assert getattr(SEAS, name).value == seas + name


def test_minting_helpers():
    assert cossmic_graph().value == "http://jresearch.ucd.ie/climate-kg/graph/cossmic"
    assert (
        device_resource(DEFAULT_BASE, "DE_KN_COSSMIC").value
        == "http://jresearch.ucd.ie/climate-kg/resource/cossmic/DE_KN_COSSMIC"
    )
    assert (
        station_resource(DEFAULT_BASE, "GHCND:GME00102404").value
        == "http://jresearch.ucd.ie/climate-kg/resource/station/GHCND:GME00102404"
    )
    assert (
        datatype_resource(DEFAULT_BASE, "TMAX").value
        == "http://jresearch.ucd.ie/climate-kg/resource/datatype/TMAX"
    )
    assert ca_class(DEFAULT_BASE, "Observation").value.endswith("ca/class/Observation")
    assert ca_property(DEFAULT_BASE, "retrieveWeatherFrom").value.endswith(
        "ca/property/retrieveWeatherFrom"
    )
    assert observation_path(DEFAULT_BASE, "S", "2016-05-01", "TMAX").endswith(
        "resource/observation/S/2016-05-01/TMAX"
    )
