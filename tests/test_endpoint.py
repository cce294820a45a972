import json
import socket
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from energykg.endpoint import EndpointConfig, EndpointServer
from energykg.errors import EnergyKgError

SIMPLE_QUERY = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"


@pytest.fixture(scope="module")
def server(three_day_store):
    with EndpointServer(EndpointConfig(port=0), three_day_store) as srv:
        yield srv


def _get(server, path):
    host, port = server.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
            return response.status, response.headers.get("Content-Type"), response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read()


def _post(server, body, content_type):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}/sparql",
        data=body.encode(),
        headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _query_url(text):
    return "/sparql?query=" + urllib.parse.quote(text)


def test_health(server):
    status, _, body = _get(server, "/health")
    assert status == 200
    assert body == b"ok"


def test_get_query_returns_json_binding(server):
    status, content_type, body = _get(server, _query_url(SIMPLE_QUERY))
    assert status == 200
    assert content_type == "application/sparql-results+json"
    payload = json.loads(body)
    assert payload["head"]["vars"] == ["s"]
    assert len(payload["results"]["bindings"]) == 1


def test_post_direct_query(server):
    status, body = _post(server, SIMPLE_QUERY, "application/sparql-query")
    assert status == 200
    assert json.loads(body)["head"]["vars"] == ["s"]


def test_post_form_encoded_query(server):
    encoded = urllib.parse.urlencode({"query": SIMPLE_QUERY})
    status, body = _post(server, encoded, "application/x-www-form-urlencoded")
    assert status == 200


def test_malformed_query_is_400(server):
    status, _, body = _get(server, _query_url("SELEC ?s WHERE { ?s ?p ?o }"))
    assert status == 400
    assert b"SELECT" in body or b"line" in body


def test_unsupported_feature_is_400(server):
    status, _, body = _get(server, _query_url("SELECT ?s WHERE { OPTIONAL { ?s ?p ?o } }"))
    assert status == 400
    assert b"OPTIONAL" in body


def test_missing_query_parameter_is_400(server):
    status, _, _ = _get(server, "/sparql")
    assert status == 400


def test_unknown_path_is_404(server):
    status, _, _ = _get(server, "/nowhere")
    assert status == 404


def test_oversized_query_is_413(three_day_store):
    config = EndpointConfig(port=0, max_query_bytes=64)
    with EndpointServer(config, three_day_store) as server:
        status, _, _ = _get(server, _query_url(SIMPLE_QUERY + " " * 200))
        assert status == 413


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_400(server, length):
    request = (
        "POST /sparql HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/sparql-query\r\n"
        f"Content-Length: {length}\r\n"
        "\r\n"
    )
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request.encode())
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length: %d" % len(body) in head
    assert b"Content-Length" in body


def test_timeout_returns_503(three_day_store):
    config = EndpointConfig(port=0, timeout_seconds=1e-9)
    with EndpointServer(config, three_day_store) as server:
        status, _, body = _get(server, _query_url(SIMPLE_QUERY))
        assert status == 503
        assert b"timed out" in body


def test_unfrozen_dataset_rejected(three_day_store):
    from energykg.dataset import Dataset

    with pytest.raises(EnergyKgError):
        EndpointServer(EndpointConfig(port=0), Dataset())


def test_config_validation():
    with pytest.raises(EnergyKgError):
        EndpointConfig(port=99999)
    with pytest.raises(EnergyKgError):
        EndpointConfig(timeout_seconds=0)


def test_concurrent_identical_requests_byte_identical(server, join_query_text):
    url = _query_url(join_query_text)

    def fetch(_):
        return _get(server, url)

    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(fetch, range(16)))
    statuses = {status for status, _, _ in results}
    bodies = {body for _, _, body in results}
    assert statuses == {200}
    assert len(bodies) == 1
    payload = json.loads(bodies.pop())
    assert len(payload["results"]["bindings"]) == 3
