import http.client
import json
import os
import random
import signal
import socket
import statistics
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import build_three_day_store, has_exited
from stores import quad_store

from energykg import endpoint
from energykg.cli import main
from energykg.dataset import Dataset
from energykg.endpoint import EndpointConfig, EndpointServer
from energykg.errors import EnergyKgError
from energykg.sparql import QueryParseError, evaluate, parse_query, to_results_json
from energykg.terms import Iri, Literal, PrefixMap, Quad
from energykg.turtle import serialize_turtle

SIMPLE_QUERY = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"


@pytest.fixture(scope="module")
def server(three_day_store):
    with EndpointServer(EndpointConfig(port=0), three_day_store) as srv:
        yield srv


def _get(server, path):
    """Status, content type and body of a GET on a fresh connection."""
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


def _raw_exchange(server, request: bytes) -> tuple[bytes, bytes]:
    """Send one raw request and read until the server closes the connection."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return head, body


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


def test_post_to_unknown_path_is_404_and_closes(server):
    # The unread body must not be taken for the next request.
    body = b"XYZ / HTTP/1.1\r\n\r\n"
    request = (
        b"POST /nowhere HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Length: %d\r\n"
        b"\r\n" % len(body)
    ) + body + b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n"
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    assert response.startswith(b"HTTP/1.1 404 ")
    assert b"Connection: close" in response
    assert response.count(b"HTTP/1.1 ") == 1
    assert b" 501 " not in response


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
    head, body = _raw_exchange(server, request.encode())
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length: %d" % len(body) in head
    assert b"Content-Length" in body


def test_non_ascii_digit_in_query_is_400(server):
    # "\u0663" is a digit to str.isdigit but not a SPARQL number; the
    # tokenizer once failed an assertion here and the connection dropped.
    body = "SELECT ?s WHERE { ?s ?p \u0663 }".encode()
    request = (
        b"POST /sparql HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Type: application/sparql-query\r\n"
        b"Content-Length: %d\r\n"
        b"Connection: close\r\n"
        b"\r\n" % len(body)
    ) + body
    head, response_body = _raw_exchange(server, request)
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length: %d" % len(response_body) in head
    assert "unexpected character '\u0663'" in response_body.decode()


def test_timeout_returns_503(three_day_store):
    config = EndpointConfig(port=0, timeout_seconds=1e-9)
    with EndpointServer(config, three_day_store) as server:
        status, _, body = _get(server, _query_url(SIMPLE_QUERY))
        assert status == 503
        assert b"timed out" in body


def test_comparing_with_a_signaling_nan_answers_no_rows_and_keeps_the_connection(server):
    decimal = "<http://www.w3.org/2001/XMLSchema#decimal>"
    query = f'SELECT ?s WHERE {{ ?s ?p ?v FILTER (?v = "sNaN"^^{decimal}) }}'
    connection = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        for _ in range(2):
            headers = {"Content-Type": "application/sparql-query"}
            connection.request("POST", "/sparql", query, headers)
            response = connection.getresponse()
            body = response.read()
            assert (response.status, response.will_close) == (200, False)
            assert json.loads(body)["results"]["bindings"] == []
    finally:
        connection.close()


def test_unfrozen_dataset_rejected(three_day_store):
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


def _raw_post(body: bytes, length: int, close: bool) -> bytes:
    """A raw POST /sparql declaring the given length; close asks the server to close."""
    return (
        b"POST /sparql HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Type: application/sparql-query\r\n"
        b"Content-Length: %d\r\n%s"
        b"\r\n" % (length, b"Connection: close\r\n" if close else b"")
    ) + body


def _cpu_seconds(pid: int) -> float:
    """The user and system CPU seconds that a process has spent, from /proc."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _numbered(count: int) -> Dataset:
    return quad_store(
        Quad(Iri(f"http://example.org/s{i}"), Iri("http://example.org/p"), Literal(str(i)))
        for i in range(count)
    )


def test_timeout_stops_the_evaluation():
    # In full, the three-pattern cross product over 80 quads (512,000 rows)
    # takes seconds of CPU; the evaluation, in a worker process, must end
    # with the 503.
    query = "SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"
    with EndpointServer(EndpointConfig(port=0, timeout_seconds=0.2), _numbered(80)) as server:
        start = time.monotonic()
        status, _, body = _get(server, _query_url(query))
        assert time.monotonic() - start < 1.0
        assert (status, body) == (503, b"query timed out")
        cpu = sum(map(_cpu_seconds, server.worker_pids))
        time.sleep(1.0)
        assert sum(map(_cpu_seconds, server.worker_pids)) - cpu < 0.3


def test_a_cached_query_runs_under_each_requests_own_deadline():
    # Sent twice over one kept-alive connection, the cross product is
    # prepared for the first request and taken from the worker's cache for
    # the second; each one must run until its own deadline, no shorter and
    # not on.
    query = "SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"
    timeout = 0.2
    with EndpointServer(EndpointConfig(port=0, timeout_seconds=timeout), _numbered(80)) as server:
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            for _ in range(2):
                start = time.monotonic()
                connection.request("GET", _query_url(query))
                response = connection.getresponse()
                answer = response.status, response.read(), response.will_close
                assert answer == (503, b"query timed out", False)
                assert timeout <= time.monotonic() - start < 1.0
        finally:
            connection.close()


@pytest.mark.parametrize("queries, text_bytes", [(3, 10_000), (100, 120)])
def test_the_prepared_cache_stays_within_its_bounds(
    three_day_store, monkeypatch, queries, text_bytes
):
    # More distinct texts than the cache may hold, and one text longer than
    # it keeps, each sent twice. A worker whose cache passed a bound would
    # answer 500.
    monkeypatch.setattr(endpoint, "_CACHED_QUERIES", queries)
    monkeypatch.setattr(endpoint, "_CACHED_BYTES", text_bytes)
    monkeypatch.setattr(endpoint, "_CACHEABLE_BYTES", 64)
    get = endpoint._PreparedQueries.get

    def checked(self, text, size):
        prepared = get(self, text, size)
        sizes = [kept for _, kept in self._kept.values()]
        assert len(sizes) <= queries and sum(sizes) == self._bytes <= text_bytes
        assert max(sizes, default=0) <= 64
        return prepared

    monkeypatch.setattr(endpoint._PreparedQueries, "get", checked)
    texts = [f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {n}" for n in range(8)]
    texts.append("SELECT ?s ?o WHERE { ?s ?p ?o }" + " " * 100)
    with EndpointServer(EndpointConfig(port=0), three_day_store) as server:
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            headers = {"Content-Type": "application/sparql-query"}
            for text in texts * 2:
                connection.request("POST", "/sparql", text, headers)
                response = connection.getresponse()
                expected = to_results_json(evaluate(three_day_store, parse_query(text))).encode()
                assert (response.status, response.read()) == (200, expected), text
        finally:
            connection.close()


def test_the_prepared_cache_drops_the_least_recently_used_text(three_day_store, monkeypatch):
    monkeypatch.setattr(endpoint, "_CACHED_QUERIES", 2)
    queries = endpoint._PreparedQueries(three_day_store)
    first, second, third = (f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {n}" for n in (1, 2, 3))
    prepared = queries.get(first, len(first))
    assert queries.get(first, len(first)) is prepared
    queries.get(second, len(second))
    queries.get(first, len(first))
    queries.get(third, len(third))
    assert list(queries._kept) == [first, third]
    with pytest.raises(QueryParseError):
        queries.get("SELEC ?s", 8)
    assert list(queries._kept) == [first, third]
    assert queries._bytes == len(first) + len(third)


def test_threads_sharing_the_prepared_cache_keep_its_bounds(monkeypatch, join_query_text):
    # Eight threads, more than the cores, switching as often as the
    # interpreter lets them, prepare and run day-joins (which fill the
    # store's date memo) through one cache that holds five: a lost update
    # would break an answer or the count of the bytes kept.
    monkeypatch.setattr(endpoint, "_CACHED_QUERIES", 5)
    ds = build_three_day_store()
    queries = endpoint._PreparedQueries(ds)
    texts = [f"{join_query_text}LIMIT {n}" for n in range(12)]
    expected = {text: to_results_json(evaluate(ds, parse_query(text))) for text in texts}

    def ask(seed):
        rnd = random.Random(seed)
        for _ in range(100):
            text = rnd.choice(texts)
            assert to_results_json(queries.get(text, len(text)).run()) == expected[text]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(ask, seed) for seed in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    sizes = [size for _, size in queries._kept.values()]
    assert len(sizes) == 5 and sum(sizes) == queries._bytes


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU, so one worker")
def test_connections_opened_in_turn_are_evaluated_in_different_workers():
    # The two-pattern cross product over 500 quads (250,000 rows) takes
    # about a quarter of a CPU second.
    query = _query_url("SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f } LIMIT 1")
    with EndpointServer(EndpointConfig(port=0), _numbered(500)) as server:
        first, second = (http.client.HTTPConnection(*server.address, timeout=10) for _ in "12")
        try:
            first.connect()
            second.connect()
            busy = []
            # Each answer spends its CPU in one worker, and a kept-alive
            # connection stays with its worker.
            for connection in (first, second, first):
                before = [_cpu_seconds(pid) for pid in server.worker_pids]
                connection.request("GET", query)
                response = connection.getresponse()
                assert (response.status, response.will_close) == (200, False)
                response.read()
                spent = [_cpu_seconds(pid) - b for pid, b in zip(server.worker_pids, before)]
                busy.append(spent.index(max(spent)))
                assert max(spent) > 0.1 > sorted(spent)[-2], spent
        finally:
            first.close()
            second.close()
    assert busy[0] != busy[1] and busy[2] == busy[0]


def test_a_killed_worker_is_replaced_and_no_connection_is_lost(three_day_store):
    with EndpointServer(EndpointConfig(port=0), three_day_store) as server:
        killed = server.worker_pids[0]
        os.kill(killed, signal.SIGKILL)
        deadline = time.monotonic() + 5
        while not has_exited(killed):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # Any W fresh connections in a row reach each worker once.
        answers = [_get(server, "/health") for _ in server.worker_pids]
        assert answers == [(200, "text/plain; charset=utf-8", b"ok")] * len(answers)
        assert killed not in server.worker_pids
        assert len(server.worker_pids) == len(os.sched_getaffinity(0))


def test_stop_reaps_every_worker(three_day_store):
    with EndpointServer(EndpointConfig(port=0), three_day_store) as server:
        pids = server.worker_pids
        assert len(pids) == len(os.sched_getaffinity(0))
        assert _get(server, "/health")[0] == 200
    for pid in pids:
        # Neither running nor a zombie: no longer a child of this process.
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


_WHERE = "SELECT ?s WHERE { ?s ?p ?o "
DEEP_QUERIES = {
    "nested groups": "SELECT ?s WHERE " + "{ " * 1000 + "?s ?p ?o " + "} " * 1000,
    "long path": "SELECT ?s WHERE { ?s " + "/".join(["<http://example.org/p>"] * 1001) + " ?o }",
    "sibling groups": "SELECT ?s WHERE { " + "{ ?s ?p ?o } " * 1000 + "}",
    "and operands": _WHERE + "FILTER (" + " && ".join(["?s = ?s"] * 1000) + ") }",
    "nested parentheses": _WHERE + "FILTER (" + "(" * 1000 + "?s = ?s" + ")" * 1000 + ") }",
    "filters": _WHERE + "FILTER (?s = ?s) " * 1000 + "}",
}


@pytest.mark.parametrize("text", DEEP_QUERIES.values(), ids=DEEP_QUERIES.keys())
def test_too_deep_query_is_rejected(server, three_day_store, tmp_path, capsys, text):
    with pytest.raises(QueryParseError, match="nested deeper"):
        parse_query(text)

    store = tmp_path / "climate.ttl"
    store.write_text(serialize_turtle(three_day_store, None, PrefixMap()))
    query = tmp_path / "deep.rq"
    query.write_text(text)
    assert main(["query", str(store), str(query)]) == 1
    assert "nested deeper" in capsys.readouterr().err

    head, body = _raw_exchange(server, _raw_post(text.encode(), len(text), close=True))
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"nested deeper" in body


def test_stalled_body_ends_within_the_timeout(three_day_store):
    config = EndpointConfig(port=0, timeout_seconds=0.5)
    with EndpointServer(config, three_day_store) as server:
        start = time.monotonic()
        head, _ = _raw_exchange(server, _raw_post(b"SEL", 10, close=False))
        assert time.monotonic() - start < 3.0
    assert head == b"" or head.startswith(b"HTTP/1.1 408 ")


def test_oversized_post_is_413_without_reading_the_body(server):
    # Headers only: the server must answer at once, then close.
    head, body = _raw_exchange(server, _raw_post(b"", 1_000_000_000, close=False))
    assert head.startswith(b"HTTP/1.1 413 ")
    assert body == b"query too large"


def test_unexpected_error_is_500_and_closes(three_day_store, monkeypatch, capfd):
    def broken(solutions):
        raise RuntimeError("serializer broke")

    monkeypatch.setattr("energykg.endpoint.to_results_json", broken)
    # Forked after the patch, the workers inherit it; they print to the
    # same stderr file, which capfd reads.
    with EndpointServer(EndpointConfig(port=0), three_day_store) as server:
        request = f"GET {_query_url(SIMPLE_QUERY)} HTTP/1.1\r\nHost: localhost\r\n\r\n"
        head, body = _raw_exchange(server, request.encode())
    assert head.startswith(b"HTTP/1.1 500 ")
    assert b"Content-Type: text/plain" in head
    assert body == b"internal server error"
    assert "RuntimeError: serializer broke" in capfd.readouterr().err


def test_chunked_post_is_411_and_closes(server):
    # The chunk framing must not be taken for a second request.
    chunk = SIMPLE_QUERY.encode()
    request = (
        b"POST /sparql HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Type: application/sparql-query\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"\r\n"
        b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk)
    )
    head, body = _raw_exchange(server, request)
    assert head.startswith(b"HTTP/1.1 411 ")
    assert b"Connection: close" in head
    assert b"Content-Length: %d" % len(body) in head
    assert b"HTTP/1.1 " not in body


def test_keep_alive_requests_are_not_delayed(server):
    # With Nagle's algorithm on, a response sent in two writes waits for the
    # client's delayed ACK (about 40 ms) before its second segment leaves.
    connection = http.client.HTTPConnection(*server.address, timeout=5)
    headers = {"Content-Type": "application/sparql-query"}
    times = []
    try:
        for method, path, body in [("GET", "/health", None)] * 20 + [
            ("POST", "/sparql", SIMPLE_QUERY)
        ] * 20:
            start = time.perf_counter()
            connection.request(method, path, body, headers if body else {})
            response = connection.getresponse()
            response.read()
            times.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(times) < 0.020


def test_kept_alive_responses_equal_fresh_ones(server, join_query_text):
    # Each response on one kept-alive connection is complete and equals the
    # answer to the same request on a fresh connection.
    exchanges = [
        ("GET", _query_url(join_query_text), None, None),
        ("GET", _query_url("SELEC ?s WHERE { ?s ?p ?o }"), None, None),
        ("GET", "/nowhere", None, None),
        ("POST", "/sparql", SIMPLE_QUERY, "text/plain"),
        ("POST", "/sparql", SIMPLE_QUERY, "application/sparql-query"),
    ]
    # Status and body of each request on a fresh connection.
    fresh = [
        _post(server, body, content_type) if body else _get(server, path)[0::2]
        for _, path, body, content_type in exchanges
    ]
    assert [status for status, _ in fresh] == [200, 400, 404, 415, 200]
    connection = http.client.HTTPConnection(*server.address, timeout=5)
    try:
        for (method, path, body, content_type), expected in zip(exchanges, fresh):
            headers = {"Content-Type": content_type} if content_type else {}
            connection.request(method, path, body, headers)
            response = connection.getresponse()
            assert (response.status, response.read()) == expected
            assert not response.will_close
    finally:
        connection.close()


def test_a_closing_response_is_sent_whole_after_a_kept_alive_one(server):
    request = b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n" + _raw_post(
        b"", 1_000_000_000, close=False
    )
    head, body = _raw_exchange(server, request)
    assert head.startswith(b"HTTP/1.1 200 ")
    health, _, closing = body.partition(b"HTTP/1.1 413 ")
    assert health == b"ok"
    assert closing.endswith(b"\r\n\r\nquery too large")


def test_expect_100_continue_is_sent_before_the_body_is_read(server):
    body = SIMPLE_QUERY.encode()
    head = (
        b"POST /sparql HTTP/1.1\r\n"
        b"Host: localhost\r\n"
        b"Content-Type: application/sparql-query\r\n"
        b"Content-Length: %d\r\n"
        b"Expect: 100-continue\r\n"
        b"Connection: close\r\n"
        b"\r\n" % len(body)
    )
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(head)
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        sock.sendall(body)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
    assert response.startswith(b"HTTP/1.1 200 ")
    assert response.endswith(_post(server, SIMPLE_QUERY, "application/sparql-query")[1])
