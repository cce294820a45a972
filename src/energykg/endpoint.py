"""Minimal read-only SPARQL HTTP service over a frozen dataset.

Paths: GET/POST /sparql (query via urlencoded parameter or direct
application/sparql-query body) and GET /health. Responses are
application/sparql-results+json; identical requests always produce
byte-identical bodies because evaluation is deterministic and the
dataset is immutable.

Each connection has one thread, which parses, evaluates and serializes
its queries itself. ``timeout_seconds`` bounds a request twice over: the
evaluation runs under a deadline that stops the work, and every socket
read or write waits at most that long before the connection is closed
without a reply (an idle keep-alive connection closes the same way).

Connections are kept alive and set TCP_NODELAY, and each response is
written through a buffer that is flushed once the request is handled: a
response that fits the buffer (``io.DEFAULT_BUFFER_SIZE``, 8 KiB) leaves
in one write, and a longer body follows its headers at once, so no
response waits for the client's delayed ACK.

Status codes: 200 results; 400 malformed query, missing query parameter
or bad Content-Length; 404 unknown path; 411 POST with a
Transfer-Encoding (its body is never read, and the connection closes);
413 query over ``max_query_bytes`` (a POST body that long is never read,
and the connection closes); 415 unsupported POST content type; 500
unexpected error (the connection closes); 503 evaluation passed its
deadline.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .dataset import Dataset
from .errors import EnergyKgError
from .record import Record
from .sparql import QueryTimeout, evaluate, parse_query, to_results_json


class EndpointConfig(Record):
    _fields = ("host", "port", "max_query_bytes", "timeout_seconds")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_query_bytes: int = 262144,
        timeout_seconds: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.max_query_bytes = max_query_bytes
        self.timeout_seconds = timeout_seconds
        if not (0 <= self.port <= 65535):
            raise EnergyKgError(f"port out of range: {self.port}")
        if self.timeout_seconds <= 0:
            raise EnergyKgError("request timeout must be positive")
        if self.max_query_bytes <= 0:
            raise EnergyKgError("max query length must be positive")


class EndpointServer:
    """Owns the HTTP server thread; use as a context manager in tests."""

    def __init__(self, config: EndpointConfig, ds: Dataset) -> None:
        if not ds.frozen:
            raise EnergyKgError("dataset must be frozen before serving")
        handler = _make_handler(ds, config)
        self._httpd = ThreadingHTTPServer((config.host, config.port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    def start(self) -> "EndpointServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "EndpointServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(config: EndpointConfig, ds: Dataset) -> None:
    """Blocking convenience wrapper used by the CLI. Once bound, it stops
    cleanly on SIGINT or SIGTERM, also when it was started with SIGINT
    ignored, as a shell starts a background job; the previous handlers
    are restored when it returns. Once bound, and with those handlers
    set, it writes one line to stderr, ``listening on
    http://HOST:PORT``, which names the port the system chose for port
    0."""
    server = EndpointServer(config, ds)
    stops = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(signum, signal.default_int_handler) for signum in stops]
    try:
        host, port = server.address
        print(f"listening on http://{host}:{port}", file=sys.stderr, flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        for signum, handler in zip(stops, previous):
            signal.signal(signum, handler)


def _make_handler(ds: Dataset, config: EndpointConfig):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Socket timeout for every read and write on the connection.
        timeout = config.timeout_seconds
        # TCP_NODELAY, and a writer with the default buffer, which
        # handle_one_request flushes once per request: with Nagle's
        # algorithm on, a body written after its headers waits for the
        # client's delayed ACK of them (about 40 ms).
        disable_nagle_algorithm = True
        wbufsize = -1

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

        def handle_expect_100(self) -> bool:
            # The interim 100 must leave before the body is waited for.
            super().handle_expect_100()
            self.wfile.flush()
            return True

        def _reply(self, status: int, body: bytes, content_type: str, close: bool = False) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if close:
                # Also sets close_connection: the server ends the connection.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _reply_text(self, status: int, text: str, close: bool = False) -> None:
            self._reply(status, text.encode(), "text/plain; charset=utf-8", close)

        def _run_query(self, query_text: str) -> None:
            deadline = time.monotonic() + config.timeout_seconds
            if len(query_text.encode()) > config.max_query_bytes:
                self._reply_text(413, "query too large")
                return
            try:
                query = parse_query(query_text)
                body = to_results_json(evaluate(ds, query, deadline=deadline)).encode()
            except QueryTimeout:
                self._reply_text(503, "query timed out")
                return
            except EnergyKgError as exc:
                self._reply_text(400, str(exc))
                return
            except Exception:
                import traceback

                traceback.print_exc()
                self._reply_text(500, "internal server error", close=True)
                return
            self._reply(200, body, "application/sparql-results+json")

        def do_GET(self) -> None:  # noqa: N802
            url = urlsplit(self.path)
            if url.path == "/health":
                self._reply_text(200, "ok")
                return
            if url.path != "/sparql":
                self._reply_text(404, "not found")
                return
            params = parse_qs(url.query)
            if "query" not in params:
                self._reply_text(400, "missing query parameter")
                return
            self._run_query(params["query"][0])

        def do_POST(self) -> None:  # noqa: N802
            if "Transfer-Encoding" in self.headers:
                # The body's framing is not read, so the connection cannot be reused.
                self._reply_text(411, "send a Content-Length, not a Transfer-Encoding", close=True)
                return
            url = urlsplit(self.path)
            if url.path != "/sparql":
                # The body stays unread, so the connection cannot be reused.
                self._reply_text(404, "not found", close=True)
                return
            content_type = self.headers.get("Content-Type", "").split(";")[0].strip()
            length_text = self.headers.get("Content-Length", "0").strip()
            if not (length_text.isascii() and length_text.isdigit()):
                # The body's extent is unknown, so the connection cannot be reused.
                self._reply_text(400, f"invalid Content-Length: {length_text!r}", close=True)
                return
            length = int(length_text)
            if length > config.max_query_bytes:
                # The body stays unread, so the connection cannot be reused.
                self._reply_text(413, "query too large", close=True)
                return
            body = self.rfile.read(length).decode("utf-8", errors="replace")
            if content_type == "application/sparql-query":
                self._run_query(body)
                return
            if content_type == "application/x-www-form-urlencoded":
                params = parse_qs(body)
                if "query" not in params:
                    self._reply_text(400, "missing query parameter")
                    return
                self._run_query(params["query"][0])
                return
            self._reply_text(415, "unsupported content type")

    return Handler
