"""Minimal read-only SPARQL HTTP service over a frozen dataset.

Paths: GET/POST /sparql (query via urlencoded parameter or direct
application/sparql-query body) and GET /health. Responses are
application/sparql-results+json; identical requests always produce
byte-identical bodies because evaluation is deterministic and the
dataset is immutable.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .dataset import Dataset
from .errors import EnergyKgError
from .sparql import evaluate, parse_query, to_results_json


@dataclass
class EndpointConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    max_query_bytes: int = 262144
    timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
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
        self.config = config
        self._executor = ThreadPoolExecutor(max_workers=32)
        handler = _make_handler(ds, config, self._executor)
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
        self._executor.shutdown(wait=False)
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "EndpointServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(config: EndpointConfig, ds: Dataset) -> None:
    """Blocking convenience wrapper used by the CLI."""
    server = EndpointServer(config, ds)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


def _make_handler(ds: Dataset, config: EndpointConfig, executor: ThreadPoolExecutor):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

        def _reply(self, status: int, body: bytes, content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _reply_text(self, status: int, text: str) -> None:
            self._reply(status, text.encode(), "text/plain; charset=utf-8")

        def _run_query(self, query_text: str) -> None:
            if len(query_text.encode()) > config.max_query_bytes:
                self._reply_text(413, "query too large")
                return
            try:
                query = parse_query(query_text)
            except EnergyKgError as exc:
                self._reply_text(400, str(exc))
                return
            start = time.monotonic()
            future = executor.submit(_evaluate_to_json, ds, query)
            try:
                body = future.result(timeout=config.timeout_seconds)
            except FutureTimeout:
                future.cancel()
                self._reply_text(503, "query timed out")
                return
            except EnergyKgError as exc:
                self._reply_text(400, str(exc))
                return
            if time.monotonic() - start > config.timeout_seconds:
                self._reply_text(503, "query timed out")
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
            url = urlsplit(self.path)
            if url.path != "/sparql":
                self._reply_text(404, "not found")
                return
            content_type = self.headers.get("Content-Type", "").split(";")[0].strip()
            length_text = self.headers.get("Content-Length", "0").strip()
            if not (length_text.isascii() and length_text.isdigit()):
                # The body's extent is unknown, so the connection cannot be reused.
                self.close_connection = True
                self._reply_text(400, f"invalid Content-Length: {length_text!r}")
                return
            length = int(length_text)
            if length > config.max_query_bytes:
                # Drain enough to keep the connection coherent, then refuse.
                self.rfile.read(length)
                self._reply_text(413, "query too large")
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


def _evaluate_to_json(ds: Dataset, query) -> bytes:
    return to_results_json(evaluate(ds, query)).encode()
