"""Minimal read-only SPARQL HTTP service over a frozen dataset.

Paths: GET/POST /sparql (query via urlencoded parameter or direct
application/sparql-query body) and GET /health. Responses are
application/sparql-results+json; identical requests always produce
byte-identical bodies because evaluation is deterministic and the
dataset is immutable.

The server is one process per CPU that it may run on, forked after the
store is loaded and the port is bound, so every worker shares the frozen
store copy-on-write. The parent only accepts connections: it hands each,
in turn, to the next worker over that worker's Unix socket pair, so any
W consecutive connections land on W different workers. In a worker each
connection has one thread, which prepares, runs and serializes its
queries itself. A worker found dead at hand-off is reaped and replaced,
and the connection goes to its replacement. ``stop()`` ends and reaps
every worker, and a worker whose parent is gone exits once its socket
pair reaches end of file.

Each worker keeps the prepared queries (``sparql.prepare``) of the query
texts it was last sent, keyed by text, so a text sent again is neither
parsed nor planned again, only run. The cache is bounded: at most 512
queries, of at most 256 KiB of text in all, the least recently used
dropped first; a text over 16 KiB, or one that does not parse, is not
kept. A prepared query holds no state of a run, so the connection
threads of a worker share it.

``timeout_seconds`` bounds a request twice over: the query's run, from
the cache or not, is under the request's own deadline, which stops the
work, and every socket read or write waits at most that long before the
connection is closed without a reply (an idle keep-alive connection
closes the same way).

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

import json
import os
import signal
import socket
import sys
import threading
import time
from collections import OrderedDict
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socketserver import BaseRequestHandler, TCPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from .dataset import Dataset
from .errors import EnergyKgError
from .record import Record
from .sparql import PreparedQuery, QueryTimeout, parse_query, prepare, to_results_json

# A worker keeps at most this many prepared queries, of at most this
# many bytes of text in all; a text longer than the last is not kept.
# The bounds hold the few hundred texts (about 200 KB) of the endpoint
# benchmark's mix, and keep a worker's peak RSS below that of the
# parent, which loaded the store.
_CACHED_QUERIES = 512
_CACHED_BYTES = 1 << 18
_CACHEABLE_BYTES = 1 << 14


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
    """The listening socket and one worker process per CPU; start()
    accepts on a thread, so tests use it as a context manager."""

    def __init__(self, config: EndpointConfig, ds: Dataset) -> None:
        if not ds.frozen:
            raise EnergyKgError("dataset must be frozen before serving")
        self._handler = _make_handler(ds, config)
        self._listener = _Listener((config.host, config.port), self._hand_off)
        self._workers: list[tuple[int, socket.socket]] = []
        self._turn = 0
        self._thread: Optional[threading.Thread] = None
        try:
            for _ in range(len(os.sched_getaffinity(0))):
                self._workers.append(self._fork())
        except BaseException:
            self._end_workers()
            self._listener.server_close()
            raise

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.server_address[:2]

    @property
    def worker_pids(self) -> list[int]:
        return [pid for pid, _ in self._workers]

    def start(self) -> "EndpointServer":
        self._thread = threading.Thread(target=self._listener.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._listener.serve_forever()

    def stop(self) -> None:
        self._listener.shutdown()
        self._listener.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._end_workers()

    def __enter__(self) -> "EndpointServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _hand_off(self, connection: socket.socket, client_address: tuple) -> None:
        """Pass the connection to the next worker in turn."""
        turn = self._turn
        self._turn = (turn + 1) % len(self._workers)
        message = json.dumps(client_address).encode()
        try:
            socket.send_fds(self._workers[turn][1], [message], [connection.fileno()])
        except ConnectionError:
            # The worker is gone, and its end of the pair with it.
            pid, channel = self._workers[turn]
            channel.close()
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            self._workers[turn] = self._fork(connection)
            socket.send_fds(self._workers[turn][1], [message], [connection.fileno()])

    def _fork(self, connection: Optional[socket.socket] = None) -> tuple[int, socket.socket]:
        """A new worker's pid and the parent's end of its socket pair. A
        forked worker shares the loaded store, which a spawned one would
        load again; under ``serve`` the parent runs no other thread, so
        no lock is held across the fork."""
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        pid = os.fork()
        if pid:
            theirs.close()
            return pid, ours
        code = 1
        try:
            # Ctrl-C reaches the whole process group; the parent ends its workers.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            # Held here, the parent's sockets would outlive the parent.
            channels = [channel for _, channel in self._workers]
            for inherited in (self._listener.socket, ours, connection, *channels):
                if inherited is not None:
                    inherited.close()
            _work(theirs, self._handler)
            code = 0
        except Exception:
            import traceback

            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)

    def _end_workers(self) -> None:
        for pid, channel in self._workers:
            channel.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        for pid, _ in self._workers:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        self._workers = []


class _Listener(TCPServer):
    """Accepts connections and gives each to hand_off, then closes its own copy."""

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], hand_off: Callable) -> None:
        self.hand_off = hand_off
        super().__init__(address, BaseRequestHandler)

    def process_request(self, request: socket.socket, client_address: tuple) -> None:
        self.hand_off(request, client_address)
        self.close_request(request)


def _work(channel: socket.socket, handler: type) -> None:
    """Serve each connection that arrives on channel on a thread of its
    own, until the channel's other end is closed."""
    httpd = ThreadingHTTPServer(("", 0), handler, bind_and_activate=False)
    # Its own socket is never bound: connections arrive on the channel.
    httpd.server_close()
    while True:
        message, fds, _, _ = socket.recv_fds(channel, 256, 1)
        if not message:
            return
        httpd.process_request(socket.socket(fileno=fds[0]), tuple(json.loads(message)))


class _PreparedQueries:
    """A worker's prepared queries by text, the least recently used
    dropped first once the cache holds more than ``_CACHED_QUERIES`` of
    them or more than ``_CACHED_BYTES`` of text. A text longer than
    ``_CACHEABLE_BYTES``, or one that does not parse, is not kept. The
    worker's connection threads share it; a text that two of them prepare
    at once is kept once."""

    def __init__(self, ds: Dataset) -> None:
        self._ds = ds
        # Each text's prepared query and the text's length in bytes.
        self._kept: OrderedDict[str, tuple[PreparedQuery, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, text: str, size: int) -> PreparedQuery:
        """The prepared query of a text that is size bytes long."""
        with self._lock:
            found = self._kept.get(text)
            if found is not None:
                self._kept.move_to_end(text)
                return found[0]
        prepared = prepare(self._ds, parse_query(text))
        if size <= _CACHEABLE_BYTES:
            with self._lock:
                if text not in self._kept:
                    self._kept[text] = prepared, size
                    self._bytes += size
                    while len(self._kept) > _CACHED_QUERIES or self._bytes > _CACHED_BYTES:
                        self._bytes -= self._kept.popitem(last=False)[1][1]
        return prepared


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
    # Made before the workers are forked, so each starts with an empty copy.
    queries = _PreparedQueries(ds)

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
            size = len(query_text.encode())
            if size > config.max_query_bytes:
                self._reply_text(413, "query too large")
                return
            try:
                body = to_results_json(queries.get(query_text, size).run(deadline)).encode()
            except QueryTimeout:
                self._reply_text(503, "query timed out")
                return
            except EnergyKgError as exc:
                self._reply_text(400, str(exc))
                return
            except Exception:
                import traceback

                traceback.print_exc()
                # A worker leaves by os._exit, which flushes nothing.
                sys.stderr.flush()
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
