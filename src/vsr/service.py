"""Reward evaluation as a long-running service.

Two transports share one evaluator, so the same request object yields the
same response bytes whether it arrives on stdin or over HTTP:

  stdio  one JSON request (or {"batch": [...]}) per input line, one JSON
         response per request per output line; a malformed line produces an
         error response with a null id, never a crash or exit.
  HTTP   POST /v1/reward (one request object), POST /v1/reward/batch
         (array of request objects), GET /healthz ({"status": "ok",
         "version", "references": {"kept", "size", "hits", "misses"}};
         see the reference store below).

Request:  {"id": any, "ref": str, "gen": str, "mode": "ast" | "seq"}
          mode is optional and defaults to "ast".
Response: {"id", "status", "sim", "reward", "error"} with status one of
          parsed / parse_fail / not_code / reference_error.  Invalid
          requests, unparsable or too-deep references, internal faults,
          and timeouts all report reference_error with sim and reward null;
          a too-deep generation is parse_fail (see `vsr.reward`).

Each request, and each item of a batch, is evaluated on the thread that
received it, with a deadline of `timeout_ms` from its start.  The timeout is
cooperative: the scoring loops check the deadline as they go (see
`vsr.deadline`), so the work stops when it passes and the request answers
`evaluation exceeded N ms`; nothing keeps running afterwards.  A
`timeout_ms` of 0 or less means no deadline.

A batch (a stdio {"batch": [...]} line or a /v1/reward/batch body) scores
through a reference memo (see `vsr.reward`), so each distinct reference in it
is prepared once, and against it each sample shape is parsed once and each
tree scored once per mode.  The memo's entries are kept across batches in
one process-wide store of prepared references.  At a batch's start each of
its distinct reference texts is taken out of the store when it is there;
after the batch's last item using it, the entry goes back as the most
recently used.  A later batch on that reference then starts from its tree,
its table and the shapes and scores of its samples, with the same answers.
No two threads hold one entry: a batch asking for a reference that another
batch holds prepares its own, and the entry put back last is kept.  The
store counts an entry's size in units of about 32 bytes: its interned
nodes and the tokens of its memoized shapes, one unit per 32 characters of
its text, and 32 more for its records.  Past `_STORE_BOUND` (2**19) units,
about 15 MB of golden-sized references and at most about 29 MB of tiny
ones, it drops its least recently used entries.  So a cycle of
references larger than the store never hits in it, and then costs only the
putting back.  Single requests take no memo, and neither read nor fill the
store.  /healthz reports the store's entries (kept), its units (size), and
how many references batches found there (hits) and did not (misses).

HTTP framing.  The server is a `socketserver.ThreadingTCPServer`, one thread
per connection, and the handler runs the HTTP/1.1 keep-alive loop itself;
nothing from `http.server`, `http.client` or `email` is loaded.  Per request:

  - a request line `METHOD TARGET HTTP/1.1` (or `HTTP/1.0`) and at most 100
    header lines, each at most 64 KiB; CR LF lines before a request line
    are skipped;
  - a body framed by exactly one all-digit Content-Length, at most
    `max_body_bytes`; Transfer-Encoding is refused;
  - `Expect: 100-continue` is answered with `HTTP/1.1 100 Continue` just
    before the body is read;
  - every response is `HTTP/1.1 <status>` with Date, Content-Type
    (application/json) and Content-Length headers and a JSON body; an error
    body is {"error": message}.

The connection stays open after each answer unless the client is HTTP/1.0,
sent `Connection: close`, or the request was refused before its body was
read (a bad request line, version or header, a missing or bad
Content-Length, Transfer-Encoding, an unknown POST path, a method other than
GET and POST, or a body over the cap; a GET with a body is answered, then
closed).  Those responses carry `Connection: close`, and the server closes
the connection after them.  After a refusal it first ends its side and
reads and discards what the client still sends, for at most 2 s and
32 MiB, so a client still sending a refused body reads the answer instead
of a reset.  Statuses: 200, 400 (bad framing, malformed JSON,
a batch body that is not an array), 404, 411, 413, 414 and 431 (line or
header count over the caps), 501 (method) and 505 (version).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

from vsr.deadline import DeadlineExceeded
from vsr.reward import (
    PreparedReference,
    ReferenceParseError,
    ReferenceTooDeepError,
    reward,
)
from vsr.similarity import DEFAULT_DEPTH_LIMIT

if TYPE_CHECKING:
    from socketserver import ThreadingTCPServer

STATUS_REFERENCE_ERROR = "reference_error"


@dataclass(frozen=True)
class ServiceConfig:
    timeout_ms: int = 5000
    max_body_bytes: int = 8 * 1024 * 1024
    depth_limit: int = DEFAULT_DEPTH_LIMIT


def _encode(payload) -> str:
    # Single encoder for both transports; bit-for-bit equality depends on it.
    return json.dumps(payload)


def _error_response(req_id, message: str) -> dict:
    return {
        "id": req_id,
        "status": STATUS_REFERENCE_ERROR,
        "sim": None,
        "reward": None,
        "error": message,
    }


def evaluate(
    request,
    *,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    memo: dict | None = None,
    deadline: float | None = None,
) -> dict:
    """Score one request object and build its response object.

    `memo` is the batch's reference memo and `deadline` the request's
    deadline, both passed on to `reward`; past the deadline this raises
    DeadlineExceeded.
    """
    if not isinstance(request, dict):
        return _error_response(None, "request must be a JSON object")
    req_id = request.get("id")
    ref = request.get("ref")
    gen = request.get("gen")
    mode = request.get("mode", "ast")
    if not isinstance(ref, str):
        return _error_response(req_id, "missing or non-string field 'ref'")
    if not isinstance(gen, str):
        return _error_response(req_id, "missing or non-string field 'gen'")
    if mode not in ("ast", "seq"):
        return _error_response(req_id, "mode must be 'ast' or 'seq'")
    try:
        outcome = reward(
            gen, ref, mode=mode, depth_limit=depth_limit, memo=memo, deadline=deadline
        )
    except ReferenceParseError as exc:
        return _error_response(req_id, f"reference does not parse: {exc}")
    except ReferenceTooDeepError as exc:
        return _error_response(req_id, f"reference is too deep: {exc}")
    return {
        "id": req_id,
        "status": outcome.status.value,
        "sim": outcome.sim,
        "reward": outcome.reward,
        "error": None,
    }


def _request_id(request) -> object:
    return request.get("id") if isinstance(request, dict) else None


def _evaluate_with_timeout(
    request, config: ServiceConfig, memo: dict | None = None
) -> dict:
    timeout_ms = config.timeout_ms
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms > 0 else None
    try:
        return evaluate(
            request, depth_limit=config.depth_limit, memo=memo, deadline=deadline
        )
    except DeadlineExceeded:
        return _error_response(
            _request_id(request), f"evaluation exceeded {timeout_ms} ms"
        )
    except Exception as exc:  # a service answers; it does not die
        return _error_response(_request_id(request), f"internal error: {exc}")


def _reference_text(item) -> str | None:
    ref = item.get("ref") if isinstance(item, dict) else None
    return ref if isinstance(ref, str) else None


# The most units (about 32 bytes each) the reference store keeps; see the
# module doc and `_ReferenceStore.check_in`.
_STORE_BOUND = 1 << 19


class _ReferenceStore:
    """Prepared references kept across batches, least recently used first.

    Entries are checked out into a batch's memo and checked in after their
    last use (see the module doc).  Each access is a few dict operations
    under one lock, and no scoring runs under it; the hit and miss counters
    count the references checked out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[PreparedReference, int]] = {}
        self._size = 0
        self._hits = self._misses = 0

    def check_out(self, refs) -> dict[str, PreparedReference]:
        """A batch memo holding the kept entries of `refs`, taken out."""
        memo = {}
        with self._lock:
            for ref in refs:
                kept = self._entries.pop(ref, None)
                if kept is not None:
                    memo[ref] = kept[0]
                    self._size -= kept[1]
                else:
                    self._misses += 1
            self._hits += len(memo)
        return memo

    def check_in(self, ref: str, prepared: PreparedReference) -> None:
        """Keep `prepared` as the most recently used, within the bound."""
        # A unit is about 32 bytes: so is an interned node or a shape token
        # on average, an entry's records and dicts come to about 32 units,
        # and its text to one unit per 32 characters.  Counting the last two
        # keeps the bound on entries of tiny modules or mostly comments.
        table, shapes = prepared.table, prepared.shapes
        size = 32 + len(ref) // 32 + len(table) + sum(map(len, shapes))
        entries = self._entries
        with self._lock:
            old = entries.pop(ref, None)
            if old is not None:
                self._size -= old[1]
            entries[ref] = (prepared, size)
            self._size += size
            while self._size > _STORE_BOUND:
                self._size -= entries.pop(next(iter(entries)))[1]

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "kept": len(self._entries),
                "size": self._size,
                "hits": self._hits,
                "misses": self._misses,
            }


_REFERENCES = _ReferenceStore()


def _evaluate_batch(items: list, config: ServiceConfig) -> list[dict]:
    # The batch's memo starts with the store's entries for its references,
    # so each distinct reference is prepared at most once.  An entry goes
    # back to the store after the last item that uses it: a prepared
    # reference is tens of times larger than its text, and a batch of
    # unique references must not hold them all at once.
    last_use = {_reference_text(item): i for i, item in enumerate(items)}
    store = _REFERENCES
    memo = store.check_out(ref for ref in last_use if ref is not None)
    responses = []
    for i, item in enumerate(items):
        responses.append(_evaluate_with_timeout(item, config, memo))
        ref = _reference_text(item)
        if last_use[ref] == i:
            prepared = memo.pop(ref, None)
            if prepared is not None:
                store.check_in(ref, prepared)
    return responses


def handle_line(line: str, config: ServiceConfig = ServiceConfig()) -> list[dict]:
    """Responses for one stdio input line, in request order."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        return [_error_response(None, f"invalid JSON: {exc}")]
    if isinstance(obj, dict) and "batch" in obj:
        batch = obj["batch"]
        if not isinstance(batch, list):
            return [_error_response(None, "'batch' must be an array")]
        return _evaluate_batch(batch, config)
    return [_evaluate_with_timeout(obj, config)]


def serve_stdio(
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    *,
    config: ServiceConfig = ServiceConfig(),
) -> None:
    """Run the JSON-lines loop until EOF on the input stream."""
    inp = stdin if stdin is not None else sys.stdin
    out = stdout if stdout is not None else sys.stdout
    for raw in inp:
        line = raw.strip()
        if not line:
            continue
        for response in handle_line(line, config):
            out.write(_encode(response) + "\n")
        out.flush()


# Caps on one request or header line and on the header count, as in http.server.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    411: "Length Required",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    501: "Not Implemented",
    505: "HTTP Version Not Supported",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_BLANK = (b"\r\n", b"\n")
# A refused request's unread bytes are drained for at most this long and
# this many bytes before the connection closes (see `_RewardHandler._refuse`).
_LINGER_SECONDS = 2.0
_LINGER_BYTES = 32 * 1024 * 1024


def _http_date() -> str:
    """The current time as an RFC 9110 IMF-fixdate, locale-independent."""
    t = time.gmtime()
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} {t.tm_year} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class _RewardHandler:
    """The HTTP/1.1 keep-alive loop and its routes.  `create_http_server`
    mixes this into `socketserver.StreamRequestHandler`, so only the HTTP
    path imports socketserver; `rfile` is buffered and each `wfile.write`
    is one unbuffered send."""

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # the client went away; there is no one to answer

    def _send(self, status: int, payload, close: bool) -> bool:
        """Answer with a JSON body; whether the connection stays open."""
        body = _encode(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Date: {_http_date()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        # Two sends with Nagle's algorithm on, so the body waits for the
        # client's ACK of the head.  One send would end that wait; it is
        # parked (ROADMAP: "HTTP responses wait about 40 ms each").
        self.wfile.write(head.encode("ascii"))
        self.wfile.write(body)
        return not close

    def _refuse(self, status: int, message: str) -> bool:
        # Sent before the request's body is read, so the rest of the stream
        # cannot be framed: answer, then close.  Closing with bytes unread
        # resets the connection, and the reset can discard the answer before
        # a client that is still sending its body reads it.  So end our
        # side first and drain the client's, within bounds, before closing.
        from socket import SHUT_WR

        self._send(status, {"error": message}, close=True)
        sock = self.connection
        sock.shutdown(SHUT_WR)
        end = time.monotonic() + _LINGER_SECONDS
        left = _LINGER_BYTES
        while left > 0:
            wait = end - time.monotonic()
            if wait <= 0:
                break
            sock.settimeout(wait)
            chunk = sock.recv(min(left, 65536))
            if not chunk:
                break
            left -= len(chunk)
        return False

    def _serve_one(self) -> bool:
        """Read and answer one request; whether the connection stays open."""
        rfile = self.rfile
        line = rfile.readline(_MAX_LINE + 1)
        while line in _BLANK:  # RFC 9112 2.2: ignore CRLF before a request
            line = rfile.readline(_MAX_LINE + 1)
        if not line:
            return False
        if len(line) > _MAX_LINE:
            return self._refuse(414, f"request line exceeds {_MAX_LINE} bytes")
        words = line.split()
        if len(words) != 3:
            return self._refuse(400, "malformed request line")
        method, target, version = words
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            if not version.startswith(b"HTTP/"):
                return self._refuse(400, "malformed request line")
            return self._refuse(505, f"unsupported version {version.decode('latin-1')}")

        lengths = []
        keep_alive = version == b"HTTP/1.1"
        expect_continue = transfer_encoding = False
        for _ in range(_MAX_HEADERS + 1):
            line = rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                return self._refuse(431, f"header line exceeds {_MAX_LINE} bytes")
            if line in _BLANK:
                break
            if not line:
                return False
            name, colon, value = line.partition(b":")
            if not colon:
                return self._refuse(400, "malformed header line")
            name = name.strip().lower()
            if name == b"content-length":
                lengths.append(value.strip())
            elif name == b"connection":
                if b"close" in (t.strip() for t in value.lower().split(b",")):
                    keep_alive = False
            elif name == b"expect":
                expect_continue = value.strip().lower() == b"100-continue"
            elif name == b"transfer-encoding":
                transfer_encoding = True
        else:
            return self._refuse(431, f"more than {_MAX_HEADERS} headers")

        if transfer_encoding:
            return self._refuse(411, "Transfer-Encoding is not supported; send Content-Length")
        length = None
        if lengths:
            # Exactly one, all digits; 19 digits would already be an exabyte.
            if len(lengths) > 1 or not lengths[0].isdigit() or len(lengths[0]) > 18:
                return self._refuse(400, "missing or invalid Content-Length")
            length = int(lengths[0])
        path = target.decode("latin-1")
        if method == b"GET":
            close = not keep_alive or bool(length)  # a GET's body is not read
            if path == "/healthz":
                from vsr import __version__

                health = {
                    "status": "ok",
                    "version": __version__,
                    "references": _REFERENCES.counters(),
                }
                return self._send(200, health, close)
            return self._send(404, {"error": f"unknown path {path}"}, close)
        if method != b"POST":
            return self._refuse(501, f"unsupported method {method.decode('latin-1')}")
        if path not in ("/v1/reward", "/v1/reward/batch"):
            return self._refuse(404, f"unknown path {path}")
        if length is None:
            return self._refuse(400, "missing or invalid Content-Length")
        config: ServiceConfig = self.server.config  # type: ignore[attr-defined]
        if length > config.max_body_bytes:
            return self._refuse(413, f"body exceeds {config.max_body_bytes} bytes")
        if expect_continue and version == b"HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        data = rfile.read(length)
        if len(data) < length:
            return False  # the client closed mid-body
        close = not keep_alive
        try:
            obj = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            return self._send(400, {"error": f"invalid JSON: {exc}"}, close)
        if path == "/v1/reward":
            return self._send(200, _evaluate_with_timeout(obj, config), close)
        if not isinstance(obj, list):
            return self._send(400, {"error": "batch body must be a JSON array"}, close)
        return self._send(200, _evaluate_batch(obj, config), close)


def create_http_server(
    host: str, port: int, config: ServiceConfig = ServiceConfig()
) -> ThreadingTCPServer:
    """Bound but not yet serving; callers drive serve_forever themselves."""
    from socketserver import StreamRequestHandler, ThreadingTCPServer

    class Handler(_RewardHandler, StreamRequestHandler):
        pass

    class Server(ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    server = Server((host, port), Handler)
    server.config = config  # type: ignore[attr-defined]
    return server


def serve_http(
    host: str, port: int, config: ServiceConfig = ServiceConfig()
) -> None:
    server = create_http_server(host, port, config)
    try:
        server.serve_forever()
    finally:
        server.server_close()
