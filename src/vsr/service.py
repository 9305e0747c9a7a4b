"""Reward evaluation as a long-running service.

Two transports share one evaluator, so the same request object yields the
same response bytes whether it arrives on stdin or over HTTP:

  stdio  one JSON request (or {"batch": [...]}) per input line, one JSON
         response per request per output line; a malformed line produces an
         error response with a null id, never a crash or exit.
  HTTP   POST /v1/reward (one request object), POST /v1/reward/batch
         (array of request objects), GET /healthz.

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

A batch (a stdio {"batch": [...]} line or a /v1/reward/batch body) gets a
fresh reference memo (see `vsr.reward`), so each distinct reference in it is
prepared once; an entry is dropped after the batch's last item using it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

from vsr.deadline import DeadlineExceeded
from vsr.reward import ReferenceParseError, ReferenceTooDeepError, reward
from vsr.similarity import DEFAULT_DEPTH_LIMIT

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

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


def _evaluate_batch(items: list, config: ServiceConfig) -> list[dict]:
    # One memo per batch, so each distinct reference is prepared once.  An
    # entry is dropped after the last item that uses it: a prepared
    # reference is tens of times larger than its text, and a batch of
    # unique references must not hold them all at once.
    last_use = {_reference_text(item): i for i, item in enumerate(items)}
    memo: dict = {}
    responses = []
    for i, item in enumerate(items):
        responses.append(_evaluate_with_timeout(item, config, memo))
        ref = _reference_text(item)
        if last_use[ref] == i:
            memo.pop(ref, None)
    return responses


def handle_line(line: str, config: ServiceConfig = ServiceConfig()) -> list[dict]:
    """Responses for one stdio input line, in request order."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
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


class _RewardHandler:
    """The HTTP routes.  `create_http_server` mixes this into
    `http.server.BaseHTTPRequestHandler`, so only the HTTP path imports it."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:
        pass  # keep stderr clean under test and batch use

    def _send_json(self, status_code: int, payload) -> None:
        body = _encode(payload).encode("utf-8")
        self.send_response(status_code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            from vsr import __version__

            self._send_json(200, {"status": "ok", "version": __version__})
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        config: ServiceConfig = self.server.config  # type: ignore[attr-defined]
        if self.path not in ("/v1/reward", "/v1/reward/batch"):
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_json(400, {"error": "missing or invalid Content-Length"})
            return
        if length > config.max_body_bytes:
            self._send_json(
                413, {"error": f"body exceeds {config.max_body_bytes} bytes"}
            )
            return
        try:
            obj = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON: {exc}"})
            return
        if self.path == "/v1/reward":
            self._send_json(200, _evaluate_with_timeout(obj, config))
        else:
            if not isinstance(obj, list):
                self._send_json(400, {"error": "batch body must be a JSON array"})
                return
            self._send_json(200, _evaluate_batch(obj, config))


def create_http_server(
    host: str, port: int, config: ServiceConfig = ServiceConfig()
) -> ThreadingHTTPServer:
    """Bound but not yet serving; callers drive serve_forever themselves."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(_RewardHandler, BaseHTTPRequestHandler):
        pass

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
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
