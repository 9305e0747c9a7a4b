import contextlib
import http.client
import importlib
import io
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from conftest import golden_paths
from helpers import chain_module, wide_module
from vsr.corpus import MutationKind, MutationSpec, mutate
from vsr.reward import reward
from vsr.service import (
    ServiceConfig,
    create_http_server,
    evaluate,
    handle_line,
    serve_stdio,
)

REF = "module m(input a, output y);\n  assign y = ~a;\nendmodule"
GEN = "module m(input b, output z);\n  assign z = ~b;\nendmodule"
REF2 = "module m(input a, output y);\n  assign y = a & a;\nendmodule"
BROKEN_REF = "module m(input a output y); endmodule"
FAT = wide_module(3000)  # far more than 1 ms of work, and of deadline checks
DEEP = chain_module(600)  # cleans to depth 603, over the default limit 512
DEEP_ANSWERS = [
    {"id": "gen", "status": "parse_fail", "sim": None, "reward": -5.0, "error": None},
    {
        "id": "ref",
        "status": "reference_error",
        "sim": None,
        "reward": None,
        "error": "reference is too deep: tree depth 603 exceeds limit 512",
    },
]


def deep_requests(mode="ast"):
    """A too-deep generation, then a too-deep reference; see DEEP_ANSWERS."""
    return [
        {"id": "gen", "ref": REF, "gen": DEEP, "mode": mode},
        {"id": "ref", "ref": DEEP, "gen": REF, "mode": mode},
    ]


def mixed_batch():
    """One golden reference with mutant, cross, parse-fail and prose samples,
    plus slots whose reference does not parse."""
    ref_path, cross_path = golden_paths()[:2]
    ref = ref_path.read_text(encoding="utf-8")
    cross = cross_path.read_text(encoding="utf-8")
    gens = [ref, cross, "module m(input a endmodule", "Sure, here is the code."]
    gens += [mutate(ref, MutationSpec(kind, seed=5)) for kind in MutationKind]
    batch = [{"id": i, "ref": ref, "gen": gen} for i, gen in enumerate(gens)]
    batch.insert(2, {"id": "bad-1", "ref": BROKEN_REF, "gen": ref})
    batch.insert(5, {"id": "bad-2", "ref": BROKEN_REF, "gen": cross})
    batch.append({"id": "seq", "ref": ref, "gen": cross, "mode": "seq"})
    batch.append({"id": "other", "ref": cross, "gen": ref})
    return batch


class TestEvaluate:
    def test_parsed(self):
        resp = evaluate({"id": 7, "ref": REF, "gen": GEN})
        assert resp == {
            "id": 7,
            "status": "parsed",
            "sim": 1.0,
            "reward": 10.0,
            "error": None,
        }

    def test_sim_matches_library(self):
        gen = "module m(input a, output y);\n  wire t;\n  assign t = a;\n  assign y = t;\nendmodule"
        resp = evaluate({"id": None, "ref": REF, "gen": gen})
        lib = reward(gen, REF)
        assert resp["sim"] == lib.sim
        assert resp["reward"] == lib.reward

    def test_tiers(self):
        fail = evaluate({"id": 1, "ref": REF, "gen": "module m(input a endmodule"})
        assert (fail["status"], fail["sim"], fail["reward"]) == ("parse_fail", None, -5.0)
        prose = evaluate({"id": 2, "ref": REF, "gen": "write me a module"})
        assert (prose["status"], prose["reward"]) == ("not_code", -10.0)

    def test_reference_error(self):
        resp = evaluate({"id": 3, "ref": "garbage", "gen": GEN})
        assert resp["status"] == "reference_error"
        assert resp["sim"] is None and resp["reward"] is None
        assert "reference" in resp["error"]

    @pytest.mark.parametrize(
        "request_obj,id_out",
        [
            (42, None),
            ([], None),
            ({"ref": REF}, None),
            ({"id": "x", "gen": GEN}, "x"),
            ({"id": "y", "ref": 5, "gen": GEN}, "y"),
            ({"id": "z", "ref": REF, "gen": GEN, "mode": "bogus"}, "z"),
        ],
    )
    def test_invalid_requests(self, request_obj, id_out):
        resp = evaluate(request_obj)
        assert resp["status"] == "reference_error"
        assert resp["id"] == id_out
        assert resp["error"]

    def test_seq_mode(self):
        shuffled = (
            "module m(input a, output y);\n"
            "  wire t;\n  assign y = t;\n  assign t = a & a;\nendmodule"
        )
        straight = (
            "module m(input a, output y);\n"
            "  wire t;\n  assign t = a & a;\n  assign y = t;\nendmodule"
        )
        ast = evaluate({"id": 1, "ref": straight, "gen": shuffled, "mode": "ast"})
        seq = evaluate({"id": 1, "ref": straight, "gen": shuffled, "mode": "seq"})
        assert ast["sim"] == 1.0
        assert seq["sim"] < 1.0


class TestStdio:
    def run_lines(self, *lines, config=ServiceConfig()):
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        serve_stdio(stdin, stdout, config=config)
        return stdout.getvalue().splitlines()

    def test_one_response_per_request(self):
        req = json.dumps({"id": 1, "ref": REF, "gen": GEN})
        out = self.run_lines(req, req)
        assert len(out) == 2
        assert json.loads(out[0])["reward"] == 10.0

    def test_batch_expands(self):
        line = json.dumps(
            {"batch": [{"id": i, "ref": REF, "gen": GEN} for i in range(3)]}
        )
        out = self.run_lines(line)
        assert [json.loads(o)["id"] for o in out] == [0, 1, 2]

    def test_batch_keeps_order_and_isolates_reference_failures(self):
        line = json.dumps(
            {
                "batch": [
                    {"id": 0, "ref": REF, "gen": REF},
                    {"id": 1, "ref": BROKEN_REF, "gen": REF},
                    {"id": 2, "ref": REF, "gen": "prose"},
                    {"id": 3, "ref": BROKEN_REF, "gen": GEN},
                    {"id": 4, "ref": REF, "gen": GEN},
                ]
            }
        )
        out = [json.loads(o) for o in self.run_lines(line)]
        assert [o["id"] for o in out] == [0, 1, 2, 3, 4]
        assert [o["status"] for o in out] == [
            "parsed",
            "reference_error",
            "not_code",
            "reference_error",
            "parsed",
        ]
        assert [o["reward"] for o in out] == [10.0, None, -10.0, None, 10.0]
        assert "parse_fail" in out[1]["error"]
        assert out[1]["error"] == out[3]["error"]

    def test_batch_empty(self):
        assert handle_line(json.dumps({"batch": []})) == []
        assert self.run_lines(json.dumps({"batch": []})) == []

    def test_batch_answers_as_single_requests_do(self):
        batch = mixed_batch()
        batched = self.run_lines(json.dumps({"batch": batch}))
        single = self.run_lines(*(json.dumps(request) for request in batch))
        assert batched == single
        statuses = {json.loads(o)["status"] for o in batched}
        assert statuses == {"parsed", "parse_fail", "not_code", "reference_error"}

    def test_batch_prepares_each_reference_once_and_drops_it_after_last_use(
        self, monkeypatch
    ):
        service = importlib.import_module("vsr.service")
        real_evaluate = service.evaluate
        held = []

        def recording_evaluate(request, *, depth_limit, memo, deadline):
            held.append(sorted(memo, key=[REF, REF2].index))
            return real_evaluate(
                request, depth_limit=depth_limit, memo=memo, deadline=deadline
            )

        monkeypatch.setattr(service, "evaluate", recording_evaluate)
        refs = [REF, REF2, REF, 5, REF2, REF2]  # 5: a request with a bad ref
        batch = [{"id": i, "ref": ref, "gen": GEN} for i, ref in enumerate(refs)]
        out = handle_line(json.dumps({"batch": batch}))
        statuses = [r["status"] for r in out]
        assert statuses == ["parsed"] * 3 + ["reference_error"] + ["parsed"] * 2
        # REF is kept until its last use (item 2), then dropped
        assert held == [[], [REF], [REF, REF2], [REF2], [REF2], [REF2]]

    def test_malformed_line_yields_error_response(self):
        # Nesting past the decoder's recursion limit is malformed too.
        out = self.run_lines(
            "{nope", "[" * 100_000, json.dumps({"id": 1, "ref": REF, "gen": GEN})
        )
        for line in out[:2]:
            first = json.loads(line)
            assert first["id"] is None
            assert first["status"] == "reference_error"
            assert "invalid JSON" in first["error"]
        # the loop survived and served the next request
        assert json.loads(out[2])["status"] == "parsed"

    def test_bad_batch_field(self):
        out = self.run_lines(json.dumps({"batch": "nope"}))
        assert "'batch' must be an array" in json.loads(out[0])["error"]

    def test_blank_lines_ignored(self):
        out = self.run_lines("", json.dumps({"id": 1, "ref": REF, "gen": GEN}), "")
        assert len(out) == 1

    @pytest.mark.parametrize("mode", ["ast", "seq"])
    def test_too_deep_sides(self, mode):
        requests = deep_requests(mode)
        out = self.run_lines(*(json.dumps(r) for r in requests))
        assert [json.loads(o) for o in out] == DEEP_ANSWERS
        batched = self.run_lines(json.dumps({"batch": requests}))
        assert batched == out

    def test_handle_line_matches_serve_stdio(self):
        line = json.dumps({"id": 5, "ref": REF, "gen": "prose"})
        direct = handle_line(line)
        looped = self.run_lines(line)
        assert [json.dumps(r) for r in direct] == looped


@contextlib.contextmanager
def serving(config=ServiceConfig()):
    """A running HTTP server on a free port; yields the port."""
    server = create_http_server("127.0.0.1", 0, config)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def http_server():
    with serving() as port:
        yield f"http://127.0.0.1:{port}"


def http_post(base, path, body: bytes):
    req = urllib.request.Request(base + path, data=body, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


class TestHttp:
    def test_reward_endpoint(self, http_server):
        body = json.dumps({"id": 1, "ref": REF, "gen": GEN}).encode()
        status, payload = http_post(http_server, "/v1/reward", body)
        assert status == 200
        assert json.loads(payload)["reward"] == 10.0

    def test_batch_endpoint(self, http_server):
        body = json.dumps(
            [
                {"id": 1, "ref": REF, "gen": GEN},
                {"id": 2, "ref": REF, "gen": "prose"},
            ]
        ).encode()
        status, payload = http_post(http_server, "/v1/reward/batch", body)
        assert status == 200
        rewards = [r["reward"] for r in json.loads(payload)]
        assert rewards == [10.0, -10.0]

    def test_batch_endpoint_answers_as_single_requests_do(self, http_server):
        batch = mixed_batch()
        status, payload = http_post(
            http_server, "/v1/reward/batch", json.dumps(batch).encode("utf-8")
        )
        assert status == 200
        singles = [
            http_post(http_server, "/v1/reward", json.dumps(r).encode("utf-8"))[1]
            for r in batch
        ]
        assert payload == ("[" + ", ".join(s.decode() for s in singles) + "]").encode()
        stdio_out = io.StringIO()
        serve_stdio(io.StringIO(json.dumps({"batch": batch}) + "\n"), stdio_out)
        assert stdio_out.getvalue().splitlines() == [s.decode() for s in singles]

    def test_too_deep_sides(self, http_server):
        answers = [
            json.loads(http_post(http_server, "/v1/reward", json.dumps(r).encode())[1])
            for r in deep_requests()
        ]
        assert answers == DEEP_ANSWERS

    def test_batch_endpoint_empty(self, http_server):
        status, payload = http_post(http_server, "/v1/reward/batch", b"[]")
        assert (status, json.loads(payload)) == (200, [])

    def test_healthz(self, http_server):
        with urllib.request.urlopen(http_server + "/healthz", timeout=10) as resp:
            assert resp.status == 200
            body = json.loads(resp.read())
        from vsr import __version__

        assert body == {"status": "ok", "version": __version__}

    def test_malformed_json_is_400(self, http_server):
        status, payload = http_post(http_server, "/v1/reward", b"{oops")
        assert status == 400
        assert "invalid JSON" in json.loads(payload)["error"]

    def test_batch_must_be_array(self, http_server):
        status, payload = http_post(http_server, "/v1/reward/batch", b"{}")
        assert status == 400

    def test_unknown_path_is_404(self, http_server):
        status, _ = http_post(http_server, "/v1/unknown", b"{}")
        assert status == 404
        req = urllib.request.Request(http_server + "/nope")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 404

    def test_oversized_body_is_413(self):
        with serving(ServiceConfig(max_body_bytes=100)) as port:
            body = json.dumps({"ref": "x" * 500, "gen": "y"}).encode()
            status, payload = http_post(f"http://127.0.0.1:{port}", "/v1/reward", body)
        assert status == 413
        assert "exceeds" in json.loads(payload)["error"]

    def test_oversized_body_beyond_the_socket_buffers_reads_its_413(self):
        # The body is far more than the sockets buffer: the client is still
        # sending when the refusal comes, and must still read it.
        body = b"x" * (8 * 1024 * 1024)
        with serving(ServiceConfig(max_body_bytes=64 * 1024)) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("POST", "/v1/reward", body=body)
                resp = conn.getresponse()
                payload = resp.read()
            finally:
                conn.close()
        assert resp.status == 413
        assert json.loads(payload) == {"error": "body exceeds 65536 bytes"}

    def test_response_bytes_match_stdio(self, http_server):
        requests = [
            {"id": 1, "ref": REF, "gen": GEN},
            {"id": 2, "ref": REF, "gen": "module broken(endmodule"},
            {"id": 3, "ref": "bad ref", "gen": GEN},
            {"id": None, "ref": REF, "gen": "prose", "mode": "seq"},
        ]
        for request in requests:
            line = json.dumps(request)
            stdio_out = io.StringIO()
            serve_stdio(io.StringIO(line + "\n"), stdio_out)
            _, http_body = http_post(
                http_server, "/v1/reward", line.encode("utf-8")
            )
            assert stdio_out.getvalue().strip().encode("utf-8") == http_body


def exchange(port: int, data: bytes, end_input: bool = False) -> bytes:
    """Send raw bytes on a fresh connection, then end our side of it if
    `end_input`, and read until the server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        if end_input:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def split_responses(raw: bytes) -> list[tuple[int, dict, bytes]]:
    """(status, lower-cased headers, body) for each response in a byte stream."""
    out = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head {head!r}"
        status_line, *lines = head.decode("ascii").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(raw) >= length, "truncated response body"
        out.append((int(status_line.split()[1]), headers, raw[:length]))
        raw = raw[length:]
    return out


def post_bytes(body: bytes, path="/v1/reward", headers="") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n{headers}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
ONE_REQUEST = json.dumps({"id": 1, "ref": REF, "gen": GEN}).encode()
DATE = re.compile(r"[A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT")


class TestHttpFraming:
    """The keep-alive loop's framing, driven over raw sockets."""

    def refused(self, data: bytes, capfd, config=ServiceConfig()) -> tuple[int, str]:
        """The one response to `data`, which must close the connection and
        leave stderr empty; returns its status and error message."""
        with serving(config) as port:
            raw = exchange(port, data)
        [(status, headers, body)] = split_responses(raw)
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert capfd.readouterr().err == ""
        return status, json.loads(body)["error"]

    def test_response_head(self):
        with serving() as port:
            raw = exchange(port, post_bytes(ONE_REQUEST, headers="Connection: close\r\n"))
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        [(status, headers, body)] = split_responses(raw)
        assert set(headers) == {"date", "content-type", "content-length", "connection"}
        assert DATE.fullmatch(headers["date"])
        assert json.loads(body)["reward"] == 10.0

    def test_keep_alive_serves_many_requests_on_one_socket(self):
        # A blank line before a request line is skipped (RFC 9112 section 2.2).
        requests = [post_bytes(ONE_REQUEST), b"\r\n" + HEALTHZ] * 25
        with serving() as port:
            raw = exchange(port, b"".join(requests) + b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")
        answers = split_responses(raw)
        assert [a[0] for a in answers] == [200] * 50 + [404]
        assert all("connection" not in a[1] for a in answers[:-1])
        assert answers[-1][1]["connection"] == "close"
        assert [json.loads(a[2]).get("reward") for a in answers[:4]] == [10.0, None] * 2

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n" + HEALTHZ,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n" + HEALTHZ,
            b"GET /healthz HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n" + HEALTHZ,
            post_bytes(ONE_REQUEST, headers="Connection: close\r\n") + HEALTHZ,
        ],
        ids=["http_1_0", "close", "close_token", "post_close"],
    )
    def test_closing_clients_get_their_answer_then_eof(self, request_bytes):
        with serving() as port:
            [(status, headers, _)] = split_responses(exchange(port, request_bytes))
        assert status == 200
        assert headers["connection"] == "close"

    def test_expect_100_continue_is_answered_before_the_body(self):
        with serving() as port, socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            head, body = post_bytes(ONE_REQUEST, headers="Expect: 100-continue\r\n").split(b"\r\n\r\n")
            sock.sendall(head + b"\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        [(status, _, payload)] = split_responses(raw)
        assert status == 200
        assert json.loads(payload)["reward"] == 10.0

    def test_413_then_pipelined_request_gets_one_response_then_eof(self, capfd):
        body = json.dumps({"ref": "x" * 500, "gen": "y"}).encode()
        status, error = self.refused(
            post_bytes(body) + HEALTHZ, capfd, ServiceConfig(max_body_bytes=100)
        )
        assert (status, error) == (413, "body exceeds 100 bytes")

    @pytest.mark.parametrize(
        "lengths",
        [["-5"], ["abc"], ["5", "5"], ["5", "7"], [""], ["1" * 5000], []],
        ids=["negative", "non_numeric", "duplicate", "conflicting", "empty", "huge", "missing"],
    )
    def test_bad_content_length_is_400_and_close(self, lengths, capfd):
        head = "POST /v1/reward HTTP/1.1\r\n" + "".join(
            f"Content-Length: {v}\r\n" for v in lengths
        )
        status, error = self.refused(head.encode() + b"\r\n{}" + HEALTHZ, capfd)
        assert (status, error) == (400, "missing or invalid Content-Length")

    def test_chunked_body_is_411_and_close(self, capfd):
        data = (
            b"POST /v1/reward HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n" + HEALTHZ
        )
        status, error = self.refused(data, capfd)
        assert status == 411
        assert "Transfer-Encoding" in error

    @pytest.mark.parametrize(
        "data, status, message",
        [
            (b"GARBAGE\r\n\r\n", 400, "malformed request line"),
            (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400, "malformed request line"),
            (b"GET /healthz FOO/1.1\r\n\r\n", 400, "malformed request line"),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "unsupported version HTTP/2.0"),
            (b"PUT /v1/reward HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501, "unsupported method PUT"),
            (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501, "unsupported method HEAD"),
            (b"POST /v1/nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 404, "unknown path /v1/nope"),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400, "malformed header line"),
            (b"GET /" + b"a" * 65540, 414, "request line exceeds 65536 bytes"),
            (
                b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 65540,
                431,
                "header line exceeds 65536 bytes",
            ),
            (
                b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 101 + b"\r\n",
                431,
                "more than 100 headers",
            ),
        ],
        ids=[
            "one_word", "four_words", "not_http", "http_2", "put", "head",
            "post_unknown_path", "header_without_colon", "long_request_line",
            "long_header_line", "too_many_headers",
        ],
    )
    def test_bad_requests_get_json_errors_and_close(self, data, status, message, capfd):
        assert self.refused(data + HEALTHZ, capfd) == (status, message)

    def test_one_hundred_headers_are_allowed(self):
        with serving() as port:
            raw = exchange(
                port,
                b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 99 + b"Connection: close\r\n\r\n",
            )
        assert split_responses(raw)[0][0] == 200

    def test_get_with_a_body_is_answered_then_closed(self):
        with serving() as port:
            raw = exchange(port, b"GET /healthz HTTP/1.1\r\nContent-Length: 14\r\n\r\n" + HEALTHZ)
        [(status, headers, _)] = split_responses(raw)
        assert (status, headers["connection"]) == (200, "close")

    def test_bad_json_keeps_the_connection(self):
        nested = b"[" * 100_000
        with serving() as port:
            raw = exchange(
                port,
                post_bytes(b"{oops") + post_bytes(nested) + post_bytes(b"{}", "/v1/reward/batch")
                + post_bytes(ONE_REQUEST, headers="Connection: close\r\n"),
            )
        answers = split_responses(raw)
        assert [a[0] for a in answers] == [400, 400, 400, 200]
        errors = [json.loads(a[2])["error"] for a in answers[:3]]
        assert errors[0].startswith("invalid JSON: ")
        assert errors[1].startswith("invalid JSON: maximum recursion depth exceeded")
        assert errors[2] == "batch body must be a JSON array"

    def test_client_closing_mid_body_leaves_stderr_empty(self, capfd):
        with serving() as port:
            assert exchange(port, post_bytes(ONE_REQUEST)[:-5], end_input=True) == b""
        assert capfd.readouterr().err == ""


class TestTimeout:
    def test_slow_evaluation_reports_reference_error(self):
        # a very fat module cannot lex+parse+score within 1 ms
        fat = wide_module(3000)
        config = ServiceConfig(timeout_ms=1)
        (resp,) = handle_line(
            json.dumps({"id": "slow", "ref": fat, "gen": fat}), config
        )
        assert resp["status"] == "reference_error"
        assert "exceeded" in resp["error"]
        assert resp["id"] == "slow"

    def test_wide_case_against_swapped_copy_beats_default_timeout(self):
        # Every arm of both sides has one shape, so the greedy matcher
        # compares 800 x 800 arm pairs.  Hash-consed trees score them from
        # one memo entry; walking every pair took longer than the 5 s
        # default timeout, so one request denied service.
        arms = "".join(
            f"      10'd{i}: y = (a + b) + 8'd{i % 256};\n" for i in range(800)
        )
        ref = (
            "module big(input [9:0] sel, input [7:0] a, input [7:0] b,"
            " output reg [7:0] y);\n  always @(*) begin\n    case (sel)\n"
            + arms
            + "      default: y = 8'd0;\n    endcase\n  end\nendmodule\n"
        )
        gen = ref.replace("+", "-")
        assert ServiceConfig().timeout_ms == 5000
        (resp,) = handle_line(json.dumps({"id": "case", "ref": ref, "gen": gen}))
        assert resp["error"] is None
        assert resp["status"] == "parsed"
        assert 0.0 < resp["sim"] < 1.0

    def test_zero_timeout_disables_the_clock(self):
        config = ServiceConfig(timeout_ms=0)
        (resp,) = handle_line(
            json.dumps({"id": 1, "ref": REF, "gen": GEN}), config
        )
        assert resp["status"] == "parsed"

    def test_timed_out_request_stops_its_work(self):
        before = threading.active_count()
        (resp,) = handle_line(
            json.dumps({"id": "slow", "ref": FAT, "gen": FAT}),
            ServiceConfig(timeout_ms=1),
        )
        assert resp["error"] == "evaluation exceeded 1 ms"
        # Nothing runs on in the background: no thread, and no CPU burnt
        # while this thread sleeps.
        assert threading.active_count() == before
        cpu = time.process_time()
        time.sleep(0.2)
        assert time.process_time() - cpu < 0.05

    @pytest.mark.parametrize("transport", ["handle_line", "http"])
    def test_request_after_a_timeout_answers_at_normal_latency(self, transport):
        # FAT against a copy with its operators swapped takes seconds
        # untimed (a copy of FAT alone now takes tens of ms) and a trivial
        # request well under one, so only FAT can reach this deadline even
        # on a loaded host.
        config = ServiceConfig(timeout_ms=50)
        stack = contextlib.ExitStack()
        if transport == "http":
            base = f"http://127.0.0.1:{stack.enter_context(serving(config))}"

            def call(request):
                return json.loads(
                    http_post(base, "/v1/reward", json.dumps(request).encode())[1]
                )

        else:

            def call(request):
                return handle_line(json.dumps(request), config)[0]

        def timed(request):
            start = time.perf_counter()
            resp = call(request)
            return time.perf_counter() - start, resp

        trivial = {"id": 1, "ref": REF, "gen": GEN}
        with stack:
            normal = min(timed(trivial)[0] for _ in range(5))
            _, slow = timed({"id": "slow", "ref": FAT, "gen": FAT.replace("^", "&")})
            after, resp = timed(trivial)
        assert slow["error"] == "evaluation exceeded 50 ms"
        assert resp["status"] == "parsed"
        assert after < normal + 0.1

    def test_timeout_while_preparing_a_reference_leaves_no_memo_entry(
        self, monkeypatch
    ):
        fat_mutant = mutate(FAT, MutationSpec(MutationKind.RENAME_IDENTIFIERS, 3))
        gens = [FAT, fat_mutant, GEN, FAT]
        batch = [{"id": i, "ref": FAT, "gen": gen} for i, gen in enumerate(gens)]
        batch.append({"id": "small", "ref": REF, "gen": GEN})
        singles = [json.dumps(handle_line(json.dumps(r))[0]) for r in batch]
        # The first item gets a deadline that has already passed, so it
        # stops in the lexer while preparing FAT; the later items get the
        # configured 5000 ms.
        service = importlib.import_module("vsr.service")
        real_evaluate = service.evaluate
        seen = []

        def first_item_late(request, **kwargs):
            if not seen:
                kwargs["deadline"] = time.monotonic()
            seen.append(request["id"])
            return real_evaluate(request, **kwargs)

        monkeypatch.setattr(service, "evaluate", first_item_late)
        out = handle_line(json.dumps({"batch": batch}))
        assert seen == [r["id"] for r in batch]
        assert out[0] == {
            "id": 0,
            "status": "reference_error",
            "sim": None,
            "reward": None,
            "error": "evaluation exceeded 5000 ms",
        }
        assert [json.dumps(r) for r in out[1:]] == singles[1:]
        assert json.loads(singles[1])["sim"] == 1.0
