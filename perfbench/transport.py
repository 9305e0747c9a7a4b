"""Child processes and the closed-loop clients that drive them.

The program always runs in a child process, started from the checkout's
`src/` tree.  Its CPU time and peak resident set come from `wait4` when it
is reaped.  A child that dies mid-run turns the calls it leaves unanswered
into failed calls; the benchmark itself carries on and reports.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import oracle

CALL_TIMEOUT_S = 60.0  # far above the service's own 5 s budget
START_TIMEOUT_S = 60.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ChildGone(Exception):
    """The child closed its pipe or socket, or stopped answering."""


@dataclass
class Usage:
    cpu_s: float
    maxrss_kb: int
    exit_code: int


class Child:
    """One program process; stop() reaps it and returns its resource usage."""

    def __init__(self, argv: list[str], root: Path, log: Path, pipes: bool) -> None:
        log.parent.mkdir(parents=True, exist_ok=True)
        self.argv = argv
        self._log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=child_env(root),
            stdin=subprocess.PIPE if pipes else subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipes else subprocess.DEVNULL,
            stderr=self._log,
        )
        self._buf = b""
        self.usage: Usage | None = None

    def alive(self) -> bool:
        return self.usage is None and self.proc.poll() is None

    # -- line protocol over the pipes --

    def send_line(self, data: bytes) -> None:
        try:
            self.proc.stdin.write(data + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise ChildGone(f"write failed: {exc}") from exc

    def read_line(self, timeout: float = CALL_TIMEOUT_S) -> bytes:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ChildGone("no answer in time")
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise ChildGone("end of output")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line

    def stop(self) -> Usage:
        """End the child (closing its input first), reap it, return its usage."""
        if self.usage is not None:
            return self.usage
        proc = self.proc
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass
        # A piped child exits at end of input; an HTTP server needs a signal.
        start = time.monotonic()
        steps = [(0.0 if proc.stdin is None else 5.0, signal.SIGTERM), (10.0, signal.SIGKILL)]
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if steps and time.monotonic() - start >= steps[0][0]:
                proc.send_signal(steps.pop(0)[1])
            time.sleep(0.002)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.stdout is not None:
            proc.stdout.close()
        self._log.close()
        self.usage = Usage(ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode)
        return self.usage


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# ---- starting each kind of child; each returns (child, seconds to first answer) ----

PROBE_MODULE = "module probe; endmodule"
PROBE = {"id": "probe", "ref": PROBE_MODULE, "gen": PROBE_MODULE}
PROBE_ANSWER = oracle.encode(oracle.response("probe", oracle.scored("parsed", 1.0)))


def http_argv(port: int) -> list[str]:
    return [sys.executable, "-m", "vsr", "serve", "--http", f"127.0.0.1:{port}"]


def stdio_argv() -> list[str]:
    return [sys.executable, "-m", "vsr", "serve", "--stdio"]


def corpus_argv() -> list[str]:
    return [sys.executable, "perfbench/corpus_driver.py"]


def start_http(root: Path, log: Path) -> tuple[Child, int, float]:
    # The port is free when chosen but could be taken before the server
    # binds it; a server that exits without answering gets another port.
    for _ in range(3):
        port = free_port()
        child = Child(http_argv(port), root, log, pipes=False)
        deadline = child.started + START_TIMEOUT_S
        while child.alive() and time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                if resp.status == 200 and json.loads(resp.read()).get("status") == "ok":
                    return child, port, time.perf_counter() - child.started
            except (ConnectionError, OSError, ValueError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        child.stop()
        if time.perf_counter() >= deadline:
            break
    raise RuntimeError(f"server did not come up: {' '.join(child.argv)}")


def start_stdio(root: Path, log: Path) -> tuple[Child, float]:
    child = Child(stdio_argv(), root, log, pipes=True)
    try:
        child.send_line(json.dumps(PROBE).encode())
        line = child.read_line(START_TIMEOUT_S)
    except ChildGone as exc:
        child.stop()
        raise RuntimeError(f"stdio service did not answer: {exc}") from exc
    took = time.perf_counter() - child.started
    if line != PROBE_ANSWER:
        child.stop()
        raise RuntimeError(f"stdio probe answered {line!r}")
    return child, took


def start_corpus(root: Path, log: Path) -> tuple[Child, float]:
    child = Child(corpus_argv(), root, log, pipes=True)
    try:
        line = child.read_line(START_TIMEOUT_S)
    except ChildGone as exc:
        child.stop()
        raise RuntimeError(f"corpus driver did not start: {exc}") from exc
    if json.loads(line) != {"ready": True}:
        child.stop()
        raise RuntimeError(f"corpus driver said {line!r}")
    return child, time.perf_counter() - child.started


def replay(root: Path, calls: Path, result: Path, spans: Path | None = None) -> dict:
    """Run perfbench/replay.py on recorded calls in a fresh process; its result."""
    argv = [sys.executable, "perfbench/replay.py", str(calls), str(result)]
    if spans is not None:
        argv.append(str(spans))
    done = subprocess.run(argv, cwd=root, env=child_env(root), timeout=150,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise RuntimeError(f"replay failed: {done.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


# ---- the closed loop ----


@dataclass
class Record:
    """One finished call."""

    call: object
    latency_s: float
    verdict: str
    ops_ok: int
    start: float
    end: float


@dataclass
class LoopResult:
    records: list[Record] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def add(self, rec: Record, detail: str | None) -> None:
        self.records.append(rec)
        if rec.verdict == oracle.WRONG and len(self.wrong) < 20:
            self.wrong.append(detail or "")


def closed_loop(next_call, do_call, clients: list, seconds: float) -> LoopResult:
    """Each client sends its next call only when the previous one is answered.

    `do_call(client, call)` returns (verdict, ops answered exactly, detail).
    A client stops at the deadline or when its child is gone.
    """
    result = LoopResult()
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def worker(client) -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                call = next_call()
            t0 = time.perf_counter()
            try:
                verdict, ops_ok, detail = do_call(client, call)
                gone = False
            except ChildGone as exc:
                verdict, ops_ok, detail, gone = oracle.FAILED, 0, str(exc), True
            t1 = time.perf_counter()
            with lock:
                result.add(Record(call, t1 - t0, verdict, ops_ok, t0, t1), detail)
            if gone:
                return

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.records.sort(key=lambda r: r.start)
    return result


# ---- per-transport calls ----


class HttpClient:
    def __init__(self, port: int, path: str) -> None:
        self.port = port
        self.path = path
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CALL_TIMEOUT_S)

    def close(self) -> None:
        self.conn.close()

    def post(self, body: bytes) -> tuple[int, bytes]:
        try:
            self.conn.request("POST", self.path, body=body,
                              headers={"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (ConnectionError, OSError, http.client.HTTPException) as exc:
            self.conn.close()
            raise ChildGone(f"HTTP call failed: {exc}") from exc


def http_call(client: HttpClient, call) -> tuple[str, int, str | None]:
    batch = client.path.endswith("/batch")
    body = json.dumps(call.requests if batch else call.requests[0]).encode()
    status, data = client.post(body)
    if status != 200:
        return oracle.FAILED, 0, f"HTTP {status}"
    verdict, ok = oracle.check_body(data, call.expected, batch)
    detail = None if verdict == oracle.OK else f"{call.expected[:1]!r} got {data[:300]!r}"
    return verdict, ok if verdict != oracle.WRONG else 0, detail


def stdio_call(child: Child, call) -> tuple[str, int, str | None]:
    child.send_line(json.dumps(call.requests[0]).encode())
    line = child.read_line()
    verdict, ok = oracle.check_body(line, call.expected, False)
    detail = None if verdict == oracle.OK else f"{call.expected!r} got {line[:300]!r}"
    return verdict, ok, detail
