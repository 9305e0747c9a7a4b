import gc
import io
import json
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from helpers import chain_module, wide_module
from vsr import cli
from vsr.service import (
    ServiceConfig,
    create_http_server,
    evaluate,
    handle_line,
    serve_stdio,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

SIMPLE = "module m(input a, output y);\n  wire t;\n  assign t = a;\n  assign y = t ^ 1'b1;\nendmodule\n"


def vsr(*args, stdin=None, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "vsr", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=120,
    )


@pytest.fixture()
def simple_file(tmp_path):
    path = tmp_path / "simple.v"
    path.write_text(SIMPLE)
    return str(path)


class TestParseCommand:
    def test_tokens(self, simple_file):
        proc = vsr("parse", simple_file, "--emit", "tokens")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "keyword\tmodule"
        assert "identifier\tm" in lines
        assert "number\t1'b1" in lines

    def test_ast_dump(self, simple_file):
        proc = vsr("parse", simple_file)
        assert proc.returncode == 0
        assert proc.stdout.startswith("SourceUnit")
        assert "ModuleDef name=m" in proc.stdout
        assert "span=" in proc.stdout

    def test_unparsable_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.v"
        bad.write_text("module broken(input a endmodule")
        proc = vsr("parse", str(bad))
        assert proc.returncode == 1
        assert "parse_fail" in proc.stderr

    def test_missing_file_is_exit_1(self):
        proc = vsr("parse", "/no/such/file.v")
        assert proc.returncode == 1
        assert "cannot read" in proc.stderr

    def test_ast_dump_of_a_long_chain(self, tmp_path):
        # 3000 terms nest 3000 levels deep, past the interpreter stack.
        deep = tmp_path / "deep.v"
        deep.write_text(chain_module(3000))
        proc = vsr("parse", str(deep))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("SourceUnit ")
        assert sum(line.lstrip().startswith("Plus ") for line in lines) == 2999
        assert max(len(line) - len(line.lstrip(" ")) for line in lines) > 2 * 3000

    def test_bad_flag_is_exit_2(self, simple_file):
        proc = vsr("parse", simple_file, "--emit", "pictures")
        assert proc.returncode == 2


class TestCleanCommand:
    def test_text(self, simple_file):
        proc = vsr("clean", simple_file)
        assert proc.returncode == 0
        assert proc.stdout.startswith("(SourceUnit (ModuleDef ")
        assert "name" not in proc.stdout

    def test_stats(self, simple_file):
        proc = vsr("clean", simple_file, "--emit", "stats")
        lines = dict(l.split("\t") for l in proc.stdout.splitlines())
        assert set(lines) == {"depth", "node_count", "mean_branching"}
        assert lines["depth"].isdigit()
        assert "." in lines["mean_branching"]
        assert len(lines["mean_branching"].split(".")[1]) == 6


class TestSimCommand:
    def test_identical_files(self, simple_file):
        proc = vsr("sim", simple_file, simple_file)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.000000"

    def test_modes_differ_on_reordered_pair(self):
        left = str(FIXTURES / "reordered_left.v")
        right = str(FIXTURES / "reordered_right.v")
        ast = vsr("sim", left, right)
        seq = vsr("sim", left, right, "--mode", "seq")
        assert ast.stdout.strip() == "1.000000"
        assert seq.stdout.strip() != "1.000000"
        assert float(seq.stdout.strip()) < 1.0

    def test_trace_lists_pairs(self, simple_file):
        proc = vsr("sim", simple_file, simple_file, "--trace")
        lines = proc.stdout.splitlines()
        assert lines[0] == "1.000000"
        assert any(line.startswith("/0\t/0\t") for line in lines[1:])

    def test_trace_with_seq_mode_is_a_usage_error(self, tmp_path):
        # The trace is the greedy match's, so it cannot stand for a seq score.
        body = "  assign y = a;\n  assign z = a & b;\n"
        head, end = "module m(input a, b, output y, z);\n", "endmodule\n"
        left, right = tmp_path / "left.v", tmp_path / "right.v"
        left.write_text(head + body + end)
        right.write_text(head + "".join(reversed(body.splitlines(True))) + end)
        seq = vsr("sim", str(left), str(right), "--mode", "seq")
        assert seq.stdout == "0.833333\n"
        proc = vsr("sim", str(left), str(right), "--mode", "seq", "--trace")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: vsr")
        assert "--trace needs --mode ast" in proc.stderr

    def test_unparsable_input(self, simple_file, tmp_path):
        bad = tmp_path / "bad.v"
        bad.write_text("not verilog")
        proc = vsr("sim", simple_file, str(bad))
        assert proc.returncode == 1
        assert "not_code" in proc.stderr

    def test_depth_limit_env(self, simple_file):
        ok = vsr("sim", simple_file, simple_file, env_extra={"VSR_DEPTH_LIMIT": "512"})
        assert ok.returncode == 0
        small = vsr("sim", simple_file, simple_file, env_extra={"VSR_DEPTH_LIMIT": "2"})
        assert small.returncode == 1
        assert "depth" in small.stderr.lower()
        junk = vsr("sim", simple_file, simple_file, env_extra={"VSR_DEPTH_LIMIT": "ten"})
        assert junk.returncode == 1
        assert "VSR_DEPTH_LIMIT" in junk.stderr


class TestRewardCommand:
    def test_parsed_line(self, simple_file):
        proc = vsr("reward", simple_file, simple_file)
        assert proc.stdout.strip() == "parsed\t1.000000\t10.000000"

    def test_parse_fail_line(self, simple_file, tmp_path):
        bad = tmp_path / "gen.v"
        bad.write_text("module g(input a endmodule")
        proc = vsr("reward", simple_file, str(bad))
        assert proc.stdout.strip() == "parse_fail\t-\t-5.000000"

    def test_not_code_line(self, simple_file, tmp_path):
        bad = tmp_path / "gen.txt"
        bad.write_text("blah blah")
        proc = vsr("reward", simple_file, str(bad))
        assert proc.stdout.strip() == "not_code\t-\t-10.000000"

    def test_bad_reference_is_error(self, simple_file, tmp_path):
        bad = tmp_path / "ref.v"
        bad.write_text("module r(input a endmodule")
        proc = vsr("reward", str(bad), simple_file)
        assert proc.returncode == 1
        assert "reference" in proc.stderr

    def test_too_deep_generation_is_parse_fail(self, simple_file, tmp_path):
        deep = tmp_path / "gen.v"
        deep.write_text(chain_module(600))
        proc = vsr("reward", simple_file, str(deep))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "parse_fail\t-\t-5.000000"

    def test_too_deep_reference_is_error(self, simple_file, tmp_path):
        deep = tmp_path / "ref.v"
        deep.write_text(chain_module(600))
        proc = vsr("reward", str(deep), simple_file)
        assert proc.returncode == 1
        assert "reference is too deep: tree depth 603 exceeds limit 512" in proc.stderr


class TestPasskCommand:
    def test_value(self):
        proc = vsr("passk", "--n", "10", "--c", "3", "--k", "5")
        assert proc.stdout.strip() == "0.916667"

    def test_domain_error(self):
        proc = vsr("passk", "--n", "5", "--c", "9", "--k", "1")
        assert proc.returncode == 1


class TestReportCommand:
    @pytest.fixture()
    def outcomes_file(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        rows = [
            {"task": "t1", "trials": [True, False, False]},
            {"task": "t2", "trials": [False, False, True]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return str(path)

    def test_pass_and_hit(self, outcomes_file):
        proc = vsr("report", outcomes_file, "--k", "1,3", "--metric", "pass,hit")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "pass@1\t0.333333"
        assert lines[1] == "hit@1\t0.500000"
        assert lines[2] == "pass@3\t1.000000"
        assert lines[3] == "hit@3\t1.000000"

    def test_default_is_pass_at_1(self, outcomes_file):
        proc = vsr("report", outcomes_file)
        assert proc.stdout.splitlines() == ["pass@1\t0.333333"]

    def test_bad_metric(self, outcomes_file):
        proc = vsr("report", outcomes_file, "--metric", "bleu")
        assert proc.returncode == 1
        assert "unknown metric" in proc.stderr

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("oops\n")
        proc = vsr("report", str(path))
        assert proc.returncode == 1
        assert "line 1" in proc.stderr


class TestCorpusCommand:
    @pytest.fixture()
    def corpus_file(self, tmp_path):
        rows = [
            {"id": "good1", "spec": "a simple wire", "code": SIMPLE},
            {"id": "bad1", "spec": "broken", "code": "module x(input a endmodule"},
            {"id": "good2", "spec": "another", "code": SIMPLE},
        ]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return str(path)

    def test_filter(self, corpus_file, tmp_path):
        out = tmp_path / "kept.jsonl"
        proc = vsr("corpus", "filter", corpus_file, "--out", str(out))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "kept\t2"
        assert lines[1] == "dropped\t1"
        assert lines[2].startswith("drop\tbad1\tunparsable\t")
        kept_rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in kept_rows] == ["good1", "good2"]
        assert kept_rows[0]["code"] == SIMPLE

    def test_stats(self, corpus_file):
        proc = vsr("corpus", "stats", corpus_file)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "kept\t2"
        names = [l.split("\t")[0] for l in lines[2:]]
        assert names == [
            "spec_tokens",
            "code_tokens",
            "depth",
            "node_count",
            "mean_branching",
        ]
        for line in lines[2:]:
            cells = line.split("\t")[1:]
            assert len(cells) == 3
            for cell in cells:
                assert len(cell.split(".")[1]) == 6

    @pytest.mark.parametrize("command", ["filter", "stats"])
    @pytest.mark.parametrize("max_tokens", ["0", "-3"])
    def test_bad_max_tokens_is_a_message_not_a_traceback(
        self, corpus_file, command, max_tokens
    ):
        proc = vsr("corpus", command, corpus_file, "--max-tokens", max_tokens)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"vsr: max_tokens must be >= 1, got {max_tokens}\n"

    @pytest.mark.parametrize("command", ["filter", "stats"])
    def test_non_utf8_line_is_a_message_not_a_traceback(self, tmp_path, command):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps({"id": "a", "spec": "s", "code": SIMPLE}).encode()
        path.write_bytes(good + b"\n" + b'{"id": "\xff\xfe"}\n')
        proc = vsr("corpus", command, str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"vsr: {path}: line 2: not UTF-8 text\n"

    def test_mutate_roundtrip(self, tmp_path):
        src = tmp_path / "m.v"
        src.write_text(SIMPLE)
        a = vsr("corpus", "mutate", str(src), "--kind", "rename", "--seed", "3")
        b = vsr("corpus", "mutate", str(src), "--kind", "rename", "--seed", "3")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout != SIMPLE

    def test_mutate_out_file(self, tmp_path):
        src = tmp_path / "m.v"
        src.write_text(SIMPLE)
        out = tmp_path / "mut.v"
        proc = vsr(
            "corpus", "mutate", str(src), "--kind", "reorder", "--seed", "1",
            "--out", str(out),
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_mutate_infeasible(self, tmp_path):
        src = tmp_path / "tiny.v"
        src.write_text("module t(input a, output y); assign y = a; endmodule")
        proc = vsr("corpus", "mutate", str(src), "--kind", "reorder", "--seed", "1")
        assert proc.returncode == 1
        assert "reorderable" in proc.stderr

    def test_mutate_too_deep_is_a_message_not_a_traceback(self, tmp_path):
        src = tmp_path / "chain.v"
        src.write_text(
            "module m(input a, output y);\n  assign y = "
            + " + ".join(["a"] * 600)
            + ";\nendmodule\n"
        )
        proc = vsr("corpus", "mutate", str(src), "--kind", "rename", "--seed", "1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "too deep to print" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestServeCommand:
    def test_stdio_round_trip(self, simple_file):
        request = json.dumps(
            {"id": 1, "ref": SIMPLE, "gen": SIMPLE}
        )
        proc = vsr("serve", "--stdio", stdin=request + "\n")
        assert proc.returncode == 0
        response = json.loads(proc.stdout.strip())
        assert response["reward"] == 10.0

    def test_requires_transport(self):
        proc = vsr("serve")
        assert proc.returncode == 2

    def test_defaults_are_the_service_config_defaults(self, gc_state, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "serve_stdio", lambda config: seen.append(config))
        monkeypatch.delenv("VSR_DEPTH_LIMIT", raising=False)
        assert cli.main(["serve", "--stdio"]) == 0
        assert seen == [ServiceConfig()]

    @pytest.mark.parametrize(
        "spec, message",
        [
            pytest.param("noport", "HOST:PORT", id="noport"),
            pytest.param("127.0.0.1:70000", "0-65535", id="port_too_big"),
            pytest.param("127.0.0.1:-1", "0-65535", id="port_negative"),
        ],
    )
    def test_bad_http_spec(self, spec, message):
        proc = vsr("serve", "--http", spec)
        assert proc.returncode == 1
        assert proc.stderr.startswith("vsr: --http ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.fixture()
def gc_state():
    """The collector's threshold and freeze count, put back after the test."""
    threshold, frozen = gc.get_threshold(), gc.get_freeze_count()
    yield threshold, frozen
    gc.set_threshold(*threshold)
    if not frozen:
        gc.unfreeze()


class TestCollectorPolicy:
    """Only `vsr serve` sets the process-wide collector policy; the library
    and the service's in-process entry points leave it alone."""

    def test_library_and_service_calls_leave_the_collector_alone(self, gc_state):
        request = {"id": 1, "ref": SIMPLE, "gen": SIMPLE}
        line = json.dumps(request)
        assert evaluate(request)["reward"] == 10.0
        assert len(handle_line(json.dumps({"batch": [request, request]}))) == 2
        out = io.StringIO()
        serve_stdio(io.StringIO(line + "\n"), out)
        assert json.loads(out.getvalue())["reward"] == 10.0
        server = create_http_server("127.0.0.1", 0, ServiceConfig())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/v1/reward"
            post = urllib.request.Request(url, data=line.encode(), method="POST")
            with urllib.request.urlopen(post, timeout=10) as resp:
                assert json.loads(resp.read())["reward"] == 10.0
        finally:
            server.shutdown()
            server.server_close()
        assert (gc.get_threshold(), gc.get_freeze_count()) == gc_state

    @pytest.mark.parametrize(
        "argv, target",
        [(["serve", "--stdio"], "serve_stdio"), (["serve", "--http", "127.0.0.1:0"], "serve_http")],
    )
    def test_serve_sets_the_policy_before_serving(self, gc_state, monkeypatch, argv, target):
        seen = []
        monkeypatch.setattr(
            cli, target, lambda *a, **k: seen.append((gc.get_threshold(), gc.get_freeze_count()))
        )
        assert cli.main(argv) == 0
        [(threshold, frozen)] = seen
        assert threshold == (100_000, 10, 10) != gc_state[0]
        assert frozen > 0


class TestClosedOutput:
    """A reader that stops early (`vsr parse x.v | head -1`) ends the
    command quietly: exit 1, nothing on stderr."""

    @pytest.mark.parametrize(
        "args",
        [
            ["parse", "{file}"],
            ["parse", "{file}", "--emit", "tokens"],
            ["serve", "--stdio"],
        ],
    )
    def test_reader_closes_after_one_line(self, tmp_path, args):
        big = tmp_path / "big.v"
        big.write_text(wide_module(3000))  # output far beyond a pipe buffer
        requests = tmp_path / "requests.jsonl"
        line = json.dumps({"id": 1, "ref": SIMPLE, "gen": SIMPLE})
        requests.write_text((line + "\n") * 3000)
        argv = [a.format(file=big) for a in args]
        with open(requests, encoding="utf-8") as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "vsr", *argv],
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                assert proc.stdout.readline()
                proc.stdout.close()
                stderr = proc.stderr.read()
                code = proc.wait(timeout=120)
            finally:
                proc.kill()
                proc.wait()
        assert stderr == ""
        assert code == 1


def test_version_importable():
    import vsr

    assert vsr.__version__
