"""What each entry point loads.

Names on `vsr` resolve on first use, so a start imports only the modules it
runs, and `vsr serve` loads what it serves with before it freezes the
collector.  Each test runs its probe in a fresh interpreter, because this
one has imported every module already.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

SCORING_PATH = {
    "vsr.deadline",
    "vsr.lexer",
    "vsr.parser",
    "vsr.reward",
    "vsr.service",
    "vsr.similarity",
    "vsr.trees",
}
NOT_FOR_SCORING = {"socketserver", "vsr.corpus", "vsr.metrics", "vsr.printer"}
# The HTTP service frames requests itself over socketserver.
NOT_FOR_HTTP = {"email", "http.client", "http.server", "ssl"}

SUBMODULES = sorted(
    p.stem for p in (Path(__file__).parent.parent / "src" / "vsr").glob("*.py")
    if not p.stem.startswith("_")
)

# Every name the package exports.
EXPORTED = """
    CleanNode CorpusFormatError CorpusRecord DEFAULT_DEPTH_LIMIT DeadlineExceeded
    DepthLimitError Diagnostic DropReason DroppedRecord FilterConfig KEYWORDS
    LexError MatchStep MutationError MutationKind MutationSpec NodeKind
    ParseError PrintError REWARD_NOT_CODE REWARD_PARSE_FAIL REWARD_SCALE RawNode
    RecordStats ReferenceParseError ReferenceTooDeepError RewardOutcome
    ServiceConfig TaskOutcome Token TokenKind TreeFormatError TreeStats Validity
    ValidityStatus aggregate_pass_at_k classify clean corpus_stats
    create_http_server curate deserialize evaluate handle_line hit_at_k ingest
    iter_tree lex mutate parse parse_source pass_at_k pretty_print
    read_outcomes reward serialize serve_http serve_stdio sim_ast sim_ast_seq
    sim_ast_with_trace tree_stats
""".split()

# Runs `vsr.cli.main` on the probe's arguments, then prints the modules
# loaded when the collector was frozen and at the end as JSON on stderr.
CLI_PROBE = """
import gc, json, sys
frozen = []
real_freeze = gc.freeze
def freeze():
    frozen.extend(sys.modules)
    real_freeze()
gc.freeze = freeze
from vsr.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps({"code": code, "frozen": frozen, "end": list(sys.modules)}), file=sys.stderr)
"""


def probe(code: str, *args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def cli_probe(*args: str, stdin: str | None = None) -> tuple[str, dict]:
    proc = probe(CLI_PROBE, *args, stdin=stdin)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0
    return proc.stdout, report


def test_serve_stdio_loads_only_the_scoring_path():
    ref = (GOLDEN / "mux2.v").read_text(encoding="utf-8")
    request = json.dumps({"id": 1, "ref": ref, "gen": ref})
    stdout, report = cli_probe("serve", "--stdio", stdin=request + "\n")
    assert json.loads(stdout)["reward"] == 10.0
    assert SCORING_PATH <= set(report["frozen"])
    # Answering imported nothing more, so no import ran inside a request.
    assert set(report["end"]) == set(report["frozen"])
    assert not NOT_FOR_SCORING & set(report["end"])


def test_reward_command_loads_only_the_scoring_path():
    ref = str(GOLDEN / "mux2.v")
    stdout, report = cli_probe("reward", ref, ref)
    assert stdout == "parsed\t1.000000\t10.000000\n"
    assert report["frozen"] == []
    assert not NOT_FOR_SCORING & set(report["end"])


def test_corpus_import_loads_no_service():
    proc = probe(
        "import json, sys\n"
        "from vsr import corpus\n"
        "print(json.dumps(list(sys.modules)))"
    )
    loaded = set(json.loads(proc.stdout))
    assert "vsr.corpus" in loaded
    assert not {"vsr.service", "socketserver"} & loaded


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["serve", "--stdio"], SCORING_PATH),
        (["serve", "--http", "127.0.0.1:0"], SCORING_PATH | {"socketserver"}),
    ],
)
def test_serve_freezes_what_it_serves_with(argv, needs):
    proc = probe(
        "import gc, json, sys\n"
        "from vsr import cli\n"
        "frozen = []\n"
        "gc.freeze = lambda: frozen.append(list(sys.modules))\n"
        "cli.serve_stdio = lambda **kwargs: None\n"
        "cli.serve_http = lambda *args: None\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(frozen))",
        *argv,
    )
    [frozen] = json.loads(proc.stdout)
    assert needs <= set(frozen)
    assert not NOT_FOR_HTTP & set(frozen)
    if "--stdio" in argv:
        assert "socketserver" not in frozen


def test_serve_http_loads_no_http_server_email_or_ssl():
    # Serves one request over a raw socket (an HTTP client would load what
    # the test pins out), then reports what was loaded at the freeze and
    # after answering.
    proc = probe(
        "import gc, json, socket, sys, threading\n"
        "from vsr import cli, service\n"
        "frozen = []\n"
        "real_freeze = gc.freeze\n"
        "gc.freeze = lambda: (frozen.extend(sys.modules), real_freeze())\n"
        "def serve_http(host, port, config):\n"
        "    server = service.create_http_server(host, port, config)\n"
        "    threading.Thread(target=server.serve_forever, daemon=True).start()\n"
        "    with socket.create_connection(server.server_address) as sock:\n"
        "        sock.sendall(b'GET /healthz HTTP/1.1\\r\\nConnection: close\\r\\n\\r\\n')\n"
        "        reply = b''\n"
        "        while chunk := sock.recv(65536):\n"
        "            reply += chunk\n"
        "    server.shutdown()\n"
        "    server.server_close()\n"
        "    print(json.dumps({'reply': reply.decode(), 'frozen': frozen, 'end': list(sys.modules)}))\n"
        "cli.serve_http = serve_http\n"
        "assert cli.main(['serve', '--http', '127.0.0.1:0']) == 0",
    )
    report = json.loads(proc.stdout)
    assert report["reply"].startswith("HTTP/1.1 200 OK\r\n")
    assert "socketserver" in report["frozen"]
    assert not NOT_FOR_HTTP & set(report["end"])


def test_every_name_and_submodule_resolves():
    proc = probe(
        "import importlib, json, vsr\n"
        "listed = set(dir(vsr))\n"
        "names = {n: type(getattr(vsr, n)).__name__ for n in vsr.__all__}\n"
        "modules = {m: getattr(vsr, m).__name__ for m in " + repr(SUBMODULES) + "}\n"
        "try:\n"
        "    vsr.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps({'all': vsr.__all__, 'names': names, 'modules': modules,\n"
        "                  'listed': sorted(listed), 'unknown': unknown}))"
    )
    report = json.loads(proc.stdout)
    assert sorted(report["all"]) == sorted(EXPORTED)
    # `vsr.reward` is the function; the submodule of that name is not an
    # attribute.
    assert report["names"]["reward"] == "function"
    assert report["modules"] == {
        m: f"vsr.{m}" for m in SUBMODULES if m != "reward"
    } | {"reward": "reward"}
    assert set(EXPORTED) | set(SUBMODULES) <= set(report["listed"])
    assert report["unknown"] == "module 'vsr' has no attribute 'no_such_name'"


def test_reward_stays_the_function_when_its_module_loads_first():
    proc = probe(
        "import vsr.service, vsr, importlib\n"
        "module = importlib.import_module('vsr.reward')\n"
        "assert vsr.reward is module.reward, vsr.reward\n"
        "from vsr import reward\n"
        "assert reward is module.reward, reward"
    )
    assert proc.stderr == ""
