"""Expected responses, and the check that compares the program's answers to them.

Expectations never come from the code under test.  Exact copies and
reorder/rename/constants mutants score exactly 1.0 in `ast` mode, because
the mutations preserve the cleaned tree up to module-item order.  Code-shaped
text with one deleted `;` is `parse_fail` (-5.0) and prose is `not_code`
(-10.0).  Malformed requests get the service's documented error messages.
Every other pair (cross pairs, perturbed pairs, every `seq` pair) is scored
by the naive recursive transcriptions in `tests/naive_reference.py`, run on
the cleaned trees.
"""

from __future__ import annotations

import json
import sys

REWARD_SCALE = 10.0
REWARD_PARSE_FAIL = -5.0
REWARD_NOT_CODE = -10.0

# The service's own wording for the malformed requests the workloads send.
MSG_NOT_OBJECT = "request must be a JSON object"
MSG_MISSING_REF = "missing or non-string field 'ref'"
MSG_MISSING_GEN = "missing or non-string field 'gen'"
MSG_BAD_MODE = "mode must be 'ast' or 'seq'"
MSG_PROSE_REF = (
    "reference does not parse: reference is not_code: "
    "no module/endmodule pair in token stream"
)
TIMEOUT_PREFIX = "evaluation exceeded"

OK, FAILED, WRONG = "ok", "failed", "wrong"


def scored(status: str, sim: float | None) -> dict:
    """Response fields after the id for a request that reached scoring."""
    if status == "parsed":
        return {"status": status, "sim": sim, "reward": REWARD_SCALE * sim, "error": None}
    reward = REWARD_PARSE_FAIL if status == "parse_fail" else REWARD_NOT_CODE
    return {"status": status, "sim": None, "reward": reward, "error": None}


def rejected(message: str) -> dict:
    return {"status": "reference_error", "sim": None, "reward": None, "error": message}


def response(req_id, fields: dict) -> dict:
    """One response object, keys in the service's order."""
    return {"id": req_id, **fields}


def encode(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


class NaiveOracle:
    """Memoised front for the naive similarity transcriptions.

    The transcriptions are pure functions of the two trees, so memoising them
    on node identity changes no result; it only keeps wide pairs affordable.
    """

    def __init__(self, naive_module) -> None:
        self._mod = naive_module
        self._ast = naive_module.naive_sim_ast
        self._seq = naive_module.naive_sim_ast_seq

    def sim(self, gen_tree, ref_tree, mode: str) -> float:
        fn = self._ast if mode == "ast" else self._seq
        name = "naive_sim_ast" if mode == "ast" else "naive_sim_ast_seq"
        memo: dict[tuple[int, int], float] = {}

        def memoised(a, b):
            key = (id(a), id(b))
            value = memo.get(key)
            if value is None:
                value = memo[key] = fn(a, b)
            return value

        # The transcriptions recurse through their module-level names.
        setattr(self._mod, name, memoised)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))
        try:
            return memoised(gen_tree, ref_tree)
        finally:
            setattr(self._mod, name, fn)
            sys.setrecursionlimit(limit)


def classify_item(got, expected: dict) -> str:
    """Judge one response object against its expected object.

    FAILED is a call the service did not answer properly: a timeout, or a
    reference_error the oracle did not expect.  WRONG is any other
    difference, and fails the run.
    """
    if got == expected:
        return OK
    if isinstance(got, dict) and got.get("status") == "reference_error":
        error = got.get("error")
        if isinstance(error, str) and error.startswith(TIMEOUT_PREFIX):
            return FAILED
        if expected.get("status") != "reference_error":
            return FAILED
    return WRONG


def check_body(body: bytes, expected: list[dict], batch: bool) -> tuple[str, int]:
    """Judge one HTTP body or stdio line group against the expected objects.

    Returns the call's verdict and the number of items answered exactly.
    Byte equality with the encoded expectation is the fast path; the slow
    path decodes to tell a failed call from a wrong answer.
    """
    want = encode(expected if batch else expected[0])
    if body == want:
        return OK, len(expected)
    try:
        got = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return WRONG, 0
    items = got if batch else [got]
    if not isinstance(items, list) or len(items) != len(expected):
        return WRONG, 0
    verdicts = [classify_item(g, e) for g, e in zip(items, expected)]
    if WRONG in verdicts or FAILED not in verdicts:
        # Equal objects but different bytes is a framing fault: also wrong.
        return WRONG, 0
    return FAILED, verdicts.count(OK)
