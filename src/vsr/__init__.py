"""Structural similarity, tiered rewards, and evaluation metrics for
Verilog code generation, plus the corpus tooling and services around them.

Names resolve on first use (PEP 562): `import vsr` loads no submodule, and
reading `vsr.sim_ast` imports `vsr.similarity` the first time.  So each
entry point loads only the modules it runs: the reward service never loads
the corpus tooling, and the corpus tooling never loads the service.  Every
submodule is an attribute too, except that `vsr.reward` is the function;
`importlib.import_module("vsr.reward")` gives the module.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "corpus",
    "deadline",
    "lexer",
    "metrics",
    "parser",
    "printer",
    "reward",
    "service",
    "similarity",
    "trees",
)

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "corpus": (
            "CorpusFormatError",
            "CorpusRecord",
            "DroppedRecord",
            "DropReason",
            "FilterConfig",
            "MutationError",
            "MutationKind",
            "MutationSpec",
            "RecordStats",
            "corpus_stats",
            "curate",
            "ingest",
            "mutate",
        ),
        "deadline": ("DeadlineExceeded",),
        "lexer": ("KEYWORDS", "LexError", "Token", "TokenKind", "lex"),
        "metrics": (
            "TaskOutcome",
            "aggregate_pass_at_k",
            "hit_at_k",
            "pass_at_k",
            "read_outcomes",
        ),
        "parser": (
            "Diagnostic",
            "ParseError",
            "Validity",
            "ValidityStatus",
            "classify",
            "parse",
            "parse_source",
        ),
        "printer": ("PrintError", "pretty_print"),
        "reward": (
            "REWARD_NOT_CODE",
            "REWARD_PARSE_FAIL",
            "REWARD_SCALE",
            "ReferenceParseError",
            "ReferenceTooDeepError",
            "RewardOutcome",
            "reward",
        ),
        "service": (
            "ServiceConfig",
            "create_http_server",
            "evaluate",
            "handle_line",
            "serve_http",
            "serve_stdio",
        ),
        "similarity": (
            "DEFAULT_DEPTH_LIMIT",
            "DepthLimitError",
            "MatchStep",
            "sim_ast",
            "sim_ast_seq",
            "sim_ast_with_trace",
        ),
        "trees": (
            "CleanNode",
            "NodeKind",
            "RawNode",
            "TreeFormatError",
            "TreeStats",
            "clean",
            "deserialize",
            "iter_tree",
            "serialize",
            "tree_stats",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(f"vsr.{module}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"vsr.{name}")
    else:
        raise AttributeError(f"module 'vsr' has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package.  `vsr.reward` names
        # both a submodule and the function exported under that name; the
        # function keeps the attribute, whichever is imported first.
        if name in _EXPORTS and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
