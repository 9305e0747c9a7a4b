"""Structural similarity, tiered rewards, and evaluation metrics for
Verilog code generation, plus the corpus tooling and services around them."""

__version__ = "0.1.0"

from vsr.corpus import (
    CorpusFormatError,
    CorpusRecord,
    DroppedRecord,
    DropReason,
    FilterConfig,
    MutationError,
    MutationKind,
    MutationSpec,
    RecordStats,
    corpus_stats,
    curate,
    ingest,
    mutate,
)
from vsr.deadline import DeadlineExceeded
from vsr.lexer import KEYWORDS, LexError, Token, TokenKind, lex
from vsr.metrics import (
    TaskOutcome,
    aggregate_pass_at_k,
    hit_at_k,
    pass_at_k,
    read_outcomes,
)
from vsr.parser import (
    Diagnostic,
    ParseError,
    Validity,
    ValidityStatus,
    classify,
    parse,
    parse_source,
)
from vsr.printer import PrintError, pretty_print
from vsr.reward import (
    REWARD_NOT_CODE,
    REWARD_PARSE_FAIL,
    REWARD_SCALE,
    ReferenceParseError,
    ReferenceTooDeepError,
    RewardOutcome,
    reward,
)
from vsr.service import (
    ServiceConfig,
    create_http_server,
    evaluate,
    handle_line,
    serve_http,
    serve_stdio,
)
from vsr.similarity import (
    DEFAULT_DEPTH_LIMIT,
    DepthLimitError,
    MatchStep,
    sim_ast,
    sim_ast_seq,
    sim_ast_with_trace,
)
from vsr.trees import (
    CleanNode,
    NodeKind,
    RawNode,
    TreeFormatError,
    TreeStats,
    clean,
    deserialize,
    iter_tree,
    serialize,
    tree_stats,
)
