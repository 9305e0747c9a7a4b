"""Cooperative deadlines for the scoring pipeline.

A deadline is a `time.monotonic()` value, or None for no deadline.  The
long loops of the pipeline (lexing, parsing, cleaning, similarity) take one
as an optional `deadline` keyword and call `check` once every so many steps,
counted down in the loop itself, so the clock is read rarely and a loop
costs the same with and without a deadline.  Past the deadline, `check`
raises DeadlineExceeded and the work stops where it is; nothing runs on in
the background.
"""

from __future__ import annotations

import time

# Steps a loop takes between two deadline checks.  A step is a lexeme, a
# token, a tree node or a candidate pair, so this is a few ms of work in
# any loop, while the clock is read too rarely to cost anything.
CHECK_EVERY = 4096


class DeadlineExceeded(Exception):
    """The work passed its deadline and was stopped.

    Deliberately not a ValueError: handlers for malformed input, such as
    the LexError and ParseError handlers of `vsr.parser.classify`, must let
    it through.
    """


def check(deadline: float | None) -> None:
    """Raise DeadlineExceeded if `deadline` is set and has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded("deadline passed")
