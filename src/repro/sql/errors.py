"""The single SQL error type: every lexer/parser/compiler failure.

Everything syntactic or semantic about one SQL string — a lexer or
parser failure, or a literal the compiler cannot coerce — raises
:class:`SqlError`, so no caller (the workload loader, the serving layer)
has to guess at what could escape a parse.  It always carries the
character position and the offending source snippet so errors can be
surfaced to users ("near ``WHERE price >>``") instead of as bare
messages.

``SqlError`` subclasses ``ValueError`` so ``except ValueError`` call
sites catch it too.
"""

from __future__ import annotations

#: Characters of source kept on each side of the error position.
SNIPPET_CONTEXT = 20


class SqlError(ValueError):
    """A malformed workload SQL string, with location and snippet.

    Attributes:
        position: character offset of the error in the source string, or
            ``None`` when the failing stage had no token position (e.g.
            literal coercion during compilation).
        snippet: the slice of source text around the error — what a user
            interface would underline.
        source: the full offending SQL string, when available.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        source: str | None = None,
        snippet: str | None = None,
    ) -> None:
        if snippet is None and source is not None:
            anchor = position if position is not None else 0
            snippet = source[
                max(0, anchor - SNIPPET_CONTEXT) : anchor + SNIPPET_CONTEXT
            ]
        located = message
        if position is not None:
            located = f"{located} at position {position}"
        if snippet:
            located = f"{located} (near {snippet!r})"
        super().__init__(located)
        self.position = position
        self.snippet = snippet
        self.source = source
