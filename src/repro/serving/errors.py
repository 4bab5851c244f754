"""Exception taxonomy for the serving path.

The offline reproduction raises bare ``ValueError``s; a long-lived service
needs a typed contract so callers (the HTTP front end, the CLI, batch
drivers) can map failures to responses without string matching:

* :class:`InvalidRequest` — the caller's fault: malformed SQL, an unknown
  table or attribute, a nonsensical deadline.  Maps to HTTP 400.
* :class:`DeadlineExceeded` — a request's time budget ran out.  Internal
  to the degradation ladder: :meth:`CategorizationService.categorize
  <repro.serving.service.CategorizationService.categorize>` never lets it
  escape — the ladder bottoms out at SHOWTUPLES instead.
* :class:`PublishError` — an epoch publish failed.  Only the
  ``snapshot.publish`` fault site raises it.  Ingestion absorbs it: the
  delta stays pending and the next full batch or flush publishes it.
* :class:`IngestionStalled` — the relation's journal refused the record
  (a write or fsync failed), so the query was not acknowledged, recorded
  or absorbed.  Maps to HTTP 503 with ``Retry-After``; a client retry
  cannot double-count the query.
* :class:`Degraded` — **not an exception.**  The explicit, non-error
  signal that a response was served below the full rung; carried on the
  response object so callers can distinguish "full tree" from "best
  effort under pressure" without exception control flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: Stable machine-readable error codes of the HTTP front end.
#: Every error body on the wire is ``{"error": {"code", "message",
#: "detail"}}`` with ``code`` drawn from this closed set — clients switch
#: on the code, never on message text.
CODE_INVALID_REQUEST = "InvalidRequest"
CODE_SQL_ERROR = "SqlError"
CODE_UNKNOWN_TABLE = "UnknownTable"
CODE_SHED = "Shed"
CODE_INGESTION_STALLED = "IngestionStalled"
CODE_NOT_FOUND = "NotFound"
CODE_INTERNAL = "InternalError"

ERROR_CODES = frozenset(
    {
        CODE_INVALID_REQUEST,
        CODE_SQL_ERROR,
        CODE_UNKNOWN_TABLE,
        CODE_SHED,
        CODE_INGESTION_STALLED,
        CODE_NOT_FOUND,
        CODE_INTERNAL,
    }
)


def error_payload(
    code: str, message: str, detail: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """The one error-body serializer.

    ``detail`` carries structured context (reason slug, available
    tables); it is always present, possibly empty, so clients
    can index into it unconditionally.
    """

    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"error": {"code": code, "message": message, "detail": dict(detail or {})}}


def error_response(exc: Exception) -> tuple[int, dict[str, Any]]:
    """Map a serving exception to ``(http_status, body)``.

    The one place exceptions become wire errors, so status codes and
    body shapes cannot drift apart.  Overload shedding belongs to the
    front end's admission gate and is handled where it is raised, with
    :func:`error_payload` and :data:`CODE_SHED`.
    """
    if isinstance(exc, UnknownTable):
        return 404, error_payload(exc.code, str(exc), exc.detail())
    if isinstance(exc, InvalidRequest):
        return 400, error_payload(exc.code, str(exc), exc.detail())
    if isinstance(exc, IngestionStalled):
        return 503, error_payload(
            CODE_INGESTION_STALLED, str(exc), {"reason": exc.reason}
        )
    return 500, error_payload(CODE_INTERNAL, f"internal error: {exc}")


class ServingError(Exception):
    """Base class for every error the serving layer raises."""


class InvalidRequest(ServingError):
    """The request itself is unserveable (bad SQL, unknown relation...).

    ``reason`` is a short machine-readable slug (``sql``, ``table``,
    ``deadline``); the message carries the human detail, including the
    position/snippet when the underlying failure was a
    :class:`~repro.sql.errors.SqlError`.
    """

    def __init__(self, message: str, reason: str = "request") -> None:
        super().__init__(message)
        self.reason = reason

    @property
    def code(self) -> str:
        """Wire code: SQL parse failures get their own stable code."""
        return CODE_SQL_ERROR if self.reason == "sql" else CODE_INVALID_REQUEST

    def detail(self) -> dict[str, Any]:
        return {"reason": self.reason}


class UnknownTable(InvalidRequest):
    """The request names a relation this catalog does not serve.

    A subclass of :class:`InvalidRequest` so existing ``except`` clauses
    keep working, but mapped to HTTP 404 with its own stable code and a
    ``detail`` listing the relations the server *does* hold.
    """

    def __init__(self, table: str, available: tuple[str, ...] = ()) -> None:
        served = ", ".join(sorted(available)) or "none"
        super().__init__(
            f"unknown table {table!r} (this server holds: {served})",
            reason="table",
        )
        self.table = table
        self.available = tuple(sorted(available))

    @property
    def code(self) -> str:
        return CODE_UNKNOWN_TABLE

    def detail(self) -> dict[str, Any]:
        return {
            "reason": self.reason,
            "table": self.table,
            "available": list(self.available),
        }


class DeadlineExceeded(ServingError):
    """A request's deadline ran out before the current rung finished."""

    def __init__(self, message: str, elapsed_s: float | None = None) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s


class PublishError(ServingError):
    """An epoch publish failed; the pending delta is intact."""


class IngestionStalled(ServingError):
    """The journal refused a record, so the query was not acknowledged."""

    #: Machine-readable slug carried in the wire ``detail``.
    reason = "journal"


@dataclass(frozen=True)
class Degraded:
    """Non-error signal: the response was served below the full rung.

    Attributes:
        rung: the degradation-ladder step that answered (``truncated``,
            ``single_level``, or ``showtuples``).
        reason: why the ladder descended (``deadline``, ``error``).
    """

    rung: str
    reason: str

    def __str__(self) -> str:
        return f"degraded to {self.rung} ({self.reason})"
