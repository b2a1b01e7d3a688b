"""Structured tracing: nested spans over the whole OBDA pipeline.

The resilience (PR 1) and perf-cache (PR 3) layers made the stack take
many invisible runtime decisions — which fallback engine served a
classification, how many retry attempts a source pull needed, whether a
rewriting came out of the canonical cache or was recomputed, how much
budget a stage had left when it started.  A :class:`Tracer` turns every
pipeline stage into an inspectable :class:`Span`:

* spans nest (``certain-answers`` → ``rewrite`` → ``unfold`` →
  ``sql-eval``), carry wall time from the **monotonic** clock, a status
  (``ok`` / ``error`` / ``timeout``), and free-form attributes (axiom
  counts, rewriting sizes, cache hit/miss, budget remaining);
* span ids are **deterministic** — a per-tracer counter, not wall time
  or randomness — so two runs of the same workload produce comparable
  traces;
* a finished trace exports as JSON-lines (:meth:`Tracer.to_jsonlines`),
  one self-contained object per line, machine-checkable by
  :mod:`repro.obs.schema`.

Instrumented library code never takes a tracer parameter; it asks
:func:`current_tracer` — which defaults to the :data:`NULL_TRACER`
singleton whose spans are a single shared no-op object, so the
uninstrumented hot path allocates nothing and pays only a global read
and an empty method call per stage
(``test_null_tracer_is_the_default_and_allocation_free`` pins this).
Tracing is opted into with :func:`use_tracer`::

    tracer = Tracer("my-query")
    with use_tracer(tracer):
        system.certain_answers(query)
    print(render_span_tree(tracer))
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from ..errors import TimeoutExceeded

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "render_span_tree",
]


class Span:
    """One timed, attributed stage of a traced run.

    Spans are created by :meth:`Tracer.span` (used as a context manager)
    and closed automatically — an exception propagating through the
    ``with`` block closes the span with status ``"error"`` (or
    ``"timeout"`` for a :class:`~repro.errors.TimeoutExceeded`), so
    failed runs still export complete traces with no dangling spans.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "start_s",
        "end_s",
        "status",
        "detail",
        "attributes",
        "children",
    )

    def __init__(
        self, name: str, span_id: str, parent_id: Optional[str], depth: int,
        start_s: float,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = "open"
        self.detail = ""
        self.attributes: Dict[str, Any] = {}
        self.children: List["Span"] = []

    @property
    def elapsed_s(self) -> float:
        """Seconds between start and close (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-serializable values only)."""
        self.attributes[key] = value

    def annotate(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def set_status(self, status: str, detail: str = "") -> None:
        """Override the close status (an exception in the block still wins)."""
        self.status = status
        if detail:
            self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "elapsed_s": round(self.elapsed_s, 6),
            "status": self.status,
            "detail": self.detail,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, status={self.status!r}, "
            f"{self.elapsed_s * 1000:.1f}ms)"
        )


class _SpanContext:
    """The context manager yielded by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if exc is None:
            status = span.status if span.status != "open" else "ok"
            detail = span.detail
        elif isinstance(exc, TimeoutExceeded):
            status, detail = "timeout", str(exc)
        else:
            status, detail = "error", f"{exc_type.__name__}: {exc}"
        self._tracer._close(span, status, detail)
        return False


class Tracer:
    """Collects nested spans for one traced run.

    >>> tracer = Tracer("demo")
    >>> with tracer.span("outer") as outer:
    ...     outer.set("answer", 42)
    ...     with tracer.span("inner"):
    ...         pass
    >>> [s.name for s in tracer.spans]
    ['outer', 'inner']
    >>> tracer.spans[1].parent_id == tracer.spans[0].span_id
    True
    """

    #: NullTracer advertises False so call sites can skip attribute work.
    enabled = True

    def __init__(self, name: str = "trace"):
        self.name = name
        self._origin = time.perf_counter()
        self._counter = 0
        self._stack: List[Span] = []
        #: every span, in start order (the JSON-lines export order)
        self.spans: List[Span] = []
        #: spans with no parent (normally exactly one per traced run)
        self.roots: List[Span] = []

    # -- span lifecycle --------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """A context manager opening a child span of the innermost open span."""
        return _SpanContext(self, name, attributes)

    def _open(self, name: str, attributes: Dict[str, Any]) -> Span:
        self._counter += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            span_id=f"s{self._counter:04d}",
            parent_id=parent.span_id if parent else None,
            depth=parent.depth + 1 if parent else 0,
            start_s=time.perf_counter() - self._origin,
        )
        if attributes:
            span.attributes.update(attributes)
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span, status: str, detail: str) -> None:
        span.end_s = time.perf_counter() - self._origin
        span.status = status
        if detail:
            span.detail = detail
        # Tolerate out-of-order closes (misuse) by popping through the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    @property
    def open_spans(self) -> List[Span]:
        """Spans started but not yet closed (empty after a completed run)."""
        return list(self._stack)

    # -- export ----------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Header record plus one record per span, in start order."""
        records: List[Dict[str, Any]] = [
            {"kind": "trace", "name": self.name, "spans": len(self.spans)}
        ]
        records.extend(span.to_dict() for span in self.spans)
        return records

    def to_jsonlines(self) -> str:
        """The trace as JSON-lines (one JSON object per line)."""
        return "\n".join(
            json.dumps(record, sort_keys=True, default=str)
            for record in self.to_dicts()
        )

    def __repr__(self) -> str:
        return f"Tracer({self.name!r}, {len(self.spans)} span(s))"


class _NullSpan:
    """The shared no-op span: context manager and span in one object."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def annotate(self, **attributes: Any) -> None:
        pass

    def set_status(self, status: str, detail: str = "") -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every span is the one shared no-op object.

    The no-overhead contract (asserted by the tier-1 suite): with the
    NullTracer installed, instrumented code allocates **no span
    objects** — ``span()`` returns the module-level :data:`_NULL_SPAN`
    singleton, whose enter/exit/set methods are empty.
    """

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def __repr__(self) -> str:
        return "NullTracer()"


#: Process-wide no-op default; ``current_tracer()`` returns this unless a
#: real tracer was installed with :func:`use_tracer` / :func:`set_tracer`.
NULL_TRACER = NullTracer()

_current: object = NULL_TRACER


def current_tracer():
    """The tracer instrumented library code should emit spans into."""
    return _current


def set_tracer(tracer) -> object:
    """Install *tracer* (or :data:`NULL_TRACER`); returns the previous one."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


class _TracerScope:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer):
        self._tracer = tracer

    def __enter__(self):
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        return False


def use_tracer(tracer) -> _TracerScope:
    """Context manager installing *tracer* for the dynamic extent of a block."""
    return _TracerScope(tracer)


# -- rendering -----------------------------------------------------------------


def _format_attributes(attributes: Dict[str, Any]) -> str:
    if not attributes:
        return ""
    parts = []
    for key in sorted(attributes):
        value = attributes[key]
        if isinstance(value, float):
            value = round(value, 4)
        elif isinstance(value, str) and ("\n" in value or len(value) > 80):
            value = f"<{len(value)} chars>"  # keep the tree one line per span
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def _render_span(span: Span, prefix: str, is_last: bool, lines: List[str]) -> None:
    connector = "" if not prefix and span.parent_id is None else (
        "└─ " if is_last else "├─ "
    )
    status = "" if span.status == "ok" else f"  !{span.status}"
    detail = f" ({span.detail})" if span.status not in ("ok", "open") and span.detail else ""
    lines.append(
        f"{prefix}{connector}{span.name}  {span.elapsed_s * 1000:.2f}ms"
        f"{status}{detail}{_format_attributes(span.attributes)}"
    )
    child_prefix = prefix + ("" if connector == "" else ("   " if is_last else "│  "))
    for index, child in enumerate(span.children):
        _render_span(child, child_prefix, index == len(span.children) - 1, lines)


def render_span_tree(tracer: Tracer) -> str:
    """ASCII tree of a tracer's spans with timings, status and attributes."""
    lines: List[str] = []
    for index, root in enumerate(tracer.roots):
        _render_span(root, "", index == len(tracer.roots) - 1, lines)
    return "\n".join(lines)
