"""Hierarchical query tracing stamped with virtual-clock times.

A :class:`Tracer` records :class:`Span`\\ s — named intervals with a parent
link, a rank, start/end timestamps and free-form attributes — while the
serving stack runs.  The span hierarchy mirrors the staged engine::

    query → plan → schedule → io[run] → refine → decode

Timestamps come from whatever clock the tracer is built over: the owning
rank's :class:`~repro.mpisim.clock.VirtualClock` in distributed serving
(so spans line up with the simulated timeline the benchmarks report), or a
deterministic internal tick counter for a standalone store (where only
I/O advances simulated time and ticks keep the hierarchy renderable).

**Cross-rank propagation** works by value, not by magic: the root rank
captures its :meth:`Tracer.context` (trace id + current span id), ships it
inside the scatter payload, and each serving rank wraps its local work in
:meth:`Tracer.adopt` — every span it records while adopted carries the
client's trace id and parents under the client's span, so gathering the
per-rank span lists yields one connected trace.

:data:`NULL_TRACER` is the default everywhere.  It is not merely "a tracer
that drops spans": its ``span()`` returns a module-level singleton context
manager, so the disabled path allocates **nothing** — no Span, no dict, no
generator frame — and instrumented code guards any non-trivial attribute
computation behind ``tracer.enabled``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = ["NULL_TRACER", "NullTracer", "Span", "TraceContext", "Tracer"]


class TraceContext:
    """The propagatable identity of an in-progress trace."""

    __slots__ = ("trace_id", "parent_span_id", "rank")

    def __init__(
        self, trace_id: str, parent_span_id: Optional[str], rank: int
    ) -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.rank = rank

    @property
    def nbytes(self) -> int:
        """Wire size — the two ids as text plus the rank — so ``mpisim``
        never pickles a context riding a scatter plan just to price it."""
        return len(self.trace_id) + len(self.parent_span_id or "") + 8

    def __repr__(self) -> str:  # pragma: no cover
        return f"TraceContext({self.trace_id!r}, parent={self.parent_span_id!r})"


class Span:
    """One named interval of a trace.

    ``span_id`` is globally unique as a ``"<rank>:<seq>"`` string, so spans
    gathered from many ranks never collide and parent links survive the
    gather.  ``allocated`` counts every Span ever constructed — the no-op
    overhead tests pin it at zero for disabled-tracing runs.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "rank",
        "start",
        "end",
        "attrs",
    )

    #: process-wide construction counter (observability of the observer)
    allocated = 0

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        rank: int,
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        Span.allocated += 1
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.rank = rank
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "rank": self.rank,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _SpanScope:
    """Context manager finishing one span (cheaper than @contextmanager —
    no generator frame per span)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._finish(self._span)
        return False


class _AdoptScope:
    """Context manager restoring the tracer's identity after an adoption."""

    __slots__ = ("_tracer", "_saved")

    def __init__(self, tracer: "Tracer", ctx: TraceContext) -> None:
        self._tracer = tracer
        self._saved = (tracer._trace_id, tracer._adopt_parent)
        tracer._trace_id = ctx.trace_id
        tracer._adopt_parent = ctx.parent_span_id

    def __enter__(self) -> "_AdoptScope":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._trace_id, self._tracer._adopt_parent = self._saved
        return False


class Tracer:
    """Records spans against a virtual clock (or an internal tick counter).

    One tracer per rank: ``rank`` namespaces the span ids, *clock* supplies
    the timestamps (any object with a ``now`` attribute; ``None`` falls
    back to a deterministic tick counter that advances by one per span
    boundary).  Finished spans accumulate in :attr:`spans` until
    :meth:`clear` — exporters (:mod:`repro.obs.export`) and EXPLAIN
    (:mod:`repro.obs.explain`) read them from there.
    """

    enabled = True

    def __init__(self, clock: Optional[Any] = None, rank: int = 0) -> None:
        self.clock = clock
        self.rank = rank
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ticks = 0
        self._seq = 0
        self._trace_seq = 0
        self._adopt_parent: Optional[str] = None
        self._trace_id = self._next_trace_id()

    # ------------------------------------------------------------------ #
    def _next_trace_id(self) -> str:
        self._trace_seq += 1
        return f"trace-{self.rank}-{self._trace_seq}"

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.now
        self._ticks += 1
        return float(self._ticks)

    @property
    def trace_id(self) -> str:
        return self._trace_id

    def new_trace(self) -> str:
        """Start a fresh trace id for subsequent root spans (spans already
        open keep the id they started with)."""
        self._trace_id = self._next_trace_id()
        return self._trace_id

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: Any) -> _SpanScope:
        """Open a child of the innermost open span (or a root span)."""
        self._seq += 1
        parent = self._stack[-1].span_id if self._stack else self._adopt_parent
        span = Span(
            name,
            self._trace_id,
            f"{self.rank}:{self._seq}",
            parent,
            self.rank,
            self._now(),
            attrs,
        )
        self._stack.append(span)
        return _SpanScope(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self._now()
        # spans close LIFO under the context-manager discipline
        self._stack.remove(span)
        self.spans.append(span)

    # ------------------------------------------------------------------ #
    def context(self) -> TraceContext:
        """The current trace identity, ready to ship to another rank."""
        parent = self._stack[-1].span_id if self._stack else self._adopt_parent
        return TraceContext(self._trace_id, parent, self.rank)

    def adopt(self, ctx: TraceContext) -> _AdoptScope:
        """Record subsequent spans under *ctx*'s trace and parent span —
        the receiving half of cross-rank propagation."""
        return _AdoptScope(self, ctx)

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop finished spans (open spans are untouched)."""
        self.spans.clear()

    def export(self) -> List[Dict[str, Any]]:
        """Finished spans as dicts, sorted by (start, span id)."""
        return [
            s.as_dict()
            for s in sorted(self.spans, key=lambda s: (s.start, s.span_id))
        ]


class _NullSpan:
    """The singleton stand-in yielded by the null tracer's scopes."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullTracer:
    """The disabled tracer: every call returns a module-level singleton, so
    tracing-off costs one attribute check and zero allocations.  Hot paths
    additionally branch on :attr:`enabled` so even attribute dictionaries
    for ``span(**attrs)`` are never built."""

    enabled = False
    clock = None
    rank = 0
    #: immutable empty history (shared; nothing is ever recorded)
    spans: tuple = ()

    def span(self, name: str, **attrs: Any) -> _NullScope:
        return _NULL_SCOPE

    def adopt(self, ctx: Any) -> _NullScope:
        return _NULL_SCOPE

    def context(self) -> None:
        return None

    def new_trace(self) -> str:
        return "trace-disabled"

    def clear(self) -> None:
        pass

    def export(self) -> List[Dict[str, Any]]:
        return []


NULL_TRACER = NullTracer()


def as_span_dicts(
    spans: Union[List[Span], List[Mapping[str, Any]], tuple]
) -> List[Dict[str, Any]]:
    """Normalise a span collection (Span objects or gathered dicts)."""
    out: List[Dict[str, Any]] = []
    for s in spans:
        out.append(s.as_dict() if isinstance(s, Span) else dict(s))
    return out
