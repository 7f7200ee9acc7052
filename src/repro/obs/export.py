"""Trace export: JSONL spans and the ``EXPLAIN ANALYZE``-style tree.

Two output formats, one source of truth (:class:`~repro.obs.trace.Span`
trees):

* **JSONL** -- one JSON object per span, hierarchy encoded by
  ``span``/``parent`` ids and ``trace`` grouping.  Written by
  :func:`write_trace_jsonl`, read back by :func:`load_trace_jsonl`
  (the loader the acceptance round-trip test exercises).  Lines are
  self-contained, so files are streamable and ``grep``-able.
* **Rendered tree** -- :func:`render_trace` draws one trace as an
  indented tree with durations and counters, the output of
  ``repro-cpq explain``.

The JSONL schema per line::

    {"trace": <root span id>, "span": <id>, "parent": <id or null>,
     "name": "...", "offset_ms": float, "duration_ms": float,
     "attrs": {...}}

``attrs`` values are whatever the instrumentation recorded (ints,
floats, strings); non-finite floats survive the round trip via
Python's JSON extensions (``NaN``/``Infinity``).
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, List, Union

from repro.obs.trace import Span


def span_records(root: Span) -> Iterator[dict]:
    """Flatten one trace into its JSONL record dicts, depth-first."""
    for span in root.walk():
        yield {
            "trace": root.span_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "offset_ms": round(span.offset_ms, 3),
            "duration_ms": round(span.duration_ms, 3),
            "attrs": span.attrs,
        }


def write_trace_jsonl(
    sink: Union[str, IO[str]], traces: Iterable[Span]
) -> int:
    """Append every span of every trace to ``sink`` as JSON lines.

    ``sink`` is a path (opened for writing) or an open text handle.
    Returns the number of span lines written.
    """
    def emit(handle: IO[str]) -> int:
        count = 0
        for root in traces:
            for record in span_records(root):
                handle.write(json.dumps(record) + "\n")
                count += 1
        return count

    if isinstance(sink, str):
        with open(sink, "w") as handle:
            return emit(handle)
    return emit(sink)


def load_trace_jsonl(source: Union[str, IO[str]]) -> List[Span]:
    """Reconstruct span trees from a JSONL trace file.

    The inverse of :func:`write_trace_jsonl`: returns the root spans in
    file order with children attached in their recorded order.  Raises
    ``ValueError`` on a child whose parent is missing from the file.
    """
    def parse(handle: IO[str]) -> List[Span]:
        roots: List[Span] = []
        by_id: dict = {}
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            span = Span(
                record["name"],
                span_id=record["span"],
                parent_id=record.get("parent"),
                attrs=record.get("attrs") or {},
            )
            span.offset_ms = float(record.get("offset_ms", 0.0))
            span.duration_ms = float(record.get("duration_ms", 0.0))
            by_id[span.span_id] = span
            if span.parent_id is None:
                roots.append(span)
            else:
                parent = by_id.get(span.parent_id)
                if parent is None:
                    raise ValueError(
                        f"line {line_no}: span {span.span_id} references "
                        f"unknown parent {span.parent_id}"
                    )
                parent.children.append(span)
        return roots

    if isinstance(source, str):
        with open(source) as handle:
            return parse(handle)
    return parse(source)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    text = str(value)
    if " " in text:
        return f'"{text}"'
    return text


def _format_attrs(span: Span, show_timed: bool) -> str:
    return " ".join(
        f"{key}={_format_value(value)}"
        for key, value in span.attrs.items()
        if show_timed or key not in span.timed
    )


def render_trace(root: Span, show_durations: bool = True) -> str:
    """Draw one trace as an ``EXPLAIN ANALYZE``-style indented tree.

    Each line shows the span name, its duration, and its counters in
    recording order.  ``show_durations=False`` renders deterministic
    text for golden tests: it drops the durations and the counters
    that depend on thread timing (:meth:`Span.annotate_timed`; marks
    do not survive the JSONL round trip).  For example::

        request  (12.416 ms)  kind=cpq pair=default status=ok
        |-- plan  (0.210 ms)  algorithm=heap ...
        `-- traverse  (11.902 ms)  algorithm=HEAP k=4 ...
            |-- heap  (11.316 ms)  inserts=210 pops=87 max_size=54
            |-- io.p  disk_reads=51 buffer_hits=120 reads=171 ...
            `-- io.q  disk_reads=49 buffer_hits=118 reads=167 ...

    Spans with zero duration (pure accounting spans, like the I/O
    leaves) omit the parenthesised time.
    """
    lines: List[str] = []

    def draw(span: Span, prefix: str, connector: str,
             child_prefix: str) -> None:
        parts = [f"{connector}{span.name}"]
        if show_durations and span.duration_ms > 0.0:
            parts.append(f"({span.duration_ms:.3f} ms)")
        attrs = _format_attrs(span, show_durations)
        if attrs:
            parts.append(attrs)
        lines.append(prefix + "  ".join(parts))
        for i, child in enumerate(span.children):
            last = i == len(span.children) - 1
            draw(
                child,
                prefix + child_prefix,
                "`-- " if last else "|-- ",
                "    " if last else "|   ",
            )

    draw(root, "", "", "")
    return "\n".join(lines)
