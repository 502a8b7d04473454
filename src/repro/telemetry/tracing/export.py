"""Byte-deterministic exporters for spans and decision records.

Two formats, both canonical (sorted keys, compact separators, ``repr``
floats, ``"\\n"`` newlines, trailing newline) so identical runs produce
identical bytes — the property the serial-vs-``--jobs N`` replay tests
and the committed golden digests pin:

* **Chrome trace-event JSON** for spans (:func:`spans_to_chrome_json`)
  — loadable directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  One complete (``"ph": "X"``) event per span:
  ``pid`` 1, ``tid`` the site, ``ts``/``dur`` in simulated time units
  (``displayTimeUnit`` maps them to ms in the viewer).  The full span
  dict rides in ``args`` so the export round-trips exactly.
* **JSONL** for decision records (:func:`decisions_to_jsonl`) — one
  canonical JSON object per line, mirroring the event-stream JSONL
  format of :mod:`repro.telemetry.exporters`.

Neither format participates in experiment cache keys: traces are
observability artifacts, not results.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.codec import decode, encode
from repro.telemetry.tracing.decisions import DecisionRecord
from repro.telemetry.tracing.spans import Span

#: Version tag embedded in Chrome-trace metadata and decision records.
TRACE_FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _canonical(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, no NaN/Infinity."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


# ----------------------------------------------------------------------
# Spans — Chrome trace-event JSON
# ----------------------------------------------------------------------
def span_to_dict(span: Span) -> Dict[str, Any]:
    """Flatten one span into JSON primitives."""
    return encode(span)


def span_from_dict(data: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` from :func:`span_to_dict` output."""
    return decode(Span, data)


def spans_to_chrome_json(spans: Sequence[Span]) -> str:
    """Render *spans* as a canonical Chrome trace-event JSON document.

    Complete events (``"ph": "X"``): ``ts`` is the span start, ``dur``
    its duration, ``tid`` the site row, and the exact span dict rides in
    ``args`` (the viewer shows it in the selection panel; the reader
    round-trips from it).  Returns the document with a trailing newline.
    """
    trace_events: List[Dict[str, Any]] = []
    for span in spans:
        trace_events.append(
            {
                "name": f"{span.kind}#{span.qid}",
                "cat": span.kind,
                "ph": "X",
                "ts": span.start,
                "dur": span.end - span.start,
                "pid": 1,
                "tid": span.site,
                "args": span_to_dict(span),
            }
        )
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"trace_format_version": TRACE_FORMAT_VERSION},
    }
    return _canonical(document) + "\n"


def spans_from_chrome_json(text: str) -> Tuple[Span, ...]:
    """Rebuild spans from :func:`spans_to_chrome_json` output.

    Raises:
        ValueError: If the document is not a Chrome trace produced by
            this module (missing ``traceEvents`` or span ``args``).
    """
    document = json.loads(text)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace-event document")
    spans: List[Span] = []
    for entry in document["traceEvents"]:
        args = entry.get("args")
        if not isinstance(args, dict):
            raise ValueError("trace event is missing its span args")
        spans.append(span_from_dict(args))
    return tuple(spans)


def write_spans_chrome(spans: Sequence[Span], path: PathLike) -> None:
    """Write *spans* to *path* as Chrome trace-event JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write(spans_to_chrome_json(spans))


def read_spans_chrome(path: PathLike) -> Tuple[Span, ...]:
    """Read spans back from a :func:`write_spans_chrome` file."""
    with open(path, "r", encoding="utf-8") as stream:
        return spans_from_chrome_json(stream.read())


# ----------------------------------------------------------------------
# Decision records — JSONL
# ----------------------------------------------------------------------
def decision_to_dict(record: DecisionRecord) -> Dict[str, Any]:
    """Flatten one decision record into JSON primitives."""
    return encode(record)


def decision_from_dict(data: Dict[str, Any]) -> DecisionRecord:
    """Rebuild a :class:`DecisionRecord` from :func:`decision_to_dict`."""
    return decode(DecisionRecord, data)


def decisions_to_jsonl(records: Sequence[DecisionRecord]) -> str:
    """Render decision records as canonical JSONL (trailing newline)."""
    return "".join(_canonical(decision_to_dict(r)) + "\n" for r in records)


def decisions_from_jsonl(text: str) -> Tuple[DecisionRecord, ...]:
    """Rebuild decision records from :func:`decisions_to_jsonl` output.

    Blank lines are ignored, mirroring the event-stream JSONL reader.
    """
    records: List[DecisionRecord] = []
    for line in text.splitlines():
        if line.strip():
            records.append(decision_from_dict(json.loads(line)))
    return tuple(records)


def write_decisions_jsonl(
    records: Sequence[DecisionRecord], path: PathLike
) -> None:
    """Write decision records to *path* as canonical JSONL."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write(decisions_to_jsonl(records))


def read_decisions_jsonl(path: PathLike) -> Tuple[DecisionRecord, ...]:
    """Read decision records back from :func:`write_decisions_jsonl`."""
    with open(path, "r", encoding="utf-8") as stream:
        return decisions_from_jsonl(stream.read())


__all__ = [
    "TRACE_FORMAT_VERSION",
    "span_to_dict",
    "span_from_dict",
    "spans_to_chrome_json",
    "spans_from_chrome_json",
    "write_spans_chrome",
    "read_spans_chrome",
    "decision_to_dict",
    "decision_from_dict",
    "decisions_to_jsonl",
    "decisions_from_jsonl",
    "write_decisions_jsonl",
    "read_decisions_jsonl",
]
