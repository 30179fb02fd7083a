"""Rendering one distributed trace as a wall-clock timeline.

Input is a timeline document — ``{"tree": <serialized span tree>}``
plus whatever identity fields the source attached (``job``, ``trace``,
``kind``, ``status`` from the service's live endpoint, ``created_at``
from the warehouse) — and output is an indented ASCII view where each
line shows the span's offset from the submit instant, its duration,
its share of the end-to-end wall time, and its distinguishing
attributes (worker ids, lease outcomes, attempt numbers...).

Offsets come from each span's wall-clock ``start_s`` stamp; durations
from its monotonic ``elapsed_s``.  The two clock domains never mix
into a duration, but *placement* across processes can still disagree
(worker and service wall clocks are not synchronized), so a span that
appears to start before its trace's root is clamped to offset zero and
counted in a skew footer rather than crashing or rendering negative
time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Attributes carried in the header line rather than per-span columns.
_HEADER_ATTRS = frozenset({"trace_id", "job", "kind"})

#: Longest attribute value rendered before truncation (content-hash
#: keys are 64 hex chars; the first few identify the job well enough).
_MAX_ATTR_CHARS = 24


def _format_attrs(attributes: Dict[str, Any], depth: int) -> str:
    parts = []
    for name in sorted(attributes):
        if depth == 0 and name in _HEADER_ATTRS:
            continue
        value = str(attributes[name])
        if len(value) > _MAX_ATTR_CHARS:
            value = value[: _MAX_ATTR_CHARS - 2] + ".."
        parts.append(f"{name}={value}")
    return " ".join(parts)


def _walk(
    node: Dict[str, Any],
    root_start: Optional[float],
    parent_offset: float,
    depth: int,
    rows: List[Tuple[float, int, str, float, str]],
) -> int:
    """Flatten the tree into (offset, depth, name, elapsed, attrs) rows.

    Returns how many spans had their offset clamped for clock skew.
    """
    start = node.get("start_s")
    if root_start is None or not isinstance(start, (int, float)):
        # No wall stamp (pre-distributed-tracing span, or a zero-cost
        # mark serialized without one): inherit the parent's placement.
        offset, skew = parent_offset, 0
    else:
        raw = float(start) - root_start
        skew = 1 if raw < 0 else 0
        offset = max(0.0, raw)
    rows.append(
        (
            offset,
            depth,
            str(node.get("name", "?")),
            float(node.get("elapsed_s", 0.0)),
            _format_attrs(node.get("attributes", {}), depth),
        )
    )
    for child in node.get("children", ()):
        skew += _walk(child, root_start, offset, depth + 1, rows)
    return skew


def render_timeline(document: Dict[str, Any]) -> str:
    """The cross-process timeline of one distributed trace.

    ``document`` needs a ``tree`` (a :meth:`Span.to_dict` dump); any of
    ``trace``, ``job``, ``kind`` and ``status`` it carries land in the
    header line.  The footer reports attribution — the fraction of the
    root's wall time its direct children cover
    (:func:`timeline_attribution`) — and, when any span's
    wall stamp predated the root's, how many offsets were clamped.
    """
    tree = document.get("tree")
    if not isinstance(tree, dict):
        raise ValueError("timeline document has no span tree")
    header_bits = [
        f"{label} {document[field]}"
        for label, field in (
            ("trace", "trace"),
            ("job", "job"),
            ("kind", "kind"),
            ("status", "status"),
        )
        if document.get(field) is not None
    ]
    raw_start = tree.get("start_s")
    root_start = (
        float(raw_start) if isinstance(raw_start, (int, float)) else None
    )
    rows: List[Tuple[float, int, str, float, str]] = []
    skew = _walk(tree, root_start, 0.0, 0, rows)
    root_elapsed = rows[0][3]
    lines = ["timeline " + (" · ".join(header_bits) or "(unidentified)")]
    for offset, depth, name, elapsed, attrs in rows:
        label = "  " * depth + name
        share = f" ({elapsed / root_elapsed:6.1%})" if root_elapsed > 0 else ""
        lines.append(
            f"+{offset:9.3f}s  {label:<34} {elapsed:9.3f}s{share}"
            + (f"  {attrs}" if attrs else "")
        )
    coverage = timeline_attribution(tree)
    lines.append(
        f"attributed to lifecycle spans: {coverage:.1%} of "
        f"{root_elapsed:.3f}s submit->settle"
    )
    if skew:
        lines.append(
            f"clock skew: {skew} span offset(s) clamped to the submit "
            "instant (worker wall clock behind the service's)"
        )
    return "\n".join(lines)


def timeline_attribution(tree: Dict[str, Any]) -> float:
    """Fraction of the root's wall time its direct children cover.

    Each child spans ``[offset, offset + elapsed_s)`` from the root's
    start, its offset placed as :func:`render_timeline` places it
    (clamped to zero; a child without a wall stamp at the root's
    start), and cut off at the root's end.  The union of those spans is
    measured, so children that ran in parallel — a campaign's
    experiment spans — count once and the fraction never exceeds 1;
    for children that ran one after another it is the sum of their
    durations.
    """
    root_elapsed = float(tree.get("elapsed_s", 0.0))
    if root_elapsed <= 0:
        return 0.0
    raw_start = tree.get("start_s")
    spans = []
    for child in tree.get("children", ()):
        start = child.get("start_s")
        offset = 0.0
        if isinstance(raw_start, (int, float)) and isinstance(start, (int, float)):
            offset = max(0.0, float(start) - float(raw_start))
        end = min(offset + float(child.get("elapsed_s", 0.0)), root_elapsed)
        if end > offset:
            spans.append((offset, end))
    covered = reach = 0.0
    for begin, end in sorted(spans):
        if end > reach:
            covered += end - max(begin, reach)
            reach = end
    return covered / root_elapsed
