"""Rendering span trees and warehouse span stats as ASCII reports."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.telemetry.trace import Span, attribution


def _merge_group(spans: Sequence[Span]) -> Dict[str, Any]:
    """Flame-style merge of same-named sibling spans.

    Aggregates count, total time and counters, and recursively merges
    the group's children by name — the classic flame-graph collapse, so
    ten ``evaluate`` siblings render as one line with ``x10``.
    """
    total = sum(span.elapsed_s for span in spans)
    counters: Dict[str, int] = {}
    for span in spans:
        for name, value in span.counters.items():
            counters[name] = counters.get(name, 0) + value
    children: List[Span] = []
    for span in spans:
        children.extend(span.children)
    return {
        "name": spans[0].name,
        "n": len(spans),
        "total_s": total,
        "counters": counters,
        "children": _merge_children(children),
    }


def _merge_children(children: Sequence[Span]) -> List[Dict[str, Any]]:
    groups: Dict[str, List[Span]] = {}
    for child in children:
        groups.setdefault(child.name, []).append(child)
    # Order groups by first appearance (pipeline stage order), not name.
    return [_merge_group(group) for group in groups.values()]


def _render_node(
    node: Dict[str, Any],
    lines: List[str],
    prefix: str,
    last: bool,
    root_s: float,
) -> None:
    branch = "`- " if last else "|- "
    label = node["name"] + (f" x{node['n']}" if node["n"] > 1 else "")
    share = f" ({node['total_s'] / root_s:6.1%})" if root_s > 0 else ""
    counters = "".join(
        f" {name}={value}" for name, value in sorted(node["counters"].items())
    )
    lines.append(
        f"{prefix}{branch}{label:<{max(1, 40 - len(prefix))}} "
        f"{node['total_s']:9.3f}s{share}{counters}"
    )
    child_prefix = prefix + ("   " if last else "|  ")
    children = node["children"]
    for index, child in enumerate(children):
        _render_node(
            child, lines, child_prefix, index == len(children) - 1, root_s
        )


def render_trace(root: Span) -> str:
    """A merged, percent-annotated tree of one traced run.

    Same-named siblings collapse into one ``name xN`` line (their
    subtrees merge recursively); each line shows total seconds and the
    share of the root's wall time; span counters trail the line.  A
    footer reports the attribution — the fraction of the root's wall
    time its direct children explain.
    """
    lines = [f"{root.name:<43} {root.elapsed_s:9.3f}s (100.0%)"]
    merged = _merge_children(root.children)
    for index, child in enumerate(merged):
        _render_node(
            child, lines, "", index == len(merged) - 1, root.elapsed_s
        )
    lines.append(
        f"attributed to named spans: {attribution(root):.1%} of "
        f"{root.elapsed_s:.3f}s"
    )
    return "\n".join(lines)


def warehouse_spans_table(document: Dict[str, Any], selector=None) -> str:
    """Per-span time totals over a warehouse selection (``spans``)."""
    from repro.reporting.tables import render_table

    rows = document["spans"]
    total = sum(row["total_s"] for row in rows)
    body = [
        (
            row["span"],
            row["n"],
            f"{row['total_s']:.3f}s",
            f"{row['total_s'] / total:.1%}" if total > 0 else "-",
            row["jobs"],
        )
        for row in rows
    ]
    scope = "all history" if selector is None else selector
    return render_table(
        ["span", "count", "total", "share", "jobs"],
        body,
        title=f"Where the time went ({scope})",
    )
