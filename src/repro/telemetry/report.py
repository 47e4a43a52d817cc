"""Trace-file analysis: span trees, top time sinks, metrics dumps.

Backs the ``repro report <trace.jsonl>`` CLI command.  Consumes the JSONL
schema documented in :mod:`repro.telemetry.tracer` and renders:

- the span tree (nesting, wall/CPU time, per-span sample/event counts);
- the top time sinks by *self* wall time (own time minus children);
- the Prometheus metrics dump embedded in the trace (if present).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry


@dataclass
class SpanNode:
    """One reconstructed span of a trace."""

    id: str
    name: str
    parent: str | None
    attrs: dict = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ended: bool = False
    children: list["SpanNode"] = field(default_factory=list)
    events: int = 0
    samples: int = 0

    @property
    def child_wall_s(self) -> float:
        return sum(child.wall_s for child in self.children)

    @property
    def self_wall_s(self) -> float:
        """Wall time not accounted to child spans (clipped at zero:
        parallel children can sum past the parent's wall clock)."""
        return max(0.0, self.wall_s - self.child_wall_s)


def load_trace(path: str | Path) -> list[dict]:
    """Read a JSONL trace file into a list of event dicts."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"{path}:{line_number}: not a JSON trace line ({err})"
                ) from None
    return events


def build_tree(events: list[dict]) -> list[SpanNode]:
    """Reconstruct the span forest (roots in file order) from events.

    Tolerant of truncated traces: spans with no end event keep zero
    wall time and are marked unfinished; orphaned children (parent id
    never seen, e.g. a lost worker payload) are promoted to roots.
    """
    spans: dict[str, SpanNode] = {}
    roots: list[SpanNode] = []
    for event in events:
        kind = event.get("ev")
        if kind == "begin":
            node = SpanNode(
                id=event["id"],
                name=event.get("name", "?"),
                parent=event.get("parent"),
                attrs=dict(event.get("attrs") or {}),
            )
            spans[node.id] = node
        elif kind == "end":
            node = spans.get(event.get("id"))
            if node is not None:
                node.wall_s = float(event.get("wall_s", 0.0))
                node.cpu_s = float(event.get("cpu_s", 0.0))
                node.attrs.update(event.get("attrs") or {})
                node.ended = True
        elif kind == "annot":
            node = spans.get(event.get("span"))
            if node is not None:
                node.events += 1
        elif kind == "sample":
            node = spans.get(event.get("span"))
            if node is not None:
                node.samples += 1
    for node in spans.values():
        parent = spans.get(node.parent) if node.parent is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def _format_attrs(attrs: dict, limit: int = 4) -> str:
    if not attrs:
        return ""
    shown = list(attrs.items())[:limit]
    body = ", ".join(f"{k}={v}" for k, v in shown)
    if len(attrs) > limit:
        body += ", ..."
    return f" ({body})"


def describe_span(node: SpanNode) -> str:
    """The default one-line description of a span (timing + attrs)."""
    timing = (
        f"{node.wall_s * 1e3:.1f} ms wall, {node.cpu_s * 1e3:.1f} ms cpu"
        if node.ended
        else "unfinished"
    )
    extras = ""
    if node.samples:
        extras += f" [{node.samples} samples]"
    if node.events:
        extras += f" [{node.events} events]"
    return f"{node.name}  {timing}{extras}{_format_attrs(node.attrs)}"


def render_span_tree(
    roots: list[SpanNode], max_children: int = 24, indent: str = "  ",
    describe=None,
) -> str:
    """An indented text rendering of the span forest.

    ``describe`` maps a node to its line body (defaults to
    :func:`describe_span`); other consumers -- e.g. the cross-run
    drill-down in :mod:`repro.telemetry.compare` -- reuse the tree walk
    with their own formatting.
    """
    lines: list[str] = []
    fmt = describe if describe is not None else describe_span

    def visit(node: SpanNode, depth: int) -> None:
        lines.append(f"{indent * depth}{fmt(node)}")
        shown = node.children[:max_children]
        for child in shown:
            visit(child, depth + 1)
        hidden = len(node.children) - len(shown)
        if hidden > 0:
            hidden_wall = sum(c.wall_s for c in node.children[max_children:])
            lines.append(
                f"{indent * (depth + 1)}... ({hidden} more children, "
                f"{hidden_wall * 1e3:.1f} ms wall)"
            )

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


def top_sinks(roots: list[SpanNode], limit: int = 10) -> list[tuple[str, float, float, int]]:
    """``(name, self_wall_s, total_wall_s, count)`` aggregated by span name,
    sorted by summed self time descending."""
    totals: dict[str, list[float]] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        entry = totals.setdefault(node.name, [0.0, 0.0, 0])
        entry[0] += node.self_wall_s
        entry[1] += node.wall_s
        entry[2] += 1
        stack.extend(node.children)
    ranked = sorted(totals.items(), key=lambda item: -item[1][0])
    return [
        (name, self_s, total_s, count)
        for name, (self_s, total_s, count) in ranked[:limit]
    ]


def metrics_snapshot(events: list[dict]) -> dict | None:
    """The last embedded metrics snapshot of a trace (or None)."""
    snapshot = None
    for event in events:
        if event.get("ev") == "metrics":
            snapshot = event.get("data")
    return snapshot


_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="([^"]*)"')


def parse_prometheus(text: str) -> dict:
    """Parse Prometheus text exposition back into a mergeable snapshot.

    The inverse of :meth:`MetricsRegistry.render_prometheus` for the
    subset that renderer emits, so a ``.prom`` sidecar written by
    ``Telemetry.save`` can be re-read by ``repro report --metrics`` (and
    merged into a registry like any worker snapshot).  Histogram series
    (``_bucket``/``_sum``/``_count``) are folded back into one histogram
    state; unknown comment lines are ignored.
    """
    kinds: dict[str, str] = {}
    help_text: dict[str, str] = {}
    scalars: dict[tuple, float] = {}
    hists: dict[tuple, dict] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                kinds[parts[2]] = parts[3].strip()
            elif len(parts) >= 4 and parts[1] == "HELP":
                help_text[parts[2]] = parts[3]
            continue
        left, _, value_text = line.rpartition(" ")
        if not left:
            continue
        try:
            value = float(value_text)
        except ValueError:
            continue
        if left.endswith("}") and "{" in left:
            name, _, label_body = left.partition("{")
            labels = dict(_LABEL_RE.findall(label_body[:-1]))
        else:
            name, labels = left, {}
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)]
            if name.endswith(suffix) and kinds.get(base) == "histogram":
                le = labels.pop("le", None)
                key = (base, tuple(sorted(labels.items())))
                state = hists.setdefault(key, {"le": {}, "sum": 0.0, "count": 0})
                if suffix == "_bucket":
                    if le is not None and le != "+Inf":
                        state["le"][float(le)] = int(value)
                elif suffix == "_sum":
                    state["sum"] = value
                else:
                    state["count"] = int(value)
                break
        else:
            key = (name, tuple(sorted(labels.items())))
            scalars[key] = value
    metrics = []
    for (name, label_key), value in scalars.items():
        kind = kinds.get(name, "gauge")
        if value == int(value):
            value = int(value)  # "8" -> 8, so a re-render matches the source
        metrics.append((name, label_key, kind, value))
    for (name, label_key), state in hists.items():
        buckets = tuple(sorted(state["le"]))
        counts, previous = [], 0
        for bound in buckets:
            cumulative = state["le"][bound]
            counts.append(cumulative - previous)
            previous = cumulative
        counts.append(max(0, state["count"] - previous))  # +Inf overflow
        metrics.append((name, label_key, "histogram",
                        (buckets, tuple(counts), state["count"], state["sum"])))
    return {"metrics": metrics, "help": help_text}


def estimate_quantile(buckets, counts, count: int, q: float) -> float:
    """Prometheus-style quantile estimate from cumulative-bucket counts.

    Linear interpolation inside the bucket the target rank falls in;
    ranks landing in the ``+Inf`` overflow bucket are clamped to the
    highest finite bound.
    """
    if count <= 0:
        return 0.0
    target = q * count
    cumulative, lower = 0, 0.0
    for bound, bucket_count in zip(buckets, counts):
        if bucket_count > 0 and cumulative + bucket_count >= target:
            fraction = (target - cumulative) / bucket_count
            return lower + (float(bound) - lower) * fraction
        cumulative += bucket_count
        lower = float(bound)
    return float(buckets[-1]) if buckets else 0.0


def _label_suffix(label_key: tuple) -> str:
    if not label_key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in label_key) + "}"


def render_metrics(snapshot: dict) -> str:
    """Render a metrics snapshot for humans.

    Counters and gauges keep the Prometheus text form; histograms are
    summarized as p50/p95/p99 quantile estimates (with count and sum)
    instead of raw cumulative-bucket dumps.
    """
    registry = MetricsRegistry()
    registry.merge(snapshot)
    merged = registry.snapshot()
    scalars = MetricsRegistry()
    scalar_items, histogram_lines = [], []
    for name, label_key, kind, state in sorted(
        merged["metrics"], key=lambda item: (item[0], item[1])
    ):
        if kind == "histogram":
            buckets, counts, count, total = state
            quantiles = "  ".join(
                f"p{int(q * 100)}={estimate_quantile(buckets, counts, count, q):.3g}"
                for q in (0.50, 0.95, 0.99)
            )
            histogram_lines.append(
                f"{name}{_label_suffix(label_key)}  {quantiles}  "
                f"(count={count}, sum={total:.6g})"
            )
        else:
            scalar_items.append((name, label_key, kind, state))
    scalars.merge({"metrics": scalar_items, "help": merged.get("help", {})})
    sections = []
    text = scalars.render_prometheus().rstrip("\n")
    if text:
        sections.append(text)
    if histogram_lines:
        sections.append("# histograms (quantile estimates)\n"
                        + "\n".join(histogram_lines))
    return "\n".join(sections) + "\n"


def render_report(path: str | Path, sink_limit: int = 10,
                  metrics_path: str | Path | None = None) -> str:
    """The full ``repro report`` output for one trace file.

    ``metrics_path`` names a Prometheus ``.prom`` sidecar (as written by
    ``Telemetry.save`` / ``repro sweep --metrics``); when given it is the
    source of the metrics section, replacing the snapshot embedded in the
    trace (they describe the same run, so merging would double-count).
    """
    events = load_trace(path)
    roots = build_tree(events)
    sections: list[str] = []
    if roots:
        sections.append("span tree\n---------")
        sections.append(render_span_tree(roots))
        sinks = top_sinks(roots, limit=sink_limit)
        if sinks:
            width = max(len(name) for name, *_ in sinks)
            rows = [
                f"{name.ljust(width)}  self {self_s * 1e3:9.1f} ms   "
                f"total {total_s * 1e3:9.1f} ms   x{count}"
                for name, self_s, total_s, count in sinks
            ]
            sections.append("top time sinks (self wall time)\n"
                            "-------------------------------")
            sections.append("\n".join(rows))
    else:
        sections.append(f"no spans in {path}")
    if metrics_path is not None:
        snapshot = parse_prometheus(
            Path(metrics_path).read_text(encoding="utf-8")
        )
    else:
        snapshot = metrics_snapshot(events)
    if snapshot and snapshot.get("metrics"):
        sections.append("metrics (prometheus text)\n-------------------------")
        sections.append(render_metrics(snapshot).rstrip("\n"))
    return "\n\n".join(sections)


__all__ = [
    "SpanNode",
    "build_tree",
    "describe_span",
    "estimate_quantile",
    "load_trace",
    "metrics_snapshot",
    "parse_prometheus",
    "render_metrics",
    "render_report",
    "render_span_tree",
    "top_sinks",
]
