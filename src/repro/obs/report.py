"""Run-summary rendering from saved traces.

Turns a :class:`repro.obs.trace_io.RunTrace` into the compact text
report behind ``sirius-repro report``: run metadata, event counts,
headline metrics, the wall-clock phase breakdown and an ASCII backlog
sparkline.  Everything renders from the trace file alone, so a report
can be produced long after (and far from) the run that wrote it.

:func:`ascii_sparkline` lives here (it is an observability renderer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace_io import RunTrace
from repro.units import US

__all__ = ["ascii_sparkline", "format_table", "render_report"]


def ascii_sparkline(values: Sequence[float], width: int = 60) -> str:
    """Compact ASCII rendering of a series (for benchmark logs).

    Values must be non-negative — the series this renders (queue
    occupancies, throughput) are counts, and a negative value would
    silently index the glyph ramp from the wrong end.
    """
    if not values:
        raise ValueError("cannot plot an empty series")
    if width < 1:
        raise ValueError("width must be positive")
    negative = [v for v in values if v < 0]
    if negative:
        raise ValueError(
            f"sparkline values must be non-negative, got {min(negative)}"
        )
    glyphs = " .:-=+*#%@"
    if len(values) > width:
        # Downsample by taking the max of each bucket (peaks matter).
        bucket = len(values) / width
        sampled = [
            max(values[int(k * bucket):max(int((k + 1) * bucket),
                                           int(k * bucket) + 1)])
            for k in range(width)
        ]
    else:
        sampled = list(values)
    top = max(sampled)
    if top == 0:
        return " " * len(sampled)
    scale = len(glyphs) - 1
    return "".join(glyphs[int(round(v / top * scale))] for v in sampled)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Minimal right-aligned text table (first column left-aligned)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells))
        if cells else len(headers[col])
        for col in range(len(headers))
    ]

    def render_row(row: Sequence[str]) -> str:
        parts = [row[0].ljust(widths[0])]
        parts.extend(
            row[col].rjust(widths[col]) for col in range(1, len(widths))
        )
        return "  ".join(parts).rstrip()

    lines = [render_row(list(headers))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in cells)
    return "\n".join(lines)


# -- report sections --------------------------------------------------------
def _meta_section(meta: Dict[str, object]) -> List[str]:
    if not meta:
        return []
    lines = ["run"]
    skip = {"format", "version"}
    for key in sorted(meta):
        if key in skip:
            continue
        lines.append(f"  {key:<22}: {meta[key]}")
    return lines


def _event_section(trace: RunTrace) -> List[str]:
    counts = trace.event_counts()
    dropped = int(trace.meta.get("events_dropped", 0) or 0)
    if not counts and not dropped:
        return []
    rows = [(name, counts[name]) for name in sorted(counts)]
    table = format_table(("event", "count"), rows) if rows else ""
    lines = ["", "events", *("  " + line for line in table.splitlines())]
    if dropped:
        lines.append(
            f"  ({dropped:,} events dropped at the tracer's "
            f"retention cap — counts above are partial)"
        )
    return lines


#: Headline metrics surfaced in the report, in display order.
_HEADLINE_METRICS = (
    "delivered_bits_total",
    "cells_transmitted_total",
    "cells_dropped_total",
    "grants_issued_total",
    "grants_denied_total",
    "retransmitted_cells_total",
    "failed_flows_total",
    "failure_events_total",
)


def _metric_section(trace: RunTrace) -> List[str]:
    if not trace.metrics:
        return []
    rows: List[Tuple[str, object]] = []
    for name in _HEADLINE_METRICS:
        total = 0.0
        seen = False
        for sample in trace.metrics:
            if sample.get("name") == name and "value" in sample:
                total += float(sample["value"])
                seen = True
        if seen:
            value: object = int(total) if total == int(total) else total
            rows.append((name, value))
    if not rows:
        # Fall back to whatever scalar samples the trace holds.
        for sample in trace.metrics:
            if sample.get("type") == "counter":
                label = str(sample["name"])
                labels = dict(sample.get("labels", {}))
                if labels:
                    inner = ",".join(
                        f"{k}={v}" for k, v in sorted(labels.items())
                    )
                    label += "{" + inner + "}"
                rows.append((label, sample.get("value", 0)))
        rows = rows[:20]
    if not rows:
        return []
    table = format_table(("metric", "value"), rows)
    return ["", "metrics", *("  " + line for line in table.splitlines())]


def _phase_section(trace: RunTrace) -> List[str]:
    profile = trace.profile
    if profile is None or not profile.totals_s:
        return []
    rows = []
    total_s = profile.phases_total_s
    for entry in profile.breakdown():
        rows.append((
            entry["phase"],
            f"{float(entry['seconds']) / US:,.0f}",
            f"{float(entry['share']):.1%}",
            entry["laps"],
        ))
    table = format_table(("phase", "us", "share", "laps"), rows)
    lines = ["", "wall-clock phases",
             *("  " + line for line in table.splitlines())]
    if profile.total_run_s:
        lines.append(
            f"  phases cover {profile.coverage():.1%} of the "
            f"{profile.total_run_s / US:,.0f} us measured run"
        )
    else:
        lines.append(f"  phase total {total_s / US:,.0f} us")
    return lines


def _sparkline_section(trace: RunTrace) -> List[str]:
    lines: List[str] = []
    for name, label in (("net_backlog_cells", "backlog"),
                        ("net_fwd_cells", "fwd queues")):
        points = trace.series(name)
        values = [value for _at, value in points]
        if values and max(values) >= 0:
            lines.append(
                f"  {label:<10} peak {max(values):>8.0f}  "
                f"|{ascii_sparkline(values, width=48)}|"
            )
    if lines:
        return ["", "queue occupancy (cells, per sampled epoch)", *lines]
    return []


def render_report(trace: RunTrace, title: Optional[str] = None) -> str:
    """The full text report for one saved run trace."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.extend(_meta_section(trace.meta))
    lines.extend(_event_section(trace))
    lines.extend(_metric_section(trace))
    lines.extend(_phase_section(trace))
    lines.extend(_sparkline_section(trace))
    if not lines:
        return "trace is empty (no meta, events, metrics or profile)"
    return "\n".join(lines)
