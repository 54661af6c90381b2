"""Self-contained HTML performance dashboard (inline SVG, no deps).

``repro report`` renders one static page from the artifacts of one run
directory:

* **speedup panel** — speedup-vs-threads curves per strategy × backend,
  normalized to the serial/serial cell of the same case (the Fig. 5–9
  presentation of the paper);
* **strategy panel** — total-median comparison bars per case;
* **amortization panel** — first-step vs amortized per-step cost of the
  persistent engines, from ``repro bench --steps`` runs;
* **imbalance panel** — the measured load-imbalance ratios, barrier
  slack, and halo fraction already computed by
  :class:`~repro.obs.metrics.MetricsRegistry`;
* **health panel** — the flight-recorder digest from ``health.jsonl``
  (event counts per category/severity, engine restarts, physics
  invariant breaches);
* **meta panel** — the environment block of the newest artifact.

Each panel is defined once — a builder returning a :class:`Panel` (id,
title, note, status line, figure fragments, ``headers``, ``rows``) —
and drawn twice: :func:`render_html` is the page, and
:func:`render_text_summary` the terminal/markdown counterpart for report
consumers without a browser, both over :func:`build_panels`.

The page is strict XHTML (every tag closed, all dynamic text escaped)
so it parses with any XML parser — that well-formedness is part of the
test contract.  Every chart keeps a table view beside it, series colors
come from a fixed-order validated palette, and dark mode swaps the same
roles via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.atomicio import atomic_write_text
from repro.obs.metrics import imbalance_rows
from repro.obs.recorder import health_digest
from repro.obs.rundir import read_run_dir

__all__ = [
    "Panel",
    "ReportData",
    "amortization_rows",
    "build_panels",
    "load_report_source",
    "render_html",
    "render_text_summary",
    "write_report",
]

#: fixed-order categorical palette (light / dark steps of the same hues)
_PALETTE_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_PALETTE_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)
#: series past the palette fold into this neutral
_FOLD_COLOR_LIGHT = "#8a8985"
_FOLD_COLOR_DARK = "#8a8985"


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


@dataclass
class ReportData:
    """Everything the dashboard draws, already joined and ordered."""

    meta: Dict[str, object] = field(default_factory=dict)
    bench_records: List[Dict[str, object]] = field(default_factory=list)
    reordering_records: List[Dict[str, object]] = field(default_factory=list)
    #: worker-sweep efficiency records (``repro scale``)
    scaling_records: List[Dict[str, object]] = field(default_factory=list)
    metrics_records: List[Dict[str, object]] = field(default_factory=list)
    runlog_records: List[Dict[str, object]] = field(default_factory=list)
    #: health.jsonl stream: the ``health-meta`` header + event records
    health_records: List[Dict[str, object]] = field(default_factory=list)
    source: str = ""

    # --- derived views ---------------------------------------------------------

    def total_cells(self) -> List[Dict[str, object]]:
        """The ``total``-phase bench rows (one per sweep cell)."""
        return [
            r
            for r in self.bench_records
            if r.get("phase") == "total" and "median_s" in r
        ]

    def speedup_series(
        self,
    ) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
        """Per case: series label -> sorted (threads, speedup) points.

        Speedup is the serial/serial total median of the same case divided
        by the cell's total median.  Cases without a serial reference are
        omitted — there is nothing to normalize against.
        """
        serial_ref: Dict[str, float] = {}
        for r in self.total_cells():
            if r.get("strategy") == "serial" and r.get("backend") == "serial":
                serial_ref[str(r["case"])] = float(r["median_s"])
        out: Dict[str, Dict[str, List[Tuple[int, float]]]] = {}
        for r in self.total_cells():
            case = str(r["case"])
            ref = serial_ref.get(case)
            median = float(r["median_s"])
            if ref is None or median <= 0.0:
                continue
            label = f"{r['strategy']}/{r['backend']}"
            tier = str(r.get("kernel_tier", "numpy"))
            if tier != "numpy":
                label = f"{label}/{tier}"
            out.setdefault(case, {}).setdefault(label, []).append(
                (int(r["n_workers"]), ref / median)
            )
        for case_series in out.values():
            for points in case_series.values():
                points.sort()
        return out

    def amortization_rows(self) -> List[Dict[str, object]]:
        """:func:`amortization_rows` of the bench records."""
        return amortization_rows(self.bench_records)

    def imbalance_rows(self) -> List[Dict[str, object]]:
        """:func:`~repro.obs.metrics.imbalance_rows` of the metrics stream."""
        return imbalance_rows(self.metrics_records)

    def halo_fractions(self) -> Dict[str, float]:
        """Halo fraction per run — per shard when the records carry the
        sharded engine's ``shard`` label (shardless rows keep the bare
        run key, so pre-shard metric streams render unchanged)."""
        out: Dict[str, float] = {}
        for m in self.metrics_records:
            if m.get("metric") != "halo_fraction":
                continue
            key = str(m.get("run", "?"))
            if "shard" in m:
                key = f"{key} [shard {m['shard']}]"
            out[key] = float(m["value"])
        return out

    def scaling_groups(
        self,
    ) -> Dict[Tuple[str, str, str, str], List[Dict[str, object]]]:
        """Scaling records per sweep: (case, strategy, backend, tier) ->
        records sorted by worker count."""
        out: Dict[Tuple[str, str, str, str], List[Dict[str, object]]] = {}
        for r in self.scaling_records:
            if "speedup" not in r or "n_workers" not in r:
                continue
            key = (
                str(r.get("case", "?")),
                str(r.get("strategy", "?")),
                str(r.get("backend", "?")),
                str(r.get("kernel_tier", "numpy")),
            )
            out.setdefault(key, []).append(r)
        for records in out.values():
            records.sort(key=lambda r: int(r["n_workers"]))
        return out


def amortization_rows(
    records: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """First-step vs amortized per-step cost per repeated-compute cell.

    Joins the ``first_step`` and ``amortized`` phase rows emitted by
    ``repro bench --steps`` on (case, strategy, backend, n_workers);
    cells missing either half are dropped.  Speedup is first-step
    cost over amortized per-step cost — how much the persistent
    engine's reused pool/arena/schedule buys after step one.
    """
    cells: Dict[Tuple[str, str, str, int], Dict[str, float]] = {}
    for r in records:
        if r.get("phase") in ("first_step", "amortized") and "median_s" in r:
            key = (
                str(r.get("case", "?")),
                str(r.get("strategy", "?")),
                str(r.get("backend", "?")),
                int(r.get("n_workers", 0)),
            )
            cells.setdefault(key, {})[str(r["phase"])] = float(r["median_s"])
    return [
        {
            "case": key[0],
            "strategy": key[1],
            "backend": key[2],
            "n_workers": key[3],
            "first_step_s": pair["first_step"],
            "amortized_s": pair["amortized"],
            "speedup": (
                pair["first_step"] / pair["amortized"]
                if pair["amortized"] > 0
                else 0.0
            ),
        }
        for key, pair in sorted(cells.items())
        if len(pair) == 2
    ]


#: run-directory kind -> the ReportData field its records land in
_RECORD_FIELDS = {
    "bench": "bench_records",
    "reordering": "reordering_records",
    "scaling": "scaling_records",
    "metrics": "metrics_records",
    "runlog": "runlog_records",
    "health": "health_records",
}


def load_report_source(source) -> ReportData:
    """Assemble :class:`ReportData` from one run directory
    (:func:`~repro.obs.rundir.read_run_dir`); the environment block is
    the first one found in table order.  Anything but a directory
    raises ``ValueError``.
    """
    source = os.fspath(source)
    if not os.path.isdir(source):
        raise ValueError(f"{source}: not a run directory")
    data = ReportData(source=source)
    found = read_run_dir(source)
    for kind, attr in _RECORD_FIELDS.items():
        meta, records = found.get(kind, ({}, []))
        setattr(data, attr, records)
        if not data.meta:
            data.meta = dict(meta)
    return data


# --- SVG building blocks -------------------------------------------------------


def _series_class(index: int) -> str:
    return f"s{index}" if index < len(_PALETTE_LIGHT) else "sfold"


def _ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return f"{value:.3g}"


def _svg_line_chart(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    width: int = 420,
    height: int = 260,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Multi-series line chart: 2px lines, 8px markers, recessive grid."""
    pad_l, pad_r, pad_t, pad_b = 46, 12, 10, 34
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        return (
            f'<svg class="chart" width="{width}" height="{height}" '
            f'xmlns="http://www.w3.org/2000/svg" role="img">'
            f'<text x="{width // 2}" y="{height // 2}" '
            f'class="axis" text-anchor="middle">(no data)</text></svg>'
        )
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.1

    def sx(x: float) -> float:
        span = (x_hi - x_lo) or 1.0
        return pad_l + (x - x_lo) / span * plot_w

    def sy(y: float) -> float:
        span = (y_hi - y_lo) or 1.0
        return pad_t + plot_h - (y - y_lo) / span * plot_h

    parts = [
        f'<svg class="chart" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line class="grid" x1="{pad_l}" y1="{y:.1f}" '
            f'x2="{width - pad_r}" y2="{y:.1f}" />'
        )
        parts.append(
            f'<text class="axis" x="{pad_l - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    for tick in sorted(set(xs)):
        x = sx(tick)
        parts.append(
            f'<text class="axis" x="{x:.1f}" y="{height - pad_b + 16}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<line class="axisline" x1="{pad_l}" y1="{pad_t + plot_h}" '
        f'x2="{width - pad_r}" y2="{pad_t + plot_h}" />'
    )
    for index, (label, pts) in enumerate(series):
        cls = _series_class(index)
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline class="line {cls}" points="{coords}" fill="none" />'
        )
        for x, y in pts:
            parts.append(
                f'<circle class="dot {cls}" cx="{sx(x):.1f}" '
                f'cy="{sy(y):.1f}" r="4">'
                f"<title>{_esc(label)}: x={_fmt(x)}, y={_fmt(y)}</title>"
                f"</circle>"
            )
        lx, ly = pts[-1]
        if len(series) <= 4:
            parts.append(
                f'<text class="serieslabel {cls}" x="{sx(lx) + 7:.1f}" '
                f'y="{sy(ly) - 6:.1f}">{_esc(label)}</text>'
            )
    if x_label:
        parts.append(
            f'<text class="axis" x="{pad_l + plot_w / 2:.1f}" '
            f'y="{height - 4}" text-anchor="middle">{_esc(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text class="axis" transform="rotate(-90)" '
            f'x="{-(pad_t + plot_h / 2):.1f}" y="12" '
            f'text-anchor="middle">{_esc(y_label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _svg_hbar_chart(
    rows: Sequence[Tuple[str, float]],
    width: int = 460,
    bar_h: int = 18,
    unit: str = "",
    color_indices: Optional[Sequence[int]] = None,
) -> str:
    """Horizontal comparison bars with value labels, baseline-anchored."""
    if not rows:
        return '<p class="muted">(no data)</p>'
    label_w, value_w, pad = 190, 80, 4
    plot_w = width - label_w - value_w
    height = len(rows) * (bar_h + pad) + pad
    v_max = max(v for _, v in rows) or 1.0
    parts = [
        f'<svg class="chart" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    for i, (label, value) in enumerate(rows):
        y = pad + i * (bar_h + pad)
        w = max(1.0, value / v_max * plot_w)
        cls = _series_class(
            color_indices[i] if color_indices is not None else i
        )
        parts.append(
            f'<text class="axis" x="{label_w - 6}" '
            f'y="{y + bar_h / 2 + 3:.1f}" text-anchor="end">'
            f"{_esc(label)}</text>"
        )
        parts.append(
            f'<rect class="bar {cls}" x="{label_w}" y="{y}" '
            f'width="{w:.1f}" height="{bar_h}" rx="4">'
            f"<title>{_esc(label)}: {_fmt(value)}{_esc(unit)}</title></rect>"
        )
        parts.append(
            f'<text class="value" x="{label_w + w + 6:.1f}" '
            f'y="{y + bar_h / 2 + 3:.1f}">{_fmt(value)}{_esc(unit)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend(labels: Sequence[str]) -> str:
    if len(labels) < 2:
        return ""
    items = "".join(
        f'<span class="legenditem"><span class="swatch '
        f'{_series_class(i)}"></span>{_esc(label)}</span>'
        for i, label in enumerate(labels)
    )
    return f'<div class="legend">{items}</div>'


def _table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>"
        + "".join(f"<td>{_esc(c)}</td>" for c in row)
        + "</tr>"
        for row in rows
    )
    return (
        f'<table><thead><tr>{head}</tr></thead>'
        f"<tbody>{body}</tbody></table>"
    )


def _figure(caption: str, *body: str) -> str:
    return (
        f"<figure><figcaption>{_esc(caption)}</figcaption>"
        + "".join(body)
        + "</figure>"
    )


# --- panels --------------------------------------------------------------------


@dataclass
class Panel:
    """One report section: what the page and the text summary both draw.

    The page shows the note, the status line, the figures and the table;
    the summary shows the title, the status line and one line per row.
    """

    id: str
    title: str
    note: str = ""
    #: (``good`` | ``bad``, sentence): the panel's one-line verdict
    status: Optional[Tuple[str, str]] = None
    #: XHTML fragments only the page shows (charts, secondary tables)
    figures: List[str] = field(default_factory=list)
    headers: Sequence[str] = ()
    rows: List[Sequence[object]] = field(default_factory=list)
    #: what the page says when there is nothing to draw
    empty: str = ""


def _cell_label(r: Mapping[str, object], workers: bool = True) -> str:
    """``case/strategy/backend[/tier][/wN]`` of a sweep-cell record
    (the tier is named only when it is not the NumPy reference)."""
    label = f"{r.get('case', '?')}/{r.get('strategy', '?')}/{r.get('backend', '?')}"
    if str(r.get("kernel_tier", "numpy")) != "numpy":
        label += f"/{r['kernel_tier']}"
    return f"{label}/w{r.get('n_workers', '?')}" if workers else label


def _ms(seconds: object) -> str:
    return f"{float(seconds) * 1e3:.3f} ms"  # type: ignore[arg-type]


def _speedup_panel(data: ReportData) -> Panel:
    panel = Panel(
        "panel-speedup",
        "Speedup vs serial (total-phase medians)",
        note="Total-phase median of each strategy x backend cell, "
        "normalized to the serial/serial cell of the same case "
        "(the paper's Fig. 5-9 presentation).",
        headers=("series", "speedup"),
        empty="(no bench records with a serial reference)",
    )
    for case, series_map in sorted(data.speedup_series().items()):
        series = sorted(series_map.items())
        panel.figures.append(
            _figure(
                f"case {case}",
                _svg_line_chart(
                    series, x_label="threads", y_label="speedup vs serial"
                ),
                _legend([label for label, _ in series]),
            )
        )
        panel.rows += [
            (
                f"{case}/{label}",
                ", ".join(f"w{int(x)}: {y:.2f}x" for x, y in pts),
            )
            for label, pts in series
        ]
    return panel


#: loss mechanisms of the scaling records, display order = palette order
_LOSS_LABELS = (
    ("serial", "serial fraction"),
    ("imbalance", "load imbalance"),
    ("barrier", "barrier slack"),
    ("resource_pressure", "resource pressure"),
    ("excess_work", "excess work"),
)


def _scaling_panel(data: ReportData) -> Optional[Panel]:
    groups = data.scaling_groups()
    if not groups:
        return None
    panel = Panel(
        "panel-scaling",
        "Scaling efficiency and loss attribution",
        note="From repro scale: speedup S(p)=T(1)/T(p), efficiency "
        "E(p)=S(p)/p, and the Karp-Flatt experimentally-determined "
        "serial fraction e(p)=(1/S-1/p)/(1-1/p). Lost core-seconds are "
        "attributed to serial sections, task load imbalance, residual "
        "barrier slack, resource pressure (worker run-queue wait), "
        "and excess work vs the 1-worker baseline.",
        headers=(
            "cell", "T(p)", "speedup", "efficiency", "Karp-Flatt",
            "dominant loss",
        ),
    )
    for _, records in sorted(groups.items()):
        label = _cell_label(records[0], workers=False)
        measured = [
            (float(int(r["n_workers"])), float(r["speedup"])) for r in records
        ]
        bars: List[Tuple[str, float, int]] = []
        for r in records:
            for color, (key, loss_label) in enumerate(_LOSS_LABELS):
                value = float(r.get(f"loss_{key}", 0.0) or 0.0)
                if value > 0.005:
                    bars.append(
                        (f"w{r['n_workers']} {loss_label}", value * 100.0, color)
                    )
        panel.figures += [
            _figure(
                label,
                _svg_line_chart(
                    [("measured", measured), ("ideal", [(x, x) for x, _ in measured])],
                    x_label="workers",
                    y_label="speedup",
                ),
                _legend(["measured", "ideal"]),
            ),
            _figure(
                f"{label}: lost core-seconds (% of p x T(p))",
                _svg_hbar_chart(
                    [(name, value) for name, value, _ in bars],
                    unit="%",
                    color_indices=[color for _, _, color in bars],
                )
                if bars
                else '<p class="muted">(no attributable losses)</p>',
            ),
        ]
        for r in records:
            kf = r.get("karp_flatt")
            dominant = r.get("dominant_loss")
            share = float(r.get(f"loss_{dominant}", 0.0) or 0.0)
            panel.rows.append(
                (
                    _cell_label(r),
                    f"{float(r.get('median_s', 0.0)):.4f} s",
                    f"{float(r['speedup']):.2f}x",
                    f"{float(r.get('efficiency', 0.0)):.1%}",
                    f"{float(kf):.3f}" if kf is not None else "-",
                    f"{dominant} ({share:.0%} of core-seconds)"
                    if dominant
                    else "-",
                )
            )
    return panel


def _strategy_panel(data: ReportData) -> Panel:
    panel = Panel(
        "panel-strategies", "Strategy comparison", empty="(no bench records)"
    )
    cells = data.total_cells()
    color_of = {
        label: i
        for i, label in enumerate(
            sorted({f"{r['strategy']}/{r['backend']}" for r in cells})
        )
    }
    for case in sorted({str(r["case"]) for r in cells}):
        bars = sorted(
            (
                (
                    float(r["median_s"]) * 1e3,
                    f"{r['strategy']}/{r['backend']} (w{r['n_workers']})",
                    color_of[f"{r['strategy']}/{r['backend']}"],
                )
                for r in cells
                if str(r["case"]) == case
            )
        )
        panel.figures.append(
            _figure(
                f"case {case} (total median, ms)",
                _svg_hbar_chart(
                    [(label, value) for value, label, _ in bars],
                    unit=" ms",
                    color_indices=[color for _, _, color in bars],
                ),
            )
        )
    return panel


def _amortization_panel(data: ReportData) -> Optional[Panel]:
    rows = data.amortization_rows()
    if not rows:
        return None
    return Panel(
        "panel-amortization",
        "Setup amortization (first step vs steady state)",
        note="From repro bench --steps: the first compute pays pool "
        "fork, arena allocation, and decomposition; later steps reuse "
        "them and only sync positions. Speedup = first-step cost / "
        "amortized per-step cost.",
        figures=[
            _svg_hbar_chart(
                [(_cell_label(r), float(r["speedup"])) for r in rows],
                unit="x",
                color_indices=[2] * len(rows),
            )
        ],
        headers=("cell", "first step", "amortized/step", "speedup"),
        rows=[
            (
                _cell_label(r),
                _ms(r["first_step_s"]),
                _ms(r["amortized_s"]),
                f"{float(r['speedup']):.1f}x",
            )
            for r in rows
        ],
    )


def _imbalance_panel(data: ReportData, top: int) -> Panel:
    panel = Panel(
        "panel-imbalance",
        "Worst-balanced phases (max/mean) and barrier slack",
        note="Measured task-duration max/mean per color phase (1.0 = "
        "perfectly balanced) with the summed barrier-wait slack; halo "
        "fraction is the share of pairs crossing subdomain boundaries.",
        headers=("phase", "tasks", "max/mean", "barrier slack"),
        empty="(no metrics records — run repro trace and ingest "
        "metrics.jsonl)",
    )
    rows = data.imbalance_rows()[:top]
    if rows:
        panel.figures.append(
            _svg_hbar_chart(
                [(f"{r['run']} {r['phase']}", float(r["ratio"])) for r in rows],
                unit="x",
                color_indices=[0] * len(rows),
            )
        )
    panel.rows = [
        (
            f"{r['run']} {r['phase']}",
            r["n_tasks"],
            f"{r['ratio']:.2f}x",
            _ms(r["slack_s"]),
        )
        for r in rows
    ]
    halo = data.halo_fractions()
    if halo:
        panel.figures.append(
            _table(
                ("run", "halo fraction"),
                [(run, f"{value:.1%}") for run, value in sorted(halo.items())],
            )
        )
    return panel


def _health_panel(data: ReportData, top: int) -> Optional[Panel]:
    if not data.health_records:
        return None
    digest = health_digest(data.health_records)
    worst = str(digest["worst"])
    counts = digest["counts"]
    return Panel(
        "panel-health",
        "Runtime health",
        note="Flight-recorder digest from health.jsonl: engine/pool "
        "lifecycle, scheduler cache activity, and physics invariant "
        "breaches (see repro doctor / repro health).",
        status=(
            "bad" if worst in ("warning", "critical") else "good",
            f"worst severity: {worst} — {digest['n_recorded']} events "
            f"recorded, {digest['n_dropped']} evicted from the ring",
        ),
        figures=(
            [_table(("counter", "count"), list(counts.items()))]  # type: ignore[union-attr]
            if counts
            else []
        ),
        headers=("severity", "category", "event", "detail"),
        rows=[
            (e["severity"], e["category"], e["event"], e["detail"])
            for e in digest["notable"][-top:]  # type: ignore[index]
        ],
    )


def _meta_panel(data: ReportData) -> Optional[Panel]:
    if not data.meta:
        return None
    items = "".join(
        f"<dt>{_esc(k)}</dt><dd>{_esc(v)}</dd>"
        for k, v in sorted(data.meta.items())
    )
    return Panel("panel-meta", "Environment", figures=[f"<dl>{items}</dl>"])


def build_panels(data: ReportData, top: int) -> List[Panel]:
    """Every panel ``data`` has something for, in page order.

    ``top`` bounds the two ranked tables (worst-balanced phases, latest
    warning-or-worse health events).
    """
    panels = (
        _speedup_panel(data),
        _scaling_panel(data),
        _strategy_panel(data),
        _amortization_panel(data),
        _imbalance_panel(data, top),
        _health_panel(data, top),
        _meta_panel(data),
    )
    return [panel for panel in panels if panel is not None]


def _panel_html(panel: Panel) -> str:
    body = list(panel.figures)
    if panel.status is not None:
        cls, sentence = panel.status
        body.insert(
            0, f'<p><span class="status {cls}">{_esc(sentence)}</span></p>'
        )
    if panel.rows:
        body.append(_table(panel.headers, panel.rows))
    if body and panel.note:
        body.insert(0, f'<p class="muted">{_esc(panel.note)}</p>')
    if not body:
        body.append(f'<p class="muted">{_esc(panel.empty)}</p>')
    return (
        f'<section class="panel" id="{panel.id}">'
        f"<h2>{_esc(panel.title)}</h2>{''.join(body)}</section>"
    )


_CSS = """
body { background: var(--surface); color: var(--text);
  font: 14px/1.5 system-ui, sans-serif; margin: 0 auto; max-width: 1080px;
  padding: 16px; }
h1 { font-size: 20px; } h2 { font-size: 16px; }
.panel { background: var(--panel); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; margin: 14px 0; }
.muted { color: var(--muted); font-size: 12px; }
figure { display: inline-block; margin: 6px 12px 6px 0;
  vertical-align: top; }
figcaption { color: var(--text-2); font-size: 12px; margin-bottom: 2px; }
table { border-collapse: collapse; font-size: 12px; margin: 8px 0; }
th, td { border-bottom: 1px solid var(--border); padding: 3px 10px 3px 0;
  text-align: left; color: var(--text-2); }
th { color: var(--text); }
dl { display: grid; grid-template-columns: max-content 1fr;
  gap: 2px 14px; font-size: 12px; }
dt { color: var(--muted); } dd { margin: 0; color: var(--text-2); }
.chart .grid { stroke: var(--border); stroke-width: 1; }
.chart .axisline { stroke: var(--text-2); stroke-width: 1; }
.chart .axis, .chart .value { fill: var(--text-2); font-size: 11px; }
.chart .serieslabel { font-size: 11px; }
.line { stroke-width: 2; }
.legend { font-size: 12px; color: var(--text-2); margin-top: 4px; }
.legenditem { margin-right: 14px; white-space: nowrap; }
.swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; }
.status.good { color: var(--good); font-weight: 600; }
.status.bad { color: var(--bad); font-weight: 600; }
"""


def _series_css() -> str:
    rules = []
    for i in range(len(_PALETTE_LIGHT)):
        rules.append(
            f".line.s{i} {{ stroke: var(--c{i}); }}\n"
            f".dot.s{i}, .bar.s{i}, .swatch.s{i}, text.serieslabel.s{i} "
            f"{{ fill: var(--c{i}); }}"
        )
    rules.append(
        ".line.sfold { stroke: var(--cfold); }\n"
        ".dot.sfold, .bar.sfold, .swatch.sfold, text.serieslabel.sfold "
        "{ fill: var(--cfold); }"
    )
    return "\n".join(rules)


def _palette_vars(palette: Sequence[str], fold: str) -> str:
    slots = " ".join(f"--c{i}: {hex_};" for i, hex_ in enumerate(palette))
    return f"{slots} --cfold: {fold};"


def _palette_css() -> str:
    light = (
        ":root { color-scheme: light; "
        "--surface: #fcfcfb; --panel: #ffffff; --border: #e3e2de; "
        "--text: #0b0b0b; --text-2: #52514e; --muted: #8a8985; "
        "--good: #008300; --bad: #c5362f; "
        + _palette_vars(_PALETTE_LIGHT, _FOLD_COLOR_LIGHT)
        + " }\n"
    )
    dark = (
        "@media (prefers-color-scheme: dark) { :root { "
        "color-scheme: dark; "
        "--surface: #1a1a19; --panel: #232322; --border: #3a3936; "
        "--text: #ffffff; --text-2: #c3c2b7; --muted: #8a8985; "
        "--good: #35b558; --bad: #e66767; "
        + _palette_vars(_PALETTE_DARK, _FOLD_COLOR_DARK)
        + " } }\n"
    )
    return light + dark + _CSS + "\n" + _series_css()


#: rows of the page's two ranked tables (the summary takes ``top``)
_PAGE_TOP = 12


def render_html(data: ReportData, title: str = "repro performance report") -> str:
    """The full self-contained dashboard page (strict XHTML)."""
    sha = data.meta.get("git_sha")
    subtitle = f"source: {data.source or '(in-memory)'}"
    if isinstance(sha, str):
        subtitle += f" — commit {sha[:12]}"
    panels = "".join(map(_panel_html, build_panels(data, _PAGE_TOP)))
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<html xmlns="http://www.w3.org/1999/xhtml"><head>'
        f"<title>{_esc(title)}</title>"
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1" />'
        f"<style>{_palette_css()}</style>"
        "</head><body>"
        f"<h1>{_esc(title)}</h1>"
        f'<p class="muted">{_esc(subtitle)}</p>'
        f"{panels}"
        "</body></html>\n"
    )


def render_text_summary(data: ReportData, top: int = 8) -> str:
    """Terminal/markdown digest of the same panels: one ``## title``
    section per panel with a verdict or rows, one line per row."""
    lines: List[str] = []
    for panel in build_panels(data, top):
        if panel.status is None and not panel.rows:
            continue
        lines.append(f"## {panel.title}")
        if panel.status is not None:
            lines.append(f"- {panel.status[1]}")
        for row in panel.rows:
            first, *rest = zip(panel.headers, row)
            lines.append(
                f"- {first[1]}: "
                + ", ".join(f"{header} {cell}" for header, cell in rest)
            )
        lines.append("")
    if not lines:
        return "(nothing to report — no bench or metrics data)"
    return "\n".join(lines).rstrip()


def write_report(path, data: ReportData, title: str = "repro performance report") -> str:
    """Render and atomically write the dashboard; returns the path."""
    atomic_write_text(path, render_html(data, title=title))
    return os.fspath(path)
