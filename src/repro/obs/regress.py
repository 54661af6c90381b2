"""One verdict rule for "is run B worse than run A?" over bench repeats.

``repro compare BASELINE CANDIDATE`` joins the two ``repro-bench``
payloads cell by cell — (case, strategy, backend, n_workers, kernel
tier, phase) — and judges each pair of per-repeat sample lists
(``samples_s``) with :func:`verdict`, the rule of the step benchmark's
``compare.py``, term for term:

* ``regression`` — B's median is worse than A's by more than ``bound``;
* ``unresolved`` — either side's quartile spread (q3 - q1 over the
  median) is wider than ``bound``, so "no change" cannot be told from a
  change of the bound's size — unless every B repeat beats every A
  repeat;
* ``improved`` — every B repeat beats every A repeat;
* ``unchanged`` — otherwise.

A candidate cell the baseline lacks is ``no-baseline``.  Only
``total``-phase regressions fail the comparison (exit 1); the per-phase
rows are reported beside them.  The bound is :data:`BOUND`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BOUND",
    "CellVerdict",
    "RegressionReport",
    "compare_payloads",
    "quartiles",
    "verdict",
]

#: relative worsening of the median (and quartile spread) that decides
BOUND = 0.10

REGRESSION = "regression"
UNRESOLVED = "unresolved"
IMPROVED = "improved"
UNCHANGED = "unchanged"
NO_BASELINE = "no-baseline"

#: the record fields one compared cell is keyed by, in label order
KEY_FIELDS = (
    "case", "strategy", "backend", "n_workers", "kernel_tier", "phase"
)

Key = Tuple[object, ...]
Quartiles = Tuple[float, float, float]


def quartiles(values: Sequence[float]) -> Quartiles:
    """(q1, median, q3); a single repeat is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(q: Quartiles) -> float:
    """Quartile distance over the median (unbounded for a zero median
    with any spread at all)."""
    if q[1] == 0.0:
        return 0.0 if q[2] == q[0] else math.inf
    return (q[2] - q[0]) / q[1]


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    """Judge repeats ``b`` against baseline repeats ``a``.

    ``better`` is ``"lower"`` or ``"higher"``.  A zero baseline median
    (a ``color-barrier`` row clamped at zero) has no relative change:
    both medians zero is ``unchanged``, otherwise the direction decides.
    """
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (qb[1] - qa[1])
    if qa[1] == 0.0:
        if change == 0.0:
            return UNCHANGED
        return REGRESSION if change > 0.0 else IMPROVED
    if change / qa[1] > bound:
        return REGRESSION
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(_spread(qa), _spread(qb)) > bound and not all_better:
        return UNRESOLVED
    return IMPROVED if all_better else UNCHANGED


def _index_samples(
    records: Sequence[Mapping[str, object]], source: str
) -> Dict[Key, List[float]]:
    """Per-repeat seconds of each bench record, by cell key.

    A record without the key fields or without ``samples_s`` raises
    ``ValueError`` naming ``source``.
    """
    cells: Dict[Key, List[float]] = {}
    for index, record in enumerate(records):
        missing = [
            name for name in (*KEY_FIELDS, "samples_s") if name not in record
        ]
        if missing or not record["samples_s"]:
            raise ValueError(
                f"{source}: record {index} has no "
                f"{', '.join(missing) or 'samples in samples_s'} "
                "(re-run repro bench: compare judges per-repeat samples)"
            )
        key = tuple(record[name] for name in KEY_FIELDS)
        cells[key] = [float(s) for s in record["samples_s"]]  # type: ignore[union-attr]
    return cells


@dataclass(frozen=True)
class CellVerdict:
    """The comparison outcome of one (sweep cell, phase)."""

    key: Key
    verdict: str
    candidate: Quartiles
    baseline: Optional[Quartiles] = None

    @property
    def phase(self) -> str:
        return str(self.key[-1])

    @property
    def gated(self) -> bool:
        """Whether a regression here fails the comparison."""
        return self.phase == "total"

    @property
    def label(self) -> str:
        """``case/strategy/backend/wN/tier`` of the cell."""
        case, strategy, backend, workers, tier = self.key[:5]
        return f"{case}/{strategy}/{backend}/w{workers}/{tier}"

    @property
    def ratio(self) -> Optional[float]:
        """Candidate median over baseline median (None without one)."""
        if self.baseline is None or self.baseline[1] == 0.0:
            return None
        return self.candidate[1] / self.baseline[1]

    def to_dict(self) -> Dict[str, object]:
        return {
            **dict(zip(KEY_FIELDS, self.key)),
            "verdict": self.verdict,
            "gated": self.gated,
            "candidate_quartiles_s": list(self.candidate),
            "baseline_quartiles_s": (
                list(self.baseline) if self.baseline is not None else None
            ),
            "ratio": self.ratio,
        }


@dataclass
class RegressionReport:
    """All cell verdicts of one candidate-vs-baseline comparison."""

    verdicts: List[CellVerdict] = field(default_factory=list)
    baseline_sha: Optional[str] = None
    candidate_sha: Optional[str] = None

    @property
    def regressions(self) -> List[CellVerdict]:
        """Gated cells that regressed — these fail the comparison."""
        return [
            v for v in self.verdicts if v.gated and v.verdict == REGRESSION
        ]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.verdicts:
            out[v.verdict] = out.get(v.verdict, 0) + 1
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-compare-v2",
            "bound": BOUND,
            "baseline_sha": self.baseline_sha,
            "candidate_sha": self.candidate_sha,
            "counts": self.counts(),
            "regressions": len(self.regressions),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        """Terminal comparison table, gated (``total``) rows first."""
        if not self.verdicts:
            return "(no comparable cells)"
        rows = sorted(
            self.verdicts, key=lambda v: (not v.gated, v.label, v.phase)
        )

        def band(q: Optional[Quartiles]) -> str:
            if q is None:
                return "-"
            return f"{q[1] * 1e3:.4f} [{q[0] * 1e3:.4f},{q[2] * 1e3:.4f}]"

        header = (
            f"{'cell':<38} {'phase':<16} {'A ms median [q1,q3]':>30} "
            f"{'B ms median [q1,q3]':>30} {'B/A':>7}  verdict"
        )
        lines = [header, "-" * len(header)]
        for v in rows:
            ratio = f"{v.ratio:.3f}" if v.ratio is not None else "-"
            mark = " <-- FAIL" if v.gated and v.verdict == REGRESSION else ""
            lines.append(
                f"{v.label:<38} {v.phase:<16} {band(v.baseline):>30} "
                f"{band(v.candidate):>30} {ratio:>7}  {v.verdict}{mark}"
            )
        counts = self.counts()
        summary = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
        sha = lambda s: (s or "unknown")[:12]  # noqa: E731
        lines.append("")
        lines.append(
            f"baseline {sha(self.baseline_sha)} vs candidate "
            f"{sha(self.candidate_sha)} (bound {BOUND * 100:.0f}%): "
            f"{summary}"
        )
        if self.regressions:
            lines.append(
                f"{len(self.regressions)} regression(s) on total-phase cells"
            )
        return "\n".join(lines)


def _sha(payload: Mapping[str, object]) -> Optional[str]:
    sha = dict(payload.get("meta", {})).get("git_sha")  # type: ignore[arg-type]
    return sha if isinstance(sha, str) else None


def compare_payloads(
    baseline: Mapping[str, object],
    candidate: Mapping[str, object],
    baseline_source: str = "baseline",
    candidate_source: str = "candidate",
) -> RegressionReport:
    """Judge every candidate cell of two ``repro-bench`` payloads.

    Bench rows are seconds, so lower is better; the bound is
    :data:`BOUND`.  The ``*_source`` names label ``ValueError`` messages.
    """
    base = _index_samples(baseline["records"], baseline_source)  # type: ignore[arg-type]
    cand = _index_samples(candidate["records"], candidate_source)  # type: ignore[arg-type]
    report = RegressionReport(
        baseline_sha=_sha(baseline), candidate_sha=_sha(candidate)
    )
    for key, b in cand.items():
        a = base.get(key)
        if a is None:
            cell = CellVerdict(key, NO_BASELINE, quartiles(b))
        else:
            cell = CellVerdict(
                key, verdict(a, b, "lower", BOUND), quartiles(b), quartiles(a)
            )
        report.verdicts.append(cell)
    return report
