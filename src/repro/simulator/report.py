"""Operational trace analysis.

Turns raw :class:`~repro.simulator.engine.TransactionRecord` streams into
the per-service summary an operator (or an autonomic manager deciding
where to look first) reads: elapsed-time statistics, invocation counts,
and each service's share of end-to-end time, split by whether it sits on
the critical (dominant) parallel branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import DataError
from repro.simulator.engine import TransactionRecord


@dataclass(frozen=True)
class ServiceStats:
    """Per-service operational summary over a trace."""

    service: str
    n_invocations: int
    n_transactions: int
    mean_elapsed: float
    p50_elapsed: float
    p95_elapsed: float
    max_elapsed: float
    share_of_response: float


@dataclass(frozen=True)
class TraceReport:
    """Whole-trace summary."""

    n_transactions: int
    mean_response: float
    p95_response: float
    services: tuple

    def sorted_by_share(self) -> tuple:
        return tuple(
            sorted(self.services, key=lambda s: s.share_of_response, reverse=True)
        )


def analyze_trace(
    records: Sequence[TransactionRecord],
    services: "Sequence[str] | None" = None,
) -> TraceReport:
    """Summarize a trace; ``services`` defaults to everything observed."""
    if not records:
        raise DataError("no transaction records to analyze")
    responses = np.array([r.response_time for r in records])
    if services is None:
        seen: set[str] = set()
        for r in records:
            seen |= set(r.elapsed)
        services = sorted(seen)
    total_response = float(responses.sum())
    stats = []
    for s in services:
        elapsed = np.array([r.elapsed[s] for r in records if s in r.elapsed])
        invocations = sum(r.invocations.get(s, 0) for r in records)
        if elapsed.size == 0:
            stats.append(
                ServiceStats(
                    service=str(s),
                    n_invocations=0,
                    n_transactions=0,
                    mean_elapsed=0.0,
                    p50_elapsed=0.0,
                    p95_elapsed=0.0,
                    max_elapsed=0.0,
                    share_of_response=0.0,
                )
            )
            continue
        stats.append(
            ServiceStats(
                service=str(s),
                n_invocations=int(invocations),
                n_transactions=int(elapsed.size),
                mean_elapsed=float(elapsed.mean()),
                p50_elapsed=float(np.percentile(elapsed, 50)),
                p95_elapsed=float(np.percentile(elapsed, 95)),
                max_elapsed=float(elapsed.max()),
                share_of_response=float(elapsed.sum() / total_response)
                if total_response > 0
                else 0.0,
            )
        )
    return TraceReport(
        n_transactions=len(records),
        mean_response=float(responses.mean()),
        p95_response=float(np.percentile(responses, 95)),
        services=tuple(stats),
    )


def format_report(report: TraceReport) -> str:
    """Render a fixed-width operator report."""
    lines = [
        f"transactions: {report.n_transactions}   "
        f"mean D: {report.mean_response:.3f} s   "
        f"p95 D: {report.p95_response:.3f} s",
        f"{'service':>10s} {'inv':>6s} {'mean':>8s} {'p50':>8s} "
        f"{'p95':>8s} {'max':>8s} {'share':>7s}",
    ]
    for s in report.sorted_by_share():
        lines.append(
            f"{s.service:>10s} {s.n_invocations:6d} {s.mean_elapsed:8.3f} "
            f"{s.p50_elapsed:8.3f} {s.p95_elapsed:8.3f} {s.max_elapsed:8.3f} "
            f"{s.share_of_response:6.1%}"
        )
    return "\n".join(lines)
