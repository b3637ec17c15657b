"""Correctness check of one session's event stream against exact answers.

A session passes when

* its event seqs run 1, 2, 3, ... with no gap or repeat;
* it has exactly one ``final`` event and ends in state ``done``;
* every answer decided by the §3.1 exact fallback equals the exact
  answer (to float tolerance);
* no answer claims ``achieved`` with an error above its σ.

Bound coverage — whether each final 95% CI contains the exact answer —
is counted, never failed: the benchmark reports it as a metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Relative tolerance for exact-fallback answers (summation order differs).
EXACT_RTOL = 1e-9


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)
    covered: int = 0
    estimates: int = 0
    exact_finals: int = 0
    #: Whether the session was answered from a sample (not the §3.1
    #: exact path over the whole population).
    sampled: bool = False
    #: Rows the final read (exact group scans included), and of those
    #: the rows that came from the sampler.
    sample_rows: int = 0
    sampled_rows: int = 0
    population_rows: int = 0
    sim_cost_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_RTOL * max(1.0, abs(b))


def _answers(final: Mapping[str, Any], truth: Mapping[str, Any]
             ) -> List[Tuple[str, Mapping[str, Any], float, bool]]:
    """``(label, entry, exact, used_fallback)`` per estimate in a final."""
    if "groups" in final:
        out = []
        for key, by_agg in sorted(final["groups"].items()):
            for entry in by_agg.values():
                out.append((f"{key}.{entry['statistic']}", entry,
                            truth[key][entry["statistic"]],
                            bool(entry["used_fallback"])))
        return out
    # Statistic and job finals: the exact path reports the whole
    # population with a zero-width bound.
    fallback = (final["iteration"] == 0 and final["error"] == 0.0
                and final["sample_fraction"] == 1.0)
    return [(final["statistic"], final, truth[final["statistic"]], fallback)]


def check_session(events: Sequence[Any], truth: Mapping[str, Any],
                  sigma: float) -> Verdict:
    """Check one session's full event list (``Event``-like objects with
    ``seq``, ``type`` and ``payload``)."""
    verdict = Verdict()
    seqs = [event.seq for event in events]
    if seqs != list(range(1, len(seqs) + 1)):
        verdict.problems.append(f"event seqs not contiguous from 1: {seqs}")
    finals = [event for event in events if event.type == "final"]
    if len(finals) != 1:
        verdict.problems.append(f"{len(finals)} final events, expected 1")
    states = [event.payload.get("state") for event in events
              if event.type == "state"]
    if not states or states[-1] != "done":
        verdict.problems.append(f"session ended in state "
                                f"{states[-1] if states else None!r}")
    if not finals:
        return verdict
    final = finals[0].payload
    for label, entry, exact, fallback in _answers(final, truth):
        if fallback:
            verdict.exact_finals += 1
            if not _close(entry["estimate"], exact):
                verdict.problems.append(
                    f"{label}: exact-fallback answer {entry['estimate']!r} "
                    f"!= exact {exact!r}")
        if entry["achieved"] and entry["error"] > sigma * (1 + 1e-12):
            verdict.problems.append(
                f"{label}: claims achieved with error {entry['error']!r} "
                f"> sigma {sigma}")
        verdict.estimates += 1
        if fallback:
            verdict.covered += _close(entry["estimate"], exact)
        elif math.isfinite(entry["ci_low"]) and math.isfinite(
                entry["ci_high"]):
            verdict.covered += entry["ci_low"] <= exact <= entry["ci_high"]
    if "groups" in final:
        verdict.sampled = True
        verdict.sample_rows = int(final["rows_processed"])
        verdict.sampled_rows = sum(
            int(entry["sample_size"]) for by_agg in final["groups"].values()
            for entry in by_agg.values() if not entry["used_fallback"])
    else:
        verdict.sampled = not verdict.exact_finals
        verdict.sample_rows = int(final["sample_size"])
        verdict.sampled_rows = verdict.sample_rows if verdict.sampled else 0
        verdict.sim_cost_s = float(final["cost_total_seconds"])
    verdict.population_rows = int(final["population_size"])
    return verdict


def carries_bound(event: Any) -> bool:
    """Whether a snapshot/final event reports an error bound."""
    if event.type not in ("snapshot", "final"):
        return False
    payload = event.payload
    if "groups" in payload:
        return any(math.isfinite(entry["error"])
                   for by_agg in payload["groups"].values()
                   for entry in by_agg.values())
    return math.isfinite(payload.get("error", math.inf))
