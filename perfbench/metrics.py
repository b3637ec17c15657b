"""Metric catalogue, predictions, and the per-layer metric computation.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` declares
(the self-test keeps the two in step).  Each per-layer metric carries
its prediction: the end-to-end metrics and workloads it should move,
so a later performance change can cite them by name.

Counts and times are per completed session of the traced run; ratios
are plain ratios.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, List, Tuple

import tracing

DS, GS, CJ = "dashboard_shared", "groupby_skewed", "cluster_job"
ALL = (DS, GS, CJ)

#: name -> (unit, better, bound)
#:
#: The tail percentile is the highest one with at least ten independent
#: samples beyond it in every workload's run: p75.  A dashboard batch's
#: four sessions share one window and finish together, so a 30 s run
#: holds about 60 independent latencies there, and a GROUP BY run 50.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "first_bound_p50_s": ("s", "lower", 0.25),
    "first_bound_p75_s": ("s", "lower", 0.25),
    "final_p50_s": ("s", "lower", 0.25),
    "final_p75_s": ("s", "lower", 0.25),
    "sessions_per_s": ("1/s", "higher", 0.25),
    "bound_covered_share": ("share", "higher", 0.15),
}

#: name -> (unit, better, [(end-to-end metric, workloads), ...])
PER_LAYER: Dict[str, Tuple[str, str, List[Tuple[str, Tuple[str, ...]]]]] = {
    "service.requests": ("count/session", "lower",
                         [("first_bound_p50_s", ALL)]),
    "service.handle_s": ("s/session", "lower", [("first_bound_p50_s", ALL)]),
    "service.transport_s": ("s/session", "lower",
                            [("first_bound_p50_s", ALL)]),
    "service.poll_park_s": ("s/session", "lower",
                            [("first_bound_p50_s", ALL)]),
    # Whole-server memory: a peak is set by a run's single largest
    # session, too unsteady across seeds for a bounded metric.
    "service.peak_rss_mb": ("MB", "lower", [("sessions_per_s", ALL)]),
    "events.appended": ("count/session", "lower", [("final_p50_s", (GS,))]),
    "events.append_s": ("s/session", "lower", [("final_p50_s", (GS,))]),
    "events.backpressure_wait_s": ("s/session", "lower",
                                   [("final_p50_s", (GS,))]),
    "store.writes": ("count/session", "lower", [("sessions_per_s", (CJ,))]),
    "store.write_s": ("s/session", "lower", [("sessions_per_s", (CJ,))]),
    "scheduler.windows": ("count/session", "lower",
                          [("first_bound_p50_s", (DS,))]),
    "scheduler.sessions_per_window": ("sessions", "higher",
                                      [("first_bound_p50_s", (DS,))]),
    "scheduler.queue_wait_s": ("s/session", "lower",
                               [("first_bound_p50_s", (DS,))]),
    "scheduler.round_s": ("s/session", "lower",
                          [("first_bound_p50_s", (DS,)),
                           ("final_p50_s", (GS,))]),
    "scheduler.allocate_s": ("s/session", "lower", [("final_p50_s", (GS,))]),
    "scheduler.queries_per_engine": ("queries", "higher",
                                     [("first_bound_p50_s", (DS,))]),
    "streaming.prepare_s": ("s/session", "lower",
                            [("first_bound_p50_s", (DS,))]),
    "streaming.run_round_s": ("s/session", "lower",
                              [("first_bound_p50_s", (DS,))]),
    "streaming.rounds": ("count/session", "lower",
                         [("first_bound_p50_s", (DS,))]),
    "pilot.calls": ("count/session", "lower",
                    [("first_bound_p50_s", (DS, GS))]),
    "pilot.s": ("s/session", "lower", [("first_bound_p50_s", (DS, GS))]),
    "pilot.share_of_window": ("ratio", "lower",
                              [("first_bound_p50_s", (DS, GS))]),
    "pilot.exact_fallbacks": ("count/session", "lower",
                              [("first_bound_p50_s", (DS, GS))]),
    "pilot.exact_s": ("s/session", "lower",
                      [("first_bound_p50_s", (DS, GS))]),
    "pilot.useful_ratio": ("ratio", "higher",
                           [("first_bound_p50_s", (DS, GS))]),
    "kernel.offers": ("count/session", "lower",
                      [("final_p50_s", (DS, GS))]),
    "kernel.rows": ("rows/session", "lower", [("final_p50_s", (DS, GS))]),
    "kernel.offer_s": ("s/session", "lower", [("final_p50_s", (DS, GS))]),
    "kernel.s_per_krow": ("s/krow", "lower", [("final_p50_s", (DS, GS))]),
    "earl.rounds": ("count/session", "lower", [("final_p50_s", (CJ,))]),
    "earl.step_s": ("s/session", "lower", [("final_p50_s", (CJ,))]),
    # The typical session's share of the population read.  The pilot's
    # sizing noise makes it swing ~20% between seeds on dashboard_shared,
    # too much for a bounded end-to-end metric at this run length.
    "earl.rows_scanned_share": ("share", "lower",
                                [("final_p50_s", (DS, CJ))]),
    "grouped.rounds": ("count/session", "lower", [("final_p50_s", (GS,))]),
    "grouped.step_s": ("s/session", "lower", [("final_p50_s", (GS,))]),
    "sampling.reads": ("count/session", "lower",
                       [("first_bound_p50_s", (CJ,)),
                        ("final_p50_s", (GS,))]),
    "sampling.s": ("s/session", "lower",
                   [("first_bound_p50_s", (CJ,)), ("final_p50_s", (GS,))]),
    "sampling.rows_drawn": ("rows/session", "lower",
                            [("first_bound_p50_s", (CJ,)),
                             ("final_p50_s", (GS,))]),
    "sampling.rows_used_ratio": ("ratio", "higher",
                                 [("first_bound_p50_s", (CJ,)),
                                  ("final_p50_s", (GS,))]),
    "hdfs.split_lookups": ("count/session", "lower",
                           [("first_bound_p50_s", (CJ,))]),
    "hdfs.split_cache_hit_ratio": ("ratio", "higher",
                                   [("first_bound_p50_s", (CJ,))]),
    "hdfs.read_s": ("s/session", "lower", [("first_bound_p50_s", (CJ,))]),
    "mapreduce.jobs": ("count/session", "lower", [("final_p50_s", (CJ,))]),
    "mapreduce.job_s": ("s/session", "lower", [("final_p50_s", (CJ,))]),
    "mapreduce.map_tasks": ("count/session", "lower",
                            [("final_p50_s", (CJ,))]),
    "mapreduce.task_retries": ("count/session", "lower",
                               [("final_p50_s", (CJ,))]),
    "cluster.sim_cost_s_per_session": ("sim_s", "lower",
                                       [("final_p50_s", (CJ,))]),
    "exec.map_calls": ("count/session", "lower", [("final_p50_s", ALL)]),
    "exec.map_s": ("s/session", "lower", [("final_p50_s", ALL)]),
    "exec.broadcasts": ("count/session", "lower", [("final_p50_s", ALL)]),
    "exec.broadcast_s": ("s/session", "lower", [("final_p50_s", ALL)]),
    "trace.unattributed_share": ("ratio", "lower", []),
    "trace.overhead_ratio": ("ratio", "lower", []),
}


def _outermost(spans: List[Dict[str, Any]], by_id: Dict[Any, Any],
               name: str) -> List[Dict[str, Any]]:
    """Spans called ``name`` not nested in another span of that name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != name:
            out.append(s)
    return out


def layer_metrics(spans: List[Dict[str, Any]], split: Dict[str, Any],
                  sessions: int, *, sampled_rows: int,
                  scanned_share: float,
                  sim_cost_s: float, exact_finals: int,
                  peak_rss_mb: float,
                  overhead_ratio: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``spans`` have been through :func:`tracing.layer_split` (``split``
    is its result); ``sampled_rows`` (sampler rows in the finals) and
    ``sim_cost_s`` sum the checked finals, ``scanned_share`` is their
    typical share of the population read, ``exact_finals`` counts
    answers decided by the exact path; ``peak_rss_mb`` is the untraced
    server's.
    """
    per = 1.0 / max(1, sessions)
    by_id = {s["id"]: s for s in spans}
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
    self_s: Dict[str, float] = Counter()
    for s in spans:
        key = s["name"]
        if s["layer"] == "core.ssabe" and not key.startswith("pilot"):
            key = "pilot"   # kernel/exec work done for the pilot
        self_s[key] += s["self"]

    m: Dict[str, float] = {}
    handles = named["service.handle"]
    m["service.requests"] = len(handles) * per
    m["service.handle_s"] = self_s["service.handle"] * per
    handle_of = {s["parent"]: s for s in handles}
    transport = 0.0
    for s in named["service.transport"]:
        inner = handle_of.get(s["id"])
        transport += (s["t1"] - s["t0"]) - (
            inner["t1"] - inner["t0"] if inner is not None else 0.0)
    m["service.transport_s"] = max(0.0, transport) * per
    m["service.poll_park_s"] = sum(
        s["t1"] - s["t0"] for s in named["service.poll_park"]) * per
    m["service.peak_rss_mb"] = peak_rss_mb

    m["events.appended"] = len(named["events.append"]) * per
    m["events.append_s"] = self_s["events.append"] * per
    m["events.backpressure_wait_s"] = sum(
        s["t1"] - s["t0"] for s in named["events.backpressure_wait"]) * per

    m["store.writes"] = len(_outermost(spans, by_id, "store.write")) * per
    m["store.write_s"] = self_s["store.write"] * per

    # Windows: which sessions each scheduler admitted, and when it started.
    admitted: Dict[Any, List[str]] = defaultdict(list)
    for s in named["scheduler.admit"]:
        admitted[s["args"]["sched"]].append(s["args"]["session"])
    started = {s["args"]["sched"]: s["t0"]
               for s in named["scheduler.start"]}
    submitted = {s["args"]["session"]: s["t1"] for s in handles
                 if s["args"].get("op") == "submit"
                 and "session" in s["args"]}
    waits = [started[sched] - submitted[sid]
             for sched, members in admitted.items() if sched in started
             for sid in members if sid in submitted]
    m["scheduler.windows"] = len(started) * per
    m["scheduler.sessions_per_window"] = (
        sum(len(v) for v in admitted.values()) / len(admitted)
        if admitted else 0.0)
    m["scheduler.queue_wait_s"] = sum(waits) * per
    m["scheduler.round_s"] = self_s["scheduler.step"] * per
    m["scheduler.allocate_s"] = self_s["scheduler.allocate"] * per
    engines = (len(named["streaming.prepare"])
               + sum(1 for name in ("earl.step", "earl.job_step",
                                    "grouped.step")
                     for s in named[name] if s["args"]["step"] == 1))
    m["scheduler.queries_per_engine"] = sessions / engines if engines else 0.0

    m["streaming.prepare_s"] = self_s["streaming.prepare"] * per
    m["streaming.run_round_s"] = self_s["streaming.run_round"] * per
    m["streaming.rounds"] = len(named["streaming.run_round"]) * per

    pilots = named["pilot"]
    # Engine-driving steps: scheduler windows, and cluster jobs (which
    # bypass the scheduler).
    windows = sum(s["t1"] - s["t0"]
                  for name in ("scheduler.step", "earl.job_step")
                  for s in named[name])
    pilot_s = self_s["pilot"]
    m["pilot.calls"] = len(pilots) * per
    m["pilot.s"] = pilot_s * per
    m["pilot.share_of_window"] = pilot_s / windows if windows else 0.0
    m["pilot.exact_fallbacks"] = exact_finals * per
    m["pilot.exact_s"] = self_s["pilot.exact"] * per
    m["pilot.useful_ratio"] = (sum(1 for s in pilots if s["args"]["useful"])
                               / len(pilots) if pilots else 0.0)

    offers = [s for s in named["kernel.offer"] if s["layer"] == "core"]
    rows = sum(s["args"]["rows"] for s in offers)
    kernel_s = self_s["kernel.offer"] + self_s["kernel.resample"]
    m["kernel.offers"] = len(offers) * per
    m["kernel.rows"] = rows * per
    m["kernel.offer_s"] = kernel_s * per
    m["kernel.s_per_krow"] = kernel_s / (rows / 1000.0) if rows else 0.0

    m["earl.rounds"] = (len(named["earl.step"])
                        + len(named["earl.job_step"])) * per
    m["earl.step_s"] = (self_s["earl.step"] + self_s["earl.job_step"]) * per
    m["earl.rows_scanned_share"] = scanned_share
    m["grouped.rounds"] = len(named["grouped.step"]) * per
    m["grouped.step_s"] = self_s["grouped.step"] * per

    reads = named["sampling.read"]
    takes = [s for s in named["sampling.stratified"] if "rows" in s["args"]]
    drawn = sum(s["args"]["rows"] for s in reads + takes)
    m["sampling.reads"] = len(reads + takes) * per
    m["sampling.s"] = (self_s["sampling.read"]
                       + self_s["sampling.stratified"]) * per
    m["sampling.rows_drawn"] = drawn * per
    m["sampling.rows_used_ratio"] = sampled_rows / drawn if drawn else 0.0

    lookups = named["hdfs.acquire"]
    m["hdfs.split_lookups"] = len(lookups) * per
    m["hdfs.split_cache_hit_ratio"] = (
        sum(1 for s in lookups if s["args"]["hit"]) / len(lookups)
        if lookups else 0.0)
    m["hdfs.read_s"] = (self_s["hdfs.acquire"]
                        + self_s["hdfs.read_column"]) * per

    jobs = named["mapreduce.job"]
    m["mapreduce.jobs"] = len(jobs) * per
    m["mapreduce.job_s"] = self_s["mapreduce.job"] * per
    m["mapreduce.map_tasks"] = sum(s["args"].get("map_tasks", 0)
                                   for s in jobs) * per
    m["mapreduce.task_retries"] = sum(s["args"].get("retries", 0)
                                      for s in jobs) * per
    m["cluster.sim_cost_s_per_session"] = sim_cost_s * per

    def exec_calls(name: str) -> int:
        return sum(1 for s in _outermost(spans, by_id, name)
                   if s["layer"] == "exec")
    m["exec.map_calls"] = exec_calls("exec.map") * per
    m["exec.map_s"] = self_s["exec.map"] * per
    m["exec.broadcasts"] = exec_calls("exec.broadcast") * per
    m["exec.broadcast_s"] = self_s["exec.broadcast"] * per

    m["trace.unattributed_share"] = (split["unattributed"] / split["wall"]
                                     if split["wall"] else 0.0)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def layer_table(split: Dict[str, Any], sessions: int) -> List[Dict[str, Any]]:
    """Rows of the per-layer table: claimed wall seconds per session and
    share of wall; the rows (unattributed included) sum to the wall."""
    per = 1.0 / max(1, sessions)
    wall = split["wall"] or 1.0
    rows = [{"layer": layer, "s_per_session": split["claimed"].get(layer, 0.0)
             * per, "share": split["claimed"].get(layer, 0.0) / wall}
            for layer in tracing.LAYERS]
    rows.append({"layer": "unattributed",
                 "s_per_session": split["unattributed"] * per,
                 "share": split["unattributed"] / wall})
    return rows
