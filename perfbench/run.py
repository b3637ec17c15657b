"""End-to-end benchmark of the approximate-query service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed``, starts the service in
its own process behind ``ServiceServer`` (``server.py``) and drives it
from this process over TCP: one ``ServiceClient`` connection, a closed
loop that submits the next spec (or batch of specs) only after the
previous ones reached their finals.  Every session's event stream is
checked against exact answers (``check.py``).

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` spends half of ``--seconds`` on an untraced reference run
and half on a traced run of the same spec sequence, and reports the
per-layer metrics of ``metrics.py``; it also writes the layer table and
a Chrome trace under ``.perfbench-work/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVER = os.path.join(HERE, "server.py")

#: Set-up samples per run: this many set-up-only server starts, plus
#: the start of each server that then runs the workload.
SETUP_ONLY_STARTS = 2
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: Passes over the spec rotation before the clock starts.
WARMUP_CYCLES = 1
#: Long-poll budget per request; sessions are followed round-robin.
POLL_TIMEOUT_S = 1.0
#: A run that has not drained this long after its measuring time ends
#: cancels what is left and counts it as failed.
DRAIN_LIMIT_S = 90.0
CLIENT_FIRST_SPAN_ID = 10 ** 12
#: One BLAS/OpenMP thread in the server: idle OpenBLAS workers spin, and
#: on a host of a few cores they would compete with the load generator.
SERVER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                  OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


@dataclass
class Session:
    spec: Dict[str, Any]
    t_submit: float = 0.0
    sid: str = ""
    after: int = 0
    events: List[Any] = field(default_factory=list)
    first_bound: Optional[float] = None
    final: Optional[float] = None
    done: bool = False


@dataclass
class Phase:
    sessions: List[Session]
    t_start: float
    t_end: float
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    setup_s: float = 0.0
    spans: List[Dict[str, Any]] = field(default_factory=list)


def _client_class():
    from repro.service import ServiceClient

    class BenchClient(ServiceClient):
        """``ServiceClient`` that, when traced, records one span per
        request and tells the server which span caused its handle."""

        recorder = None

        async def _request(self, request):
            if self.recorder is None:
                return await super()._request(request)
            handle = self.recorder.begin()
            try:
                return await super()._request(
                    dict(request, bench_span=handle[0]))
            finally:
                self.recorder.end(handle, "service.transport")

    return BenchClient


class Server:
    """One server process and the connection to it."""

    def __init__(self, proc, client, setup_s: float) -> None:
        self.proc, self.client, self.setup_s = proc, client, setup_s

    @classmethod
    async def start(cls, workload: str, gen, work: str, index: int,
                    trace_out: Optional[str] = None) -> "Server":
        import tracing
        command = [sys.executable, SERVER, "--workload", workload,
                   "--work", os.path.join(work, "inputs"),
                   "--service-seed", str(gen.service_seed)]
        if trace_out:
            command += ["--trace-out", trace_out]
        # Imported before the clock starts: set-up time is the server's.
        client_class = _client_class()
        with open(os.path.join(work, f"server-{index}.log"), "wb") as log:
            t0 = tracing.now()
            proc = await asyncio.create_subprocess_exec(
                *command, stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE, stderr=log, env=SERVER_ENV)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(),
                                          START_TIMEOUT_S)
            if not line:
                raise RuntimeError(f"server {index} exited during set-up; "
                                   f"see {log.name}")
            port = json.loads(line)["port"]
            client = await client_class.connect("127.0.0.1", port)
            await client.ping()
        except BaseException:
            await _kill(proc)
            raise
        return cls(proc, client, tracing.now() - t0)

    async def stop(self) -> Dict[str, float]:
        """Stop the server; returns its peak RSS in MB (``peak_rss_mb``)
        and the CPU seconds it used (``cpu_s``)."""
        try:
            await self.client.close()
            self.proc.stdin.close()
            out = await asyncio.wait_for(self.proc.stdout.read(),
                                         STOP_TIMEOUT_S)
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        except BaseException:
            await _kill(self.proc)
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.splitlines()[-1])


async def _kill(proc) -> None:
    if proc.returncode is None:
        proc.kill()
        await proc.wait()


async def follow(client, batch: List[Session], deadline: float) -> None:
    """Submit ``batch`` back to back and follow it to its finals; what is
    still live at ``deadline`` is cancelled (and so counts as failed)."""
    import tracing
    from repro.service import TERMINAL_STATES
    from check import carries_bound

    for s in batch:
        s.t_submit = tracing.now()
        s.sid = await client.submit(s.spec)
    live = list(batch)
    while live:
        if tracing.now() > deadline:
            for s in live:
                await client.cancel(s.sid)
            break
        for s in list(live):
            page = await client.poll(s.sid, after=s.after, wait=True,
                                     timeout=POLL_TIMEOUT_S)
            received = tracing.now()
            for event in page.events:
                s.events.append(event)
                if s.first_bound is None and carries_bound(event):
                    s.first_bound = received - s.t_submit
                if event.type == "final":
                    s.final = received - s.t_submit
                if (event.type == "state"
                        and event.payload["state"] in TERMINAL_STATES):
                    s.done = event.payload["state"] == "done"
                    live.remove(s)
            if page.events:
                s.after = page.events[-1].seq


async def drive(client, gen, seconds: float) -> Phase:
    """The closed loop: submit a batch, follow it to its finals, repeat
    until ``seconds`` have passed.  The first ``WARMUP_CYCLES`` passes
    over the spec rotation run before the clock starts and are not
    measured; a fixed count, so every run gives the service the same
    session sequence."""
    import tracing

    specs = itertools.cycle(gen.rotation)
    batch = gen.workload.batch
    for _ in range(WARMUP_CYCLES * len(gen.rotation) // batch):
        await follow(client, [Session(spec)
                              for spec in itertools.islice(specs, batch)],
                     tracing.now() + DRAIN_LIMIT_S)
    sessions: List[Session] = []
    t_start, cpu_start = tracing.now(), _cpu_seconds()
    while tracing.now() - t_start < seconds:
        sessions.extend(Session(spec)
                        for spec in itertools.islice(specs, batch))
        await follow(client, sessions[-batch:],
                     t_start + seconds + DRAIN_LIMIT_S)
    return Phase(sessions, t_start, tracing.now(),
                 client_cpu_s=_cpu_seconds() - cpu_start)


async def run_phase(workload: str, gen, work: str, index: int,
                    seconds: float, traced: bool) -> Phase:
    import tracing
    trace_out = (os.path.join(work, f"server-trace-{index}.json")
                 if traced else None)
    server = await Server.start(workload, gen, work, index, trace_out)
    try:
        if traced:
            server.client.recorder = tracing.Recorder(CLIENT_FIRST_SPAN_ID)
        phase = await drive(server.client, gen, seconds)
    except BaseException:
        await _kill(server.proc)
        raise
    phase.setup_s = server.setup_s
    usage = await server.stop()
    phase.peak_rss_mb, phase.cpu_s = usage["peak_rss_mb"], usage["cpu_s"]
    if traced:
        with open(trace_out) as fh:
            events = json.load(fh)["traceEvents"]
        events += server.client.recorder.chrome_events(os.getpid())
        _label_sessions(events, phase.sessions, gen.workload.batch)
        tracing.write_chrome(os.path.join(work, "trace.json"), events)
        phase.spans = [s for s in tracing.load_chrome(events)
                       if phase.t_start <= s["t0"] <= phase.t_end]
    return phase


def _label_sessions(events: List[Dict[str, Any]], sessions: List[Session],
                    batch: int) -> None:
    """Give every span the ids of the sessions in flight when it began:
    the closed loop has exactly one batch in flight at a time."""
    import bisect
    batches = [sessions[i:i + batch] for i in range(0, len(sessions), batch)]
    starts = [b[0].t_submit * 1e6 for b in batches]
    for event in events:
        k = bisect.bisect_right(starts, event["ts"]) - 1
        if k >= 0:
            event["args"]["sessions"] = [s.sid for s in batches[k]]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _quantile(values: List[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if values else 0.0


def _summarize(phase: Phase, gen, sigma: float) -> Dict[str, Any]:
    from check import check_session
    verdicts = [check_session(s.events, gen.truth, sigma)
                for s in phase.sessions]
    label = "traced " if phase.spans else ""
    problems = [f"{label}{s.sid}: {p}"
                for s, v in zip(phase.sessions, verdicts) for p in v.problems]
    failed = sum(1 for s, v in zip(phase.sessions, verdicts)
                 if not s.done or not v.ok)
    first = [s.first_bound for s in phase.sessions
             if s.first_bound is not None]
    final = [s.final for s in phase.sessions if s.final is not None]
    estimates = sum(v.estimates for v in verdicts)
    # The typical session's share of the data read: a geometric mean, so
    # the few sessions that double their sample once more do not decide
    # it.  Sessions the exact path answered read everything by
    # definition; pilot.exact_fallbacks counts them.
    shares = [v.sample_rows / v.population_rows for v in verdicts
              if v.sampled and v.sample_rows and v.population_rows]
    done = sum(1 for s in phase.sessions if s.done)
    return {
        "problems": problems, "failed": failed, "done": done,
        "first_bound": first, "final": final,
        "covered_share": (sum(v.covered for v in verdicts) / estimates
                          if estimates else 0.0),
        "scanned_share": (math.exp(statistics.fmean(map(math.log, shares)))
                          if shares else 0.0),
        "sampled_rows": sum(v.sampled_rows for v in verdicts),
        "sim_cost_s": sum(v.sim_cost_s for v in verdicts),
        "exact_finals": sum(v.exact_finals for v in verdicts),
    }


async def run(args) -> Dict[str, Any]:
    import metrics
    import workloads

    work = os.path.join(ROOT, ".perfbench-work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gen = workloads.generate(args.workload, args.seed,
                             os.path.join(work, "inputs"))
    sigma = float(gen.rotation[0]["sigma"])
    setups = []
    # Set-up time is an end-to-end metric only: the traced run skips the
    # extra samples.
    for index in range(0 if args.trace else SETUP_ONLY_STARTS):
        server = await Server.start(args.workload, gen, work, index)
        setups.append(server.setup_s)
        await server.stop()

    phases: List[Phase] = []
    if args.trace:
        for index, traced in ((SETUP_ONLY_STARTS, False),
                              (SETUP_ONLY_STARTS + 1, True)):
            phases.append(await run_phase(args.workload, gen, work, index,
                                          args.seconds / 2, traced))
    else:
        phases.append(await run_phase(args.workload, gen, work,
                                      SETUP_ONLY_STARTS, args.seconds, False))
    setups += [phase.setup_s for phase in phases]
    summaries = [_summarize(phase, gen, sigma) for phase in phases]
    problems = [p for s in summaries for p in s["problems"]]
    attempted = sum(len(phase.sessions) for phase in phases)
    failed = sum(s["failed"] for s in summaries)

    if args.trace:
        values = _per_layer(args, gen, work, phases, summaries, problems)
        declared = metrics.PER_LAYER
    else:
        values = _end_to_end(phases[0], summaries[0], setups)
        declared = metrics.END_TO_END
    out = {name: {"value": values[name], "unit": spec[0]}
           for name, spec in declared.items()}
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}
    print(f"host: {json.dumps(host)}")
    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": out}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "host": host, **result,
                   "sessions": [
                       {"session": s.sid, "spec": s.spec, "done": s.done,
                        "submitted_s": s.t_submit - phases[-1].t_start,
                        "first_bound_s": s.first_bound, "final_s": s.final}
                       for s in phases[-1].sessions]}, fh, indent=2)
    return result


def _end_to_end(phase: Phase, summary: Dict[str, Any],
                setups: List[float]) -> Dict[str, float]:
    wall = phase.t_end - phase.t_start
    print(f"sessions: {len(phase.sessions)} in {wall:.2f} s; "
          f"set-up samples: {[round(s, 4) for s in setups]}; "
          f"server peak RSS {phase.peak_rss_mb:.1f} MB, "
          f"CPU {phase.cpu_s:.2f} s; load generator CPU "
          f"{phase.client_cpu_s:.2f} s")
    return {
        "setup_s": statistics.median(setups),
        "first_bound_p50_s": _quantile(summary["first_bound"], 0.5),
        "first_bound_p75_s": _quantile(summary["first_bound"], 0.75),
        "final_p50_s": _quantile(summary["final"], 0.5),
        "final_p75_s": _quantile(summary["final"], 0.75),
        "sessions_per_s": summary["done"] / wall if wall else 0.0,
        "bound_covered_share": summary["covered_share"],
    }


def _per_layer(args, gen, work: str, phases: List[Phase],
               summaries: List[Dict[str, Any]],
               problems: List[str]) -> Dict[str, float]:
    import metrics
    import tracing
    (reference, phase), summary = phases, summaries[1]
    # Overhead over the same sessions: the traced run repeats the
    # reference run's spec and seed sequence from the start.
    matched = [s.final for s in reference.sessions[:len(phase.sessions)]
               if s.final is not None]
    untraced_p50 = _quantile(matched, 0.5)
    split = tracing.layer_split(phase.spans, phase.t_start, phase.t_end)
    sessions = summary["done"]
    values = metrics.layer_metrics(
        phase.spans, split, sessions,
        sampled_rows=summary["sampled_rows"],
        scanned_share=summary["scanned_share"],
        sim_cost_s=summary["sim_cost_s"],
        exact_finals=summary["exact_finals"],
        peak_rss_mb=reference.peak_rss_mb,
        overhead_ratio=(_quantile(summary["final"], 0.5) / untraced_p50
                        if untraced_p50 else 0.0))
    table = metrics.layer_table(split, sessions)
    print(f"layer table ({sessions} sessions, wall {split['wall']:.3f} s):")
    for row in table:
        print(f"  {row['layer']:<16} {row['s_per_session']:10.5f} "
              f"s/session {100 * row['share']:6.2f}%")
    with open(os.path.join(work, "layers.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "sessions": sessions, "wall_s": split["wall"],
                   "table": table, "metrics": values}, fh, indent=2)
    # Determinism guard: every batch must share one dispatch window, so
    # the service derives the same per-session seeds on every run.
    sizes: Dict[Any, int] = {}
    for s in phase.spans:
        if s["name"] == "scheduler.admit":
            sizes[s["args"]["sched"]] = sizes.get(s["args"]["sched"], 0) + 1
    if any(n != gen.workload.batch for n in sizes.values()):
        problems.append(f"batches split across dispatch windows: window "
                        f"sizes {sorted(sizes.values())}")
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no service source under {ROOT}/src: run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{sorted(workloads.WORKLOADS)}")
    result = asyncio.run(run(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
