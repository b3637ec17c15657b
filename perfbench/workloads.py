"""The three benchmark workloads: inputs, spec sequences, exact answers.

The load generator calls :func:`generate` with the workload seed; it
writes every input the server needs into a work directory and returns
the ordered spec sequence plus the exact answers the correctness check
compares against.  The server calls :func:`build_service` on that
directory and never sees the seed of the data.

Why each workload exists (and what it should and should not move) is
recorded in ``BENCHMARK.json`` and in ``metrics.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

STATISTICS = ("mean", "median", "p90", "std")
GROUP_STATISTICS = ("mean", "p90")
POPULATION_ROWS = 1_000_000
TABLE_ROWS, TABLE_KEYS, TABLE_SKEW = 200_000, 32, 1.2
JOB_RECORDS, JOB_LOGICAL_GB, JOB_NODES = 500_000, 20.0, 8
#: 16 blocks of the 8 MB stand-in file: one split per map slot.
JOB_BLOCK_BYTES = 512 * 1024
#: Lognormal shape of the job file.  At the default shape (1.0) the
#: pilot sends most std jobs and some p90 jobs at sigma=0.02 to the
#: §3.1 exact path, which on the cluster folds all 500k records one at
#: a time (about 2 s for std, 30 s for a quantile); at 0.5 it still
#: does so for about 1 std pilot in 150.  See CHANGES.md.
JOB_SHAPE = 0.4
JOB_PATH = "/perfbench/records"
#: The text form of a job record (the repo's fixed-width numeric lines).
RECORD_FORMAT = "{:015.6f}"


@dataclass(frozen=True)
class Workload:
    name: str
    #: Specs submitted back to back before following them to their finals.
    batch: int


WORKLOADS = {
    # Batches of four statistics in one dispatch window: one shared scan,
    # one SessionManager.prepare with a pilot per query, one kernel round.
    "dashboard_shared": Workload("dashboard_shared", batch=4),
    # One GROUP BY at a time over a Zipf-skewed table: stratified
    # sampling, per-group pilots and per-group exact fallbacks.
    "groupby_skewed": Workload("groupby_skewed", batch=1),
    # One EarlJob at a time on the simulated Hadoop cluster: pre-map
    # sampling over HDFS splits, MapReduce jobs and the cost model.
    "cluster_job": Workload("cluster_job", batch=1),
}


def _spec(workload: str, statistic: str) -> Dict[str, Any]:
    if workload == "dashboard_shared":
        return {"kind": "statistic", "dataset": "population",
                "statistic": statistic, "sigma": 0.02}
    if workload == "groupby_skewed":
        return {"kind": "query", "table": "sales", "group_by": "region",
                "select": [{"statistic": statistic, "column": "amount"}],
                "sigma": 0.05}
    return {"kind": "job", "cluster": "sim", "path": JOB_PATH,
            "statistic": statistic, "sigma": 0.02}


@dataclass
class Generated:
    """What the load generator keeps: the spec rotation, exact answers,
    and the seed the service derives its per-session seeds from."""

    workload: Workload
    #: Submitted in this order, over and over, until the run ends.
    rotation: List[Dict[str, Any]]
    #: statistic -> exact value; for grouped workloads group -> stat -> value.
    truth: Dict[str, Any]
    service_seed: int


def _exact(values: np.ndarray, statistic: str) -> float:
    """Exact answers, computed independently of the engines' estimators
    (same definitions: linear-interpolated quantiles, ddof=1 std)."""
    if statistic == "mean":
        return float(np.mean(values))
    if statistic == "median":
        return float(np.median(values))
    if statistic == "p90":
        return float(np.quantile(values, 0.9))
    if statistic == "std":
        return float(np.std(values, ddof=1))
    raise ValueError(f"no exact answer for {statistic!r}")


def generate(name: str, seed: int, work: str) -> Generated:
    """Write ``name``'s inputs under ``work``; return specs and truth.

    The spec order is a seeded rotation of the workload's statistics.
    """
    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    service_seed = int(rng.integers(0, 2 ** 31 - 1))
    os.makedirs(work, exist_ok=True)
    if name == "groupby_skewed":
        from repro.workloads.synthetic import skewed_keyed_values
        keys, values = skewed_keyed_values(
            TABLE_ROWS, TABLE_KEYS, skew=TABLE_SKEW, seed=rng)
        keys = keys.astype(str)
        np.save(os.path.join(work, "region.npy"), keys)
        np.save(os.path.join(work, "amount.npy"), values)
        truth: Dict[str, Any] = {}
        for key in np.unique(keys):
            group = values[keys == key]
            truth[str(key)] = {s: _exact(group, s)
                               for s in GROUP_STATISTICS}
        statistics = list(GROUP_STATISTICS)
    elif name == "cluster_job":
        raw = rng.lognormal(3.0, JOB_SHAPE, JOB_RECORDS)
        lines = [RECORD_FORMAT.format(v) for v in raw.tolist()]
        with open(os.path.join(work, "records.txt"), "w") as fh:
            fh.write("\n".join(lines))
        # The job parses the text, so the truth is over the parsed values.
        values = np.array([float(line) for line in lines])
        truth = {s: _exact(values, s) for s in STATISTICS}
        statistics = list(STATISTICS)
    else:
        values = rng.lognormal(3.0, 1.0, POPULATION_ROWS)
        np.save(os.path.join(work, "population.npy"), values)
        truth = {s: _exact(values, s) for s in STATISTICS}
        statistics = list(STATISTICS)
    start = int(rng.integers(len(statistics)))
    rotation = [_spec(name, stat)
                for stat in statistics[start:] + statistics[:start]]
    return Generated(workload, rotation, truth, service_seed)


def build_service(name: str, work: str, service_seed: int):
    """The server side: an :class:`ApproxQueryService` with every input
    of ``name`` registered from ``work``."""
    from repro.core import EarlConfig
    from repro.service import ApproxQueryService, InMemorySessionStore

    # Finished sessions are dropped a second after their last poll (the
    # load generator never comes back to one).  At the default linger of
    # 300 s every finished session keeps its engine reachable, and the
    # server grows by ~12 MB per dashboard session; see CHANGES.md.
    service = ApproxQueryService(config=EarlConfig(),
                                 store=InMemorySessionStore(),
                                 seed=service_seed, linger_seconds=1.0,
                                 sweep_interval=0.25)
    if name == "groupby_skewed":
        service.register_table("sales", {
            "region": np.load(os.path.join(work, "region.npy")
                              ).astype(object),
            "amount": np.load(os.path.join(work, "amount.npy"))})
    elif name == "cluster_job":
        from repro.cluster import Cluster
        from repro.workloads.datasets import GB, load_lines
        with open(os.path.join(work, "records.txt")) as fh:
            lines = fh.read().split("\n")
        cluster = Cluster(n_nodes=JOB_NODES, block_size=JOB_BLOCK_BYTES,
                          seed=service_seed)
        actual = sum(len(line) + 1 for line in lines)
        load_lines(cluster, JOB_PATH, lines,
                   logical_scale=max(1.0, JOB_LOGICAL_GB * GB / actual))
        service.register_cluster("sim", cluster)
    else:
        service.register_dataset(
            "population", np.load(os.path.join(work, "population.npy")))
    return service
