"""Benchmark server: the service in its own process behind ServiceServer.

Usage (started by ``run.py``, not by hand)::

    python3 perfbench/server.py --workload NAME --work DIR \
        --service-seed N [--trace-out FILE]

It registers the workload's generated inputs, starts listening on a
free loopback port and prints ``{"port": N}``.  It serves until its
standard input closes, then stops the service and prints
``{"peak_rss_mb": X, "cpu_s": Y}``.  With ``--trace-out`` the layer
wrappers of ``tracing.py`` are installed before anything is built, and
the spans are written there as Chrome trace-event JSON on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


async def serve(args: argparse.Namespace) -> None:
    recorder = None
    if args.trace_out:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    from repro.service import ServiceServer

    service = workloads.build_service(args.workload, args.work,
                                      args.service_seed)
    await service.start()
    server = ServiceServer(service)
    await server.start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    try:
        # Serve until the load generator closes our standard input.
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.buffer.read)
    finally:
        await server.stop()
        await service.stop()
    if recorder is not None:
        tracing.write_chrome(args.trace_out,
                             recorder.chrome_events(os.getpid()))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"peak_rss_mb": usage.ru_maxrss / 1024.0,
                      "cpu_s": usage.ru_utime + usage.ru_stime}),
          flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--service-seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
