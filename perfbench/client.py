"""One round of a workload, run in a fresh process.

Usage: python3 client.py PLAN.json RESULT.json  (working directory: the
workload's work directory)

The plan names the package source directory, the manifest, and the CLI
invocations to run in order.  The client times the import of
``separability.cli`` plus loading the manifest (the set-up every command
pays), then runs each invocation through ``separability.cli.main`` and
records its exit code, wall time and, for ``analyze``, the user+system
CPU time of this process and of the workers it reaped.  With
``"trace": true`` it wraps the layer boundaries first (see tracer.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _maxrss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    t0 = time.perf_counter()
    import separability.cli as cli
    from separability.dataset import load_manifest

    load_manifest(plan["manifest"])
    result = {"setup_s": time.perf_counter() - t0, "commands": []}

    tracer = None
    if plan.get("trace"):
        sys.path.insert(0, plan["bench"])
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())

    for argv in plan["commands"]:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        result["commands"].append(
            {"command": argv[0], "rc": rc, "wall_s": wall, "cpu_s": _cpu_s() - cpu0})
    result["maxrss_mb"] = _maxrss_mb()
    if tracer is not None:
        result["trace"] = tracing.report(tracer)

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
