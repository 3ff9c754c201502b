"""One fresh benchmark process: set up a workload, then run its job.

Started by ``run.py``, never by hand.  Modes:

* ``setup``  -- set up and exit (the set-up-time probes);
* ``job``    -- set up, then run the fixed job with only the per-unit
  clock installed, checking each job's outputs, while another job is
  expected to end before ``--until`` (at least once);
* ``traced`` -- set up and run the job once with every layer wrapper
  installed for its duration (and removed before the check runs).

In ``job`` mode the per-unit clock also runs inside any worker process
the job spawns (the frontier's): the ``spawn`` start method imports
this file in each new worker as ``__mp_main__``, which installs the
same ``System.run`` timer there when :data:`WORKER_UNITS_ENV` names a
directory, and the worker leaves its durations in that directory as it
exits.

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start-up, imports and
case/spec/store construction.  The result is one JSON file at ``--out``;
a traced job also writes its span log next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List

#: Environment variable naming the directory where spawned workers
#: leave their unit durations (``units-<pid>.json``).
WORKER_UNITS_ENV = "PERFBENCH_WORKER_UNITS"


def _worker_clock(directory: str) -> None:
    """In a spawned worker: time every ``System.run`` until the worker
    exits, then write the durations to ``directory``."""
    import multiprocessing.util

    from repro.sim.system import System
    from tracing import Tracer

    tracer = Tracer()
    tracer.timer((System, "run"))
    tracer.__enter__()

    def dump() -> None:
        tracer.__exit__(None, None, None)
        path = os.path.join(directory, f"units-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(tracer.durations, handle)

    # Runs when the worker's target returns (a drained queue), before
    # the process exits.
    multiprocessing.util.Finalize(None, dump, exitpriority=10)


def _worker_units(directory: str) -> List[float]:
    """Collect (and remove) the durations the job's workers left."""
    durations: List[float] = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path) as handle:
            durations.extend(json.load(handle))
        os.unlink(path)
    return durations


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process's peak plus the
    # largest reaped child's (frontier workers).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _job(workload: Any, tracer: Any, references: Dict, units_dir: str = "") -> tuple:
    """Run the fixed job once under ``tracer``; its record and outcome.
    ``units_dir`` is where the job's workers leave their unit times."""
    cpu0 = _cpu()
    with tracer:
        outcome = workload.job()
    record = {
        "wall_s": tracer.wall_s,
        "cpu_s": _cpu() - cpu0,
        "units_s": tracer.durations + (_worker_units(units_dir) if units_dir else []),
        "checks": workload.check(outcome, references),
        "digest": workload.digest(outcome),
    }
    return record, outcome


def run(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads
    from tracing import Tracer

    with open(args.references) as handle:
        references = json.load(handle)
    workload = workloads.make(args.workload, args.seed, args.size, args.workdir)
    workload.setup()
    record: Dict[str, Any] = {"setup_s": time.monotonic() - args.t0, "jobs": []}
    from repro import _native

    record["native"] = _native.status()
    if args.mode == "traced":
        import layers

        tracer = Tracer()
        tallies = layers.plan(tracer)
        job, outcome = _job(workload, tracer, references)
        job["checks"].append(
            ("tracer-restored", not tracer.installed, "wrappers removed after the job")
        )
        record["jobs"].append(job)
        record["layers"] = layers.metrics(tracer, tallies, workload.counters(outcome))
        record["inclusive"] = layers.inclusive(tracer)
        record["spans_file"] = args.out + ".spans.json"
        with open(record["spans_file"], "w") as handle:
            json.dump(
                {"columns": ["id", "parent", "layer", "start", "end"],
                 "spans": tracer.spans},
                handle,
            )
    elif args.mode == "job":
        units_dir = args.out + ".units"
        os.makedirs(units_dir)
        os.environ[WORKER_UNITS_ENV] = units_dir
        # Repeat while another job is expected to end before --until.
        while True:
            tracer = Tracer()
            tracer.timer(workload.unit_target())
            record["jobs"].append(_job(workload, tracer, references, units_dir)[0])
            typical = statistics.median(j["wall_s"] for j in record["jobs"])
            if time.monotonic() + typical > args.until:
                break
        os.rmdir(units_dir)
    record["peak_rss_mb"] = _peak_rss_mb()
    workload.close()
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "job", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--references", required=True)
    args = parser.parse_args()
    try:
        record = run(args)
    except Exception:  # noqa: BLE001 -- reported to the parent as a failed unit
        record = {"error": traceback.format_exc()[-4000:]}
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0 if "error" not in record else 1


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get(WORKER_UNITS_ENV):
    _worker_clock(os.environ[WORKER_UNITS_ENV])
