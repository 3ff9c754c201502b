"""The repo benchmark: one workload, measured end to end or traced per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore-nbac3 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1
    python3 perfbench/run.py --compare A.json B.json

Each run of a workload gets a fresh process (``child.py``).  ``--trace
0`` repeats the workload's fixed job in it while another one still fits
in ``--seconds`` and reports the end-to-end metrics as medians over
jobs (the mean wall clock on workloads in ``QUANTIZED_WALL``); set-up
time is the median over at least :data:`MIN_SETUPS` fresh processes.
``--trace 1`` alternates untraced and traced jobs, reports the
per-layer metrics from the traced ones plus ``trace.overhead_frac``,
and prints the "if this layer were free" report.

Outputs are gated (see ``workloads.py``); a failed check counts toward
``failed`` and makes the command exit 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full record, including the run environment, goes
to ``.perfbench/results/``.  Run without the program's sources next to
it (no ``src/repro``), the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_METRICS, SPAN_LAYERS  # noqa: E402
from workloads import BY_NAME, QUANTIZED_WALL, WORKLOADS  # noqa: E402

#: End-to-end metric -> unit (the BENCHMARK.json list).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "unit_p50_ms": "ms",
    "unit_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

MIN_SETUPS = 7
#: Everything, children included, must be over well inside 180 s.
HARD_LIMIT_S = 165.0

#: cProfile cumulative shares the roadmap measured on nbac n=3 (depth 5,
#: native paths) -- printed beside the traced shares on explore-nbac3.
ROADMAP_SHARES = {"sim.build": 0.18, "sim.host": 0.42, "explore.fingerprint": 0.13}


class Runner:
    """Spawns the child processes of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace, workload: str) -> None:
        self.args = args
        self.workload = workload
        self.work = ROOT / ".perfbench"
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        # Temporary files (the frontier's spawn machinery, stores) stay
        # inside the checkout.
        self.env["TMPDIR"] = str(self.tmp)
        self.deadline = time.monotonic() + HARD_LIMIT_S

    def spawn(self, mode: str, until: float = 0.0) -> Dict[str, Any]:
        """One child process; ``until`` is the monotonic time by which a
        ``job`` child stops starting jobs (0: run one)."""
        out = self.tmp / f"child-{uuid.uuid4().hex}.json"
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, "--mode", mode, "--t0", repr(t0),
            "--until", repr(until),
            "--out", str(out), "--workdir", str(self.tmp),
            "--references", str(self.args.references),
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        _reap_group(proc.pid)
        record: Dict[str, Any] = {"elapsed_s": time.monotonic() - t0}
        try:
            record.update(json.loads(out.read_text()))
            out.unlink()
        except (OSError, ValueError):
            record["error"] = f"child exited {proc.returncode} without a result"
        return record


def _reap_group(pgid: int) -> None:
    """Kill whatever the child left in its session and wait for it."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _quantile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def _tally(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Attempted/failed units over every child record: each check of
    each job, and each child that died or raised, is one unit."""
    attempted = failed = 0
    failures = []
    for record in records:
        if "error" in record:
            attempted += 1
            failed += 1
            failures.append(record["error"].strip().splitlines()[-1])
            continue
        for job in record["jobs"]:
            for name, ok, detail in job["checks"]:
                attempted += 1
                if not ok:
                    failed += 1
                    failures.append(f"{name}: {detail}")
    return {"attempted": attempted, "failed": failed, "failures": failures}


def measure(runner: Runner, seconds: float) -> Dict[str, Any]:
    """Untraced jobs while another fits in ``seconds``; end-to-end metrics."""
    runner.spawn("setup")  # warm-up: byte-compiles the checkout, unmeasured
    records = [runner.spawn("job", until=time.monotonic() + seconds)]
    jobs = records[0].get("jobs", [])
    setups = [records[0]["setup_s"]] if jobs else []
    while jobs and len(setups) < MIN_SETUPS:
        records.append(runner.spawn("setup"))
        if "error" in records[-1]:
            break
        setups.append(records[-1]["setup_s"])
    units = [u for j in jobs for u in j["units_s"]]
    if jobs and not units:
        records.append({"error": "no unit of work was timed"})
    result: Dict[str, Any] = {"jobs": len(jobs), **_tally(records)}
    if not units:
        return result
    result["job_walls_s"] = [j["wall_s"] for j in jobs]
    average = statistics.fmean if runner.workload in QUANTIZED_WALL else statistics.median
    result["unit_samples"] = len(units)
    result["setup_samples"] = len(setups)
    result["native"] = records[0]["native"]
    result["digests"] = sorted({j["digest"] for j in jobs if j["digest"]})
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_s": average(j["wall_s"] for j in jobs),
        "unit_p50_ms": _quantile(units, 0.5) * 1000.0,
        "unit_p90_ms": _quantile(units, 0.9) * 1000.0,
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "peak_rss_mb": records[0]["peak_rss_mb"],
    }
    return result


def trace(runner: Runner, seconds: float) -> Dict[str, Any]:
    """Alternating untraced/traced jobs; per-layer metrics and overhead."""
    runner.spawn("setup")
    start = time.monotonic()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    order = ("job", "traced")
    while True:
        pair_start = time.monotonic()
        for mode in order:
            (plain if mode == "job" else traced).append(runner.spawn(mode))
        order = order[::-1]
        if any("error" in r for r in plain + traced):
            break
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - pair_start) > seconds:
            break
    result: Dict[str, Any] = {"jobs": len(plain) + len(traced), **_tally(plain + traced)}
    good_plain = [r for r in plain if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    if not (good_plain and good_traced):
        return result
    untraced_wall = statistics.median(r["jobs"][0]["wall_s"] for r in good_plain)
    traced_wall = statistics.median(r["jobs"][0]["wall_s"] for r in good_traced)
    metrics = {
        name: statistics.median(r["layers"][name] for r in good_traced)
        for name in good_traced[0]["layers"]
    }
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    result["native"] = good_traced[0]["native"]
    result["metrics"] = {name: metrics[name] for name in LAYER_METRICS}
    result["untraced_wall_s"] = untraced_wall
    result["traced_wall_s"] = traced_wall
    result["inclusive"] = {
        layer: statistics.median(r["inclusive"][layer] for r in good_traced)
        for layer in SPAN_LAYERS
    }
    results = runner.work / "results"
    results.mkdir(parents=True, exist_ok=True)
    result["spans_files"] = []
    for index, record in enumerate(good_traced):
        path = results / f"{runner.workload}-seed{runner.args.seed}-spans{index}.json"
        os.replace(record["spans_file"], path)
        result["spans_files"].append(str(path))
    result["what_if"] = what_if(untraced_wall, metrics)
    return result


def what_if(untraced_wall: float, metrics: Dict[str, float]) -> List[Dict[str, Any]]:
    """Amdahl yardstick per layer: the wall clock if its self time were
    zero, and the speed-up that would buy (observed wall / predicted)."""
    rows = []
    for layer in SPAN_LAYERS:
        share = metrics[f"{layer}.self_frac"]
        predicted = untraced_wall * (1.0 - share)
        rows.append(
            {
                "layer": layer,
                "observed_wall_s": untraced_wall,
                "self_share": share,
                "predicted_wall_s": predicted,
                "max_speedup": untraced_wall / predicted if predicted > 0 else float("inf"),
            }
        )
    return sorted(rows, key=lambda row: -row["self_share"])


def environment(before: tuple) -> Dict[str, Any]:
    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(before),
        "loadavg_after": list(os.getloadavg()),
        "git_commit": None,
    }
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    env["source_digest"] = digest.hexdigest()
    return env


def _print_summary(workload: str, trace_on: bool, result: Dict[str, Any]) -> None:
    out = sys.stdout
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"== {workload} seed={result['seed']} trace={int(trace_on)} "
          f"jobs={result['jobs']}", file=out)
    for failure in result["failures"]:
        print(f"   FAILED {failure}", file=out)
    print(f"   failure_rate = {rate:.4f} ({result['failed']}/{result['attempted']} units)", file=out)
    if not trace_on:
        for name, value in result.get("metrics", {}).items():
            extra = ""
            if name.startswith("unit_"):
                extra = f"  (n={result['unit_samples']})"
            elif name == "setup_s":
                extra = f"  (n={result['setup_samples']})"
            print(f"   {name} = {value:.6g} {END_TO_END[name]}{extra}", file=out)
        return
    if "what_if" not in result:
        return
    print(f"   untraced wall {result['untraced_wall_s']:.4g} s, traced wall "
          f"{result['traced_wall_s']:.4g} s, overhead "
          f"{result['metrics']['trace.overhead_frac']:+.1%}", file=out)
    print("   if this layer were free (Amdahl, self time at zero):", file=out)
    print(f"   {'layer':<22}{'calls':>10}{'self':>8}{'incl':>8}"
          f"{'wall s':>9}{'free s':>9}{'max x':>8}", file=out)
    for row in result["what_if"]:
        layer = row["layer"]
        note = ""
        if workload == "explore-nbac3" and layer in ROADMAP_SHARES:
            note = f"  roadmap cProfile {ROADMAP_SHARES[layer]:.0%}"
        print(
            f"   {layer:<22}{result['metrics'][layer + '.calls']:>10.0f}"
            f"{row['self_share']:>8.1%}{result['inclusive'][layer]:>8.1%}"
            f"{row['observed_wall_s']:>9.3f}{row['predicted_wall_s']:>9.3f}"
            f"{row['max_speedup']:>8.2f}{note}",
            file=out,
        )
    in_table = {f"{layer}.{k}" for layer in SPAN_LAYERS for k in ("calls", "self_s", "self_frac")}
    for name, (unit, _) in LAYER_METRICS.items():
        if name not in in_table:
            print(f"   {name} = {result['metrics'][name]:.6g} {unit}", file=out)


def run_workload(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    before = os.getloadavg()
    runner = Runner(args, workload)
    result = (trace if args.trace else measure)(runner, args.seconds)
    result.update({"workload": workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "size": args.size})
    result["environment"] = environment(before)
    result["environment"]["native"] = result.get("native")
    results = runner.work / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    _print_summary(workload, bool(args.trace), result)
    return result


def _line(result: Dict[str, Any], units: Dict[str, str], prefix: str = "") -> Dict[str, Any]:
    metrics = result.get("metrics", {})
    return {
        "correct": result["failed"] == 0 and "metrics" in result,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"] if "metrics" in result else max(1, result["failed"]),
        "metrics": {prefix + name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def compare(first: str, second: str) -> int:
    """Metric ratios between two result records; refuses records whose
    native-extension availability differs (they measure different code)."""
    a, b = (json.loads(Path(p).read_text()) for p in (first, second))
    native = [(r.get("environment", {}).get("native") or {}).get("available") for r in (a, b)]
    if native[0] != native[1]:
        print(f"refused: native extension available={native[0]} vs {native[1]}; "
              "these runs measure different code paths", file=sys.stderr)
        return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refused: different workloads or trace modes", file=sys.stderr)
        return 2
    for name, value in a.get("metrics", {}).items():
        other = b.get("metrics", {}).get(name)
        ratio = other / value if other is not None and value else float("nan")
        print(f"{name:<40}{value:>14.6g}{other if other is not None else float('nan'):>14.6g}{ratio:>9.3f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + BY_NAME + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--references", default=str(HERE / "references.json"))
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()} if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for workload in names:
        result = run_workload(args, workload)
        prefix = f"{workload}/" if args.workload == "all" else ""
        lines.append(_line(result, units, prefix))
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {k: v for line in lines for k, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
