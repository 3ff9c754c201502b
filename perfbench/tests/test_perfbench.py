"""The benchmark's own tests (tiny sizes; about a minute in all).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    """A scratch directory inside the checkout (the benchmark reads and
    writes nothing outside it)."""
    path = ROOT / ".perfbench" / "test-tmp" / uuid.uuid4().hex
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: tuple(spec) for name, spec in layers.METRICS.items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.BY_NAME)
def test_tiny_smoke_every_workload(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--size", "tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc)
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(line["metrics"]) == names
    for metric in SPEC["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    proc = _bench("--workload", "explore-nbac3", "--seed", "0", "--seconds", "1",
                  "--size", "tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_json(proc)
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert "if this layer were free" in proc.stdout
    assert line["metrics"]["sim.build.calls"]["value"] > 0
    assert line["metrics"]["core.detector.calls"]["value"] == 0


def test_corrupted_reference_digest_fails_the_gate(scratch):
    references = {"explore-tiny": {"1": "0" * 64}}
    path = scratch / "references.json"
    path.write_text(json.dumps(references))
    proc = _bench("--workload", "explore-nbac3", "--seed", "1", "--seconds", "1",
                  "--size", "tiny", "--trace", "0", "--references", str(path))
    assert proc.returncode == 1
    line = _last_json(proc)
    assert line["correct"] is False
    assert line["failed"] >= 1
    record = json.loads(
        (ROOT / ".perfbench" / "results" / "explore-nbac3-seed1-trace0.json").read_text()
    )
    assert record["failed"] / record["attempted"] > 0
    assert "FAILED digest" in proc.stdout


def test_tracer_restores_the_original_functions():
    work = ROOT / ".perfbench" / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.make("explore-nbac3", 0, "tiny", str(work))
    workload.setup()
    tracer = Tracer()
    layers.plan(tracer)
    before = tracer.targets()
    assert before
    with tracer:
        assert all(owner.__dict__[name] is not value for owner, name, value in before)
        workload.job()
    assert all(owner.__dict__[name] is value for owner, name, value in before)
    calls = tracer.layers["sim.build"].calls
    assert calls > 0
    workload.job()  # untraced code now runs the originals: nothing counted
    assert tracer.layers["sim.build"].calls == calls


def test_without_program_sources_exits_nonzero_and_prints_nothing(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _bench("--workload", "explore-nbac3", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_differing_native_availability(scratch):
    base = {"workload": "explore-nbac3", "trace": 0, "metrics": {"wall_s": 1.0}}
    paths = []
    for available in (True, False):
        record = dict(base, environment={"native": {"available": available}})
        path = scratch / f"native-{available}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    proc = _bench("--compare", *paths)
    assert proc.returncode == 2
    assert "refused" in proc.stderr
