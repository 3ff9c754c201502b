"""Which public functions make up each layer, and the per-layer metrics.

:func:`plan` wires a :class:`~tracing.Tracer` with one span per layer
boundary, the counters the ratios need, and an observer that sums the
perf counters every ``System`` carries.  Every workload gets the same
plan, so a layer a workload never enters reports zero calls — which is
itself the prediction ("no move on this workload") for that layer.

Frontier walks run in spawned worker processes that a wrapper in the
coordinator cannot reach; on ``frontier-nbac3`` the layer numbers are
the coordinator's own spans plus the counts the frontier's accounting
block returns.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List

from tracing import Tracer, subclasses_defining

#: Span layers, in report order.
SPAN_LAYERS = (
    "sim.build",
    "sim.run",
    "sim.host",
    "sim.network.send",
    "sim.network.pick",
    "sim.delivery.choose",
    "core.detector",
    "explore.fingerprint",
    "qc.cht.simulate",
    "qc.cht.forest",
    "runner.job",
    "analysis.check",
    "store.coord",
)

#: Per-layer metric name -> (unit, better).  ``<layer>.calls``,
#: ``.self_s`` and ``.self_frac`` exist for every span layer.
METRICS: Dict[str, tuple] = {}
for _layer in SPAN_LAYERS:
    METRICS[f"{_layer}.calls"] = ("count", "lower")
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
    METRICS[f"{_layer}.self_frac"] = ("fraction", "lower")
METRICS.update(
    {
        "sim.ticks": ("count", "lower"),
        "sim.network.scanned_per_delivery": ("ratio", "lower"),
        "core.detector.hit_rate": ("fraction", "higher"),
        "explore.fp_nodes": ("count", "lower"),
        "explore.runs": ("count", "lower"),
        "explore.states": ("count", "lower"),
        "explore.replay_frac": ("fraction", "lower"),
        "explore.dedup_hit_frac": ("fraction", "higher"),
        "qc.cht.simulate.decided_frac": ("fraction", "higher"),
        "qc.cht.virtual_steps": ("count", "lower"),
        "store.claims": ("count", "lower"),
        "store.claim_round_trips": ("count", "lower"),
        "store.claims_per_round_trip": ("ratio", "higher"),
        "store.heartbeats": ("count", "lower"),
        "store.exchange_pulls": ("count", "lower"),
        "store.busy_retries": ("count", "lower"),
        "frontier.respawns": ("count", "lower"),
        "frontier.quarantined": ("count", "lower"),
        "trace.overhead_frac": ("fraction", "lower"),
    }
)

_SIM_COUNTERS = (
    "ticks",
    "messages_scanned",
    "messages_delivered",
    "detector_value_calls",
    "detector_cache_hits",
)

_CHECK_MODULES = ("repro.core.specs", "repro.registers.linearizability")


def _checkers() -> List[Any]:
    found = []
    for module_name in _CHECK_MODULES:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if (
                name.startswith("check_")
                and callable(value)
                and getattr(value, "__module__", None) == module_name
            ):
                found.append(value)
    return found


def plan(tracer: Tracer) -> Dict[str, Any]:
    """Wire every layer boundary into ``tracer``; returns the mutable
    tallies its observers fill while the run is traced."""
    from repro.core.history import FailureDetectorHistory
    from repro.explore.cases import build_system
    from repro.explore.control import ChoiceController
    from repro.explore.state import FingerprintEngine
    from repro.qc.cht.forest import SimulationForest
    from repro.qc.cht.simulation import VirtualRuntime, simulate_run
    from repro.runner.executor import execute_job_guarded
    from repro.sim.network import DeliveryPolicy, Network
    from repro.sim.process import ProcessHost
    from repro.sim.system import System
    from repro.store.db import ResultStore

    tallies: Dict[str, Any] = {name: 0 for name in _SIM_COUNTERS}
    tallies.update({"simulate_calls": 0, "simulate_decided": 0})

    def on_run(args: tuple, kwargs: dict, trace: Any) -> None:
        perf = args[0].perf
        for name in _SIM_COUNTERS:
            tallies[name] += getattr(perf, name)

    def on_simulate(args: tuple, kwargs: dict, result: Any) -> None:
        tallies["simulate_calls"] += 1
        tallies["simulate_decided"] += bool(result[2])

    tracer.span("sim.build", build_system)
    tracer.span("sim.run", (System, "run"))
    tracer.observe((System, "run"), on_run)
    tracer.span("sim.host", (ProcessHost, "take_step"))
    for cls in subclasses_defining(Network, "send"):
        tracer.span("sim.network.send", (cls, "send"))
    for cls in subclasses_defining(Network, "pick_for"):
        tracer.span("sim.network.pick", (cls, "pick_for"))
    for cls in subclasses_defining(DeliveryPolicy, "choose"):
        tracer.span("sim.delivery.choose", (cls, "choose"))
    for cls in subclasses_defining(FailureDetectorHistory, "value"):
        tracer.span("core.detector", (cls, "value"))
    tracer.span("explore.fingerprint", (FingerprintEngine, "fingerprint"))
    tracer.count("explore.choices", (ChoiceController, "choose"))
    tracer.span("qc.cht.simulate", simulate_run)
    tracer.observe(simulate_run, on_simulate)
    tracer.span("qc.cht.forest", (SimulationForest, "extend_all"))
    tracer.count("qc.cht.virtual_steps", (VirtualRuntime, "step"))
    tracer.span("runner.job", execute_job_guarded)
    for checker in _checkers():
        tracer.span("analysis.check", checker)
    for name, value in vars(ResultStore).items():
        if not name.startswith("_") and type(value).__name__ == "function":
            tracer.span("store.coord", (ResultStore, name))
    return tallies


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, tallies: Dict[str, Any], counts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac`` (which needs
    the untraced run); ``counts`` are the outcome's own layer counts."""
    out: Dict[str, float] = {}
    wall = tracer.wall_s
    for layer in SPAN_LAYERS:
        stats = tracer.layers[layer]
        out[f"{layer}.calls"] = stats.calls
        out[f"{layer}.self_s"] = stats.self_s
        out[f"{layer}.self_frac"] = _ratio(stats.self_s, wall)
    out["sim.ticks"] = tallies["ticks"]
    out["sim.network.scanned_per_delivery"] = _ratio(
        tallies["messages_scanned"], tallies["messages_delivered"]
    )
    out["core.detector.hit_rate"] = _ratio(
        tallies["detector_cache_hits"], tallies["detector_value_calls"]
    )
    for name in (
        "explore.fp_nodes", "explore.runs", "explore.states",
        "store.claims", "store.claim_round_trips",
        "store.claims_per_round_trip", "store.heartbeats",
        "store.exchange_pulls", "store.busy_retries",
        "frontier.respawns", "frontier.quarantined",
    ):
        out[name] = counts.get(name, 0)
    out["explore.replay_frac"] = _ratio(
        counts.get("explore.replay_steps", 0), tracer.counts["explore.choices"]
    )
    out["explore.dedup_hit_frac"] = _ratio(
        counts.get("explore.dedup_hits", 0), counts.get("explore.runs", 0)
    )
    out["qc.cht.simulate.decided_frac"] = _ratio(
        tallies["simulate_decided"], tallies["simulate_calls"]
    )
    out["qc.cht.virtual_steps"] = tracer.counts["qc.cht.virtual_steps"]
    return out


def inclusive(tracer: Tracer) -> Dict[str, float]:
    """Inclusive share of the traced wall per layer (cProfile's
    "cumulative" column, for comparison with profiles)."""
    return {
        layer: _ratio(tracer.layers[layer].incl_s, tracer.wall_s)
        for layer in SPAN_LAYERS
    }
