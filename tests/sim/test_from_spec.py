"""System.from_spec and the trace modes it rides on.

A System built from a RunSpec must behave byte-for-byte like one built
by hand, and the lite trace mode must agree with the full one on every
digest-bearing observation.
"""

from repro.core.failure_pattern import FailurePattern
from repro.sim.network import NETWORK_ENGINES, resolve_network_engine
from repro.sim.system import System, SystemBuilder, decided
from repro.sim.trace import RunTrace

from tests.runner import helpers


def _hand_built(n=4, seed=0, f=1, horizon=60_000, trace_mode="full"):
    return System(
        n=n,
        seed=seed,
        horizon=horizon,
        pattern=FailurePattern(n, {pid: 1 + 2 * pid for pid in range(f)}),
        component_factories=[
            ("consensus", helpers.consensus_factory(n)),
        ],
        detector=helpers.omega_sigma_oracle(),
        trace_mode=trace_mode,
    )


class TestFromSpec:
    def test_matches_hand_built_system(self):
        spec = helpers.consensus_spec(f=1, trace_mode="full")
        from_spec = System.from_spec(spec)
        manual = _hand_built(f=1)

        t1 = from_spec.run(stop_when=decided("consensus"))
        t2 = manual.run(stop_when=decided("consensus"))

        assert t1.digest() == t2.digest()
        assert t1.final_time == t2.final_time
        assert [
            (d.pid, d.time, repr(d.value)) for d in t1.decisions
        ] == [(d.pid, d.time, repr(d.value)) for d in t2.decisions]

    def test_spec_trace_mode_is_honoured(self):
        lite_sys = System.from_spec(helpers.consensus_spec(trace_mode="lite"))
        full_sys = System.from_spec(helpers.consensus_spec(trace_mode="full"))
        assert lite_sys.trace.mode == "lite"
        assert full_sys.trace.mode == "full"

    def test_engine_pin_selects_the_network(self):
        spec = helpers.consensus_spec()
        for engine in NETWORK_ENGINES:
            system = System.from_spec(spec.with_(engine=engine))
            assert type(system.network) is resolve_network_engine(engine)

    def test_unknown_engine_rejected_naming_the_valid_ones(self):
        import pytest

        for engine in ("native", "bogus"):
            with pytest.raises(ValueError, match="'indexed', 'reference'"):
                helpers.consensus_spec().with_(engine=engine)
            with pytest.raises(ValueError, match="'indexed', 'reference'"):
                resolve_network_engine(engine)


class TestTraceModes:
    def test_lite_and_full_agree_on_digest_and_counts(self):
        runs = {}
        for mode in ("lite", "full"):
            system = _hand_built(trace_mode=mode)
            trace = system.run(stop_when=decided("consensus"))
            runs[mode] = trace

        lite, full = runs["lite"], runs["full"]
        assert lite.digest() == full.digest()
        assert lite.step_count() == full.step_count()
        assert len(lite.decisions) == len(full.decisions)
        assert lite.messages_sent == full.messages_sent
        assert lite.messages_delivered == full.messages_delivered

    def test_lite_mode_drops_step_objects(self):
        system = _hand_built(trace_mode="lite")
        trace = system.run(stop_when=decided("consensus"))
        assert trace.steps == []
        assert trace.step_count() > 0

    def test_builder_trace_mode_fluent(self):
        system = (
            SystemBuilder(n=3, seed=1)
            .trace_mode("lite")
            .component("consensus", helpers.consensus_factory(3))
            .build()
        )
        assert system.trace.mode == "lite"

    def test_invalid_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            RunTrace(FailurePattern(3, {}), horizon=10, mode="verbose")


class TestIncrementalAliveLoop:
    """The run loop tracks the alive set incrementally; crash timing
    edge cases must match FailurePattern.crashed pointwise."""

    def _alive_per_step(self, pattern, horizon=8):
        system = System(
            n=pattern.n,
            seed=0,
            horizon=horizon,
            pattern=pattern,
            component_factories=[],
        )
        observed = {}
        original = system.scheduler.pick

        def spy(alive, now, rng):
            observed[now] = list(alive)
            return original(alive, now, rng)

        system.scheduler.pick = spy
        system.run()
        return observed

    def test_matches_pointwise_crashed_queries(self):
        pattern = FailurePattern(5, {1: 3, 3: 5, 4: 1})
        observed = self._alive_per_step(pattern)
        for t, alive in observed.items():
            expected = [p for p in range(5) if not pattern.crashed(p, t)]
            assert alive == expected, f"divergence at t={t}"

    def test_crash_at_time_zero_never_scheduled(self):
        pattern = FailurePattern(3, {0: 0})
        observed = self._alive_per_step(pattern)
        for t, alive in observed.items():
            assert 0 not in alive, f"pid 0 scheduled at t={t}"

    def test_all_crashed_halts_early(self):
        pattern = FailurePattern(2, {0: 1, 1: 2})
        system = System(
            n=2, seed=0, horizon=1000, pattern=pattern, component_factories=[]
        )
        trace = system.run()
        assert trace.stop_reason == "all-crashed"
        assert trace.final_time < 1000
