"""The benchmark workloads: set-up, the fixed job, and its gate.

Every workload runs the defaults a user of the CLIs gets: the
``indexed`` network engine, ``incremental`` fingerprints, POR and dedup
on, no symmetry reduction, the serial runner and no result cache.
Whatever state the checkout's optional native extension is in is what
gets measured.

A workload object is built in a fresh process by :func:`make`; its
:meth:`setup` does everything before the first unit of work (imports,
case/spec/store construction), :meth:`job` runs the fixed job once, and
:meth:`check` turns the job's outcome into gate results.  The *unit*
is what ``unit_p50_ms``/``unit_p90_ms`` time, by wrapping
:meth:`unit_target` from outside:

* ``explore-nbac3``: one controlled ``System.run``;
* ``frontier-nbac3``: one controlled ``System.run`` in a spawned
  worker (``child.py`` installs the same clock in each worker);
* ``fuzz-clean``: one ``runner.executor.execute_job_guarded`` job;
* ``cht-psi``: one ``qc.cht.simulation.simulate_run`` call, a
  simulated run of algorithm A inside the Psi extraction.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Tuple

#: The workloads ``BENCHMARK.json`` lists (and ``--workload all`` runs).
WORKLOADS = ("explore-nbac3", "frontier-nbac3", "fuzz-clean")

#: Workloads that run by name only.  ``cht-psi`` is not steady enough
#: to gate on: on the 2-core VM the benchmark was written on, the same
#: job took 1.0 s in one run and 2.1 s a few minutes later, and ten
#: seeds gave a quartile spread of 29% of the median on ``wall_s`` and
#: 36% on ``unit_p50_ms`` where the other workloads stayed near 10%.
BY_NAME = ("cht-psi",)

#: The campaign of ``fuzz-clean`` is the one ``generate_cases`` draws
#: for this fuzz seed; the benchmark seed only fixes the order its cases
#: run in.  A campaign's cost sits in its few long partitioned
#: Chandra-Toueg cases: drawing the campaign from the benchmark seed
#: swings its wall clock 4x between seeds, and even re-seeding just the
#: cases' simulations moves unit_p90_ms by 35% between seeds (25 units
#: leave the 90th percentile among the three or four slowest).  Fuzz
#: seed 2's first five rounds (25 cases, about 5 s) spread that cost
#: over four 0.8-1.6 s partitioned cases; seed 0's eight rounds spend
#: 10 of their 19 s in one case, which leaves one job, and one sample
#: of that case, per run.
FUZZ_CAMPAIGN_SEED = 2

#: Workloads whose job wall clock is quantized, reported as the mean
#: over a run's jobs instead of the median.  The frontier's coordinator
#: notices the drained queue only when its ramping poll fires (every
#: ``lease_ttl / 4`` = 1.25 s at the default TTL once ramped), so a
#: depth-6 job takes either about 4.7 s or about 5.9 s and nothing
#: between: the median of a handful of such jobs jumps by a whole poll
#: step when the share of late ones crosses a half, while the mean
#: moves with that share.
QUANTIZED_WALL = ("frontier-nbac3",)

#: Full-size and test-size parameters.  ``tiny`` exists for the
#: benchmark's own smoke tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "explore_depth": 6,
        "fuzz_rounds": 5,
        "fuzz_horizon": 40_000,
    },
    "tiny": {
        "explore_depth": 3,
        "fuzz_rounds": 1,
        "fuzz_horizon": 2_000,
    },
}

Check = Tuple[str, bool, str]


def vectors_digest(vectors) -> str:
    """Order-free digest of an exploration's decision-vector set."""
    canonical = sorted([list(entry) for entry in vector] for vector in vectors)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def summaries_digest(digests: List[str]) -> str:
    """Digest over a campaign's per-job ``stable_digest`` values, in order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


class Workload:
    """One workload in one process: ``setup`` once, then ``job`` and
    ``check`` per repetition, ``close`` at the end."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.full = size == "full"
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> Any:
        raise NotImplementedError

    def check(self, outcome: Any, references: Dict) -> List[Check]:
        raise NotImplementedError

    def unit_target(self) -> Any:
        raise NotImplementedError

    def counters(self, outcome: Any) -> Dict[str, float]:
        """Layer counts the outcome itself carries (explore/frontier)."""
        return {}

    def digest(self, outcome: Any) -> Optional[str]:
        return None

    def close(self) -> None:
        pass

    def pin_check(self, kind: str, digest: str, references: Dict) -> Check:
        """The output digest against the one pinned for this seed (and
        size: ``tiny`` pins live under ``<kind>-tiny``).  A seed with no
        pin passes on its structural checks alone."""
        if not self.full:
            kind += "-tiny"
        pinned = references.get(kind, {}).get(str(self.seed))
        if pinned is None:
            return ("digest", True, f"seed {self.seed} has no pinned {kind} digest")
        return ("digest", digest == pinned, f"{digest[:16]} vs pinned {pinned[:16]}")


class ExploreNbac(Workload):
    """The replay wall: the bounded model checker on NBAC, n=3, depth 6."""

    name = "explore-nbac3"

    def setup(self) -> None:
        from repro.explore.cases import ExploreCase
        from repro.explore.engine import explore_case

        self._explore = explore_case
        self.case = ExploreCase(
            "nbac", n=3, depth=self.size["explore_depth"], seed=self.seed
        )

    def job(self) -> Any:
        return self._explore(self.case)

    def unit_target(self) -> Any:
        from repro.sim.system import System

        return (System, "run")

    def digest(self, outcome: Any) -> Optional[str]:
        return vectors_digest(outcome.decision_vectors)

    def check(self, outcome: Any, references: Dict) -> List[Check]:
        return [
            ("complete", outcome.complete, f"{outcome.runs} runs"),
            ("no-violations", not outcome.violations,
             f"{len(outcome.violations)} violations"),
            self.pin_check("explore", self.digest(outcome), references),
        ]

    def counters(self, outcome: Any) -> Dict[str, float]:
        c = outcome.counters
        return {
            "explore.fp_nodes": c.explore_fp_nodes,
            "explore.runs": outcome.runs,
            "explore.states": outcome.states,
            "explore.replay_steps": c.explore_replay_steps,
            "explore.dedup_hits": outcome.dedup_hits,
        }


class FrontierNbac(ExploreNbac):
    """The same search through the crash-tolerant dynamic frontier, two
    spawned workers sharing a private temporary store."""

    name = "frontier-nbac3"

    def setup(self) -> None:
        super().setup()
        from repro.explore.frontierd import explore_case_dynamic
        from repro.store.db import ResultStore

        self._explore_dynamic = explore_case_dynamic
        self._dir = tempfile.mkdtemp(prefix="frontier-", dir=self.workdir)
        self.store = ResultStore(self._dir)

    def job(self) -> Any:
        return self._explore_dynamic(
            self.case, workers=2, store=self.store
        )

    def check(self, outcome: Any, references: Dict) -> List[Check]:
        checks = super().check(outcome, references)
        quarantined = outcome.frontier.get("quarantined", 0)
        checks.append(("no-quarantine", not quarantined, f"{quarantined} quarantined"))
        return checks

    def counters(self, outcome: Any) -> Dict[str, float]:
        counts = super().counters(outcome)
        f = outcome.frontier
        rounds = f.get("claim_round_trips", 0)
        counts.update(
            {
                "store.claims": f.get("claims", 0),
                "store.claim_round_trips": rounds,
                "store.claims_per_round_trip": (
                    f.get("claims", 0) / rounds if rounds else 0.0
                ),
                "store.heartbeats": f.get("heartbeats", 0),
                "store.exchange_pulls": f.get("exchange_pulls", 0),
                "store.busy_retries": f.get("store_busy_retries", 0),
                "frontier.respawns": f.get("respawns", 0),
                "frontier.quarantined": f.get("quarantined", 0),
            }
        )
        return counts

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self._dir, ignore_errors=True)


class _CampaignWorkload(Workload):
    """A list of runner specs through ``runner.Campaign``, serially."""

    def unit_target(self) -> Any:
        from repro.runner.executor import execute_job_guarded

        return execute_job_guarded

    def job(self) -> Any:
        return self._campaign.run(workers=1, cache=False)


class FuzzClean(_CampaignWorkload):
    """The chaos campaign path on the clean targets, n=4, no shrinking:
    ``generate_cases`` -> ``runner.Campaign`` -> ``violated_safety``."""

    name = "fuzz-clean"

    def setup(self) -> None:
        from repro.chaos.fuzz import generate_cases
        from repro.chaos.targets import CLEAN_TARGETS, build_spec, violated_safety
        from repro.runner import Campaign

        self._violated = violated_safety
        self.cases = generate_cases(
            CLEAN_TARGETS,
            self.size["fuzz_rounds"],
            FUZZ_CAMPAIGN_SEED,
            4,
            self.size["fuzz_horizon"],
        )
        random.Random(self.seed).shuffle(self.cases)
        self._campaign = Campaign(
            (build_spec(case) for case in self.cases), name="chaos-fuzz"
        )

    def digest(self, outcome: Any) -> Optional[str]:
        return summaries_digest([s.stable_digest() for s in outcome.summaries])

    def check(self, outcome: Any, references: Dict) -> List[Check]:
        checks = []
        for case, summary in zip(self.cases, outcome.summaries):
            label = f"{case.target}#{case.seed}"
            if summary.failed:
                checks.append((label, False, f"job failure: {summary.kind}"))
                continue
            violated = self._violated(case, summary.metrics)
            checks.append((label, not violated, f"violated {violated}" if violated else "safe"))
        checks.append(self.pin_check("fuzz", self.digest(outcome), references))
        return checks


class ChtPsi(_CampaignWorkload):
    """E5's Figure 3 scenarios: extracting Psi from the Psi-based QC
    algorithm through the CHT simulation forest."""

    name = "cht-psi"

    def unit_target(self) -> Any:
        # Four scenarios are too few units for a percentile (the median
        # would fall between a 0.2 s and a 9 s scenario); the thousands
        # of simulated runs of A inside the extraction are not.
        from repro.qc.cht.simulation import simulate_run

        return simulate_run

    def setup(self) -> None:
        from repro.core.detectors.psi import FS_BRANCH, OMEGA_SIGMA_BRANCH
        from repro.core.failure_pattern import FailurePattern
        from repro.experiments.e05_extract_psi import case_spec
        from repro.runner import Campaign

        # E5's table, in E5's order: (oracle branch, pattern, horizon),
        # at a quarter of E5's horizons.  Extraction cost grows faster
        # than the horizon: E5's own horizons make one 13-24 s job, one
        # sample per run on a host whose speed drifts by minutes; a
        # quarter makes a 1.5-2.5 s job that still passes check_psi on
        # the expected branch for every seed tried (0-11).
        scenarios = [
            (OMEGA_SIGMA_BRANCH, FailurePattern.crash_free(3), 14_000 // 4),
            (OMEGA_SIGMA_BRANCH, FailurePattern(3, {1: 300}), 16_000 // 4),
            (FS_BRANCH, FailurePattern(3, {2: 300}), 8_000 // 4),
            (FS_BRANCH, FailurePattern(3, {0: 150, 1: 250}), 8_000 // 4),
        ]
        if not self.full:
            scenarios = [(OMEGA_SIGMA_BRANCH, FailurePattern.crash_free(3), 2_500)]
        self.expected = ["omega-sigma" if b == OMEGA_SIGMA_BRANCH else "fs"
                         for b, _, _ in scenarios]
        self._campaign = Campaign(
            (case_spec(b, p, self.seed, h) for b, p, h in scenarios), name="E5"
        )

    def check(self, outcome: Any, references: Dict) -> List[Check]:
        checks = []
        for index, (expected, summary) in enumerate(
            zip(self.expected, outcome.summaries)
        ):
            label = f"scenario-{index}"
            if summary.failed:
                checks.append((label, False, f"job failure: {summary.kind}"))
                continue
            m = summary.metrics
            ok = bool(m["ok"]) and m["branches"] == [expected]
            checks.append(
                (label, ok, f"psi ok={m['ok']} branches={m['branches']} "
                            f"expected [{expected}]")
            )
        return checks


_CLASSES = {cls.name: cls for cls in (ExploreNbac, FrontierNbac, FuzzClean, ChtPsi)}


def make(name: str, seed: int, size: str, workdir: str) -> Workload:
    return _CLASSES[name](seed, size, workdir)
