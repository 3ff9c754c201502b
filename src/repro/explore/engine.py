"""The bounded DFS over one case's choice tree.

Stateless model checking by replay: component state contains live
generator frames, so the explorer never snapshots — it re-executes.
Each iteration pops a choice prefix off the DFS stack, runs the system
once (:func:`repro.explore.cases.build_system` + the stock
``System.run`` loop) replaying that prefix and defaulting beyond it,
then pushes a sibling prefix for every untaken alternative the run
recorded.  The tree is rooted at the empty prefix; exhaustion of the
stack means every schedule/delivery interleaving of the case within
its step budget has been covered (up to the sound reductions).

The reductions, and how they compose:

* **POR** lives in the controller's enabled-set filter
  (:meth:`~repro.explore.control.ChoiceController.pick_pid`): scheduling
  independent steps in descending-pid order is pruned, so each
  Mazurkiewicz trace survives through its lexicographically smallest
  linearization.
* **Dedup** lives in the per-tick hook installed here: at the start of
  every tick the whole system state is fingerprinted
  (:mod:`repro.explore.state`); if an earlier path already explored
  this state with at least as many ticks remaining, the run halts (the
  scheduler returns None → a clean ``scheduler-halt``) and its subtree
  is skipped.  The fingerprint *includes the POR context*, because the
  filter makes the set of allowed continuations depend on it — hashing
  the raw state alone would merge nodes with different enabled sets and
  lose schedules.  Two guards keep the composition honest: the check
  only arms after the run has made its first post-prefix choice (a
  sibling must not be killed by its own parent's footprints), and a
  halted run's trace is never judged or counted as a leaf (its
  continuations — and decisions — are covered by the path that
  recorded the state).
* **Symmetry** (:mod:`repro.explore.symmetry`) folds pid-permuted
  states into one fingerprint for the targets where that is sound;
  collected decision vectors are closed under the group so the
  observable-outcome sets match the unreduced search exactly.

Three hot-path amortizations (see ``docs/EXPLORER.md`` § Performance):
the DFS stack pops the deepest divergence first, so consecutive runs
share maximal prefixes; fingerprints computed while *replaying* a
shared prefix are copied from the previous run's digest sequence
instead of re-encoded (replay is deterministic, so the states are
bit-equal by construction); and the per-run incremental caches inside
:class:`~repro.explore.state.FingerprintEngine` re-encode only what
changed since the previous tick.  ``explore_replay_steps`` counts the
choices served from prefixes, making the replay redundancy measurable.

Leaves are judged by the same summarize hooks and safety clauses the
chaos fuzzer uses; a violating leaf becomes a
:class:`Violation` carrying the exact choice list that reproduces it.
Safety violations are monotone under extension (a decision made is
made forever), so judging completed paths only — never dedup-halted
ones — loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.explore.cases import CaseParts, ExploreCase, build_system, resolve_parts
from repro.explore.control import ChoiceController
from repro.explore.state import FingerprintEngine
from repro.explore.symmetry import admissible_perms, resolve_symmetry
from repro.sim.network import Message
from repro.sim.perf import PerfCounters

#: Fingerprint implementations ``explore_case`` accepts: the byte
#: engine with and without its caches, and the compiled-encoder variant
#: (digest-identical to ``incremental``, falling back to it when the
#: extension is unavailable — see ``state.native_fallback_reason``).
FINGERPRINT_MODES = FingerprintEngine.MODES


@dataclass
class Violation:
    """One violating leaf: everything needed to replay and re-judge it."""

    case: ExploreCase
    engine: str
    choices: Tuple[int, ...]
    violated: Tuple[str, ...]
    metrics: Dict[str, Any]
    decisions: Tuple[Tuple[int, str, str], ...]
    final_time: int
    #: Choice indices name positions in the controller's menus, and the
    #: POR filter shapes the menus — replay must use the same setting.
    por: bool = True


@dataclass
class ExploreResult:
    """The outcome of exhausting (or truncating) one case's tree."""

    case: ExploreCase
    engine: str
    por: bool
    dedup: bool
    runs: int = 0
    states: int = 0
    dedup_hits: int = 0
    por_pruned: int = 0
    #: Complete ⟺ the DFS stack drained (no max_runs truncation and no
    #: stop-on-first-violation early exit).
    complete: bool = True
    violations: List[Violation] = field(default_factory=list)
    #: Decision vectors of every completed (non-halted) leaf — the
    #: observable outcomes of the case, used by the soundness tests to
    #: compare pruned against unpruned and indexed against reference.
    #: With symmetry on, closed under the case's admissible group.
    decision_vectors: Set[Tuple[Tuple[int, str, str], ...]] = field(
        default_factory=set
    )
    counters: PerfCounters = field(default_factory=PerfCounters)
    symmetry: bool = False
    fingerprint_mode: str = "incremental"
    #: Structured records of degraded-but-survived events from the
    #: distributed paths — failed shard cells folded into a partial
    #: merge, expired worker leases, quarantined shards.  Always empty
    #: for a plain in-process walk; non-empty incidents of kind
    #: ``shard-failed``/``shard-quarantined`` imply ``complete=False``.
    incidents: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def stats(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "states": self.states,
            "dedup_hits": self.dedup_hits,
            "por_pruned": self.por_pruned,
            "violations": len(self.violations),
            "decision_vectors": len(self.decision_vectors),
            "replay_steps": self.counters.explore_replay_steps,
            "fp_nodes": self.counters.explore_fp_nodes,
            "opaque_tokens": self.counters.explore_opaque_tokens,
            "shards": self.counters.explore_shards,
        }


def _decision_vector(trace) -> Tuple[Tuple[int, str, str], ...]:
    return tuple(
        sorted((d.pid, d.component, repr(d.value)) for d in trace.decisions)
    )


def _vector_closure(
    vector: Tuple[Tuple[int, str, str], ...],
    perms: Sequence[Tuple[int, ...]],
) -> Iterable[Tuple[Tuple[int, str, str], ...]]:
    """All group images of one decision vector.

    Sound for the symmetry-gated targets: their decision *values* are
    pid-free, so the π-image of a reachable vector is the vector of the
    π-relabeled execution, which the unreduced search also reaches.
    """
    for perm in perms:
        yield tuple(
            sorted((perm[pid], comp, value) for pid, comp, value in vector)
        )


def _shared_prefix_len(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit


def explore_case(
    case: ExploreCase,
    engine: str = "indexed",
    por: bool = True,
    dedup: bool = True,
    stop_on_first_violation: bool = False,
    max_runs: Optional[int] = None,
    counters: Optional[PerfCounters] = None,
    symmetry: Any = None,
    fingerprint_mode: str = "incremental",
    initial_stack: Optional[Sequence[Tuple[int, ...]]] = None,
    choice_limit: Optional[int] = None,
    shard_roots: Optional[List[Tuple[int, ...]]] = None,
    digest_log: Optional[List[str]] = None,
    exchange: Optional[Any] = None,
) -> ExploreResult:
    """Exhaust the bounded choice tree of ``case`` on ``engine``.

    ``por=False`` / ``dedup=False`` disable the respective reduction —
    the soundness tests run both ways and compare decision-vector sets
    and verdicts.  ``symmetry`` enables the pid-permutation reduction:
    ``"auto"`` turns it on where sound, ``True`` insists (and raises on
    unsafe targets).  ``fingerprint_mode`` selects the dedup-key
    implementation (see :data:`FINGERPRINT_MODES`).  ``max_runs`` is a
    safety valve for callers probing tractability; a truncated result
    has ``complete=False``.

    ``initial_stack`` roots the DFS at given prefixes instead of the
    empty one, and ``choice_limit`` halts any run whose recorded choice
    log reaches the limit, appending the halted prefix to
    ``shard_roots`` — together they are the sharded search's split/work
    protocol (:mod:`repro.explore.shard`).  ``digest_log``, when given,
    collects every dedup key in hook order (the fingerprint-equivalence
    suite compares these across modes byte-for-byte).

    ``exchange`` (a :class:`repro.store.exchange.FingerprintExchange`)
    shares the visited set across shard processes through the campaign
    database: the walk starts from ``exchange.visited`` — states other
    shards already exhausted dedup-halt here exactly like locally
    recorded ones — and every visited-set write is noted for batched
    publication.  ``states`` then counts only newly recorded states, so
    summed shard counts measure distinct coverage.
    """
    if fingerprint_mode not in FINGERPRINT_MODES:
        raise ValueError(
            f"unknown fingerprint mode {fingerprint_mode!r}; "
            f"have {FINGERPRINT_MODES}"
        )
    symmetry_on = resolve_symmetry(case, symmetry)
    parts = resolve_parts(case)
    result = ExploreResult(
        case=case,
        engine=engine,
        por=por,
        dedup=dedup,
        counters=counters if counters is not None else PerfCounters(),
        symmetry=symmetry_on,
        fingerprint_mode=fingerprint_mode,
    )
    perms = admissible_perms(case) if symmetry_on else (tuple(range(case.n)),)
    fp_engine = FingerprintEngine(
        case.n, fingerprint_mode, counters=result.counters, perms=perms
    )
    crash_times = {t for _, t in case.crashes}
    first_crash = min(crash_times) if crash_times else None
    last_crash = max(crash_times) if crash_times else None
    visited: Dict[str, int] = exchange.visited if exchange is not None else {}
    stack: List[Tuple[int, ...]] = (
        [tuple(p) for p in initial_stack] if initial_stack is not None else [()]
    )
    # The previous run's taken path and per-hook digests: a run that
    # replays a shared prefix revisits bit-equal states, so their keys
    # are copied instead of recomputed (sound by replay determinism;
    # the equivalence suite pins it).
    prev_taken: Tuple[int, ...] = ()
    prev_digests: List[Tuple[int, str]] = []
    reuse_digests = dedup and fp_engine.cached

    while stack:
        if max_runs is not None and result.runs >= max_runs:
            result.complete = False  # stack non-empty ⇒ genuinely truncated
            break
        prefix = stack.pop()
        shared = _shared_prefix_len(prefix, prev_taken) if reuse_digests else 0
        run_digests: List[Tuple[int, str]] = []
        controller, trace, system, frontier_halted = _run_path(
            case, parts, prefix, engine, por, dedup,
            visited, crash_times, first_crash, last_crash, result,
            fp_engine, choice_limit,
            prev_digests if reuse_digests else None, shared, run_digests,
            digest_log, exchange,
        )
        if reuse_digests:
            prev_digests = run_digests
        result.runs += 1
        result.counters.explore_runs += 1
        result.por_pruned += controller.por_pruned
        result.counters.explore_por_pruned += controller.por_pruned
        result.counters.explore_replay_steps += min(
            len(prefix), len(controller.log)
        )

        taken = tuple(point.chosen for point in controller.log)
        prev_taken = taken
        for position in range(len(prefix), len(taken)):
            # Alternatives pushed in descending order so index 1 pops
            # first: the subtree under the smaller index is explored
            # before its right siblings, and the next popped prefix
            # always shares the deepest possible divergence point with
            # the run that just finished.
            for alternative in range(controller.log[position].options - 1, 0, -1):
                stack.append(taken[:position] + (alternative,))

        if trace.stop_reason == "scheduler-halt":
            if frontier_halted and shard_roots is not None:
                shard_roots.append(taken)
            continue  # halted: subtree covered elsewhere, not a leaf
        vector = _decision_vector(trace)
        if len(perms) > 1:
            result.decision_vectors.update(_vector_closure(vector, perms))
        else:
            result.decision_vectors.add(vector)
        metrics = parts.summarize(system, trace)
        violated = tuple(
            clause
            for clause in parts.safety_clauses
            if not metrics.get(clause, True)
        )
        if violated:
            result.counters.explore_violations += 1
            result.violations.append(
                Violation(
                    case=case,
                    engine=engine,
                    choices=taken,
                    violated=violated,
                    metrics=dict(metrics),
                    decisions=vector,
                    final_time=trace.final_time,
                    por=por,
                )
            )
            if stop_on_first_violation:
                # Only an actual early exit truncates: when this was
                # the last stacked prefix anyway, the search is as
                # complete as it would have been without the flag.
                if stack:
                    result.complete = False
                break
    if exchange is not None:
        exchange.sync()
    return result


def _run_path(
    case: ExploreCase,
    parts: CaseParts,
    prefix: Tuple[int, ...],
    engine: str,
    por: bool,
    dedup: bool,
    visited: Dict[str, int],
    crash_times: Set[int],
    first_crash: Optional[int],
    last_crash: Optional[int],
    result: ExploreResult,
    fp_engine: FingerprintEngine,
    choice_limit: Optional[int],
    prev_digests: Optional[List[Tuple[int, str]]],
    shared: int,
    run_digests: List[Tuple[int, str]],
    digest_log: Optional[List[str]],
    exchange: Optional[Any] = None,
):
    """One controlled run: replay ``prefix``, default onward, observe.

    Returns ``(controller, trace, system, frontier_halted)`` — the
    system rides back explicitly because the judge needs it alongside
    the trace.
    """
    controller = ChoiceController(prefix)
    controller.por_enabled = por
    system = build_system(case, controller, parts=parts, engine=engine)
    fp_engine.begin_run(system)

    sent_this_tick: List[Message] = []
    for host in system.hosts:
        host.ctx.add_outgoing_hook(sent_this_tick.append)
    frontier_halted = [False]
    hook_index = [0]

    def tick_hook(now: int) -> bool:
        # The previous tick's step is complete: hand its POR context to
        # the controller before this tick's picks.
        fresh = list(sent_this_tick)
        sent_this_tick.clear()
        prev = controller.last_actor
        boundary = now in crash_times
        controller.set_step_context(prev, fresh, boundary)
        logged = len(controller.log)
        if dedup:
            index = hook_index[0]
            hook_index[0] = index + 1
            key = None
            if (
                prev_digests is not None
                and logged <= shared
                and index < len(prev_digests)
                and prev_digests[index][0] == logged
            ):
                # Replaying a prefix shared with the previous run: the
                # state is bit-equal to the one that produced this
                # digest, so skip the encoding entirely.
                key = prev_digests[index][1]
            if key is None:
                crashes_pending = last_crash is not None and last_crash > now
                scripts = controller.scripts
                cursors = (
                    tuple(scripts.cursors) if scripts is not None else None
                )
                key = fp_engine.fingerprint(
                    now, crashes_pending, first_crash,
                    prev, fresh, boundary, por, cursors,
                )
            run_digests.append((logged, key))
            if digest_log is not None:
                digest_log.append(key)
            remaining = case.depth - now + 1
            seen = visited.get(key)
            if logged <= len(prefix):
                # Still replaying (or about to make the first divergent
                # choice): these states are the parent run's own
                # footprints — record, never halt.
                if seen is None:
                    result.states += 1
                    result.counters.explore_states += 1
                if seen is None or seen < remaining:
                    visited[key] = remaining
                    if exchange is not None:
                        exchange.note(key, remaining)
            elif seen is not None and seen >= remaining:
                result.dedup_hits += 1
                result.counters.explore_dedup_hits += 1
                return False
            else:
                if seen is None:
                    result.states += 1
                    result.counters.explore_states += 1
                visited[key] = remaining
                if exchange is not None:
                    exchange.note(key, remaining)
        if (
            choice_limit is not None
            and logged >= choice_limit
            and logged >= len(prefix)  # never truncate mid-replay
        ):
            frontier_halted[0] = True
            return False
        return True

    controller.tick_hook = tick_hook
    trace = system.run(stop_when=parts.stop)
    return controller, trace, system, frontier_halted[0]
