"""Batched cross-shard visited-set exchange through the store.

PR 5's sharded subtree search gave every shard an isolated visited
set: a state explored in shard A was re-explored in shard B — sound,
but the documented ~30% run inflation on the n=3 NBAC tree.  The
exchange recovers cross-shard dedup without giving up process
isolation: each shard *seeds* its visited dict from the shared
``fingerprints`` table, *publishes* its newly-recorded states, and
periodically *pulls* whatever other shards inserted since its last
sync (cursored by rowid, so a pull reads only the delta).

Soundness is inherited from in-process dedup: a published ``(fp,
remaining)`` row means some shard exhausted that state's subtree with
``remaining`` ticks left, so any shard reaching the state with no more
ticks remaining can halt — the continuations are covered elsewhere.

**Publication is deferred to walk completion.**  Publishing mid-walk
would be unsound the moment workers can crash or be retried: a shard
killed halfway has published states whose subtrees it never exhausted,
and its own retry (or a sibling shard) would dedup-halt on them and
silently lose coverage.  Worse, even a shard that *finished* but whose
summary was never merged (worker died between walk and result
persistence) leaks rows that claim coverage living in no report.  So
``note`` only accumulates; rows reach the table either when the shard's
walk has completed (``publish_pending``, the static shard path) or
atomically inside the work-queue completion transaction
(``take_pending`` +
:meth:`repro.store.db.ResultStore.complete_work_batch`, the
dynamic-frontier path) — a rejected completion publishes nothing.
Deferral only costs redundancy (a state is shared once its discovering
shard finishes, not the moment it is recorded), never coverage; with
sequential shards each one completes before the next seeds, so the
recovery stays exact and the merged search visits no more states than
the single-process walk (``tests/explore/test_shared_dedup.py`` pins
this).

The scope string names one comparable search — case plus every option
that shapes fingerprints — and includes the code salt, so stale rows
from an edited tree are invisible rather than wrong.  The shard layer
additionally salts the scope with a per-invocation token and releases
it after merging: the shared set coordinates shards *within* one
search, and a later independent search must not dedup against a
finished one (its results live in the earlier report, not the new
one).  Opening an exchange registers its scope in the store's
``exchange_scopes`` table so a search killed before its ``finally``
leaves a *registered* orphan the stale-scope sweep can collect
(:meth:`~repro.store.db.ResultStore.sweep_stale_scopes`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.store.db import ResultStore


def exchange_scope(
    case_dict: Dict[str, Any],
    engine: str,
    por: bool,
    dedup: bool,
    symmetry: Any,
    fingerprint_mode: str,
) -> str:
    """The shared-visited-set scope for one (case, options) search.

    Any parameter that changes fingerprint bytes or dedup semantics
    must be in here: mixing scopes would merge incomparable searches.
    """
    from repro.runner.cache import code_salt
    from repro.runner.fingerprint import fingerprint

    return fingerprint(
        {
            "case": case_dict,
            "engine": engine,
            "por": por,
            "dedup": dedup,
            "symmetry": repr(symmetry),
            "fingerprint_mode": fingerprint_mode,
            "code": code_salt(),
        },
        salt="explore-scope:1",
    )


class FingerprintExchange:
    """One shard's window onto the shared visited set.

    ``visited`` is the live dict the engine reads and writes; the
    exchange seeds it from the store, tracks local additions as
    *pending* (published only at walk completion — see the module doc),
    and pulls the remote delta every ``batch`` new states, or on a
    ``pull_interval``-second timer when one is set (the long-lived
    frontier workers' mode).
    """

    def __init__(
        self,
        store: ResultStore,
        scope: str,
        batch: int = 256,
        pull_interval: Optional[float] = None,
        counters: Any = None,
    ):
        self.store = store
        self.scope = scope
        self.batch = max(1, batch)
        self.pull_interval = pull_interval
        #: A :class:`~repro.sim.perf.PerfCounters` (or None): every
        #: store read round-trip is tallied into ``exchange_pulls`` so
        #: coordination overhead is observable, not inferred.
        self.counters = counters
        store.register_scope(scope)
        self.visited, self._cursor = store.load_fingerprints(scope)
        self._pending: Dict[str, int] = {}
        self._notes = 0
        self._last_pull = time.monotonic()
        self.published = 0
        self.pulled = 0

    def note(self, fp: str, remaining: int) -> None:
        """Called by the engine on every visited-set write."""
        seen = self._pending.get(fp)
        if seen is None or seen < remaining:
            self._pending[fp] = remaining
        self._notes += 1
        if self._notes >= self.batch:
            self._notes = 0
            if self.pull_interval is None:
                self.pull()
            elif time.monotonic() - self._last_pull >= self.pull_interval:
                self.pull()

    def pull(self) -> int:
        """Fold in states other shards published since the last pull."""
        fresh, self._cursor = self.store.fingerprints_since(
            self.scope, self._cursor
        )
        if self.counters is not None:
            self.counters.exchange_pulls += 1
        for fp, remaining in fresh:
            seen = self.visited.get(fp)
            if seen is None or seen < remaining:
                self.visited[fp] = remaining
        self.pulled += len(fresh)
        self._last_pull = time.monotonic()
        return len(fresh)

    def sync(self) -> None:
        """End-of-walk hook from the engine: refresh the remote delta.

        Deliberately does **not** publish — the pending set's fate is
        the caller's call: :meth:`publish_pending` once the walk's
        result is safe, or :meth:`take_pending` into an atomic
        completion transaction.  Pulls are an optimization (they only
        add dedup information), so when a ``pull_interval`` is set the
        sync respects it too — a batch worker walking many small items
        through one exchange must not pay a read round-trip per item.
        """
        if (
            self.pull_interval is not None
            and time.monotonic() - self._last_pull < self.pull_interval
        ):
            return
        self.pull()

    def publish_pending(self) -> int:
        """Publish the completed walk's states; only call on success."""
        if not self._pending:
            return 0
        count = len(self._pending)
        self.store.publish_fingerprints(self.scope, self._pending.items())
        self._pending.clear()
        self.published += count
        return count

    def take_pending(self) -> List[Tuple[str, int]]:
        """Hand the pending states to an atomic completion transaction."""
        items = list(self._pending.items())
        self._pending.clear()
        self.published += len(items)
        return items


def open_exchange(
    store_path: Optional[str],
    scope: Optional[str],
    batch: int = 256,
    pull_interval: Optional[float] = None,
    counters: Any = None,
) -> Optional[FingerprintExchange]:
    """An exchange for worker-side use, or None when no store is given."""
    if store_path is None or scope is None:
        return None
    return FingerprintExchange(
        ResultStore(store_path), scope, batch=batch,
        pull_interval=pull_interval, counters=counters,
    )
