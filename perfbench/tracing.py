"""Layer tracing from outside the program: wrap public functions, time spans.

A :class:`Tracer` replaces a chosen set of public functions and methods
with thin wrappers for the duration of one ``with tracer:`` block and
puts every original back on exit.  Nothing under ``src/`` knows about
it.  Each wrapped callable belongs to a *layer*; a call opens a span on
a stack, and when it returns the span's duration is charged to its
layer as *inclusive* time and, minus the time covered by spans nested
inside it, as *self* time.  Self times of all layers plus the untraced
remainder therefore add up to the traced wall clock, which is what
makes the "if this layer were free" report an Amdahl bound.

A layer re-entered from inside itself (an override calling
``super()``, a recursive helper) opens no second span, so ``calls``
counts outermost entries only.  Calls made off the main thread (the
frontier workers' heartbeat helpers) are not recorded.

Besides the aggregates, the first :data:`SPAN_LOG_LIMIT` spans are kept
in memory as ``(id, parent id, layer, start, end)`` tuples (parent 0 =
no enclosing span) for the caller to write out when the run ends; the
log is capped because a fuzz campaign opens millions of spans.

A target is either ``(owner, name)`` — a class or module attribute — or
a module-level function, which is replaced in every loaded module that
imported it by name.  Besides spans there are three cheaper kinds:
*counters* count calls, *timers* keep each call's duration (the
benchmark's per-unit latency clock), and *observers* see each call's
arguments and result after it returns (how per-run perf counters are
collected without touching the program).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: Raw spans kept per traced run (aggregates cover every span).
SPAN_LOG_LIMIT = 50_000


class LayerStats:
    """Accumulated calls and time of one layer."""

    __slots__ = ("name", "calls", "self_s", "incl_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


def subclasses_defining(base: type, name: str) -> List[type]:
    """``base`` and every loaded subclass whose own ``__dict__`` defines
    ``name`` (each override must be wrapped separately)."""
    found, seen, todo = [], set(), [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if callable(cls.__dict__.get(name)):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def resolve(target: Any) -> List[Tuple[Any, str, Any]]:
    """``(owner, name, current value)`` for every place ``target`` lives."""
    if isinstance(target, tuple):
        owner, name = target
        return [(owner, name, owner.__dict__[name])]
    places = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        for name, value in list(namespace.items()):
            if value is target:
                places.append((module, name, target))
    return places


class Tracer:
    """Span, counter, timer and observer wrappers, live only inside ``with``."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.counts: Dict[str, int] = {}
        self.durations: List[float] = []
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.wall_s = 0.0
        self._plan: List[Tuple[str, Any, Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._stack: List[List[Any]] = []
        self._next_id = [0]
        self._main = threading.main_thread().ident
        self._started = 0.0

    # -- planning --------------------------------------------------------
    def span(self, layer: str, target: Any) -> None:
        self.layers.setdefault(layer, LayerStats(layer))
        self._plan.append(("span", target, layer))

    def count(self, counter: str, target: Any) -> None:
        self.counts.setdefault(counter, 0)
        self._plan.append(("count", target, counter))

    def timer(self, target: Any) -> None:
        self._plan.append(("timer", target, None))

    def observe(self, target: Any, hook: Callable[[tuple, dict, Any], None]) -> None:
        self._plan.append(("observe", target, hook))

    # -- wrappers --------------------------------------------------------
    def _wrap(self, kind: str, original: Callable, arg: Any) -> Callable:
        main = self._main
        get_ident = threading.get_ident
        clock = time.perf_counter

        if kind == "span":
            stats = self.layers[arg]
            stack, spans, next_id = self._stack, self.spans, self._next_id

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if (stack and stack[-1][0] is stats) or get_ident() != main:
                    return original(*args, **kwargs)
                next_id[0] += 1
                frame = [stats, 0.0, next_id[0]]
                parent = stack[-1][2] if stack else 0
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    stats.calls += 1
                    stats.incl_s += elapsed
                    stats.self_s += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                    if len(spans) < SPAN_LOG_LIMIT:
                        spans.append((frame[2], parent, stats.name, start, end))

        elif kind == "count":
            counts = self.counts

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[arg] += 1
                return original(*args, **kwargs)

        elif kind == "timer":
            durations = self.durations

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    durations.append(clock() - start)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if get_ident() == main:
                    arg(args, kwargs, result)
                return result

        return wrapper

    # -- install / restore -----------------------------------------------
    def __enter__(self) -> "Tracer":
        # Resolve every target before patching any: once a function is
        # wrapped its importers no longer hold the original, so a second
        # wrapper on the same function could not find them afterwards.
        resolved = [
            (kind, arg, [(owner, name) for owner, name, _ in resolve(target)])
            for kind, target, arg in self._plan
        ]
        for kind, arg, places in resolved:
            for owner, name in places:
                current = owner.__dict__[name]
                self._patches.append((owner, name, current))
                setattr(owner, name, self._wrap(kind, current, arg))
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s += time.perf_counter() - self._started
        # Reverse order: a target wrapped twice (span, then observer)
        # unwinds to the true original.
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def targets(self) -> List[Tuple[Any, str, Any]]:
        """Every planned ``(owner, name, value)``, resolved now; taken
        before entry, it is what exit must restore."""
        return [place for _, target, _ in self._plan for place in resolve(target)]
