"""Spans, timers and checks placed around the program's public calls.

The benchmark never edits the program: every span is opened here, from
outside, by replacing a public function or method with a wrapper for the
length of one traced run (:meth:`Probe.wrap`) and putting the original back
afterwards (:meth:`Probe.restore`).  Spans are recorded by a private
:class:`repro.obs.RecordingTracer`, so the program's own process-wide tracer
stays disabled and none of its internal spans mix into the benchmark trace.

:func:`fold_chrome_trace` turns the written Chrome trace back into per-span
self time and call counts; :class:`Checks` counts correctness checks and
failed operations for the ``attempted``/``failed`` fields of the result.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs import Tracer

__all__ = ["Checks", "Probe", "ReferenceClock", "fold_chrome_trace", "tail_percentile"]


class Checks:
    """Counts correctness checks and operations; remembers what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, label: str) -> None:
        """One correctness check (an oracle, a balance identity, a repeat)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    def operations(self, total: int, failed: int, label: str) -> None:
        """A batch of operations of which ``failed`` did not succeed."""
        self.attempted += int(total)
        self.failed += int(failed)
        if failed and len(self.failures) < 20:
            self.failures.append(f"{label}: {failed} of {total} failed")


class ReferenceClock:
    """The host's momentary speed, from a fixed kernel timed between steps.

    On a shared host (measured on a 2-core VM) the same work ran up to twice
    as long from one second to the next, and the whole machine drifted by
    tens of percent over minutes; a pure interpreter loop slowed as much as
    numpy code did.
    :meth:`tick` times a fixed mix of interpreter and numpy work whenever
    ``interval_s`` has passed, at the same moments as the steps it sits
    between, and :meth:`factor` turns host seconds into reference seconds:
    seconds on a host that runs the kernel in ``NOMINAL_S``.  The kernel
    touches no program code, so only the program's own speed moves a
    normalized time.  With ``interval_s=math.inf`` :meth:`tick` never samples.
    """

    NOMINAL_S = 0.008

    def __init__(self, interval_s: float) -> None:
        rng = np.random.default_rng(12345)
        self._keys = rng.integers(0, 1 << 20, 200_000)
        self._matrix = rng.standard_normal((128, 128))
        self._gather = rng.integers(0, 200_000, 50_000)
        self.interval_s = interval_s
        self.samples_s: list[float] = []
        self.spent_s = 0.0
        self._next = perf_counter() + interval_s

    def _kernel(self) -> int:
        total = 0
        for i in range(40_000):
            total += (i * 7) % 13
        np.sort(self._keys)
        np.bincount(self._keys & 65535)
        _ = self._matrix @ self._matrix
        return total + int(self._keys[self._gather].sum())

    def tick(self) -> None:
        """Time the kernel once if ``interval_s`` has passed since the last time."""
        if perf_counter() >= self._next:
            self.sample()

    def sample(self, repeats: int = 1) -> float:
        """Time the kernel ``repeats`` times now; the mean host seconds of one."""
        start = perf_counter()
        for _ in range(repeats):
            self._kernel()
        end = perf_counter()
        self.samples_s.append((end - start) / repeats)
        self.spent_s += end - start
        self._next = end + self.interval_s
        return (end - start) / repeats

    def factor(self) -> float:
        """Reference seconds per host second over the samples so far."""
        if not self.samples_s:
            return 1.0
        return self.NOMINAL_S * len(self.samples_s) / sum(self.samples_s)


class Probe:
    """Wraps public calls of the program with spans and result callbacks.

    With a disabled tracer only the ``after`` callbacks are installed (the
    untimed checks and counters a workload needs in every run); with a
    :class:`repro.obs.RecordingTracer` each wrapped call also records a span
    named after the layer it enters.  ``ids`` holds the identifiers of the
    current iteration, level or batch; every span carries them as args.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.ids: dict[str, object] = {}
        self._counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        with self.tracer.span(name, name.split(".", 1)[0]) as span:
            if span.enabled and self.ids:
                span.add_args(**self.ids)
            yield

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        *,
        new_id: str | None = None,
        after: Callable[[Any, float], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function, method or classmethod).

        ``span`` names the span opened around each call when tracing;
        ``new_id`` numbers the calls and exposes the number in ``ids`` while
        one runs (so every span inside shares it); ``after`` receives each
        call's result and its host seconds.
        """
        traced = self.tracer.enabled
        if not traced and after is None:
            return
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        probe = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if new_id is not None:
                probe.ids[new_id] = probe._counters[new_id]
                probe._counters[new_id] += 1
            start = perf_counter()
            try:
                if traced:
                    with probe.span(span):
                        result = func(*args, **kwargs)
                else:
                    result = func(*args, **kwargs)
            finally:
                if new_id is not None:
                    del probe.ids[new_id]
            if after is not None:
                after(result, perf_counter() - start)
            return result

        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def fold_chrome_trace(document: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Per span name: self seconds, call count and each call's duration.

    Nesting comes from the deterministic tick timeline the exporter keeps in
    ``args`` (exact, unlike rounded wall stamps); durations from the wall
    ``dur``.  A span's self time is its duration minus that of its direct
    children, so the self times of all spans add up to the root's duration.
    """
    by_thread: dict[tuple[Any, Any], list[dict[str, Any]]] = defaultdict(list)
    for event in document["traceEvents"]:
        if event["ph"] == "X":
            by_thread[(event["pid"], event["tid"])].append(event)
    folded: dict[str, dict[str, Any]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "durations_s": []}
    )
    for events in by_thread.values():
        events.sort(key=lambda e: e["args"]["det_tick"])
        stack: list[tuple[int, str, float, list[float]]] = []  # (end tick, name, dur, children)

        def close(entry: tuple[int, str, float, list[float]]) -> None:
            _, name, dur, children = entry
            folded[name]["self_s"] += (dur - sum(children)) / 1e6
            if stack:
                stack[-1][3].append(dur)

        for event in events:
            tick = event["args"]["det_tick"]
            while stack and stack[-1][0] < tick:
                close(stack.pop())
            end = tick + event["args"]["det_dur_ticks"]
            stack.append((end, event["name"], float(event["dur"]), []))
            folded[event["name"]]["calls"] += 1
            folded[event["name"]]["durations_s"].append(float(event["dur"]) / 1e6)
        while stack:
            close(stack.pop())
    return dict(folded)


#: Percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: list[float], per_unit: int) -> tuple[float, float, int]:
    """The highest percentile with at least ten of one unit's steps beyond it.

    The percentile is chosen from the steps of one unit, which every run
    repeats whole, so that it does not change with the number of units a
    run fits in; it is then read over all ``samples``.  Returns
    ``(percentile, value, samples beyond it)``; below 20 steps per unit no
    percentile qualifies and the maximum is returned as p100.
    """
    values = np.asarray(samples, dtype=np.float64)
    for q in TAIL_PERCENTILES:
        if int(per_unit * (100.0 - q) / 100.0 + 1e-9) >= 10:
            beyond = int(values.size * (100.0 - q) / 100.0 + 1e-9)
            return q, float(np.percentile(values, q)), beyond
    return 100.0, float(values.max()), 0
