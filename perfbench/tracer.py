"""In-memory spans around levsketch's public calls.

A :class:`Tracer` replaces functions at their module attributes (for
example ``levsketch.sketch.svd_dense``) with wrappers that record one span
per call, so calls made inside ``qisvd``, ``qisls_all`` or ``cmd_compare``
are seen without editing the library. :meth:`Tracer.restore` puts every
original back. Spans stay in memory until the caller writes them out.
With a ``probe`` (a ``hostspeed.HostSpeed``) set, every span takes one
calibration slice just before it opens and one just after it closes, and
records their durations; the slices taken inside a span are left out of its
duration.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    # store.queries delta: entry reads, norm reads and index draws
    reads: int = 0
    counts: dict = field(default_factory=dict)
    # time spent in calibration slices taken inside the span, and the
    # slices taken just before it opened and just after it closed
    probe_s: float = 0.0
    pre: float = 0.0
    post: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start - self.probe_s

    def to_json(self, t0: float) -> dict:
        return {"name": self.name, "start": self.start - t0,
                "end": self.end - t0, "parent": self.parent,
                "reads": self.reads, **self.counts}


class Tracer:
    """Records nested spans on one thread.

    The read count of a span is the ``queries`` delta of the most recently
    built ``MatrixSampleStore``, which the wrapper around its constructor
    registers; a span during which a new store is built counts the new
    store's reads.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.store = None
        self.probe = None
        # (span index, registered store, its queries, probe time) per open
        # span
        self._open: list[tuple[int, object, int, float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _queries(self) -> int:
        return 0 if self.store is None else self.store.queries

    def _probe_total(self) -> float:
        return 0.0 if self.probe is None else self.probe.total

    def open(self, name: str) -> Span:
        pre = 0.0 if self.probe is None else self.probe.sample()
        span = Span(name, time.perf_counter(),
                    self._open[-1][0] if self._open else None, pre=pre)
        self._open.append((len(self.spans), self.store, self._queries(),
                           self._probe_total()))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        _, store, queries, probed = self._open.pop()
        # a store built inside the span starts counting from zero
        span.reads = self._queries() - (queries if self.store is store else 0)
        span.probe_s = self._probe_total() - probed
        if self.probe is not None:
            span.post = self.probe.sample()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, owner, attr: str, name: str, delta=None, result=None,
             registers_store: bool = False) -> None:
        """Record a span for every call of ``owner.attr``.

        ``delta`` is ``(key, fn(args))``: the span records the change of
        ``fn(args)`` across the call. ``result`` is ``(key, fn(value))``:
        the span records ``fn`` of the returned value. With
        ``registers_store`` the first argument (a store being constructed)
        becomes the store whose reads are counted.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            before = delta[1](args) if delta else 0
            try:
                value = original(*args, **kwargs)
                if registers_store:
                    self.store = args[0]
            finally:
                self.close(span)
            if delta:
                span.counts[delta[0]] = delta[1](args) - before
            if result:
                span.counts[result[0]] = result[1](value)
            return value

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def totals_by_name(spans: list[Span], indices) -> dict[str, dict]:
    """Per span name over the given span indices: summed duration, summed
    self time, call count, summed reads and summed extra counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i in indices:
        span = spans[i]
        agg = out[span.name]
        agg["s"] += span.duration
        agg["self_s"] += selfs[i]
        agg["calls"] += 1
        agg["reads"] += span.reads
        for key, val in span.counts.items():
            agg[key] += val
    return out
