"""Outside-in tracing for the benchmark: an in-memory span recorder and
a delegating backend that times each phase primitive.

Nothing here changes what a job computes: :class:`TracedBackend`
forwards every call to the backend it wraps and only brackets the
seven phase primitives (open, upload, Map, Shuffle, Reduce, download,
close) with spans.  The benchmark checks that claim on every traced
job by comparing it with the same job run unwrapped.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.backend.base import ExecutionBackend

#: Phase primitives timed by :class:`TracedBackend`, in job order; the
#: per-layer metric for each is ``<phase>_s.<label>``.
PHASES = ("open", "io_in", "map", "shuffle", "reduce", "io_out", "close")


class Spans:
    """Spans kept in memory until the run ends.

    Each span records its name, start and end (``perf_counter``
    seconds), the span that caused it and the trace (job) it belongs
    to.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, root: dict) -> dict[str, float]:
        """Self time of ``root`` and of each of its direct children,
        keyed by span name (children of one name are summed): a span's
        duration minus the part its own children cover."""
        children: dict[int, list[dict]] = {}
        for sp in self.spans[root["id"] + 1:]:
            if sp["trace"] != root["trace"]:
                break
            children.setdefault(sp["parent"], []).append(sp)

        def own(sp):
            dur = sp["end"] - sp["start"]
            return dur - sum(c["end"] - c["start"]
                             for c in children.get(sp["id"], ()))

        out = {root["name"]: own(root)}
        for c in children.get(root["id"], ()):
            out[c["name"]] = out.get(c["name"], 0.0) + own(c)
        return out


class TracedBackend(ExecutionBackend):
    """Delegates to ``inner``, recording a span per phase primitive.

    ``name`` and ``workers`` mirror the wrapped backend, so the ledger
    and the tuner see the same job either way.
    """

    def __init__(self, inner: ExecutionBackend, spans: Spans) -> None:
        self.inner = inner
        self.name = inner.name
        self.workers = getattr(inner, "workers", None)
        self._spans = spans

    # -- timed phase primitives ------------------------------------------

    def open(self, plan):
        with self._spans.span("open"):
            return self.inner.open(plan)

    def close(self, ctx):
        with self._spans.span("close"):
            return self.inner.close(ctx)

    def upload_input(self, ctx, kvs, label):
        with self._spans.span("io_in"):
            return self.inner.upload_input(ctx, kvs, label)

    def download_output(self, ctx, handle):
        with self._spans.span("io_out"):
            return self.inner.download_output(ctx, handle)

    def map_phase(self, ctx, d_in, tr, *, batch=None):
        with self._spans.span("map"):
            return self.inner.map_phase(ctx, d_in, tr, batch=batch)

    def shuffle_phase(self, ctx, inter, tr, label):
        with self._spans.span("shuffle"):
            return self.inner.shuffle_phase(ctx, inter, tr, label)

    def reduce_phase(self, ctx, grouped, tr, *, include_grid=True):
        with self._spans.span("reduce"):
            return self.inner.reduce_phase(ctx, grouped, tr,
                                           include_grid=include_grid)

    # -- untimed delegation (counted in the job's own self time) ---------

    def resolve_auto(self, ctx, plan, inp):
        return self.inner.resolve_auto(ctx, plan, inp)

    def to_host(self, ctx, handle):
        return self.inner.to_host(ctx, handle)

    def stage_intermediate(self, ctx, kvs, label):
        return self.inner.stage_intermediate(ctx, kvs, label)

    def record_count(self, ctx, handle):
        return self.inner.record_count(ctx, handle)

    def stream_sink(self, ctx):
        return self.inner.stream_sink(ctx)

    def absorb_batch(self, ctx, sink, handle):
        return self.inner.absorb_batch(ctx, sink, handle)

    def sink_count(self, ctx, sink):
        return self.inner.sink_count(ctx, sink)

    def finish_check(self, ctx):
        return self.inner.finish_check(ctx)

    def finish_telemetry(self, ctx):
        return self.inner.finish_telemetry(ctx)
