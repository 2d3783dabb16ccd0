"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each serving layer on
the *live* instances of a started deployment (instance attributes and,
for the fleet wire, the frame functions of :mod:`repro.fleet`), records
one span per call, and restores everything on :meth:`Tracer.uninstall`.
Nothing under ``src/`` changes.

Self time.  Spans overlap: calls nest (``preprocess`` calls the
normalizer), events wait concurrently in the micro-batcher, and the
second stage scores in a worker thread.  Every instant of the traced
phase is therefore given to exactly one active span — the one whose
layer has the highest :data:`PRIORITY` (inner compute layers beat the
calls around them, and compute beats waiting).  A layer's self time is
the sum over its spans, so self times never double-count and their sum
is the time at least one span was open (``trace.coverage_ratio`` divides
that by the traced wall time).
"""

from __future__ import annotations

import asyncio
import heapq
import threading
import time
from collections import defaultdict, deque

import numpy as np

#: Op name -> attribution priority (higher wins an overlapping instant).
PRIORITY = {
    "nn.forward": 100,
    "tokenizer.encode": 95,
    "serving.sessions.sequence": 90,
    "preprocess.normalize": 85,
    "shell.validate": 80,
    "preprocess.canonicalize": 75,
    "serving.cache.lookup": 70,
    "serving.cache.put": 70,
    "serving.sessions.observe": 65,
    "serving.delivery.emit": 60,
    "fleet.encode": 55,
    "serving.backends": 50,
    "serving.microbatch.wait": 40,
    "serving.shard": 30,
    "fleet.wire": 25,
    "fleet.router": 20,
}


class _CallProxy:
    """Stand-in for a callable *object* (the service's normalizer)."""

    def __init__(self, target, wrapper):
        self._target = target
        self._wrapper = wrapper

    def __call__(self, *args, **kwargs):
        return self._wrapper(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._target, name)


def forward_flops(rows: int, width: int, config) -> float:
    """Matmul FLOPs of one encoder forward pass over a ``(rows, width)``
    id matrix: per layer the Q/K/V/output projections, the two attention
    products and the feed-forward pair.  Embedding lookups, norms and
    softmax are not counted."""
    hidden, inner = config.hidden_size, config.intermediate_size
    tokens = rows * width
    per_layer = 2 * tokens * hidden * (4 * hidden + 2 * inner)
    per_layer += 2 * 2 * rows * width * width * hidden
    return float(config.n_layers * per_layer)


class Tracer:
    """Span recorder and layer wrappers for one traced phase."""

    def __init__(self):
        self.spans: list[tuple[float, float, int, str]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.waits_ms: list[float] = []
        self.ack_rtt_ms: list[float] = []
        self._restore: list[tuple[object, str, bool, object]] = []
        self._flushing: dict[asyncio.Task, list[float]] = {}
        self._frames_sent: dict[int, float] = {}

    # -- wrapping ------------------------------------------------------------

    def _patch(self, obj, attr: str, replacement) -> None:
        had_own = attr in getattr(obj, "__dict__", {})
        self._restore.append((obj, attr, had_own, obj.__dict__.get(attr) if had_own else None))
        setattr(obj, attr, replacement)

    def _span(self, op: str, started: float) -> None:
        self.spans.append((started, time.perf_counter(), PRIORITY[op], op))
        self.calls[op] += 1

    def wrap(self, obj, attr: str, op: str, after=None, before=None) -> None:
        """Time a synchronous call; ``before(args)`` runs as it is entered,
        ``after(result, args)`` sees its result."""
        original = getattr(obj, attr)
        span = self._span

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span(op, started)
            if after is not None:
                after(result, args)
            return result

        if not callable(getattr(type(obj), attr, None)) and not hasattr(original, "__self__"):
            # a callable object held in an attribute: keep its attributes
            self._patch(obj, attr, _CallProxy(original, wrapper))
        else:
            self._patch(obj, attr, wrapper)

    def wrap_async(self, obj, attr: str, op: str, before=None) -> None:
        """Time a coroutine call (its span includes the time it awaits);
        ``before(started, args)`` runs as it is entered."""
        original = getattr(obj, attr)
        span = self._span

        async def wrapper(*args, **kwargs):
            started = time.perf_counter()
            if before is not None:
                before(started, args)
            try:
                return await original(*args, **kwargs)
            finally:
                span(op, started)

        self._patch(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, had_own, value in reversed(self._restore):
            if had_own:
                setattr(obj, attr, value)
            else:
                delattr(obj, attr)
        self._restore.clear()

    # -- install on a server -------------------------------------------------

    def install_server(self, server) -> None:
        """Wrap every layer of one started ``DetectionServer``."""
        service = server.service
        counts = self.counts

        def preprocessed(result, args):
            counts["dropped"] += result is None

        def canonicalized(result, args):
            counts["canon_changed"] += bool(result.changed)
            counts["canon_failures"] += not result.ok

        def looked_up(result, args):
            counts["cache_hits"] += result is not None

        def encoded(batch, args):
            counts["encode_rows"] += len(batch)
            counts["encode_cells"] += batch.ids.size
            counts["encode_pad"] += batch.ids.size - int(batch.lengths.sum())

        # FLOPs come from the id matrices the live forward pass receives
        # (the compiled plan's, or the model's when serving uncompiled),
        # counted only inside score_batch: the sequence stage runs the
        # same encoder
        encoder = service.encoder
        config, head = encoder.model.config, service.tuner.hidden_size
        scoring = threading.local()
        network = encoder.inference_plan
        if network is None:
            network = encoder.model
        forward = network.forward

        def counted_forward(ids, *args, **kwargs):
            if getattr(scoring, "flops", None) is not None:
                rows, width = np.shape(ids)
                scoring.flops += forward_flops(rows, width, config)
            return forward(ids, *args, **kwargs)

        def scoring_started(args):
            scoring.flops = 0.0

        def forwarded(result, args):
            rows = len(args[0])
            counts["forward_rows"] += rows
            # plus the probing head on each pooled row
            counts["forward_flops"] += scoring.flops + 2 * rows * (config.hidden_size * head
                                                                  + head * 2)
            scoring.flops = None

        self.wrap(service, "normalizer", "preprocess.normalize")
        self.wrap(service, "preprocess", "shell.validate", after=preprocessed)
        self.wrap(service, "encode_batch", "tokenizer.encode", after=encoded)
        self.wrap(service, "score_batch", "nn.forward", after=forwarded, before=scoring_started)
        self._patch(network, "forward", counted_forward)
        if service.has_sequence_head:
            self.wrap(service, "score_sequence", "serving.sessions.sequence")
        self.wrap_async(server.backend, "score_batch", "serving.backends", before=self._batch_entry)
        self.wrap(server.sinks, "emit", "serving.delivery.emit")
        for runtime in server.shards:
            self.wrap_async(runtime, "process", "serving.shard")
            self.wrap_async(runtime, "process_batch", "serving.shard")
            if runtime.canonicalizer is not None:
                self.wrap(runtime.canonicalizer, "canonicalize", "preprocess.canonicalize",
                          after=canonicalized)
            self.wrap(runtime.cache, "lookup", "serving.cache.lookup", after=looked_up)
            self.wrap(runtime.cache, "put", "serving.cache.put")
            for name in ("observe", "compose_context", "record_sequence_score"):
                self.wrap(runtime.sessions, name, "serving.sessions.observe")
            self._install_batcher(runtime.batcher)

    def _install_batcher(self, batcher) -> None:
        """Submit-to-``score_batch`` waits, flush sizes and flush causes."""
        stamps: deque = deque()
        submit, handler, on_flush = batcher.submit, batcher.handler, batcher.on_flush
        counts, flushing = self.counts, self._flushing

        async def timed_submit(item):
            stamps.append(time.perf_counter())
            return await submit(item)

        async def timed_handler(items):
            # the consumer hands items over in queue order
            flushing[asyncio.current_task()] = [stamps.popleft() for _ in items]
            result = handler(items)
            if asyncio.iscoroutine(result) or isinstance(result, asyncio.Future):
                result = await result
            return result

        def flushed(size, reason):
            counts["flushes"] += 1
            counts["flushed_items"] += size
            counts["deadline_flushes"] += reason == "deadline"
            if on_flush is not None:
                on_flush(size, reason)

        self._patch(batcher, "submit", timed_submit)
        self._patch(batcher, "handler", timed_handler)
        self._patch(batcher, "on_flush", flushed)

    def _batch_entry(self, entered: float, args) -> None:
        stamps = self._flushing.pop(asyncio.current_task(), None)
        if not stamps:
            return
        priority = PRIORITY["serving.microbatch.wait"]
        for stamp in stamps:
            self.spans.append((stamp, entered, priority, "serving.microbatch.wait"))
            self.waits_ms.append((entered - stamp) * 1000.0)

    # -- install on the fleet wire ------------------------------------------

    def install_fleet(self, router) -> None:
        """Wrap the router's public calls and the frame codec it uses."""
        from repro.fleet import protocol
        from repro.fleet import router as router_module

        encode, read = protocol.encode_frame, router_module.read_frame
        counts, sent, rtts, span = self.counts, self._frames_sent, self.ack_rtt_ms, self._span

        def timed_encode(message):
            started = time.perf_counter()
            frame = encode(message)
            if message.get("type") == "ingest":
                span("fleet.encode", started)
                counts["frame_bytes"] += len(frame)
                counts["frame_events"] += len(message["events"])
                sent[message["batch_id"]] = time.perf_counter()
            return frame

        spans, wire = self.spans, PRIORITY["fleet.wire"]

        async def timed_read(reader):
            message = await read(reader)
            if message is not None and message.get("type") in ("ack", "nack"):
                stamp = sent.pop(message.get("batch_id"), None)
                if stamp is not None:
                    now = time.perf_counter()
                    rtts.append((now - stamp) * 1000.0)
                    # a frame in flight: sockets, decoding and the node's work
                    spans.append((stamp, now, wire, "fleet.wire"))
            return message

        self._patch(protocol, "encode_frame", timed_encode)
        self._patch(router_module, "read_frame", timed_read)
        for name in ("submit_many", "flush", "drain"):
            self.wrap_async(router, name, "fleet.router")

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of exclusive attribution per op (see module docs)."""
        boundaries = []
        for index, (start, end, _, _) in enumerate(self.spans):
            boundaries.append((start, 1, index))
            boundaries.append((end, 0, index))
        boundaries.sort()
        active: list[tuple[int, float, int]] = []
        ended = set()
        totals: dict[str, float] = defaultdict(float)
        previous = None
        for stamp, is_start, index in boundaries:
            while active and active[0][2] in ended:
                heapq.heappop(active)
            if active and previous is not None:
                totals[self.spans[active[0][2]][3]] += stamp - previous
            previous = stamp
            if is_start:
                start, _, priority, _ = self.spans[index]
                heapq.heappush(active, (-priority, -start, index))
            else:
                ended.add(index)
        return dict(totals)
